// The complete, typed identity of one Kalman filter deployment: trained
// model + inverse-strategy spec (and its matrix inputs) + filter options.
//
// This is the unit the serve layer reasons about.  Two sessions whose
// FilterConfigs compare equal run the same decoder: because the
// reorganized filter isolates `compute K` from the measurement path
// (PAPER.md pillar 1), equal configs walk bit-identical gain/covariance
// trajectories — which is what makes the GainScheduleCache
// (kalman/gain_schedule.hpp) and batched serving sound.  fingerprint() is
// the cache key; operator== is the collision check.
#pragma once

#include <cstdint>

#include "common/fingerprint.hpp"
#include "common/status.hpp"
#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "kalman/model.hpp"
#include "kalman/strategy_spec.hpp"

namespace kalmmind::kalman {

template <typename T>
struct FilterConfig {
  KalmanModel<T> model;
  StrategySpec strategy;
  StrategyMatrices<T> strategy_data;  // preloaded S^-1 / true R, if needed
  FilterOptions options;

  // Non-throwing validation: covers the model shapes, the options, the
  // spec, and the spec/matrices pairing (lite/sskf need a preloaded
  // inverse of the innovation size; a given R must be z_dim x z_dim).
  [[nodiscard]] Status check() const noexcept {
    if (Status s = model.check(); !s.ok()) return s;
    if (Status s = options.check(); !s.ok()) return s;
    if (Status s = strategy.check(); !s.ok()) return s;
    const bool needs_preload = strategy.kind == StrategyKind::kLite ||
                               strategy.kind == StrategyKind::kSskf;
    if (needs_preload && strategy_data.preloaded_inverse.empty()) {
      return Status::Invalid(
          "FilterConfig: lite/sskf need StrategyMatrices::preloaded_inverse");
    }
    // model.check() passed, so R is the z_dim x z_dim reference shape.
    if (!strategy_data.preloaded_inverse.empty() &&
        !strategy_data.preloaded_inverse.same_shape(model.r)) {
      return Status::Invalid(
          "FilterConfig: preloaded_inverse must be z_dim x z_dim");
    }
    if (!strategy_data.r.empty() && !strategy_data.r.same_shape(model.r)) {
      return Status::Invalid("FilterConfig: strategy R must be z_dim x z_dim");
    }
    return Status::Ok();
  }

  bool operator==(const FilterConfig&) const = default;

  // Stable 64-bit content hash over every field that shapes the gain
  // trajectory.  Collisions are possible: verify with operator== on hit.
  std::uint64_t fingerprint() const {
    FingerprintHasher hash;
    hash.mix(model.fingerprint());
    hash.mix(strategy.fingerprint());
    hash.mix(strategy_data.fingerprint());
    hash.mix(options.fingerprint());
    return hash.value();
  }

  // Validated construction.  Precondition: check().ok() — otherwise the
  // underlying constructors throw std::invalid_argument.
  InverseStrategyPtr<T> make_strategy() const {
    return make_inverse_strategy<T>(strategy, strategy_data);
  }
  KalmanFilter<T> make_filter() const {
    return KalmanFilter<T>(model, make_strategy(), options);
  }
};

using FilterConfigD = FilterConfig<double>;

}  // namespace kalmmind::kalman
