// Factory for InverseStrategy implementations, keyed by StrategySpec
// (kalman/strategy_spec.hpp), the one identity of a strategy choice.
// Call sites (the CLI, the accelerator datapath dispatch, the decode
// server's session configs) describe the strategy they want as a spec, or
// its StrategySpec::format() text, and build it here.
//
//   text form (kind defaults)     strategy                        matrices
//   ----------------------------  ------------------------------  ----------
//   gauss | lu | cholesky | qr    CalculationStrategy(method)     —
//   newton(m=2)                   NewtonClassicStrategy           —
//   taylor(order=2)               TaylorStrategy                  —
//   ifkf(iters=12)                IfkfStrategy                    r (opt.)
//   interleaved(calc=gauss,       InterleavedStrategy             —
//     calc_freq=0,approx=1,
//     policy=0)
//   lite                          LiteStrategy                    preloaded
//   sskf(approx=1)                ConstantInverseStrategy         preloaded
//
// "preloaded" is StrategyMatrices::preloaded_inverse (LITE's first Newton
// seed, SSKF's constant S^-1); "r" is the true observation noise IFKF
// diagonalizes.
#pragma once

#include <memory>
#include <string>

#include "kalman/approximation_strategies.hpp"
#include "kalman/calculation_strategies.hpp"
#include "kalman/interleaved.hpp"
#include "kalman/strategy.hpp"
#include "kalman/strategy_spec.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::kalman {

namespace detail {

// Transparent decorator counting invert() calls per factory name, so the
// registry reports how often each named strategy actually ran
// (kalmmind.kf.strategy_invert_total.<name>).  Forwards everything else
// unchanged.
template <typename T>
class CountedStrategy final : public InverseStrategy<T> {
 public:
  CountedStrategy(InverseStrategyPtr<T> inner, telemetry::Counter& counter)
      : inner_(std::move(inner)), counter_(counter) {}

  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t kf_iteration) override {
    counter_.add();
    inner_->invert_into(out, s, kf_iteration);
  }
  InverseEvent last_event() const override { return inner_->last_event(); }
  void reset() override { inner_->reset(); }
  bool request_calculation() override { return inner_->request_calculation(); }
  bool harden_seed_policy() override { return inner_->harden_seed_policy(); }
  void export_state(StrategyState<T>& out) const override {
    inner_->export_state(out);
  }
  void import_state(const StrategyState<T>& state) override {
    inner_->import_state(state);
  }
  void stage() override { inner_->stage(); }
  void commit(Matrix<T>& out) override { inner_->commit(out); }
  void drop() override { inner_->drop(); }

 private:
  InverseStrategyPtr<T> inner_;
  telemetry::Counter& counter_;
};

template <typename T>
InverseStrategyPtr<T> make_inverse_strategy_impl(
    const StrategySpec& spec, const StrategyMatrices<T>& matrices) {
  switch (spec.kind) {
    case StrategyKind::kGauss:
      return std::make_unique<CalculationStrategy<T>>(CalcMethod::kGauss);
    case StrategyKind::kLu:
      return std::make_unique<CalculationStrategy<T>>(CalcMethod::kLu);
    case StrategyKind::kCholesky:
      return std::make_unique<CalculationStrategy<T>>(CalcMethod::kCholesky);
    case StrategyKind::kQr:
      return std::make_unique<CalculationStrategy<T>>(CalcMethod::kQr);
    case StrategyKind::kNewton:
      return std::make_unique<NewtonClassicStrategy<T>>(
          spec.newton_iterations);
    case StrategyKind::kTaylor:
      return std::make_unique<TaylorStrategy<T>>(spec.taylor_order);
    case StrategyKind::kIfkf:
      if (matrices.r.empty()) return std::make_unique<IfkfStrategy<T>>();
      return std::make_unique<IfkfStrategy<T>>(matrices.r,
                                               spec.ifkf_iterations);
    case StrategyKind::kInterleaved:
      return std::make_unique<InterleavedStrategy<T>>(spec.calc_method,
                                                      spec.interleave());
    case StrategyKind::kLite:
      if (matrices.preloaded_inverse.empty()) {
        throw std::invalid_argument(
            "make_inverse_strategy: 'lite' requires StrategyMatrices::"
            "preloaded_inverse (the first Newton seed)");
      }
      return std::make_unique<LiteStrategy<T>>(matrices.preloaded_inverse);
    case StrategyKind::kSskf:
      if (matrices.preloaded_inverse.empty()) {
        throw std::invalid_argument(
            "make_inverse_strategy: 'sskf' requires StrategyMatrices::"
            "preloaded_inverse (the constant S^-1)");
      }
      return std::make_unique<ConstantInverseStrategy<T>>(
          matrices.preloaded_inverse, spec.approx);
  }
  throw std::invalid_argument("make_inverse_strategy: invalid StrategyKind");
}

}  // namespace detail

// Build a strategy from its typed spec.  Throws std::invalid_argument when
// a kind's required matrices are missing (lite/sskf without a preloaded
// inverse).  The returned strategy counts its invert() calls into the
// metrics registry under the kind name (a no-op while telemetry is
// disabled or compiled out).
template <typename T>
InverseStrategyPtr<T> make_inverse_strategy(
    const StrategySpec& spec, const StrategyMatrices<T>& matrices = {}) {
  InverseStrategyPtr<T> built =
      detail::make_inverse_strategy_impl<T>(spec, matrices);
  if constexpr (telemetry::kCompiledIn) {
    telemetry::Counter& counter = telemetry::MetricsRegistry::global().counter(
        std::string("kalmmind.kf.strategy_invert_total.") +
        to_string(spec.kind));
    return std::make_unique<detail::CountedStrategy<T>>(std::move(built),
                                                        counter);
  } else {
    return built;
  }
}

}  // namespace kalmmind::kalman
