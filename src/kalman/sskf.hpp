// Steady-State Kalman Filter (Malik et al., TNSRE 2010).
//
// With a constant model (F, Q, H, R) the covariance recursion converges to
// a fixed point of the discrete algebraic Riccati equation; the Kalman gain
// converges with it.  The SSKF precomputes that steady-state gain offline
// and runs the online filter with a constant K — eliminating `compute K`
// (and the matrix inverse) entirely, which is why the SSKF accelerator is
// the energy-efficiency winner (and accuracy loser) of Table III / Fig. 6.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/realtime.hpp"
#include "kalman/filter.hpp"
#include "kalman/model.hpp"
#include "kalman/recursion.hpp"
#include "kalman/riccati.hpp"
#include "linalg/ops.hpp"

namespace kalmmind::kalman {

// SteadyState<T> and solve_steady_state() live in kalman/riccati.hpp (also
// consumed by the health-recovery ladder); this header re-exports them via
// the include above and adds the online constant-gain filter.

// Online SSKF: constant gain, no covariance update, no inversion.
template <typename T>
class ConstantGainFilter {
 public:
  ConstantGainFilter(KalmanModel<T> model, Matrix<T> gain)
      : model_(std::move(model)), k_(std::move(gain)) {
    model_.validate();
    if (k_.rows() != model_.x_dim() || k_.cols() != model_.z_dim()) {
      throw std::invalid_argument("ConstantGainFilter: bad gain shape");
    }
    reset();
  }

  void reset() { x_ = model_.x0; }

  // Member scratch keeps the constant-gain step allocation-free too
  // (tests/kalman/workspace_test.cpp covers it alongside KalmanFilter).
  const Vector<T>& step(const Vector<T>& z) KALMMIND_REALTIME {
    if (z.size() != model_.z_dim()) {
      // kalmmind-lint: allow(RT3) shape-mismatch is a caller bug; it aborts before any state mutates
      throw std::invalid_argument("ConstantGainFilter::step: bad z size");
    }
    linalg::multiply_into(x_pred_, model_.f, x_);
    correction_.apply(x_, x_pred_, model_.h, k_, z);
    return x_;
  }

  FilterOutput<T> run(const std::vector<Vector<T>>& measurements) {
    reset();
    FilterOutput<T> out;
    out.states.reserve(measurements.size());
    out.events.reserve(measurements.size());
    for (const auto& z : measurements) {
      out.states.push_back(step(z));
      out.events.push_back({InversePath::kNone, 0});
    }
    return out;
  }

  const Vector<T>& state() const { return x_; }
  const Matrix<T>& gain() const { return k_; }
  const KalmanModel<T>& model() const { return model_; }

 private:
  KalmanModel<T> model_;
  Matrix<T> k_;
  Vector<T> x_;
  Vector<T> x_pred_;
  StateCorrection<T> correction_;
};

}  // namespace kalmmind::kalman
