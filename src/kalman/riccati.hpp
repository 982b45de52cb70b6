// Discrete algebraic Riccati fixed point of the KF covariance recursion.
//
// With a constant model (F, Q, H, R) the covariance recursion converges to
// a fixed point; the Kalman gain converges with it.  The solver lives in
// its own header (below filter.hpp in the include graph) because two
// consumers need it: the SSKF strategy/filter (kalman/sskf.hpp) and the
// numerical-health recovery ladder (kalman/health.hpp), whose last rung
// falls back to the steady-state constant gain.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>

#include "kalman/calculation_strategies.hpp"
#include "kalman/model.hpp"
#include "kalman/recursion.hpp"
#include "linalg/norms.hpp"

namespace kalmmind::kalman {

// Converged quantities of the covariance recursion.
template <typename T>
struct SteadyState {
  Matrix<T> k;       // steady-state Kalman gain       (x_dim x z_dim)
  Matrix<T> s;       // steady-state innovation cov.   (z_dim x z_dim)
  Matrix<T> s_inv;   // its exact inverse
  Matrix<T> p_pred;  // steady-state predicted covariance (x_dim x x_dim)
  std::size_t iterations = 0;  // recursion steps until convergence
};

// Iterate the (data-independent) covariance recursion with an exact LU
// inverse until the gain stops moving:
//   ||K_n - K_{n-1}||_F < tol * max(1, ||K_n||_F).
// The strategy is built directly rather than through the factory, so the
// solver counts into no kalmmind.kf.* metric.
template <typename T>
SteadyState<T> solve_steady_state(const KalmanModel<T>& model,
                                  double tol = 1e-12,
                                  std::size_t max_iterations = 10000) {
  model.validate();
  GainRecursion<T> recursion(
      model, std::make_unique<CalculationStrategy<T>>(CalcMethod::kLu));
  Matrix<T> k_prev, dk;
  for (std::size_t n = 0; n < max_iterations; ++n) {
    recursion.step(model);
    const Matrix<T>& k = recursion.k();
    if (n > 0) {
      dk = k;
      dk -= k_prev;
      const double knorm = linalg::frobenius_norm(k);
      if (linalg::frobenius_norm(dk) < tol * std::max(1.0, knorm)) {
        return {k, recursion.s(), recursion.s_inv(), recursion.p_pred(),
                n + 1};
      }
    }
    k_prev = k;
  }
  throw std::runtime_error("solve_steady_state: no convergence after " +
                           std::to_string(max_iterations) + " iterations");
}

}  // namespace kalmmind::kalman
