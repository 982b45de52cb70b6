// Analysis utilities for the seed-policy convergence story (Section III).
//
// With a constant model, the covariance recursion — and therefore the
// innovation covariance S_n — is independent of the measurements.  These
// helpers materialize the S_n sequence and quantify how good an earlier
// inverse is as a Newton seed for a later iteration: the eq. (3) residual
// ||I - S_n * S_j^-1|| and the internal iterations needed to reach a
// target accuracy from that seed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

#include "kalman/calculation_strategies.hpp"
#include "kalman/model.hpp"
#include "kalman/recursion.hpp"
#include "linalg/lu.hpp"
#include "linalg/newton.hpp"
#include "linalg/norms.hpp"
#include "linalg/ops.hpp"

namespace kalmmind::kalman {

// S_0 .. S_{steps-1} of the (data-independent) covariance recursion, on
// the filter's own GainRecursion with an exact LU inverse.
template <typename T>
std::vector<Matrix<T>> innovation_covariance_sequence(
    const KalmanModel<T>& model, std::size_t steps) {
  model.validate();
  GainRecursion<T> recursion(
      model, std::make_unique<CalculationStrategy<T>>(CalcMethod::kLu));
  std::vector<Matrix<T>> out;
  out.reserve(steps);
  for (std::size_t n = 0; n < steps; ++n) {
    recursion.step(model);
    out.push_back(recursion.s());
  }
  return out;
}

// Per-iteration seed quality of the eq. (4) policy (seed = exact inverse
// of the previous iteration's S).
struct SeedQuality {
  std::size_t kf_iteration = 0;
  // Spectral-norm residual ||I - S_n V0||_2; < 1 means eq. (3) holds.
  double residual = 0.0;
  bool admissible = false;
  // Newton iterations to push the Frobenius residual below `tol`.
  std::size_t iterations_to_tolerance = 0;
};

// Evaluate how well S_{n-1}^-1 seeds iteration n, for n = 1..steps-1.
// This is the quantitative version of the paper's claim that neural-data
// temporal correlation makes the previous inverse an excellent seed.
template <typename T>
std::vector<SeedQuality> previous_iteration_seed_quality(
    const KalmanModel<T>& model, std::size_t steps, double tol = 1e-8) {
  auto seq = innovation_covariance_sequence(model, steps);
  std::vector<SeedQuality> out;
  for (std::size_t n = 1; n < seq.size(); ++n) {
    Matrix<T> seed = linalg::invert_lu(seq[n - 1]);
    SeedQuality q;
    q.kf_iteration = n;
    Matrix<T> sv;
    linalg::multiply_into(sv, seq[n], seed);
    q.residual = linalg::two_norm_estimate(linalg::identity_minus(sv));
    q.admissible = q.residual < 1.0;
    q.iterations_to_tolerance =
        linalg::newton_iterations_to_converge(seq[n], seed, tol);
    out.push_back(q);
  }
  return out;
}

// Relative drift ||S_n - S_{n-1}||_F / ||S_n||_F — how fast the inversion
// target moves between KF iterations.
template <typename T>
std::vector<double> innovation_covariance_drift(const KalmanModel<T>& model,
                                                std::size_t steps) {
  auto seq = innovation_covariance_sequence(model, steps);
  std::vector<double> out;
  for (std::size_t n = 1; n < seq.size(); ++n) {
    Matrix<T> d = seq[n];
    d -= seq[n - 1];
    out.push_back(linalg::frobenius_norm(d) /
                  std::max(linalg::frobenius_norm(seq[n]), 1e-300));
  }
  return out;
}

}  // namespace kalmmind::kalman
