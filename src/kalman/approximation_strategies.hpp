// The literature *approximation* strategies evaluated in Table I:
//
//  - NewtonClassicStrategy: Newton-Raphson from the data-independent
//    Ben-Israel seed, a fixed number of internal iterations per KF step.
//  - TaylorStrategy (Liu et al., FPL'07): truncated Taylor/Neumann
//    expansion of S_n^-1 around a known inverse V0 = S_0^-1 computed once
//    at the first KF iteration:
//        S_n^-1 ~= sum_k (-V0 (S_n - S_0))^k V0
//    Avoids any online inversion; accuracy degrades as S_n drifts from S_0
//    but stays bounded because the expansion never feeds back on itself.
//  - IfkfStrategy (Babu et al.): the inverse-free KF's approximate inverse
//    for diagonally dominant matrices, preceded by the dimensionality
//    reduction the method requires: S is band-truncated (assuming minimal
//    cross-correlation between distant channels) and the truncated matrix
//    is inverted with the first-order dominant approximation
//    D^-1 - D^-1 E D^-1.  Deliberately mismatched to correlated neural
//    data, which is why it lands at the bottom of Table I.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/realtime.hpp"
#include "kalman/strategy.hpp"
#include "linalg/gauss.hpp"
#include "linalg/newton.hpp"
#include "linalg/ops.hpp"

namespace kalmmind::kalman {

namespace detail {
// In-place version of linalg::newton_classic_seed: seed = S^t scaled by
// 1/(||S||_1 ||S||_inf), reusing the caller's seed buffer.
template <typename T>
void classic_seed_into(Matrix<T>& seed, const Matrix<T>& s) {
  const double scale = linalg::one_norm(s) * linalg::inf_norm(s);
  if (scale == 0.0) {
    // kalmmind-lint: allow(RT3) a zero innovation covariance is a degenerate model, rejected before serving; the gate cannot fire once a first step has succeeded
    throw std::invalid_argument("newton_classic_seed: zero matrix");
  }
  linalg::transpose_into(seed, s);
  seed *= linalg::from_double<T>(1.0 / scale);
}
}  // namespace detail

template <typename T>
class NewtonClassicStrategy final : public InverseStrategy<T> {
 public:
  explicit NewtonClassicStrategy(std::size_t internal_iterations)
      : iterations_(internal_iterations) {}

  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t /*kf_iteration*/) KALMMIND_REALTIME override {
    detail::classic_seed_into(seed_, s);
    linalg::newton_invert_into(out, s, seed_, iterations_, ws_);
  }

  InverseEvent last_event() const override {
    return {InversePath::kApproximation, iterations_};
  }

  void reset() override {}

 private:
  std::size_t iterations_;
  Matrix<T> seed_;
  linalg::NewtonWorkspace<T> ws_;
};

// Truncated Taylor expansion of S^-1 around the known (S0, V0 = S0^-1):
//   S^-1 ~= (I + sum_{k=1}^{order-1} (-V0 (S - S0))^k) V0
// evaluated by Horner's rule; order=1 returns V0 unchanged.
// Scratch for taylor_expand_inverse_into, reused across KF steps.
template <typename T>
struct TaylorWorkspace {
  Matrix<T> delta;  // S - S0
  Matrix<T> m;      // -V0 (S - S0)
  Matrix<T> acc;    // Horner accumulator
  Matrix<T> tmp;    // ping-pong partner of acc
};

template <typename T>
void taylor_expand_inverse_into(Matrix<T>& out, const Matrix<T>& s,
                                const Matrix<T>& s0, const Matrix<T>& v0,
                                std::size_t order, TaylorWorkspace<T>& ws) {
  if (order <= 1) {
    out = v0;
    return;
  }
  const std::size_t n = s.rows();
  // M = -V0 * (S - S0)
  ws.delta = s;
  ws.delta -= s0;
  linalg::multiply_into(ws.m, v0, ws.delta);
  ws.m *= T(-1);
  // acc = I + M (I + M (...)); `order-1` correction terms.
  ws.acc = ws.m;
  for (std::size_t i = 0; i < n; ++i) ws.acc(i, i) += T(1);
  for (std::size_t k = 2; k < order; ++k) {
    linalg::multiply_into(ws.tmp, ws.m, ws.acc);
    std::swap(ws.acc, ws.tmp);
    for (std::size_t i = 0; i < n; ++i) ws.acc(i, i) += T(1);
  }
  linalg::multiply_into(out, ws.acc, v0);
}

template <typename T>
Matrix<T> taylor_expand_inverse(const Matrix<T>& s, const Matrix<T>& s0,
                                const Matrix<T>& v0, std::size_t order) {
  Matrix<T> out;
  TaylorWorkspace<T> ws;
  taylor_expand_inverse_into(out, s, s0, v0, order, ws);
  return out;
}

// The Taylor accelerator (Liu et al.): S_0^-1 is computed once (in hardware
// this is the first-iteration calculation; in the accelerator datapath it
// can also be preloaded from main memory) and every subsequent iteration
// expands around it.
template <typename T>
class TaylorStrategy final : public InverseStrategy<T> {
 public:
  explicit TaylorStrategy(std::size_t order = 2) : order_(order) {}

  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t /*kf_iteration*/) KALMMIND_REALTIME override {
    if (!anchored_) {
      s0_ = s;
      // kalmmind-lint: allow(RT1,RT3) anchor branch runs exactly once, on the first iteration after reset — the calculation tier by design, before steady-state serving begins
      v0_ = linalg::invert_gauss(s);
      anchored_ = true;
      last_event_ = {InversePath::kCalculation, 0};
      out = v0_;
      return;
    }
    last_event_ = {InversePath::kApproximation, order_};
    taylor_expand_inverse_into(out, s, s0_, v0_, order_, ws_);
  }

  InverseEvent last_event() const override { return last_event_; }

  void reset() override {
    anchored_ = false;
    s0_ = Matrix<T>();
    v0_ = Matrix<T>();
    last_event_ = {};
    staged_ = false;
  }

  void export_state(StrategyState<T>& out) const override {
    out = StrategyState<T>{};
    out.seed_ready = staged_ ? anchored_before_stage_ : anchored_;
    if (!out.seed_ready) return;
    out.seed = v0_;
    out.anchor = s0_;
  }

  void import_state(const StrategyState<T>& state) override {
    if (state.seed_ready && (state.seed.empty() || state.anchor.empty())) {
      throw std::invalid_argument("TaylorStrategy: seed_ready, no seed/anchor");
    }
    reset();
    if (!state.seed_ready) return;
    anchored_ = true;
    v0_ = state.seed;
    s0_ = state.anchor;
  }

  // Only the anchoring inversion changes state; a drop() un-anchors it.
  void stage() override {
    staged_ = true;
    anchored_before_stage_ = anchored_;
    event_before_stage_ = last_event_;
  }
  void commit(Matrix<T>& /*out*/) override { staged_ = false; }
  void drop() override {
    if (!staged_) return;
    anchored_ = anchored_before_stage_;
    last_event_ = event_before_stage_;
    staged_ = false;
  }

 private:
  std::size_t order_;
  bool anchored_ = false;
  Matrix<T> s0_;
  Matrix<T> v0_;
  TaylorWorkspace<T> ws_;
  InverseEvent last_event_;
  bool staged_ = false;  // see InverseStrategy::stage
  bool anchored_before_stage_ = false;
  InverseEvent event_before_stage_;
};

// The IFKF assumes minimal cross-correlation between measurements: the
// observation-noise covariance is reduced to its diagonal, so the assumed
// innovation covariance is  S~ = S - R + diag(R)  (still symmetric
// positive definite, but blind to every cross-channel correlation).  S~ is
// then inverted with the division-free iteration
//   X_{k+1} = X_k (2I - S~ X_k)
// from the Jacobi seed X_0 = diag(S~)^-1 — exact for the diagonally
// dominant matrices the method targets.  On correlated neural data the
// model mismatch (not the iteration) produces the Table I-bottom accuracy.
template <typename T>
class IfkfStrategy final : public InverseStrategy<T> {
 public:
  // `r` is the true observation-noise covariance the method diagonalizes.
  // Default-constructed, the strategy assumes S itself came from an
  // uncorrelated model and only drops S's own off-diagonal noise part —
  // callers decoding real models should pass R.
  IfkfStrategy() = default;
  explicit IfkfStrategy(Matrix<T> r, std::size_t iterations = 12)
      : r_(std::move(r)), iterations_(iterations) {}

  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t /*kf_iteration*/) KALMMIND_REALTIME override {
    const std::size_t n = s.rows();
    // S~ = S - R + diag(R): keep the (low-rank) signal structure, assume
    // independent measurement noise.
    assumed_ = s;
    if (!r_.empty()) {
      if (!r_.same_shape(s)) {
        // kalmmind-lint: allow(RT3) shape-mismatch is a configuration bug caught on the first step, not a runtime condition
        throw std::invalid_argument("IfkfStrategy: R shape mismatch");
      }
      assumed_ -= r_;
      for (std::size_t i = 0; i < n; ++i) assumed_(i, i) += r_(i, i);
    }
    // Jacobi-seeded iteration only converges for truly dominant matrices;
    // the Ben-Israel norm scaling keeps the seed admissible when the
    // signal part of S~ is not small (divergence here would be a numeric
    // artifact — the method's real error is the model mismatch above).
    detail::classic_seed_into(seed_, assumed_);
    linalg::newton_invert_into(out, assumed_, seed_, iterations_, ws_);
  }

  InverseEvent last_event() const override {
    return {InversePath::kApproximation, iterations_};
  }

  void reset() override {}

 private:
  Matrix<T> r_;
  std::size_t iterations_ = 12;
  Matrix<T> assumed_;
  Matrix<T> seed_;
  linalg::NewtonWorkspace<T> ws_;
};

}  // namespace kalmmind::kalman
