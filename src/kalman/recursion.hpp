// The two halves of one KF iteration (Fig. 3b), each with one owner.
//
// GainRecursion is the measurement-independent half (PAPER.md pillar 1):
//
//   predict:  P' = F P F^t + Q
//   gain:     S  = H P' H^t + R ,  Sinv = strategy(S, n) ,  K = P' H^t Sinv
//   update:   P  = (I - K H) P'     (or the Joseph form)
//
// It owns P, the inverse strategy, every temporary of the recursion and the
// iteration index n.  KalmanFilter runs it phase by phase around its spans
// and health checks; GainSchedule, solve_steady_state and the accelerator's
// LITE seed drive it directly.  All of them therefore run the same kernels
// in the same order, which is what makes a schedule entry equal a solo
// filter's K and P bit for bit.  The next P is written beside the current
// one and only replaces it at commit(), so KalmanFilter can run the phases
// ahead of the measurement (stage() first) and still drop them.
//
// StateCorrection is the measurement half: x = x' + K (z - H x').
//
// Buffers are written with resize_for_overwrite by kernels that overwrite
// every element and are sized once up front, so steady-state iterations
// perform zero heap allocations (tests/kalman/workspace_test.cpp proves it
// with a global operator-new counter) — see docs/performance.md.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <utility>

#include "kalman/model.hpp"
#include "kalman/strategy.hpp"
#include "linalg/ops.hpp"

namespace kalmmind::kalman {

using linalg::Vector;

// The whole state of a GainRecursion between two iterations: the strategy
// state plus P and n.  Temporaries are not part of it — every phase
// overwrites them before reading.
template <typename T>
struct RecursionState {
  std::size_t n = 0;  // iteration the next invert() runs at
  Matrix<T> p;        // posterior covariance P (x x x)
  StrategyState<T> strategy;
};

template <typename T>
class GainRecursion {
 public:
  // Starts at P = P0, iteration 0.  Buffers are sized in phase order
  // (heap layout matters: another order cost ~6% multi-session throughput
  // at motor dims on a 4-vCPU VM); Joseph-only buffers stay empty unless
  // requested.
  GainRecursion(const KalmanModel<T>& model, InverseStrategyPtr<T> strategy,
                bool joseph_update = false)
      : strategy_(std::move(strategy)), joseph_(joseph_update) {
    if (!strategy_) {
      throw std::invalid_argument("GainRecursion: null inverse strategy");
    }
    const std::size_t x = model.x_dim();
    const std::size_t z = model.z_dim();
    fp_.resize_for_overwrite(x, x);
    p_pred_.resize_for_overwrite(x, x);
    hp_.resize_for_overwrite(z, x);
    s_.resize_for_overwrite(z, z);
    s_inv_.resize_for_overwrite(z, z);
    pht_.resize_for_overwrite(x, z);
    k_.resize_for_overwrite(x, z);
    kh_.resize_for_overwrite(x, x);
    i_minus_kh_.resize_for_overwrite(x, x);
    p_next_.resize_for_overwrite(x, x);
    if (joseph_) {
      joseph_tmp_.resize_for_overwrite(x, x);
      kr_.resize_for_overwrite(x, z);
      krk_.resize_for_overwrite(x, x);
    }
    reset(model);
  }

  void reset(const KalmanModel<T>& model) {
    p_ = model.p0;
    n_ = 0;
    strategy_->reset();
  }

  // P' = F P F^t + Q through the symmetric sandwich kernel (upper triangle
  // + mirror): P is symmetric up to rounding, so the mirrored product
  // matches the full one within rounding and keeps P' EXACTLY symmetric,
  // which compute_k() relies on.
  void predict(const KalmanModel<T>& m) {
    linalg::symmetric_sandwich_into(p_pred_, m.f, p_, fp_);
    p_pred_ += m.q;
  }

  // S = H P' H^t + R (same kernel; the H P' panel is kept for compute_k).
  void compute_s(const KalmanModel<T>& m) {
    linalg::symmetric_sandwich_into(s_, m.h, p_pred_, hp_);
    s_ += m.r;
  }

  // S^-1 through the strategy at iteration n; returns the path it took.
  InverseEvent invert() {
    strategy_->invert_into(s_inv_, s_, n_);
    return strategy_->last_event();
  }

  // K = P' H^t S^-1.  P' H^t = (H P')^t because P' is exactly symmetric,
  // so transposing the H P' panel is bit-identical to the dense product
  // and saves a GEMM.
  void compute_k() {
    linalg::transpose_into(pht_, hp_);
    linalg::multiply_into(k_, pht_, s_inv_);
  }

  // The next P = (I - K H) P', or the Joseph form
  //   P = (I - K H) P' (I - K H)^t + K R K^t
  // which keeps P positive semidefinite for any gain.  P itself changes at
  // commit().
  void update_covariance(const KalmanModel<T>& m) {
    linalg::multiply_into(kh_, k_, m.h);
    linalg::identity_minus_into(i_minus_kh_, kh_);
    if (joseph_) {
      linalg::multiply_into(joseph_tmp_, i_minus_kh_, p_pred_);
      linalg::multiply_bt_into(p_next_, joseph_tmp_, i_minus_kh_);
      linalg::multiply_into(kr_, k_, m.r);
      linalg::multiply_bt_into(krk_, kr_, k_);
      p_next_ += krk_;
    } else {
      linalg::multiply_into(p_next_, i_minus_kh_, p_pred_);
    }
  }

  // Staged phases (KalmanFilter::prepare_next): after stage(), the phases
  // above leave P and the strategy's seed as they were until commit()
  // makes the iteration's P and inverse current, or drop() forgets them.
  // Both are O(1): buffers are swapped, never copied.  After a staged
  // commit() S^-1 is dead (the strategy may have taken its buffer).
  void stage() { strategy_->stage(); }
  void commit() {
    std::swap(p_, p_next_);
    strategy_->commit(s_inv_);
  }
  void drop() { strategy_->drop(); }

  // The next invert() runs at iteration n + 1.
  void advance() { ++n_; }

  // One whole iteration; returns the inversion path it took.
  InverseEvent step(const KalmanModel<T>& m) {
    predict(m);
    compute_s(m);
    const InverseEvent event = invert();
    compute_k();
    update_covariance(m);
    commit();
    advance();
    return event;
  }

  // State transfer: a recursion that imports another's exported state
  // (same model, options and StrategySpec) continues it bit for bit.
  void export_state(RecursionState<T>& out) const {
    out.n = n_;
    out.p = p_;
    strategy_->export_state(out.strategy);
  }

  // Throws std::invalid_argument when P, the seed or the anchor does not
  // fit this recursion's dimensions (seed/anchor may be empty), or the
  // strategy lacks a seed its flags say it has; the recursion is unchanged
  // then.
  void import_state(const RecursionState<T>& state) {
    const std::size_t z = s_.rows();
    auto fits_z = [z](const Matrix<T>& m) {
      return m.empty() || (m.rows() == z && m.cols() == z);
    };
    if (!state.p.same_shape(p_) || !fits_z(state.strategy.seed) ||
        !fits_z(state.strategy.anchor)) {
      throw std::invalid_argument(
          "GainRecursion::import_state: shape mismatch");
    }
    strategy_->import_state(state.strategy);
    p_ = state.p;
    n_ = state.n;
  }

  // Posterior covariance P of the last committed iteration (mutable:
  // predict-only steps and the health monitor overwrite it).
  Matrix<T>& p() { return p_; }
  const Matrix<T>& p() const { return p_; }
  const Matrix<T>& p_pred() const { return p_pred_; }
  const Matrix<T>& s() const { return s_; }
  const Matrix<T>& s_inv() const { return s_inv_; }
  const Matrix<T>& k() const { return k_; }
  std::size_t iteration() const { return n_; }
  InverseStrategy<T>& strategy() { return *strategy_; }

  // Heap bytes of the recursion temporaries (capacity, not size — what the
  // allocator actually handed out); P and the strategy are not counted.
  std::size_t bytes() const {
    std::size_t elements = 0;
    for (const Matrix<T>* m :
         {&fp_, &p_pred_, &hp_, &s_, &s_inv_, &pht_, &k_, &kh_, &i_minus_kh_,
          &p_next_, &joseph_tmp_, &kr_, &krk_}) {
      elements += m->capacity();
    }
    return elements * sizeof(T);
  }

 private:
  InverseStrategyPtr<T> strategy_;
  bool joseph_;
  Matrix<T> p_;          // posterior covariance P
  std::size_t n_ = 0;    // iteration index handed to the strategy
  Matrix<T> fp_;         // F P panel (x x x)
  Matrix<T> p_pred_;     // P' (x x x)
  Matrix<T> hp_;         // H P' panel (z x x)
  Matrix<T> s_;          // S (z x z)
  Matrix<T> s_inv_;      // strategy output (z x z)
  Matrix<T> pht_;        // P' H^t = (H P')^t (x x z)
  Matrix<T> k_;          // Kalman gain (x x z)
  Matrix<T> kh_;         // K H (x x x)
  Matrix<T> i_minus_kh_; // I - K H (x x x)
  Matrix<T> p_next_;     // the next P, current from commit() (x x x)
  Matrix<T> joseph_tmp_; // (I - K H) P' (Joseph form)
  Matrix<T> kr_;         // K R (x x z, Joseph form)
  Matrix<T> krk_;        // K R K^t (x x x, Joseph form)
};

// x = x' + K (z - H x'), where the caller already predicted x' = F x.
// `gate` sees the innovation z - H x' before it is applied (the health
// monitor zeroes outlier channels there).
template <typename T>
class StateCorrection {
 public:
  void reserve(std::size_t x_dim, std::size_t z_dim) {
    hx_.resize_for_overwrite(z_dim);
    innovation_.resize_for_overwrite(z_dim);
    correction_.resize_for_overwrite(x_dim);
  }

  template <typename Gate>
  void apply(Vector<T>& x, const Vector<T>& x_pred, const Matrix<T>& h,
             const Matrix<T>& k, const Vector<T>& z, Gate&& gate) {
    linalg::multiply_into(hx_, h, x_pred);
    innovation_ = z;
    innovation_ -= hx_;
    gate(innovation_);
    linalg::multiply_into(correction_, k, innovation_);
    x = x_pred;
    x += correction_;
  }

  void apply(Vector<T>& x, const Vector<T>& x_pred, const Matrix<T>& h,
             const Matrix<T>& k, const Vector<T>& z) {
    apply(x, x_pred, h, k, z, [](Vector<T>&) {});
  }

  std::size_t bytes() const {
    return (hx_.capacity() + innovation_.capacity() + correction_.capacity()) *
           sizeof(T);
  }

 private:
  Vector<T> hx_;          // H x' (z)
  Vector<T> innovation_;  // z - H x' (z)
  Vector<T> correction_;  // K * innovation (x)
};

}  // namespace kalmmind::kalman
