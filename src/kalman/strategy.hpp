// Pluggable innovation-covariance inversion — the "compute K" module of the
// reorganized KF (Fig. 1 / Fig. 3b).  Each strategy receives S_n and the KF
// iteration index and returns (an approximation of) S_n^{-1}.
//
// Stateful strategies (Newton seed propagation, interleaving, LITE) keep
// their state between calls; reset() returns them to the first-iteration
// state so one object can be reused across runs.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "linalg/matrix.hpp"

namespace kalmmind::kalman {

using linalg::Matrix;

// Which of the two accelerator datapaths (Fig. 3b) an inversion used.
// The latency model charges different cycle costs per path.
enum class InversePath {
  kCalculation,    // path A: Gauss / Cholesky / QR / preloaded constant
  kApproximation,  // path B: Newton MAC array
  kNone,           // no inversion ran at all (constant-K SSKF)
};

// Telemetry for one inversion, consumed by the HLS latency model and the
// benchmarks.
struct InverseEvent {
  InversePath path = InversePath::kNone;
  std::size_t newton_iterations = 0;  // internal iterations on path B
};

// Everything a stateful strategy carries from one invert() call into the
// next, besides S and n: the seed its next approximation reads plus the
// recovery flags that change which path that inversion takes.  Because
// compute K never reads a measurement (PAPER.md pillar 1), this plus P and
// n is the whole state of a GainRecursion — export it, import it into a
// strategy built from the same spec, and the recursion continues bit for
// bit (serve/snapshot.hpp migrates sessions this way).
template <typename T>
struct StrategyState {
  // The one inverse the next approximation starts from: interleaved's
  // last-calculated or previous inverse (whichever its policy reads),
  // LITE's previous inverse, Taylor's V0 = S_0^-1, SSKF's constant
  // inverse.  Empty for stateless strategies and before the first inverse.
  Matrix<T> seed;
  Matrix<T> anchor;                // Taylor's S_0; empty for every other kind
  bool seed_ready = false;         // a seed exists (interleaved, Taylor)
  bool force_calculation = false;  // request_calculation() still pending
  bool hardened = false;           // harden_seed_policy() in effect
};

template <typename T>
class InverseStrategy {
 public:
  virtual ~InverseStrategy() = default;

  // Invert S for KF iteration `kf_iteration` (0-based), writing the result
  // into `out` (overwritten; sized by the strategy).  This is the hot-path
  // entry point: the filter passes its workspace matrix so steady-state
  // steps stay allocation-free.
  virtual void invert_into(Matrix<T>& out, const Matrix<T>& s,
                           std::size_t kf_iteration) = 0;

  // Convenience wrapper for callers that want a fresh matrix.
  Matrix<T> invert(const Matrix<T>& s, std::size_t kf_iteration) {
    Matrix<T> out;
    invert_into(out, s, kf_iteration);
    return out;
  }

  // What the last invert() call executed (for cycle accounting).
  virtual InverseEvent last_event() const = 0;

  virtual void reset() = 0;

  // --- State transfer (see StrategyState) ---------------------------------
  // Stateless strategies export the default state and import by reset().
  // import_state() replaces the whole state; its precondition is a state
  // exported by a strategy built from the same StrategySpec.
  virtual void export_state(StrategyState<T>& out) const {
    out = StrategyState<T>{};
  }
  virtual void import_state(const StrategyState<T>& /*state*/) { reset(); }

  // --- Recovery hooks (kalman/health.hpp) --------------------------------
  // Ask the strategy to run its exact calculation path (path A) on the next
  // invert_into call regardless of the interleave schedule.  Returns true
  // when the request is honored (or the strategy calculates every step
  // anyway); false from pure approximators, which makes the recovery ladder
  // escalate past this rung.
  virtual bool request_calculation() { return false; }

  // Ask the strategy to switch to its most conservative Newton seeding
  // (seed policy 0 / last-calculated, eq. 5).  Returns true when the
  // seeding changed (sticky until reset()); false when not applicable.
  virtual bool harden_seed_policy() { return false; }

  // --- Staged inversion (KalmanFilter::prepare_next) ---------------------
  // Between stage() and the matching commit() or drop(), invert_into
  // computes as usual but holds back the seed update a stateful strategy
  // would make, so the seed the next approximation reads is untouched.
  // commit(out) keeps the staged inversions: `out` is the matrix they
  // wrote, unchanged since, and dead afterwards — commit may take its
  // buffer instead of copying it.  drop() forgets them and restores the
  // recovery flags, as if they never ran.  export_state() during a stage
  // reports the state before it.  Stateless strategies need none of this.
  virtual void stage() {}
  virtual void commit(Matrix<T>& /*out*/) {}
  virtual void drop() {}
};

// The seed a staged inversion owes, handed over at commit: take `out`'s
// buffer when the seed already has its shape (an O(1) swap, no copy),
// copy it the first time.
template <typename T>
void take_seed(Matrix<T>& seed, Matrix<T>& out) {
  if (seed.same_shape(out)) {
    std::swap(seed, out);
  } else {
    seed = out;
  }
}

template <typename T>
using InverseStrategyPtr = std::unique_ptr<InverseStrategy<T>>;

}  // namespace kalmmind::kalman
