// KalmMind's central technique (Section III): interleave a *calculation*
// method and the Newton *approximation* across KF iterations, with the
// Newton seed taken from an inverse computed at an earlier KF iteration.
//
// Configuration mirrors the accelerator's registers:
//   calc_freq : calculate at every KF iteration n with n % calc_freq == 0;
//               calc_freq == 0 -> calculate only at iteration 0.
//   approx    : number of internal Newton iterations on approximation steps.
//   policy    : seed selection.
//               kLastCalculated (register value 0, eq. 5): V0 = S_j^-1 where
//                 j is the most recent *calculated* iteration.
//               kPreviousIteration (register value 1, eq. 4): V0 = S_{n-1}^-1,
//                 whatever produced it.
//
// The seed policies work because S_n = H P_n H^t + R varies slowly across
// consecutive iterations (P_n converges; for BCI data the measurement
// statistics are strongly spatio-temporally correlated), so an earlier
// inverse sits well inside the eq. (3) convergence basin.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>

#include "common/realtime.hpp"
#include "kalman/calculation_strategies.hpp"
#include "kalman/strategy.hpp"
#include "linalg/newton.hpp"

namespace kalmmind::kalman {

enum class SeedPolicy {
  kLastCalculated = 0,     // eq. (5)
  kPreviousIteration = 1,  // eq. (4)
};

struct InterleaveConfig {
  std::size_t calc_freq = 0;  // 0 => calculate only at iteration 0
  std::size_t approx = 1;     // internal Newton iterations per approx step
  SeedPolicy policy = SeedPolicy::kLastCalculated;

  // True iff KF iteration n runs the calculation path (path A).
  bool is_calculation_iteration(std::size_t n) const {
    if (calc_freq == 0) return n == 0;
    return n % calc_freq == 0;
  }
};

template <typename T>
class InterleavedStrategy final : public InverseStrategy<T> {
 public:
  InterleavedStrategy(CalcMethod calc_method, InterleaveConfig config)
      : calc_method_(calc_method), config_(config), initial_config_(config) {}

  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t kf_iteration) KALMMIND_REALTIME override {
    if (flags_.force_calculation ||
        config_.is_calculation_iteration(kf_iteration) || !flags_.seed_ready) {
      flags_.force_calculation = false;
      // Path A.  (The very first invert must calculate even if the
      // schedule says otherwise — there is no seed yet.)  A singular (or
      // NaN-poisoned) S yields a NaN inverse rather than an exception —
      // matching what the hardware elimination array would emit, and
      // letting a diverged DSE point score `inf` instead of aborting the
      // sweep.
      try {
        // kalmmind-lint: allow(RT1,RT3) path A allocates and throws by documented design: eq. (2) budgets calculation iterations as the non-realtime tier, and the first invert has no seed to approximate from
        out = calculate_inverse(calc_method_, s);
      } catch (const linalg::SingularMatrixError&) {
        out.resize_for_overwrite(s.rows(), s.cols());
        out.fill(linalg::ScalarTraits<T>::from_double(
            std::numeric_limits<double>::quiet_NaN()));
      } catch (const linalg::NotPositiveDefiniteError&) {
        out.resize_for_overwrite(s.rows(), s.cols());
        out.fill(linalg::ScalarTraits<T>::from_double(
            std::numeric_limits<double>::quiet_NaN()));
      }
      flags_.seed_ready = true;
      last_event_ = {InversePath::kCalculation, 0};
      keep_as_seed(out);  // a calculated inverse seeds either policy
      return;
    }
    // Path B: Newton from the policy-selected seed.  Under policy 0 the
    // approximation never becomes a seed.
    linalg::newton_invert_into(out, s, seed_, config_.approx, ws_);
    last_event_ = {InversePath::kApproximation, config_.approx};
    if (config_.policy == SeedPolicy::kPreviousIteration) keep_as_seed(out);
  }

  InverseEvent last_event() const override { return last_event_; }

  void reset() override {
    flags_ = {};
    config_ = initial_config_;  // undo harden_seed_policy()
    seed_ = Matrix<T>();
    last_event_ = {};
    staged_ = false;
    seed_owed_ = false;
  }

  void export_state(StrategyState<T>& out) const override {
    const Flags& flags = staged_ ? before_stage_ : flags_;
    out.seed_ready = flags.seed_ready;
    out.force_calculation = flags.force_calculation;
    out.hardened = config_.policy != initial_config_.policy;
    out.seed = flags.seed_ready ? seed_ : Matrix<T>();
    out.anchor = Matrix<T>();
  }

  void import_state(const StrategyState<T>& state) override {
    if (state.seed_ready && state.seed.empty()) {
      throw std::invalid_argument("InterleavedStrategy: seed_ready, no seed");
    }
    reset();
    if (state.hardened) config_.policy = SeedPolicy::kLastCalculated;
    flags_.force_calculation = state.force_calculation;
    flags_.seed_ready = state.seed_ready;
    if (flags_.seed_ready) seed_ = state.seed;
  }

  // Recovery hooks: the health ladder forces the next inversion onto the
  // calculation path / pins the seed to the last-calculated inverse (both
  // sticky until reset()).
  bool request_calculation() override {
    flags_.force_calculation = true;
    return true;
  }

  // The one seed buffer holds whatever the current policy reads, so
  // leaving policy 1 also forces a calculation: the next approximation
  // then starts from a calculated inverse, as policy 0 requires.
  bool harden_seed_policy() override {
    if (config_.policy != SeedPolicy::kLastCalculated) {
      config_.policy = SeedPolicy::kLastCalculated;
      flags_.force_calculation = true;
    }
    return true;
  }

  void stage() override {
    before_stage_ = flags_;
    event_before_stage_ = last_event_;
    staged_ = true;
    seed_owed_ = false;
  }

  void commit(Matrix<T>& out) override {
    if (seed_owed_) take_seed(seed_, out);
    staged_ = false;
    seed_owed_ = false;
  }

  void drop() override {
    if (!staged_) return;
    flags_ = before_stage_;
    last_event_ = event_before_stage_;
    staged_ = false;
    seed_owed_ = false;
  }

  const InterleaveConfig& config() const { return config_; }
  CalcMethod calc_method() const { return calc_method_; }

 private:
  struct Flags {
    bool seed_ready = false;
    bool force_calculation = false;
  };

  void keep_as_seed(const Matrix<T>& out) {
    if (staged_) {
      seed_owed_ = true;
    } else {
      seed_ = out;  // copy-assign: reuses the seed buffer in steady state
    }
  }

  CalcMethod calc_method_;
  InterleaveConfig config_;
  InterleaveConfig initial_config_;
  Flags flags_;
  // The inverse path B starts from: S_j^-1 of the last calculation under
  // policy 0 (eq. 5), S_{n-1}^-1 under policy 1 (eq. 4).  One buffer for
  // both, since a policy only ever reads its own seed.
  Matrix<T> seed_;
  linalg::NewtonWorkspace<T> ws_;
  InverseEvent last_event_;
  // Staged inversion (see InverseStrategy::stage): what drop() restores,
  // and whether commit() owes the seed an inverse.
  bool staged_ = false;
  bool seed_owed_ = false;
  Flags before_stage_;
  InverseEvent event_before_stage_;
};

// The LITE datapath of Table III: Newton with exactly one internal
// iteration seeded from the previous KF iteration; the very first seed is
// preloaded from main memory (here: supplied at construction, e.g. the
// exact S_0^-1 computed offline in double precision).
template <typename T>
class LiteStrategy final : public InverseStrategy<T> {
 public:
  explicit LiteStrategy(Matrix<T> preloaded_seed)
      : initial_seed_(std::move(preloaded_seed)), previous_(initial_seed_) {}

  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t /*kf_iteration*/) override {
    linalg::newton_invert_into(out, s, previous_, 1, ws_);
    if (staged_) {
      seed_owed_ = true;
    } else {
      previous_ = out;
    }
  }

  InverseEvent last_event() const override {
    return {InversePath::kApproximation, 1};
  }

  void reset() override {
    previous_ = initial_seed_;
    staged_ = false;
    seed_owed_ = false;
  }

  void export_state(StrategyState<T>& out) const override {
    out = StrategyState<T>{};
    out.seed = previous_;
  }

  void import_state(const StrategyState<T>& state) override {
    if (state.seed.empty()) {
      throw std::invalid_argument("LiteStrategy: no seed to import");
    }
    previous_ = state.seed;
    staged_ = false;
    seed_owed_ = false;
  }

  void stage() override {
    staged_ = true;
    seed_owed_ = false;
  }
  void commit(Matrix<T>& out) override {
    if (seed_owed_) take_seed(previous_, out);
    staged_ = false;
    seed_owed_ = false;
  }
  void drop() override {
    staged_ = false;
    seed_owed_ = false;
  }

 private:
  Matrix<T> initial_seed_;
  Matrix<T> previous_;
  linalg::NewtonWorkspace<T> ws_;
  bool staged_ = false;     // see InverseStrategy::stage
  bool seed_owed_ = false;  // commit() hands `out` to previous_
};

// The SSKF/Newton datapath: a constant S_const^-1 (precomputed from the
// converged innovation covariance), optionally refined by `approx` Newton
// iterations against the *current* S_n.  approx == 0 reproduces the pure
// constant-inverse behavior.
template <typename T>
class ConstantInverseStrategy final : public InverseStrategy<T> {
 public:
  ConstantInverseStrategy(Matrix<T> constant_inverse, std::size_t approx)
      : constant_inverse_(std::move(constant_inverse)), approx_(approx) {}

  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t /*kf_iteration*/) override {
    if (approx_ == 0) {
      out = constant_inverse_;
      return;
    }
    linalg::newton_invert_into(out, s, constant_inverse_, approx_, ws_);
  }

  InverseEvent last_event() const override {
    if (approx_ == 0) return {InversePath::kNone, 0};
    return {InversePath::kApproximation, approx_};
  }

  void reset() override {}

  void export_state(StrategyState<T>& out) const override {
    out = StrategyState<T>{};
    out.seed = constant_inverse_;
  }

  void import_state(const StrategyState<T>& state) override {
    if (state.seed.empty()) {
      throw std::invalid_argument("ConstantInverseStrategy: no seed to import");
    }
    constant_inverse_ = state.seed;
  }

 private:
  Matrix<T> constant_inverse_;
  std::size_t approx_;
  linalg::NewtonWorkspace<T> ws_;
};

}  // namespace kalmmind::kalman
