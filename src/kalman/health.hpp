// Numerical health monitoring + escalating recovery for the KF hot path.
//
// The interleaved datapath trades exactness for energy: a Newton seed
// outside its eq. (3) convergence basin silently corrupts every downstream
// gain, and electrode dropout / saturated channels / NaN measurements feed
// garbage straight into the innovation.  The NumericalHealthMonitor makes
// each KalmanFilter::step *detect* those conditions within the step that
// produced them, and the recovery ladder reacts with the cheapest action
// that can restore health, escalating while faults persist:
//
//   rung 1  force a calculation-path inversion (overrides calc_freq)
//   rung 2  pin the Newton seed to policy 0 (last-calculated) + force calc
//   rung 3  covariance reset: P <- P0, x <- last finite estimate, strategy
//           reset (re-symmetrization happens opportunistically earlier)
//   rung 4  SSKF fallback: steady-state constant gain, no inversion at all
//           (sticky until the filter is reset)
//
// Detection thresholds and ladder tuning are documented in
// docs/robustness.md.  Every action increments
// kalmmind.kf.recoveries_total.<action>.
//
// All checks on the clean path are O(z) + O(x^2) — the expensive Newton
// residual ||I - S*V|| is never formed; approximation steps get a probe
// estimate ||u - S(V u)|| / ||u|| from two matrix-vector products.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <type_traits>

#include "common/status.hpp"
#include "kalman/model.hpp"
#include "kalman/riccati.hpp"
#include "kalman/strategy.hpp"
#include "linalg/matrix.hpp"
#include "linalg/ops.hpp"
#include "linalg/scalar.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::kalman {

// Bitmask of conditions a step can trip (HealthStats::last_faults).
enum class HealthFault : unsigned {
  kMeasurementNonFinite = 1u << 0,  // z contains NaN/Inf
  kMeasurementOutlier = 1u << 1,    // innovation gate tripped on a channel
  kStateNonFinite = 1u << 2,
  kStateExploded = 1u << 3,  // |x_i| beyond max_state_abs
  kCovarianceNonFinite = 1u << 4,
  kCovarianceNotPd = 1u << 5,       // negative diagonal entry
  kCovarianceAsymmetric = 1u << 6,  // symmetry loss beyond tolerance
  kResidualGrowth = 1u << 7,        // Newton probe residual too large
};

// What the ladder did about it.  Order matters: the enum value is the
// telemetry/stats index and (from kForceCalculation up) the ladder rung.
enum class RecoveryAction {
  kNone = 0,
  kSkipMeasurement,    // non-finite z: predict-only step
  kGateChannels,       // zeroed gated innovation channels
  kForceCalculation,   // rung 1
  kReseedPolicy0,      // rung 2
  kCovarianceReset,    // rung 3
  kSskfFallback,       // rung 4
};
inline constexpr std::size_t kRecoveryActionCount = 7;

inline const char* to_string(HealthFault f) {
  switch (f) {
    case HealthFault::kMeasurementNonFinite: return "measurement_non_finite";
    case HealthFault::kMeasurementOutlier: return "measurement_outlier";
    case HealthFault::kStateNonFinite: return "state_non_finite";
    case HealthFault::kStateExploded: return "state_exploded";
    case HealthFault::kCovarianceNonFinite: return "covariance_non_finite";
    case HealthFault::kCovarianceNotPd: return "covariance_not_pd";
    case HealthFault::kCovarianceAsymmetric: return "covariance_asymmetric";
    case HealthFault::kResidualGrowth: return "residual_growth";
  }
  return "?";
}

inline const char* to_string(RecoveryAction a) {
  switch (a) {
    case RecoveryAction::kNone: return "none";
    case RecoveryAction::kSkipMeasurement: return "skip_measurement";
    case RecoveryAction::kGateChannels: return "gate_channels";
    case RecoveryAction::kForceCalculation: return "force_calculation";
    case RecoveryAction::kReseedPolicy0: return "reseed_policy0";
    case RecoveryAction::kCovarianceReset: return "covariance_reset";
    case RecoveryAction::kSskfFallback: return "sskf_fallback";
  }
  return "?";
}

struct HealthConfig {
  // Off by default: divergence of aggressive configs is a *measured result*
  // of the paper's evaluation (Fig. 4 grids score diverged cells as inf),
  // so recovery must be opted into.  The serve layer opts in per session.
  bool enabled = false;

  // Detection thresholds.
  double max_state_abs = 1e9;            // |x_i| beyond this = divergence
  double covariance_symmetry_tol = 1e-6;  // relative asymmetry bound
  double newton_residual_limit = 1.0;     // probe ||u - S(V u)|| / ||u||
  // Per-channel innovation gate: |y_i| > sigma * sqrt(S_ii) zeroes the
  // channel for this step (dropout / saturation containment).  0 disables.
  double innovation_gate_sigma = 0.0;

  // Ladder tuning.
  std::size_t deescalate_after = 8;  // consecutive healthy steps to rung 0

  [[nodiscard]] Status check() const noexcept {
    if (!enabled) return Status::Ok();
    if (!(max_state_abs > 0.0)) {
      return Status::Invalid("HealthConfig: max_state_abs must be > 0");
    }
    if (covariance_symmetry_tol < 0.0) {
      return Status::Invalid(
          "HealthConfig: covariance_symmetry_tol must be >= 0");
    }
    if (!(newton_residual_limit > 0.0)) {
      return Status::Invalid(
          "HealthConfig: newton_residual_limit must be > 0");
    }
    if (innovation_gate_sigma < 0.0) {
      return Status::Invalid(
          "HealthConfig: innovation_gate_sigma must be >= 0");
    }
    if (deescalate_after == 0) {
      return Status::Invalid("HealthConfig: deescalate_after must be >= 1");
    }
    return Status::Ok();
  }

  void validate() const {
    if (Status s = check(); !s.ok()) {
      throw std::invalid_argument(s.message());
    }
  }

  bool operator==(const HealthConfig&) const = default;

  // Stable 64-bit content hash (common/fingerprint.hpp); part of the
  // filter-config identity the serve layer's gain-schedule cache keys on.
  std::uint64_t fingerprint() const {
    FingerprintHasher hash;
    hash.mix(enabled);
    hash.mix(max_state_abs);
    hash.mix(covariance_symmetry_tol);
    hash.mix(newton_residual_limit);
    hash.mix(innovation_gate_sigma);
    hash.mix(deescalate_after);
    return hash.value();
  }
};

// Per-filter counters, exposed through KalmanFilter::health().
struct HealthStats {
  unsigned last_faults = 0;      // HealthFault bitmask of the last step
  std::size_t faulty_steps = 0;  // steps that tripped >= 1 fault
  std::size_t gated_channels = 0;
  std::array<std::size_t, kRecoveryActionCount> recoveries{};
  std::size_t escalation_level = 0;  // current ladder rung (0 = calm)
  bool fallback_active = false;      // SSKF constant gain engaged

  bool has(HealthFault f) const {
    return (last_faults & static_cast<unsigned>(f)) != 0;
  }
  std::size_t total(RecoveryAction a) const {
    return recoveries[static_cast<std::size_t>(a)];
  }
};

namespace detail {

// Registry handles for the recovery counters, resolved once (same pattern
// as FilterTelemetry).  Index 0 (kNone) stays unused.
struct HealthTelemetry {
  telemetry::Counter& faults;
  std::array<telemetry::Counter*, kRecoveryActionCount> recoveries;

  static HealthTelemetry& get() {
    auto& reg = telemetry::MetricsRegistry::global();
    static HealthTelemetry t{
        reg.counter("kalmmind.kf.faults_detected_total"),
        {nullptr,
         &reg.counter("kalmmind.kf.recoveries_total.skip_measurement"),
         &reg.counter("kalmmind.kf.recoveries_total.gate_channels"),
         &reg.counter("kalmmind.kf.recoveries_total.force_calculation"),
         &reg.counter("kalmmind.kf.recoveries_total.reseed_policy0"),
         &reg.counter("kalmmind.kf.recoveries_total.covariance_reset"),
         &reg.counter("kalmmind.kf.recoveries_total.sskf_fallback")}};
    return t;
  }
};

template <typename T>
bool vector_finite(const linalg::Vector<T>& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(linalg::ScalarTraits<T>::to_double(v[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace detail

// The ladder's state between steps: what NumericalHealthMonitor carries
// besides its config and probe scratch (exported with a filter's recursion
// state so a migrated health-gated session climbs the same rungs).
template <typename T>
struct HealthState {
  HealthStats stats;
  std::size_t consecutive_healthy = 0;
  bool has_last_good = false;
  Vector<T> last_good_x;     // empty until the first healthy step
  Matrix<T> fallback_gain;   // empty until the SSKF rung engages
};

// The per-filter health engine KalmanFilter::step drives.  Owns the ladder
// state, the last finite estimate (for state restoration) and the probe
// scratch; allocation-free after the first faulty/probed step.
template <typename T>
class NumericalHealthMonitor {
 public:
  NumericalHealthMonitor() = default;
  explicit NumericalHealthMonitor(HealthConfig config) : config_(config) {
    config_.validate();
  }

  const HealthConfig& config() const { return config_; }
  bool enabled() const { return config_.enabled; }
  const HealthStats& stats() const { return stats_; }
  bool fallback_active() const { return stats_.fallback_active; }
  // Non-null once the SSKF fallback rung engaged.
  const Matrix<T>* fallback_gain() const {
    return stats_.fallback_active ? &fallback_gain_ : nullptr;
  }

  void reset() {
    stats_ = HealthStats{};
    consecutive_healthy_ = 0;
    has_last_good_ = false;
    fallback_gain_ = Matrix<T>();
    discard_deferred();
  }

  void export_state(HealthState<T>& out) const {
    out.stats = stats_;
    out.consecutive_healthy = consecutive_healthy_;
    out.has_last_good = has_last_good_;
    out.last_good_x = last_good_x_;
    out.fallback_gain = fallback_gain_;
  }

  void import_state(const HealthState<T>& state) {
    discard_deferred();
    stats_ = state.stats;
    consecutive_healthy_ = state.consecutive_healthy;
    has_last_good_ = state.has_last_good;
    last_good_x_ = state.last_good_x;
    fallback_gain_ = state.fallback_gain;
  }

  // Called once per step before any check records into last_faults.
  void begin_step() {
    stats_.last_faults = 0;
    residual_repaired_ = false;
  }

  // Deferred notes (KalmanFilter::prepare_next).  While deferring, the
  // Newton probe's fault and its forced-calculation repair are held back
  // instead of recorded: they belong to a step whose bin has not arrived.
  // apply_deferred() records them, in order, once that step begins with a
  // usable measurement; discard_deferred() forgets them when the step skips
  // its measurement (or the prepared half is dropped otherwise), exactly as
  // if the probe had never run.
  void defer_notes(bool on) { deferring_ = on; }
  void apply_deferred() {
    for (unsigned bit = 1; deferred_faults_ != 0; bit <<= 1) {
      if ((deferred_faults_ & bit) == 0) continue;
      deferred_faults_ &= ~bit;
      note_fault(static_cast<HealthFault>(bit));
    }
    if (deferred_forced_calculation_) {
      deferred_forced_calculation_ = false;
      note_forced_calculation();
    }
  }
  void discard_deferred() {
    deferred_faults_ = 0;
    deferred_forced_calculation_ = false;
  }

  // Pre-update: false means z is unusable (NaN/Inf) and the caller must run
  // a predict-only step.  Counted as the skip_measurement recovery.
  bool measurement_ok(const Vector<T>& z) {
    if (detail::vector_finite(z)) return true;
    note_fault(HealthFault::kMeasurementNonFinite);
    note_recovery(RecoveryAction::kSkipMeasurement);
    return false;
  }

  // Probe estimate of the Newton residual ||I - S*V|| after an
  // approximation-path inversion: r = ||u - S (V u)||_2 / ||u||_2 for the
  // fixed alternating-sign probe u.  Two O(z^2) matvecs; a seed outside
  // the eq. (3) basin blows the probe up by orders of magnitude.
  bool approx_residual_ok(const Matrix<T>& s, const Matrix<T>& s_inv) {
    const std::size_t n = s.rows();
    if (n == 0) return true;
    probe_u_.resize_for_overwrite(n);
    for (std::size_t i = 0; i < n; ++i) {
      probe_u_[i] = linalg::ScalarTraits<T>::from_double(i % 2 == 0 ? 1.0
                                                                    : -1.0);
    }
    linalg::multiply_into(probe_w_, s_inv, probe_u_);
    linalg::multiply_into(probe_t_, s, probe_w_);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = linalg::ScalarTraits<T>::to_double(probe_u_[i]) -
                       linalg::ScalarTraits<T>::to_double(probe_t_[i]);
      sum += d * d;
    }
    const double residual = std::sqrt(sum / static_cast<double>(n));
    if (std::isfinite(residual) && residual <= config_.newton_residual_limit) {
      return true;
    }
    note_fault(HealthFault::kResidualGrowth);
    return false;
  }

  // The caller repaired a bad approximation by re-inverting on the
  // calculation path within the same step.
  void note_forced_calculation() {
    if (deferring_) {
      deferred_forced_calculation_ = true;
      return;
    }
    residual_repaired_ = true;
    note_recovery(RecoveryAction::kForceCalculation);
  }

  // Per-channel innovation gate: |y_i| > sigma * sqrt(S_ii) zeroes the
  // channel, so one dropped-out or saturated electrode cannot drag the
  // whole state estimate.  Returns the number of channels gated.
  std::size_t gate_innovation(Vector<T>& innovation, const Matrix<T>& s) {
    if (config_.innovation_gate_sigma <= 0.0) return 0;
    std::size_t gated = 0;
    for (std::size_t i = 0; i < innovation.size(); ++i) {
      const double y = linalg::ScalarTraits<T>::to_double(innovation[i]);
      const double var = linalg::ScalarTraits<T>::to_double(s(i, i));
      const double bound =
          config_.innovation_gate_sigma * std::sqrt(std::max(var, 0.0));
      if (std::isfinite(y) && std::abs(y) <= bound) continue;
      innovation[i] = linalg::ScalarTraits<T>::from_double(0.0);
      ++gated;
    }
    if (gated > 0) {
      note_fault(HealthFault::kMeasurementOutlier);
      stats_.gated_channels += gated;
      note_recovery(RecoveryAction::kGateChannels);
    }
    return gated;
  }

  // Post-update verdict: checks x and P, sanitizes them in place when they
  // are unusable (the step's output must never be NaN) and escalates the
  // ladder while faults persist.  Returns true when the step was healthy.
  bool post_step(Vector<T>& x, Matrix<T>& p, const KalmanModel<T>& model,
                 InverseStrategy<T>& strategy) {
    const unsigned faults_before = stats_.last_faults;
    check_state(x);
    check_covariance(p);
    if (stats_.last_faults != 0) ++stats_.faulty_steps;

    // Sanitize: restore the last finite estimate / prior covariance so the
    // caller returns usable numbers no matter what the ladder does next.
    if (stats_.has(HealthFault::kStateNonFinite) ||
        stats_.has(HealthFault::kStateExploded)) {
      x = has_last_good_ ? last_good_x_ : model.x0;
    }
    if (stats_.has(HealthFault::kCovarianceNonFinite) ||
        stats_.has(HealthFault::kCovarianceNotPd)) {
      p = model.p0;
    } else if (stats_.has(HealthFault::kCovarianceAsymmetric)) {
      resymmetrize(p);
    }

    // Faults already recovered before the update do not climb the ladder:
    // measurement-layer faults (NaN z, gated channels), and a probe's
    // residual growth that this step repaired with a forced calculation.
    unsigned recovered =
        static_cast<unsigned>(HealthFault::kMeasurementNonFinite) |
        static_cast<unsigned>(HealthFault::kMeasurementOutlier);
    if (residual_repaired_)
      recovered |= static_cast<unsigned>(HealthFault::kResidualGrowth);
    const bool numerical_fault = (stats_.last_faults & ~recovered) != 0;

    if (!numerical_fault) {
      last_good_x_ = x;
      has_last_good_ = true;
      ++consecutive_healthy_;
      if (stats_.escalation_level > 0 && !stats_.fallback_active &&
          consecutive_healthy_ >= config_.deescalate_after) {
        stats_.escalation_level = 0;
      }
      return faults_before == stats_.last_faults;
    }

    consecutive_healthy_ = 0;
    escalate(x, p, model, strategy);
    return false;
  }

  // Post-step check for the constant-gain fallback path: only the state can
  // go bad there (P is frozen), so restore the last finite estimate if the
  // update produced garbage and keep the good-estimate snapshot fresh.
  void fallback_post_step(Vector<T>& x, const KalmanModel<T>& model) {
    check_state(x);
    if (stats_.has(HealthFault::kStateNonFinite) ||
        stats_.has(HealthFault::kStateExploded)) {
      x = has_last_good_ ? last_good_x_ : model.x0;
    } else {
      last_good_x_ = x;
      has_last_good_ = true;
    }
    if (stats_.last_faults != 0) ++stats_.faulty_steps;
  }

 private:
  void note_fault(HealthFault f) {
    if (deferring_) {
      deferred_faults_ |= static_cast<unsigned>(f);
      return;
    }
    if ((stats_.last_faults & static_cast<unsigned>(f)) == 0) {
      stats_.last_faults |= static_cast<unsigned>(f);
      if (telemetry::enabled()) {
        // kalmmind-lint: allow(RT1,RT2) registry handles resolve once per process (function-local static); fault accounting is one relaxed atomic add
        detail::HealthTelemetry::get().faults.add();
        auto& blackbox = telemetry::FlightRecorder::global();
        blackbox.record_here(telemetry::FlightEventKind::kHealthFault,
                             static_cast<unsigned>(f), 0.0, to_string(f));
      }
    }
  }

  void note_recovery(RecoveryAction a) {
    const std::size_t ai = static_cast<std::size_t>(a);
    ++stats_.recoveries[ai];
    if (telemetry::enabled()) {
      // kalmmind-lint: allow(RT1,RT2) registry handles resolve once per process (function-local static); recovery accounting is one relaxed atomic add
      detail::HealthTelemetry::get().recoveries[ai]->add();
      auto& blackbox = telemetry::FlightRecorder::global();
      blackbox.record_here(telemetry::FlightEventKind::kRecovery,
                           static_cast<std::uint64_t>(a), 0.0, to_string(a));
    }
  }

  void check_state(const Vector<T>& x) {
    bool finite = true;
    bool bounded = true;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double v = linalg::ScalarTraits<T>::to_double(x[i]);
      if (!std::isfinite(v)) {
        finite = false;
        break;
      }
      if (std::abs(v) > config_.max_state_abs) bounded = false;
    }
    if (!finite) {
      note_fault(HealthFault::kStateNonFinite);
    } else if (!bounded) {
      note_fault(HealthFault::kStateExploded);
    }
  }

  void check_covariance(const Matrix<T>& p) {
    double max_mag = 0.0;
    for (std::size_t i = 0; i < p.rows(); ++i) {
      for (std::size_t j = 0; j < p.cols(); ++j) {
        const double v = linalg::ScalarTraits<T>::to_double(p(i, j));
        if (!std::isfinite(v)) {
          note_fault(HealthFault::kCovarianceNonFinite);
          return;
        }
        max_mag = std::max(max_mag, std::abs(v));
      }
    }
    for (std::size_t i = 0; i < p.rows(); ++i) {
      if (linalg::ScalarTraits<T>::to_double(p(i, i)) < 0.0) {
        note_fault(HealthFault::kCovarianceNotPd);
        return;
      }
    }
    const double tol = config_.covariance_symmetry_tol * std::max(1.0, max_mag);
    for (std::size_t i = 0; i < p.rows(); ++i) {
      for (std::size_t j = i + 1; j < p.cols(); ++j) {
        const double d = linalg::ScalarTraits<T>::to_double(p(i, j)) -
                         linalg::ScalarTraits<T>::to_double(p(j, i));
        if (std::abs(d) > tol) {
          note_fault(HealthFault::kCovarianceAsymmetric);
          return;
        }
      }
    }
  }

  static void resymmetrize(Matrix<T>& p) {
    for (std::size_t i = 0; i < p.rows(); ++i) {
      for (std::size_t j = i + 1; j < p.cols(); ++j) {
        const double avg = 0.5 * (linalg::ScalarTraits<T>::to_double(p(i, j)) +
                                  linalg::ScalarTraits<T>::to_double(p(j, i)));
        p(i, j) = linalg::ScalarTraits<T>::from_double(avg);
        p(j, i) = p(i, j);
      }
    }
  }

  // Climb one rung; skip rungs the strategy cannot honor.  Rung 3 (reset)
  // always succeeds; rung 4 stays at 3 if the Riccati solve fails.
  void escalate(Vector<T>& x, Matrix<T>& p, const KalmanModel<T>& model,
                InverseStrategy<T>& strategy) {
    std::size_t rung = stats_.escalation_level + 1;
    for (;; ++rung) {
      if (rung == 1) {
        if (strategy.request_calculation()) {
          note_recovery(RecoveryAction::kForceCalculation);
          break;
        }
      } else if (rung == 2) {
        const bool hardened = strategy.harden_seed_policy();
        const bool forced = strategy.request_calculation();
        if (hardened || forced) {
          note_recovery(RecoveryAction::kReseedPolicy0);
          break;
        }
      } else if (rung == 3) {
        x = has_last_good_ ? last_good_x_ : model.x0;
        p = model.p0;
        strategy.reset();
        note_recovery(RecoveryAction::kCovarianceReset);
        break;
      } else {
        if (engage_fallback(model)) {
          note_recovery(RecoveryAction::kSskfFallback);
          rung = 4;
        } else {
          // No steady state to fall back to: keep resetting.
          x = has_last_good_ ? last_good_x_ : model.x0;
          p = model.p0;
          strategy.reset();
          note_recovery(RecoveryAction::kCovarianceReset);
          rung = 3;
        }
        break;
      }
    }
    stats_.escalation_level = std::min<std::size_t>(rung, 4);
  }

  bool engage_fallback(const KalmanModel<T>& model) {
    if (stats_.fallback_active) return true;
    if constexpr (std::is_floating_point_v<T>) {
      try {
        // kalmmind-lint: allow(RT1,RT3) fallback engagement solves the DARE once per divergence event — the recovery ladder's documented slow path, not steady-state serving
        SteadyState<T> ss = solve_steady_state(model, 1e-9, 2000);
        fallback_gain_ = std::move(ss.k);
        stats_.fallback_active = true;
        return true;
      } catch (const std::exception&) {
        return false;
      }
    } else {
      // Fixed-point filters stop at the covariance-reset rung.
      return false;
    }
  }

  HealthConfig config_;
  HealthStats stats_;
  std::size_t consecutive_healthy_ = 0;
  bool has_last_good_ = false;
  Vector<T> last_good_x_;
  Matrix<T> fallback_gain_;
  Vector<T> probe_u_, probe_w_, probe_t_;
  // Notes held back while deferring (see defer_notes).
  bool deferring_ = false;
  unsigned deferred_faults_ = 0;
  bool deferred_forced_calculation_ = false;
  // This step's probe failure was repaired by a forced calculation.
  bool residual_repaired_ = false;
};

}  // namespace kalmmind::kalman
