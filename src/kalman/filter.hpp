// The reorganized Kalman filter core (Fig. 3b).  The computation order
// isolates `compute K` behind an InverseStrategy, exactly like the
// accelerator's swappable path A / path B module:
//
//   predict:  x' = F x ,  P' = F P F^t + Q
//   gain:     S  = H P' H^t + R ,  Sinv = strategy(S, n) ,  K = P' H^t Sinv
//   update:   y  = z - H x' ,  x = x' + K y ,  P = (I - K H) P'
//
// The filter is generic over the scalar type (float32 accelerator
// datapaths, float64 reference, FX32/FX64 fixed point).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/realtime.hpp"
#include "kalman/health.hpp"
#include "kalman/model.hpp"
#include "kalman/recursion.hpp"
#include "kalman/strategy.hpp"
#include "linalg/ops.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::kalman {

namespace detail {

// Registry handles for the filter hot path, resolved once.  Shared by every
// KalmanFilter<T> instantiation (the registry hands out one Counter per
// name).
struct FilterTelemetry {
  telemetry::Counter& steps;
  telemetry::Counter& invert_calculation;
  telemetry::Counter& invert_approximation;
  telemetry::Counter& invert_none;
  telemetry::Counter& newton_inner_iterations;
  telemetry::Counter& step_allocations;

  static FilterTelemetry& get() {
    static FilterTelemetry t{
        telemetry::MetricsRegistry::global().counter("kalmmind.kf.steps_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.kf.invert_path.calculation_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.kf.invert_path.approximation_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.kf.invert_path.none_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.kf.newton_inner_iterations_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.kf.step_allocations_total")};
    return t;
  }
};

// Keeps the kalmmind.kf.workspace_bytes gauge equal to the total workspace
// bytes of all live filters: each owner reports its own byte count and the
// reporter applies the delta; the destructor (and move-from) retires the
// contribution.  Move-aware so filters returned by value (reference.hpp
// factories) do not double-count.
class WorkspaceBytesReporter {
 public:
  WorkspaceBytesReporter() = default;
  WorkspaceBytesReporter(const WorkspaceBytesReporter&) = delete;
  WorkspaceBytesReporter& operator=(const WorkspaceBytesReporter&) = delete;
  WorkspaceBytesReporter(WorkspaceBytesReporter&& other) noexcept
      : reported_(other.reported_) {
    other.reported_ = 0;
  }
  WorkspaceBytesReporter& operator=(WorkspaceBytesReporter&& other) noexcept {
    if (this != &other) {
      report(0);
      reported_ = other.reported_;
      other.reported_ = 0;
    }
    return *this;
  }
  ~WorkspaceBytesReporter() { report(0); }

  // reported_ only advances while telemetry is enabled (Gauge::add is a
  // gated no-op otherwise), so enable -> disable cycles never leave the
  // gauge with a negative phantom contribution on destruction.
  void report(std::size_t bytes) noexcept {
    if constexpr (telemetry::kCompiledIn) {
      if (!telemetry::enabled() || bytes == reported_) return;
      telemetry::MetricsRegistry::global()
          .gauge("kalmmind.kf.workspace_bytes")
          .add(static_cast<double>(bytes) - static_cast<double>(reported_));
      reported_ = bytes;
    }
  }

 private:
  std::size_t reported_ = 0;
};

}  // namespace detail

// Per-run output: the state trajectory plus the per-iteration inversion
// telemetry the latency model consumes.
template <typename T>
struct FilterOutput {
  std::vector<Vector<T>> states;       // x̂_n for every iteration
  Matrix<T> final_covariance;          // P after the last iteration
  std::vector<InverseEvent> events;    // which path ran at each iteration

  std::size_t iterations() const { return states.size(); }
};

struct FilterOptions {
  // Use the Joseph-form covariance update
  //   P = (I - K H) P' (I - K H)^t + K R K^t
  // instead of the cheaper (I - K H) P'.  Joseph form keeps P positive
  // semidefinite for *any* gain, which keeps the filter bounded when the
  // inversion strategy is a crude approximation (IFKF).  The accelerator
  // datapaths use the plain update, like Fig. 2.
  bool joseph_update = false;

  // Numerical health monitoring + recovery (kalman/health.hpp).  Disabled
  // by default: divergence of aggressive interleave configs is a measured
  // result of the paper's evaluation, so recovery is opt-in.
  HealthConfig health;

  // Non-throwing validation, same contract as KalmanModel::check().
  [[nodiscard]] Status check() const noexcept { return health.check(); }

  void validate() const {
    if (Status s = check(); !s.ok()) {
      throw std::invalid_argument(s.message());
    }
  }

  bool operator==(const FilterOptions&) const = default;

  // Stable 64-bit content hash (common/fingerprint.hpp); part of the
  // filter-config identity the serve layer's gain-schedule cache keys on.
  std::uint64_t fingerprint() const {
    FingerprintHasher hash;
    hash.mix(joseph_update);
    hash.mix(health.fingerprint());
    return hash.value();
  }
};

template <typename T>
class KalmanFilter {
 public:
  KalmanFilter(KalmanModel<T> model, InverseStrategyPtr<T> strategy,
               FilterOptions options = {})
      : model_(std::move(model)),
        recursion_(model_, std::move(strategy), options.joseph_update),
        health_(options.health) {
    model_.validate();
    options.validate();
    correction_.reserve(model_.x_dim(), model_.z_dim());
    ws_reporter_.report(workspace_bytes());
    reset();
  }

  void reset() {
    drop_prepared();
    x_ = model_.x0;
    x_pred_ = model_.x0;
    recursion_.reset(model_);
    health_.reset();
    last_inverse_event_ = {};
  }

  // One KF iteration with measurement z; returns the new state estimate.
  // Uses the half prepare_next() computed ahead when there is one, else
  // computes it now: the same kernels run in the same order either way, so
  // the result is bit-identical.  All temporaries live in the recursion and
  // correction workspaces: after the first step this performs zero heap
  // allocations (tests/kalman/workspace_test.cpp).
  const Vector<T>& step(const Vector<T>& z) KALMMIND_REALTIME {
    if (z.size() != model_.z_dim()) {
      // kalmmind-lint: allow(RT3) shape-mismatch is a caller bug, not a runtime condition; it aborts the step before any filter state mutates
      throw std::invalid_argument("KalmanFilter::step: bad measurement size");
    }
    // A bin the health monitor will skip needs no gain.
    if (!health_.enabled() || detail::vector_finite(z)) prepare_next();
    return correct(z);
  }

  // The measurement-independent half of the next step, run before its bin
  // arrives (PAPER.md pillar 1: P', S, S^-1 and K never read z): P', S,
  // S^-1 with the Newton probe check and its same-step repair, K, and the
  // next P.  Nothing the filter reports changes — state(), covariance(),
  // health() and export_state() still describe the last step — until
  // step() consumes the half, or a skipped measurement or a mutator drops
  // it (the strategy's seed update is only committed on consumption).  A
  // no-op when a half is already prepared or the SSKF fallback is engaged
  // (its steps run no recursion).
  void prepare_next() {
    if (prepared_ || health_.fallback_active()) return;
    const std::uint64_t allocs_before = linalg::thread_buffer_allocations();
    recursion_.stage();
    health_.defer_notes(true);
    {
      telemetry::Span span("kf.predict", "kf");
      recursion_.predict(model_);
    }

    {
      telemetry::Span span("kf.compute_k", "kf");
      recursion_.compute_s(model_);

      // The S-inverse is the swappable calc-vs-approx module, so it gets
      // its own span named by the path the strategy actually took.
      telemetry::SpanTracer& tracer = telemetry::SpanTracer::global();
      const bool tracing = tracer.enabled();
      const double t0_us = tracing ? tracer.now_us() : 0.0;
      InverseEvent inv_event = recursion_.invert();
      // A Newton approximation whose probe residual exceeds the eq. (3)
      // basin is repaired within the same step: force and run the exact
      // calculation path now, so the bad gain never reaches the update.
      if (health_.enabled() &&
          inv_event.path == InversePath::kApproximation &&
          !health_.approx_residual_ok(recursion_.s(), recursion_.s_inv()) &&
          recursion_.strategy().request_calculation()) {
        inv_event = recursion_.invert();
        health_.note_forced_calculation();
      }
      if (tracing && tracer.enabled()) {
        const char* path_name =
            inv_event.path == InversePath::kCalculation ? "kf.s_inverse.calc"
            : inv_event.path == InversePath::kApproximation
                ? "kf.s_inverse.approx"
                : "kf.s_inverse.none";
        // kalmmind-lint: allow(RT1,RT2) span emission runs only when tracing is enabled; production serving traces off, and the tracer lock is the audited cost of turning it on
        tracer.complete(path_name, "kf", t0_us, tracer.now_us() - t0_us,
                        "\"newton_iterations\":" +
                            std::to_string(inv_event.newton_iterations));
      }
      prepared_event_ = inv_event;
      recursion_.compute_k();
      recursion_.update_covariance(model_);
    }
    health_.defer_notes(false);
    prepared_ = true;
    count_allocations(allocs_before);
  }

  // Whether a prepare_next() half is waiting for its bin.
  bool prepared() const { return prepared_; }

  // Throw a prepared half away: the filter is exactly as if prepare_next()
  // had never run.  Returns whether there was one.
  bool drop_prepared() {
    if (!prepared_) return false;
    recursion_.drop();
    health_.discard_deferred();
    prepared_ = false;
    return true;
  }

  // Run the filter over a measurement sequence from the initial state.
  FilterOutput<T> run(const std::vector<Vector<T>>& measurements) {
    reset();
    FilterOutput<T> out;
    out.states.reserve(measurements.size());
    out.events.reserve(measurements.size());
    for (const auto& z : measurements) {
      out.states.push_back(step(z));
      // Not strategy().last_event(): recovery paths (predict-only, SSKF
      // fallback) run no inversion, which the strategy cannot know.
      out.events.push_back(last_inverse_event_);
    }
    out.final_covariance = recursion_.p();
    return out;
  }

  // Replace the observation model mid-run (adaptive decoding: the trained
  // H/R are refreshed online).  Shapes must match the original model; the
  // state and covariance carry over.
  void update_observation_model(Matrix<T> h, Matrix<T> r) {
    if (h.rows() != model_.z_dim() || h.cols() != model_.x_dim() ||
        r.rows() != model_.z_dim() || r.cols() != model_.z_dim()) {
      throw std::invalid_argument(
          "update_observation_model: shape mismatch");
    }
    drop_prepared();  // its S and K were computed from the old H and R
    model_.h = std::move(h);
    model_.r = std::move(r);
  }

  // Overwrite the filter state/covariance (the serve layer carries the
  // estimate across strategy swaps when degrading/restoring a session).
  void set_state(Vector<T> x, Matrix<T> p) {
    if (x.size() != model_.x_dim() || p.rows() != model_.x_dim() ||
        p.cols() != model_.x_dim()) {
      throw std::invalid_argument("KalmanFilter::set_state: shape mismatch");
    }
    drop_prepared();
    x_ = std::move(x);
    x_pred_ = x_;
    recursion_.p() = std::move(p);
  }

  // State transfer (serve/snapshot.hpp): the recursion state and the
  // health monitor's ladder state.  A filter built from the same config
  // that imports them together with state() continues bit for bit.  A
  // prepared half is neither exported nor disturbed: the state is that of
  // the last step, with its P and the strategy's seed from before the
  // prepare.
  void export_state(RecursionState<T>& recursion,
                    HealthState<T>& health) const {
    recursion_.export_state(recursion);
    health_.export_state(health);
  }

  // Throws std::invalid_argument on a shape mismatch (x, P, the strategy
  // matrices, or the health monitor's last-good estimate / fallback gain,
  // which must be present exactly when their flags say so); the filter is
  // unchanged then.
  void import_state(const Vector<T>& x, const RecursionState<T>& recursion,
                    const HealthState<T>& health) {
    const std::size_t xd = model_.x_dim();
    const Matrix<T>& gain = health.fallback_gain;
    const bool gain_fits =
        gain.empty() ? !health.stats.fallback_active
                     : gain.rows() == xd && gain.cols() == model_.z_dim();
    const bool last_good_fits = health.last_good_x.empty()
                                    ? !health.has_last_good
                                    : health.last_good_x.size() == xd;
    if (x.size() != xd || !gain_fits || !last_good_fits) {
      throw std::invalid_argument("KalmanFilter::import_state: shape mismatch");
    }
    drop_prepared();
    recursion_.import_state(recursion);
    health_.import_state(health);
    x_ = x;
    x_pred_ = x;
  }

  const Vector<T>& state() const { return x_; }
  // The prior prediction x' = F x of the most recent step (before the
  // measurement update).  Adaptive decoders regress on this instead of the
  // posterior to avoid absorbing same-step measurement noise into H.
  const Vector<T>& last_prediction() const { return x_pred_; }
  const Matrix<T>& covariance() const { return recursion_.p(); }
  std::size_t iteration() const { return recursion_.iteration(); }
  const KalmanModel<T>& model() const { return model_; }
  InverseStrategy<T>& strategy() { return recursion_.strategy(); }
  // Heap bytes owned by the per-filter step workspace (excludes strategy
  // internals); exported as the kalmmind.kf.workspace_bytes gauge.
  std::size_t workspace_bytes() const {
    return recursion_.bytes() + correction_.bytes();
  }
  // Health-monitor verdicts and recovery counts (kalman/health.hpp).
  const HealthStats& health() const { return health_.stats(); }
  const HealthConfig& health_config() const { return health_.config(); }
  // The inversion path the most recent step actually took (kNone for
  // recovery steps that ran no inversion).
  const InverseEvent& last_inverse_event() const {
    return last_inverse_event_;
  }

 private:
  // The arrival path: everything of a step that reads z or x, on top of
  // the prepared half (prepare_next() ran, unless the health monitor is
  // about to skip z or the SSKF fallback is engaged).  O(x z) work: the
  // prediction x' = F x, the correction with its innovation gate, the
  // checks of the step's result, and committing the prepared P and seed.
  const Vector<T>& correct(const Vector<T>& z) KALMMIND_REALTIME {
    if (health_.enabled()) {
      health_.begin_step();
      if (health_.fallback_active()) return fallback_step(z);
      if (!health_.measurement_ok(z)) return predict_only_step();
      health_.apply_deferred();
    }
    const std::uint64_t allocs_before = linalg::thread_buffer_allocations();
    {
      telemetry::Span span("kf.update", "kf");
      linalg::multiply_into(x_pred_, model_.f, x_);
      correction_.apply(x_, x_pred_, model_.h, recursion_.k(), z,
                        [this](Vector<T>& innovation) {
                          if (health_.enabled()) {
                            health_.gate_innovation(innovation,
                                                    recursion_.s());
                          }
                        });
    }
    recursion_.commit();
    prepared_ = false;
    count_step(prepared_event_);

    if (health_.enabled()) {
      health_.post_step(x_, recursion_.p(), model_, recursion_.strategy());
    }

    count_allocations(allocs_before);
    if (telemetry::enabled()) {
      // kalmmind-lint: allow(RT1,RT2) gauge registration happens on the first report only; later reports store to the cached handle's atomic
      ws_reporter_.report(workspace_bytes());
    }

    recursion_.advance();
    return x_;
  }

  // Non-finite measurement: propagate the prior only.  The prediction is
  // still health-checked — an unstable F can blow it up on its own.  A
  // prepared half already holds P' = F P F^t + Q; its gain is dropped.
  const Vector<T>& predict_only_step() {
    linalg::multiply_into(x_pred_, model_.f, x_);
    if (!drop_prepared()) recursion_.predict(model_);
    x_ = x_pred_;
    recursion_.p() = recursion_.p_pred();
    health_.post_step(x_, recursion_.p(), model_, recursion_.strategy());
    count_step({InversePath::kNone, 0});
    recursion_.advance();
    return x_;
  }

  // SSKF fallback (ladder rung 4): constant steady-state gain, frozen
  // covariance, no inversion.  Sticky until reset().
  const Vector<T>& fallback_step(const Vector<T>& z) {
    linalg::multiply_into(x_pred_, model_.f, x_);
    if (health_.measurement_ok(z)) {
      correction_.apply(x_, x_pred_, model_.h, *health_.fallback_gain(), z);
    } else {
      x_ = x_pred_;
    }
    health_.fallback_post_step(x_, model_);
    count_step({InversePath::kNone, 0});
    recursion_.advance();
    return x_;
  }

  // Heap buffers the linalg sizing paths acquired since `before`, into
  // kalmmind.kf.step_allocations_total.
  void count_allocations(std::uint64_t before) {
    if (!telemetry::enabled()) return;
    // kalmmind-lint: allow(RT1,RT2) registry handles resolve once per process (function-local static); steady-state steps only touch the returned counters' atomics
    detail::FilterTelemetry::get().step_allocations.add(
        linalg::thread_buffer_allocations() - before);
  }

  // Record the inversion path this step took and count the step into the
  // kalmmind.kf.* counters.
  void count_step(const InverseEvent& event) {
    last_inverse_event_ = event;
    if (!telemetry::enabled()) return;
    // kalmmind-lint: allow(RT1,RT2) registry handles resolve once per process (function-local static); steady-state steps only touch the returned counters' atomics
    auto& ft = detail::FilterTelemetry::get();
    switch (event.path) {
      case InversePath::kCalculation: ft.invert_calculation.add(); break;
      case InversePath::kApproximation: ft.invert_approximation.add(); break;
      case InversePath::kNone: ft.invert_none.add(); break;
    }
    ft.newton_inner_iterations.add(event.newton_iterations);
    ft.steps.add();
  }

  KalmanModel<T> model_;
  Vector<T> x_;
  Vector<T> x_pred_;
  GainRecursion<T> recursion_;
  StateCorrection<T> correction_;
  detail::WorkspaceBytesReporter ws_reporter_;
  NumericalHealthMonitor<T> health_;
  InverseEvent last_inverse_event_;
  // A prepare_next() half is waiting for its bin; the inversion path it took.
  bool prepared_ = false;
  InverseEvent prepared_event_;
};

}  // namespace kalmmind::kalman
