// One live decode stream: a KalmanFilter instance (built from the typed
// kalman::FilterConfig, so the interleave state rides inside the strategy)
// fed by a bounded measurement queue with explicit backpressure.
//
// Concurrency contract:
//  * enqueue() / snapshot accessors may be called from any thread; they
//    synchronize on the session mutex.
//  * The consumer side — step_pending() for a solo session, or the owning
//    BatchGroup's pop_gated / batch_state / note_batch_result /
//    eject_to_solo for a batched one — runs on at most one thread at a
//    time.  DecodeServer guarantees this with the `scheduled` flag of the
//    session's scheduling unit; the filter and the batch-local estimate
//    (batch_x_, batch_iteration_) are never under the session mutex, so a
//    decode step never blocks producers.
//  * checkpoint() may run from any thread.  A solo consumer holds the
//    session's step guard (step_mu_) across each bin — gate, filter step,
//    bookkeeping — and across each precompute (prepare_next), and
//    checkpoint() takes the same guard while it copies the filter's
//    recursion state, so a snapshot never sees a half-stepped filter and no
//    decode pays for a copy.  A prepared half is not part of a snapshot:
//    the filter exports the state of its last step.  A batched session's
//    recursion state lives in its GainSchedule, read under the schedule's
//    own lock.
//
// Both engines share one consumer path: the self-healing gate
// (pop_gated), the recorded-decode bookkeeping (record_decode) and the
// invalid-step path (record_invalid).  They differ only in where the
// decoded state comes from — the session's own filter, or a fused cohort
// pass reading K from the shared GainSchedule.  Because each session's
// filter steps strictly sequentially in submission order — and the batched
// path replays the identical kernel sequence — a session decoded by the
// server is bit-identical to the same model + strategy stepped in a plain
// single-threaded loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/realtime.hpp"
#include "common/status.hpp"
#include "core/realtime.hpp"
#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "kalman/filter_config.hpp"
#include "kalman/gain_schedule.hpp"
#include "kalman/riccati.hpp"
#include "serve/snapshot.hpp"
#include "serve/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::serve {

using linalg::Matrix;
using linalg::Vector;

namespace detail {

// Construction-time cached registry handles for the serve hot path (see
// the handle-caching note in telemetry/registry.hpp).  The queued-bins
// gauge aggregates across every session in the process.
struct ServeTelemetry {
  telemetry::Counter& steps;
  telemetry::Counter& batched_steps;
  telemetry::Counter& deadline_misses;
  telemetry::Counter& rejected;
  telemetry::Counter& dropped;
  telemetry::Counter& invalid_steps;
  telemetry::Counter& restarts;
  telemetry::Counter& degradations;
  telemetry::Counter& quarantine_dropped;
  telemetry::Counter& discarded;
  telemetry::Gauge& queued_bins;

  static ServeTelemetry& get() {
    static ServeTelemetry t{
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.steps_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.batched_steps_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.deadline_misses_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.rejected_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.dropped_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.invalid_steps_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.session_restarts_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.session_degradations_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.quarantine_dropped_total"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.discarded_total"),
        telemetry::MetricsRegistry::global().gauge(
            "kalmmind.serve.queued_bins"),
    };
    return t;
  }
};

}  // namespace detail

enum class BackpressurePolicy {
  kReject,      // full queue bounces the new bin (caller sees kRejectedFull)
  kDropOldest,  // full queue evicts the stalest undecoded bin
};

enum class PushResult {
  kAccepted,
  kRejectedFull,      // kReject policy, queue at capacity
  kDroppedOldest,     // accepted, but an older bin was evicted to make room
  kUnknownSession,    // no such session / session closed
  kRejectedOverload,  // cluster admission control bounced the bin
  kRejectedInvalid,   // the bin's size is not the session's z_dim
};

// Status view of a submit outcome.  Queue-full and admission rejections are
// kOverloaded (transient: retry with backoff, see serve/cluster.hpp);
// unknown-session is permanent.
[[nodiscard]] inline Status push_status(PushResult r) noexcept {
  switch (r) {
    case PushResult::kAccepted:
    case PushResult::kDroppedOldest:
      return Status::Ok();
    case PushResult::kRejectedFull:
      return Status::Overloaded("serve: session queue full");
    case PushResult::kRejectedOverload:
      return Status::Overloaded("serve: shard over admission watermark");
    case PushResult::kUnknownSession:
      return Status::Invalid("serve: unknown or closed session");
    case PushResult::kRejectedInvalid:
      return Status::Invalid(
          "serve: measurement size is not the session's z_dim");
  }
  return Status::Invalid("serve: unrecognized push result");
}

// Serve-layer self-healing knobs (docs/robustness.md).  Quarantine backoff
// counts *consumed bins*, not wall time: a quarantined session keeps
// draining (and dropping) its queue while the backoff runs down, which
// keeps the scheduler flowing and makes the state machine deterministic
// under manual-mode poll() tests.
struct SelfHealingConfig {
  bool enabled = false;  // opt-in, like kalman::HealthConfig

  // Divergence ladder: a decode the Status guard flags as Invalid sends the
  // session to quarantine; the filter restarts from x0/P0 after the backoff
  // drains.  Backoff doubles per restart already taken, capped at
  // backoff_max_bins; after max_restarts the session is declared failed.
  std::size_t max_restarts = 5;
  std::size_t backoff_initial_bins = 1;
  std::size_t backoff_max_bins = 64;

  // Deadline pressure: after degrade_after_misses *consecutive* deadline
  // misses the session swaps to the constant steady-state gain ("sskf",
  // approx 0, the cheapest per-step strategy), carrying x/P across the
  // swap; after recover_after_hits consecutive on-time steps the original
  // strategy is restored the same way.  0 disables degradation.
  std::size_t degrade_after_misses = 0;
  std::size_t recover_after_hits = 16;

  [[nodiscard]] Status check() const noexcept {
    if (!enabled) return Status::Ok();
    if (backoff_initial_bins == 0)
      return Status::Invalid(
          "SelfHealingConfig: backoff_initial_bins must be > 0");
    if (backoff_max_bins < backoff_initial_bins)
      return Status::Invalid(
          "SelfHealingConfig: backoff_max_bins must be >= "
          "backoff_initial_bins");
    if (degrade_after_misses > 0 && recover_after_hits == 0)
      return Status::Invalid(
          "SelfHealingConfig: recover_after_hits must be > 0");
    return Status::Ok();
  }
};

struct SessionConfig {
  // The complete typed filter identity: model + StrategySpec (+ its matrix
  // inputs) + FilterOptions.  This is also the batching key — sessions
  // whose `filter` configs compare equal share one gain schedule
  // (docs/serving.md).
  kalman::FilterConfig<double> filter;
  // Bounded measurement queue: how many undecoded bins the session may
  // hold (the PLM chunk-buffer analogue) and what happens when it's full.
  std::size_t queue_capacity = 64;
  BackpressurePolicy backpressure = BackpressurePolicy::kReject;
  // Per-bin decode deadline (the 50 ms BCI bin period).
  double deadline_s = 0.05;
  // Keep the decoded trajectory and per-step IterationTiming records in
  // memory.  Disable for long-running servers that only want stats.
  bool record_trajectory = true;
  // Quarantine/restart + deadline degradation (docs/robustness.md).
  SelfHealingConfig self_healing;

  // Non-throwing validation (exception-free session admission).
  [[nodiscard]] Status check() const noexcept {
    if (Status s = filter.check(); !s.ok()) return s;
    if (Status s = self_healing.check(); !s.ok()) return s;
    if (queue_capacity == 0)
      return Status::Invalid("SessionConfig: queue_capacity must be > 0");
    if (!(deadline_s > 0.0))
      return Status::Invalid("SessionConfig: deadline_s must be positive");
    return Status::Ok();
  }
};

// Whether a decoded bin found the measurement-independent half of its
// step computed before it arrived (SessionStatsSnapshot::prepared_steps).
enum class PrepareOutcome {
  kUsed,     // prepared ahead, and only the correction ran on arrival
  kMissed,   // nothing prepared: the whole step ran on arrival
  kDropped,  // prepared, but the bin skipped its measurement
};

// Outcome of popping one bin through the self-healing gate.
enum class GatedPop {
  kEmpty,   // no bin queued
  kDropped, // bin consumed without decoding (quarantined/failed)
  kDecode,  // bin popped; decode it
};

class Session {
 public:
  // Precondition: config.check().ok() — FilterConfig::check() covers the
  // strategy/matrices pairing (e.g. sskf without a preloaded inverse), so
  // construction does not throw for a checked config.
  Session(SessionId id, SessionConfig config)
      : id_(id),
        config_(std::move(config)),
        filter_(config_.filter.make_filter()),
        batch_x_(config_.filter.model.x0),
        workspace_bytes_(filter_.workspace_bytes()),
        ckpt_x_(config_.filter.model.x0),
        fingerprint_(config_.filter.fingerprint()) {}

  SessionId id() const { return id_; }
  const SessionConfig& config() const { return config_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

  // Producer side: enqueue one measurement bin (any thread).
  PushResult enqueue(Vector<double> z) {
    auto& tm = detail::ServeTelemetry::get();
    std::lock_guard<std::mutex> lock(mu_);
    PushResult result = PushResult::kAccepted;
    if (queue_.size() >= config_.queue_capacity) {
      if (config_.backpressure == BackpressurePolicy::kReject) {
        ++counters_.rejected;
        tm.rejected.add();
        return PushResult::kRejectedFull;
      }
      queue_.pop_front();
      ++counters_.dropped;
      tm.dropped.add();
      result = PushResult::kDroppedOldest;
    } else {
      tm.queued_bins.add(1.0);  // kDropOldest swaps a bin: depth unchanged
    }
    queue_.push_back(std::move(z));
    max_backlog_ = std::max(max_backlog_, queue_.size());
    return result;
  }

  // Solo consumer: pop up to max_batch bins through the self-healing gate
  // and step the filter over each, timing it against the session deadline.
  // Exactly one thread at a time (see the concurrency contract above).
  // Returns the number of bins consumed; latencies are also pushed to
  // `recorder` if given.
  std::size_t step_pending(std::size_t max_batch,
                           LatencyRecorder* recorder = nullptr) {
    std::size_t consumed = 0;
    Vector<double> z;
    for (; consumed < max_batch; ++consumed) {
      std::lock_guard<std::mutex> step(step_mu_);
      const GatedPop pop = pop_gated(&z);
      if (pop == GatedPop::kEmpty) break;
      if (pop == GatedPop::kDropped) continue;
      const auto t0 = std::chrono::steady_clock::now();
      const bool prepared = filter_.prepared();
      const Vector<double>* x = nullptr;
      // The flight-session scope attributes health-monitor events recorded
      // inside the filter step to this session (telemetry/flight_recorder).
      const Status step_status = [&] {
        telemetry::ScopedFlightSession flight(id_, steps());
        return guarded_step(z, &x);
      }();
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
      if (!step_status.ok()) {
        record_invalid(step_status.message());
      } else {
        // A prepared half is only ever dropped by a bin the health monitor
        // skipped (a non-finite measurement).
        const PrepareOutcome outcome =
            !prepared ? PrepareOutcome::kMissed
            : filter_.health().has(kalman::HealthFault::kMeasurementNonFinite)
                ? PrepareOutcome::kDropped
                : PrepareOutcome::kUsed;
        (void)record_decode(*x, t0, seconds, recorder, outcome);
      }
    }
    telemetry::SpanTracer& tracer = telemetry::SpanTracer::global();
    if (consumed > 0 && tracer.enabled()) {
      tracer.counter("serve.queued_bins",
                     detail::ServeTelemetry::get().queued_bins.value());
    }
    return consumed;
  }

  // Precompute (solo consumer: the owner of the session's scheduling
  // unit, between bins): run the measurement-independent half of the next
  // decode now, so the bin pays only its correction (docs/serving.md).
  // Returns whether it did; a no-op unless wants_prepare().
  bool prepare_next() {
    std::lock_guard<std::mutex> step(step_mu_);
    if (!wants_prepare()) return false;
    telemetry::ScopedFlightSession flight(id_, steps());
    filter_.prepare_next();
    return true;
  }

  // Whether prepare_next() has work (consumer side): a solo session that
  // will run the recursion on its next bin (decodes_next()), filter not
  // yet prepared and its SSKF fallback not engaged.
  bool wants_prepare() const {
    if (batched() || !decodes_next()) return false;
    return !filter_.prepared() && !filter_.health().fallback_active;
  }

  // Whether the next bin would run only its prepared correction: a healthy
  // session (not degraded, quarantined or failed) whose filter holds a
  // prepared half — which only a solo session's ever does.  Consumer side,
  // or any thread while no consumer owns the session (DecodeServer asks
  // with the unit unscheduled).
  bool arrival_ready() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == SessionState::kHealthy && filter_.prepared();
  }

  std::size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  // Bins decoded so far (SessionStatsSnapshot::steps without the rest).
  std::size_t steps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.steps;
  }

  // Decoded states so far, in submission order (empty when
  // record_trajectory is off).
  std::vector<Vector<double>> trajectory() const {
    return trajectory_slice(0, SIZE_MAX);
  }

  // Decoded states [from, to), clamped to what exists — the cluster copies
  // incremental prefixes at checkpoint time (states_ is append-only for a
  // healthy stream, so a slice bounded by SessionSnapshot::recorded_states
  // is consistent with that snapshot).
  std::vector<Vector<double>> trajectory_slice(std::size_t from,
                                               std::size_t to) const {
    std::lock_guard<std::mutex> lock(mu_);
    to = std::min(to, states_.size());
    from = std::min(from, to);
    return std::vector<Vector<double>>(states_.begin() + std::ptrdiff_t(from),
                                       states_.begin() + std::ptrdiff_t(to));
  }

  // Per-step wall-clock timings against the deadline — the same
  // IterationTiming rows core::analyze_realtime produces from the cycle
  // model, here measured instead of modeled.
  std::vector<core::IterationTiming> timings() const {
    std::lock_guard<std::mutex> lock(mu_);
    return timings_;
  }

  SessionStatsSnapshot stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    SessionStatsSnapshot s;
    static_cast<SessionCounters&>(s) = counters_;
    s.id = id_;
    s.queue_depth = queue_.size();
    s.max_backlog = max_backlog_;
    s.mean_step_s = s.steps ? s.sum_step_s / double(s.steps) : 0.0;
    s.workspace_bytes = workspace_bytes_;
    s.state = state_;
    s.batched = batched_;
    s.prepared_steps = prepared_[std::size_t(PrepareOutcome::kUsed)];
    s.unprepared_steps = prepared_[std::size_t(PrepareOutcome::kMissed)];
    s.prepared_dropped = prepared_[std::size_t(PrepareOutcome::kDropped)];
    if (!latency_samples_.empty()) {
      std::vector<double> sorted = latency_samples_;
      std::sort(sorted.begin(), sorted.end());
      s.p50_step_s = telemetry::percentile(sorted, 0.50);
      s.p95_step_s = telemetry::percentile(sorted, 0.95);
      s.p99_step_s = telemetry::percentile(sorted, 0.99);
    }
    return s;
  }

  SessionState state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  // --- batched mode (single consumer: the owning BatchGroup) --------------

  // Switch to batched decoding on `schedule`.  Called once at admission,
  // before any bin is consumed, so the batch estimate is still x0 at
  // schedule iteration 0 (or whatever prime_restore() seeded); the solo
  // filter stays constructed so eject_to_solo() can hand back a running
  // session at any point.
  void enable_batching(std::shared_ptr<kalman::GainSchedule> schedule) {
    std::lock_guard<std::mutex> lock(mu_);
    batched_ = true;
    schedule_ = std::move(schedule);
  }

  bool batched() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batched_;
  }

  // Self-healing gate (consumer thread, both engines): pop one bin.
  // Quarantined/failed sessions consume bins without decoding them, so the
  // queue keeps draining and the scheduler never spins on a broken stream.
  // A quarantine whose backoff just drained restarts the stream (x0/P0, or
  // x0 at schedule iteration 0 when batched) and decodes this bin.
  GatedPop pop_gated(Vector<double>* z) {
    auto& tm = detail::ServeTelemetry::get();
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return GatedPop::kEmpty;
    *z = std::move(queue_.front());
    queue_.pop_front();
    tm.queued_bins.add(-1.0);
    if (state_ == SessionState::kQuarantined && backoff_remaining_ == 0) {
      state_ = SessionState::kHealthy;
      ++counters_.restarts;
      tm.restarts.add();
      if (telemetry::enabled()) {
        auto& blackbox = telemetry::FlightRecorder::global();
        blackbox.record(telemetry::FlightEventKind::kRestart, id_,
                        counters_.steps, counters_.restarts);
      }
    }
    if (state_ == SessionState::kFailed ||
        state_ == SessionState::kQuarantined) {
      if (state_ == SessionState::kQuarantined) --backoff_remaining_;
      ++counters_.quarantine_dropped;
      tm.quarantine_dropped.add();
      return GatedPop::kDropped;
    }
    return GatedPop::kDecode;
  }

  // Put a popped-but-undecoded bin back at the queue head (window-miss
  // ejection: the bin decodes through the solo path instead, in order).
  void requeue_front(Vector<double> z) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_front(std::move(z));
    detail::ServeTelemetry::get().queued_bins.add(1.0);
  }

  // Schedule iteration the next decode runs at (consumer thread only).
  std::size_t batch_iteration() const { return batch_iteration_; }
  // Current state estimate in batched mode (consumer thread only).
  const Vector<double>& batch_state() const { return batch_x_; }

  // Record the result of one batched decode: update the batch state, then
  // the same Status guard and bookkeeping as the solo path.  `t0` is the
  // cohort pass start and `seconds` this session's share of it (cohort wall
  // time / cohort size); `outcome` says whether the entry was computed
  // before the pass.  Returns true when the deadline ladder degraded the
  // session — it now runs solo on the cheap constant-gain strategy and
  // must leave the group.
  [[nodiscard]] bool note_batch_result(
      std::shared_ptr<const kalman::GainSchedule::Entry> entry,
      const double* x_new, std::chrono::steady_clock::time_point t0,
      double seconds, LatencyRecorder* recorder, PrepareOutcome outcome) {
    // Mirror the filter state mutation exactly: the decoded state becomes
    // the batch estimate even when non-finite (a solo filter's state is
    // poisoned the same way), so a healing-disabled stream stays invalid
    // just like the solo path.
    const std::size_t x_dim = batch_x_.size();
    for (std::size_t i = 0; i < x_dim; ++i) batch_x_[i] = x_new[i];
    ++batch_iteration_;
    for (std::size_t i = 0; i < x_dim; ++i) {
      if (!std::isfinite(batch_x_[i])) {
        record_invalid("non-finite batch state", std::move(entry));
        return false;  // quarantine is handled by the pop gate
      }
    }
    return record_decode(batch_x_, t0, seconds, recorder, outcome,
                         std::move(entry));
  }

  // Leave the group (schedule window miss, or the group dissolving):
  // rebuild the solo filter on the original strategy, carrying the batch
  // estimate across — P comes from the last consumed schedule entry (P0
  // before the first decode).  One-way: the schedule keeps no per-entry
  // strategy seed, so the rebuilt strategy restarts its interleave
  // sequence and the stream's gains leave the shared schedule for good.
  void eject_to_solo() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!batched_) return;
    // Rebuild while still marked batched so the estimate is sourced from
    // the batch state, not the stale solo filter.
    carry_estimate_locked(config_.filter.make_filter());
    batched_ = false;
    schedule_.reset();
  }

  // --- checkpoint / restore (serve/snapshot.hpp, docs/robustness.md) ------

  // Capture the durable state of this stream: its recursion state, x,
  // health rung, deadline-ladder streaks and stat carryovers.  Safe from
  // any thread: a solo session's filter is read under the step guard (the
  // consumer waits out the copy), a batched session's recursion state is
  // its schedule's head, read under the schedule's lock (a schedule still
  // behind a just-restored stream is extended to it first).  Every kind of
  // stream checkpoints.
  void checkpoint(SessionSnapshot* out) const {
    std::lock_guard<std::mutex> step(step_mu_);
    std::shared_ptr<kalman::GainSchedule> schedule;
    std::shared_ptr<const kalman::GainSchedule::Entry> last;
    {
      std::lock_guard<std::mutex> lock(mu_);
      out->config_fingerprint = fingerprint_;
      out->iteration = ckpt_iteration_;
      out->x.assign(ckpt_x_.data(), ckpt_x_.data() + ckpt_x_.size());
      static_cast<SessionCounters&>(*out) = counters_;
      out->health_rung = std::uint8_t(state_);
      out->backoff_remaining = backoff_remaining_;
      out->recorded_states = states_.size();
      out->consecutive_misses = consecutive_misses_;
      out->consecutive_hits = consecutive_hits_;
      if (batched_) {
        schedule = schedule_;
        last = last_entry_;
      }
    }
    out->z_dim = config_.filter.model.z_dim();
    out->kind = SnapshotKind::kFilter;
    out->health = kalman::HealthState<double>{};
    out->entries.clear();
    const std::size_t n = std::size_t(out->iteration);
    if (!schedule) {
      // Solo: no consumer is inside filter_ (step guard held), and it can
      // no longer be rebuilt by a batched consumer (batched_ was false).
      const Vector<double>& x = filter_.state();
      out->x.assign(x.data(), x.data() + x.size());
      filter_.export_state(out->recursion, out->health);
    } else if (schedule->export_head(n, out->recursion, out->entries)) {
      out->kind = SnapshotKind::kSchedule;
      if (n > 0) out->entries.insert(out->entries.begin(), std::move(last));
    } else {
      // Iteration n already slid out of the window, so the next decode
      // ejects this stream to a fresh solo filter seeded from its last
      // entry (eject_to_solo).  Capture that filter.
      out->recursion = kalman::RecursionState<double>{};
      out->recursion.p = last ? last->p_after : config_.filter.model.p0;
    }
  }

  // Seed a *fresh* session (no bin consumed yet) from a snapshot: the next
  // decode runs at iteration snap.iteration from state snap.x, and every
  // lifetime counter resumes its carried value so cluster accounting stays
  // closed across the migration.  A kFilter snapshot is imported into the
  // session's own filter (rebuilt on the constant gain first when the
  // stream was degraded); a kSchedule snapshot primes the batch estimate,
  // and the caller (DecodeServer::restore_session) attaches the schedule
  // it seeded.  Throws std::invalid_argument when the snapshot does not
  // match the config: fingerprint, x/z dimensions, recursion state, or
  // schedule entries that are missing, misshapen or do not run from
  // iteration-1 (0 at iteration 0) to the head.
  void prime_restore(const SessionSnapshot& snap) {
    const std::size_t first = snap.iteration > 0 ? snap.iteration - 1 : 0;
    const std::size_t x = ckpt_x_.size();
    const std::size_t z = config_.filter.model.z_dim();
    auto entry_fits = [&](const auto& e) {
      return e && e->k.rows() == x && e->k.cols() == z &&
             e->p_after.rows() == x && e->p_after.cols() == x;
    };
    if (snap.config_fingerprint != fingerprint_ || snap.x.size() != x ||
        snap.z_dim != z ||
        (snap.kind == SnapshotKind::kSchedule &&
         (snap.recursion.n < snap.iteration ||
          snap.entries.size() != snap.recursion.n - first ||
          !std::all_of(snap.entries.begin(), snap.entries.end(), entry_fits))))
      throw std::invalid_argument("Session: snapshot does not match config");
    std::lock_guard<std::mutex> lock(mu_);
    ckpt_x_ = Vector<double>(std::vector<double>(snap.x));
    ckpt_iteration_ = snap.iteration;
    if (snap.kind == SnapshotKind::kFilter) {
      if (SessionState(snap.health_rung) == SessionState::kDegraded) {
        degraded_inverse_ = snap.recursion.strategy.seed;
        filter_ = make_degraded_filter_locked();
        degraded_ = true;
      }
      filter_.import_state(ckpt_x_, snap.recursion, snap.health);
      workspace_bytes_ = filter_.workspace_bytes();
    } else if (snap.iteration > 0) {
      last_entry_ = snap.entries.front();  // the entry of iteration-1
    }
    // Pre-consumption writes to the consumer-only batch state are safe: no
    // consumer exists until the server schedules this session.
    batch_x_ = ckpt_x_;
    batch_iteration_ = snap.iteration;
    counters_ = snap;
    state_ = SessionState(snap.health_rung);
    backoff_remaining_ = snap.backoff_remaining;
    consecutive_misses_ = snap.consecutive_misses;
    consecutive_hits_ = snap.consecutive_hits;
  }

  // Stop accepting bins (DecodeServer::close_session).  The queued ones
  // still decode unless discarded; no next gain is precomputed for a bin
  // that can never arrive.
  // Lock-free: DecodeServer::submit reads it for every bin.
  void close() { closed_.store(true); }
  bool closed() const { return closed_.load(); }

  // Whether the session runs the recursion on its next bin, if one comes:
  // open, and not quarantined or failed (the bin is dropped, or restarts
  // the stream).
  bool decodes_next() const {
    if (closed()) return false;
    std::lock_guard<std::mutex> lock(mu_);
    return state_ != SessionState::kQuarantined &&
           state_ != SessionState::kFailed;
  }

  // Drop every queued-but-undecoded bin, counting them as discarded (the
  // close/teardown accounting satellite: nothing vanishes silently).
  std::size_t discard_queue() {
    auto& tm = detail::ServeTelemetry::get();
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t n = queue_.size();
    if (n == 0) return 0;
    queue_.clear();
    counters_.discarded += n;
    tm.discarded.add(n);
    tm.queued_bins.add(-double(n));
    return n;
  }

  // Move the queued bins out (lossless drain-migration: the cluster
  // resubmits them to the session's new incarnation, in order).
  std::deque<Vector<double>> steal_queue() {
    auto& tm = detail::ServeTelemetry::get();
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<Vector<double>> out = std::move(queue_);
    queue_.clear();
    if (!out.empty()) tm.queued_bins.add(-double(out.size()));
    return out;
  }

  // Evict the oldest queued bin (ShedPolicy::kDropOldest under admission
  // pressure).  Counted like a kDropOldest backpressure eviction.
  bool shed_oldest() {
    auto& tm = detail::ServeTelemetry::get();
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    queue_.pop_front();
    ++counters_.dropped;
    tm.dropped.add();
    tm.queued_bins.add(-1.0);
    return true;
  }

#if defined(KALMMIND_FAULTS)
  // Fault-injection hook (KALMMIND_FAULTS builds only, docs/robustness.md):
  // override the measured per-step seconds so deadline-driven degradation
  // tests are deterministic.  A negative value restores real timing.
  void fault_override_step_seconds(double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    fault_step_seconds_ = seconds;
  }
#endif

 private:
  // Status-returning decode guard: step the filter and validate the result
  // before it can reach the latency percentiles or the trajectory.  Invalid
  // when the state came back non-finite, or when the filter-level health
  // monitor had to engage its SSKF fallback — the serve layer treats that
  // as stream-level divergence (quarantine + restart clears the fallback).
  [[nodiscard]] Status guarded_step(const Vector<double>& z,
                                    const Vector<double>** out)
      KALMMIND_REALTIME {
    const Vector<double>& x = filter_.step(z);
    *out = &x;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!std::isfinite(x[i])) {
        return Status::Invalid("Session: decode produced non-finite state");
      }
    }
    if (filter_.health().fallback_active) {
      return Status::Invalid("Session: filter engaged its SSKF fallback");
    }
    return Status::Ok();
  }

  // Recorded-decode bookkeeping, shared by both engines (consumer thread):
  // the fault-hook override, steps, the checkpoint mirror, the
  // IterationTiming row, the latency sample, a deadline miss with its
  // flight event, the trajectory, the degrade ladder and the serve.step
  // span.  Returns true when the ladder degraded a batched session, which
  // must then leave its group.
  bool record_decode(
      const Vector<double>& x, std::chrono::steady_clock::time_point t0,
      double seconds, LatencyRecorder* recorder, PrepareOutcome outcome,
      std::shared_ptr<const kalman::GainSchedule::Entry> entry = nullptr) {
    auto& tm = detail::ServeTelemetry::get();
#if defined(KALMMIND_FAULTS)
    {
      // Fault-injection hook: deterministic deadline outcomes for the
      // degradation tests (see fault_override_step_seconds).
      std::lock_guard<std::mutex> lock(mu_);
      if (fault_step_seconds_ >= 0.0) seconds = fault_step_seconds_;
    }
#endif
    if (recorder) recorder->record(seconds);
    tm.steps.add();
    core::IterationTiming timing;
    timing.cycles = 0;  // wall-clock path: no cycle model attached
    timing.seconds = seconds;
    timing.meets_deadline = seconds <= config_.deadline_s;
    if (!timing.meets_deadline) tm.deadline_misses.add();

    bool was_batched = false;
    bool left_group = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      was_batched = batched_;
      timing.kf_iteration = counters_.steps;
      ++counters_.steps;
      ++prepared_[std::size_t(outcome)];
      if (batched_) {
        ++counters_.batched_steps;
        tm.batched_steps.add();
      }
      // Checkpoint mirror: the durable (iteration, x) of this stream, kept
      // under mu_ so checkpoint() can run from any thread without touching
      // the consumer-only filter/batch state (cheap: x_dim doubles).
      ckpt_x_ = x;
      ++ckpt_iteration_;
      if (entry) last_entry_ = std::move(entry);
      // Sampled under the lock so stats() never reads filter_ while a
      // worker is stepping it (steady state: constant after the first step).
      workspace_bytes_ = filter_.workspace_bytes();
      counters_.sum_step_s += seconds;
      counters_.worst_step_s = std::max(counters_.worst_step_s, seconds);
      sample_latency_locked(seconds);
      if (!timing.meets_deadline) {
        ++counters_.deadline_misses;
        if (telemetry::enabled()) {
          auto& blackbox = telemetry::FlightRecorder::global();
          blackbox.record(telemetry::FlightEventKind::kDeadlineMiss, id_,
                          counters_.steps, counters_.deadline_misses, seconds);
        }
      }
      if (config_.record_trajectory) {
        states_.push_back(x);
        timings_.push_back(timing);
      }
      if (config_.self_healing.enabled &&
          config_.self_healing.degrade_after_misses > 0) {
        track_deadline_locked(timing.meets_deadline, tm);
        left_group = was_batched && !batched_;
      }
    }
    telemetry::SpanTracer& tracer = telemetry::SpanTracer::global();
    if (tracer.enabled()) {
      tracer.complete("serve.step", "serve", tracer.to_us(t0), seconds * 1e6,
                      "\"session\":" + std::to_string(id_) +
                          (was_batched ? ",\"batched\":true" : ""));
    }
    return left_group;
  }

  // A decode the guard rejected is *not* recorded: no latency sample, no
  // trajectory entry, no steps increment — so one blown-up stream cannot
  // pollute the server's latency percentiles.  With self-healing on, the
  // session enters quarantine.  A batched decode still consumed `entry`.
  void record_invalid(
      const char* why,
      std::shared_ptr<const kalman::GainSchedule::Entry> entry = nullptr) {
    detail::ServeTelemetry::get().invalid_steps.add();
    std::lock_guard<std::mutex> lock(mu_);
    if (entry) last_entry_ = std::move(entry);
    if (telemetry::enabled()) {
      auto& blackbox = telemetry::FlightRecorder::global();
      blackbox.record(telemetry::FlightEventKind::kInvalidStep, id_,
                      counters_.steps, 0, 0.0, why);
    }
    ++counters_.invalid_steps;
    if (config_.self_healing.enabled) enter_quarantine_locked();
  }

  // Divergence response (mu_ held).  The filter restarts immediately — a
  // degraded session is restored to its original strategy first, since the
  // divergence may be the cheap strategy's fault — and the backoff then
  // decides how many bins to drop before the stream decodes again.  A
  // batched session restarts its batch estimate instead (x0, schedule
  // iteration 0) and stays in its group.
  void enter_quarantine_locked() {
    if (counters_.restarts >= config_.self_healing.max_restarts) {
      state_ = SessionState::kFailed;
      if (telemetry::enabled()) {
        // A dead stream is exactly what the black box exists for: journal
        // the transition, then dump the session's last-N events as JSONL
        // (+ trace instants) while they are still resident.
        auto& blackbox = telemetry::FlightRecorder::global();
        blackbox.record(telemetry::FlightEventKind::kFailed, id_,
                        counters_.steps, counters_.restarts);
        blackbox.postmortem(id_, "failed");
      }
      return;
    }
    state_ = SessionState::kQuarantined;
    const std::size_t shift = std::min<std::size_t>(counters_.restarts, 16);
    backoff_remaining_ =
        std::min(config_.self_healing.backoff_initial_bins << shift,
                 config_.self_healing.backoff_max_bins);
    if (telemetry::enabled()) {
      auto& blackbox = telemetry::FlightRecorder::global();
      blackbox.record(telemetry::FlightEventKind::kQuarantine, id_,
                      counters_.steps, backoff_remaining_,
                      double(counters_.restarts));
      blackbox.postmortem(id_, "quarantine");
    }
    consecutive_misses_ = 0;
    consecutive_hits_ = 0;
    // The restart decodes from (x0, iteration 0) in both modes: mirror it
    // so a checkpoint taken mid-quarantine resumes the same restart.
    ckpt_x_ = config_.filter.model.x0;
    ckpt_iteration_ = 0;
    if (batched_) {
      batch_x_ = config_.filter.model.x0;
      batch_iteration_ = 0;
      last_entry_.reset();
      return;
    }
    if (degraded_) {
      carry_estimate_locked(config_.filter.make_filter());
      degraded_ = false;
    }
    filter_.reset();
  }

  // Bounded per-session latency sample (mu_ held) feeding the p50/p95/p99
  // SLO fields of SessionStatsSnapshot — same LCG replacement scheme as
  // LatencyRecorder, small enough to sort on every stats() call.
  void sample_latency_locked(double seconds) {
    if (latency_samples_.size() < kLatencySampleCap) {
      latency_samples_.push_back(seconds);
    } else {
      latency_lcg_ =
          latency_lcg_ * 6364136223846793005ull + 1442695040888963407ull;
      latency_samples_[std::size_t(latency_lcg_ >> 33) %
                       latency_samples_.size()] = seconds;
    }
  }

  // Deadline-pressure ladder (mu_ held): consecutive misses degrade to the
  // constant steady-state gain, consecutive hits restore the original
  // strategy.  The estimate x/P carries across both swaps via set_state.
  void track_deadline_locked(bool met_deadline, detail::ServeTelemetry& tm) {
    if (!met_deadline) {
      consecutive_hits_ = 0;
      if (++consecutive_misses_ >=
              config_.self_healing.degrade_after_misses &&
          !degraded_ && !degrade_unavailable_) {
        consecutive_misses_ = 0;
        if (degrade_locked()) tm.degradations.add();
      }
      return;
    }
    consecutive_misses_ = 0;
    if (degraded_ &&
        ++consecutive_hits_ >= config_.self_healing.recover_after_hits) {
      consecutive_hits_ = 0;
      restore_locked();
    }
  }

  bool degrade_locked() {
    if (degraded_inverse_.empty()) {
      // One Riccati solve per session, cached for later degradations.  A
      // model whose recursion does not converge simply cannot degrade.
      try {
        degraded_inverse_ =
            kalman::solve_steady_state(config_.filter.model).s_inv;
      } catch (const std::exception&) {
        degrade_unavailable_ = true;
        return false;
      }
    }
    carry_estimate_locked(make_degraded_filter_locked());
    batched_ = false;  // a degraded session leaves its batch group for good
    schedule_.reset();
    degraded_ = true;
    state_ = SessionState::kDegraded;
    ++counters_.degradations;
    if (telemetry::enabled()) {
      auto& blackbox = telemetry::FlightRecorder::global();
      blackbox.record(telemetry::FlightEventKind::kDegraded, id_,
                      counters_.steps, counters_.degradations);
    }
    return true;
  }

  void restore_locked() {
    carry_estimate_locked(config_.filter.make_filter());
    degraded_ = false;
    state_ = SessionState::kHealthy;
    if (telemetry::enabled()) {
      auto& blackbox = telemetry::FlightRecorder::global();
      blackbox.record(telemetry::FlightEventKind::kRestored, id_,
                      counters_.steps, config_.self_healing.recover_after_hits);
    }
  }

  // The constant steady-state gain filter of the deadline ladder ("sskf",
  // approx 0, seeded with degraded_inverse_; mu_ held).
  kalman::KalmanFilter<double> make_degraded_filter_locked() const {
    kalman::StrategySpec spec;
    spec.kind = kalman::StrategyKind::kSskf;
    kalman::StrategyMatrices<double> data;
    data.preloaded_inverse = degraded_inverse_;
    return kalman::KalmanFilter<double>(
        config_.filter.model, kalman::make_inverse_strategy<double>(spec, data),
        config_.filter.options);
  }

  // Swap the filter (a strategy change) for `next`, carrying the current
  // estimate across (mu_ held; the single-consumer contract means no other
  // thread can be inside filter_ or the batch state).  In batched mode the
  // estimate comes from the batch state and the last consumed schedule
  // entry's posterior covariance (P0 before the first decode).
  void carry_estimate_locked(kalman::KalmanFilter<double> next) {
    Vector<double> x;
    Matrix<double> p;
    if (batched_) {
      x = batch_x_;
      p = last_entry_ ? last_entry_->p_after : config_.filter.model.p0;
    } else {
      x = filter_.state();
      p = filter_.covariance();
    }
    filter_ = std::move(next);
    filter_.set_state(std::move(x), std::move(p));
    workspace_bytes_ = filter_.workspace_bytes();
  }

  const SessionId id_;
  const SessionConfig config_;
  kalman::KalmanFilter<double> filter_;  // stepped by the scheduled worker

  // Batched-mode estimate, touched only by the owning BatchGroup's single
  // consumer (same contract as filter_): the decoded state and the
  // schedule iteration of the next decode.
  Vector<double> batch_x_;
  std::size_t batch_iteration_ = 0;

  // Held by a solo consumer across each bin and by checkpoint() across its
  // copy of filter_ (see the concurrency contract).  Taken before mu_.
  mutable std::mutex step_mu_;

  mutable std::mutex mu_;  // guards everything below
  std::size_t workspace_bytes_ = 0;  // last sampled filter_.workspace_bytes()
  // Checkpoint mirrors (serve/snapshot.hpp): the durable (iteration, x)
  // duplicated under mu_ so checkpoint() never races the consumer-only
  // batch state.  Updated in the recorded-step bookkeeping sections and on
  // quarantine restarts.
  Vector<double> ckpt_x_;
  std::size_t ckpt_iteration_ = 0;
  // Batched mode: the schedule the group decodes from, and the last
  // consumed entry (its p_after re-seeds the solo filter on fall-out).
  std::shared_ptr<kalman::GainSchedule> schedule_;
  std::shared_ptr<const kalman::GainSchedule::Entry> last_entry_;
  const std::uint64_t fingerprint_;  // config_.filter.fingerprint()
  SessionCounters counters_;         // lifetime counters (stats, snapshots)
  std::deque<Vector<double>> queue_;
  std::vector<Vector<double>> states_;
  std::vector<core::IterationTiming> timings_;
  bool batched_ = false;           // currently owned by a BatchGroup
  std::atomic<bool> closed_{false};  // no longer accepts bins
  std::size_t max_backlog_ = 0;
  std::size_t prepared_[3] = {};   // decoded bins by PrepareOutcome
  static constexpr std::size_t kLatencySampleCap = 512;
  std::vector<double> latency_samples_;  // bounded sample for SLO rollups
  std::uint64_t latency_lcg_ = 0x9e3779b97f4a7c15ull;
  // Self-healing state machine (docs/robustness.md), all under mu_.
  SessionState state_ = SessionState::kHealthy;
  std::size_t backoff_remaining_ = 0;   // bins left to drop in quarantine
  std::size_t consecutive_misses_ = 0;
  std::size_t consecutive_hits_ = 0;
  bool degraded_ = false;
  bool degrade_unavailable_ = false;    // Riccati solve failed: never degrade
  Matrix<double> degraded_inverse_;     // cached steady-state S^-1
#if defined(KALMMIND_FAULTS)
  double fault_step_seconds_ = -1.0;    // < 0: use the real measurement
#endif
};

}  // namespace kalmmind::serve
