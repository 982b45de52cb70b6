// Serving telemetry: per-step latency aggregation and the snapshot structs
// DecodeServer::stats() returns.
//
// Latencies are wall-clock seconds per decoded bin, recorded by the thread
// that decoded it (a pool worker, or submit() on arrival): the arrival path
// only (a gain precomputed before the bin arrived is not in it; one
// computed on arrival is).  The recorder keeps a bounded sample buffer
// (uniform-ish replacement once full) so a long-running server does not
// grow without bound; p50/p99 are computed on snapshot.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace kalmmind::serve {

using SessionId = std::uint64_t;

// Self-healing state of a session (docs/robustness.md).  Healthy sessions
// decode normally; a session whose decode diverges is quarantined (bins are
// consumed and dropped while an exponential backoff drains) and restarted a
// bounded number of times before it is declared failed; a session under
// sustained deadline pressure degrades to the constant steady-state gain
// and recovers once headroom returns.
enum class SessionState {
  kHealthy = 0,
  kDegraded,     // running the cheap "sskf" strategy after deadline misses
  kQuarantined,  // diverged: dropping bins while the restart backoff drains
  kFailed,       // restart budget exhausted: bins are consumed and dropped
};

inline const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::kHealthy: return "healthy";
    case SessionState::kDegraded: return "degraded";
    case SessionState::kQuarantined: return "quarantined";
    case SessionState::kFailed: return "failed";
  }
  return "?";
}

struct LatencySummary {
  std::size_t samples = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
  double mean_s = 0.0;
};

// Thread-safe latency sample sink shared by all workers of one server.
// Every record() is also observed into the registry histogram
// kalmmind.serve.step_latency_seconds, so the Prometheus/JSON snapshot and
// the sample-based summarize() describe the same stream.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(std::size_t max_samples = 1 << 20)
      : max_samples_(std::max<std::size_t>(1, max_samples)),
        histogram_(telemetry::MetricsRegistry::global().histogram(
            "kalmmind.serve.step_latency_seconds")) {}

  void record(double seconds) {
    histogram_.observe(seconds);
    std::lock_guard<std::mutex> lock(mu_);
    ++total_;
    sum_ += seconds;
    max_ = std::max(max_, seconds);
    if (samples_.size() < max_samples_) {
      samples_.push_back(seconds);
    } else {
      // Cheap deterministic replacement (LCG) — keeps the buffer a rough
      // uniform sample of the stream without a per-record allocation.
      lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
      samples_[std::size_t(lcg_ >> 33) % samples_.size()] = seconds;
    }
  }

  LatencySummary summarize() const {
    std::vector<double> sorted;
    std::size_t total;
    double sum, max;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sorted = samples_;
      total = total_;
      sum = sum_;
      max = max_;
    }
    LatencySummary out;
    out.samples = total;
    if (sorted.empty()) return out;
    std::sort(sorted.begin(), sorted.end());
    // The shared percentile implementation (telemetry::percentile) — the
    // registry's Histogram::quantile is the bucketed counterpart.
    out.p50_s = telemetry::percentile(sorted, 0.50);
    out.p99_s = telemetry::percentile(sorted, 0.99);
    out.max_s = max;
    out.mean_s = total ? sum / double(total) : 0.0;
    return out;
  }

 private:
  mutable std::mutex mu_;
  std::size_t max_samples_;
  std::vector<double> samples_;
  std::size_t total_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
  std::uint64_t lcg_ = 0x9e3779b97f4a7c15ull;
  telemetry::Histogram& histogram_;
};

// A session's lifetime counters: reported by SessionStatsSnapshot, and
// carried across migrations by SessionSnapshot so cluster accounting stays
// closed (decoded + discarded + rejected == submitted).
struct SessionCounters {
  std::size_t steps = 0;            // measurements decoded so far
  std::size_t batched_steps = 0;    // subset of steps decoded in a BatchGroup
  std::size_t deadline_misses = 0;  // steps slower than the session deadline
  std::size_t rejected = 0;         // submits bounced by kReject backpressure
  std::size_t dropped = 0;          // bins evicted by kDropOldest
  std::size_t discarded = 0;        // queued bins dropped at close/teardown
  // Self-healing (docs/robustness.md).
  std::size_t invalid_steps = 0;       // diverged decodes caught by the guard
  std::size_t restarts = 0;            // quarantine restarts performed
  std::size_t degradations = 0;        // strategy downgrades performed
  std::size_t quarantine_dropped = 0;  // bins consumed while not decoding
  double sum_step_s = 0.0;             // summed decode wall time
  double worst_step_s = 0.0;
};

// Point-in-time view of one session.
struct SessionStatsSnapshot : SessionCounters {
  SessionId id = 0;
  std::size_t queue_depth = 0;      // bins waiting right now
  std::size_t max_backlog = 0;      // worst queue depth observed
  double mean_step_s = 0.0;
  std::size_t workspace_bytes = 0;  // filter step-workspace heap bytes
  SessionState state = SessionState::kHealthy;
  bool batched = false;             // currently decoding in a BatchGroup
  // Precompute (docs/serving.md), over the decoded bins of this server's
  // incarnation of the session (not carried across migrations): the bin
  // found its gain prepared before it arrived, found none and computed it
  // on arrival, or skipped its measurement so the prepared gain was thrown
  // away.  The three add up to the bins decoded here.
  std::size_t prepared_steps = 0;
  std::size_t unprepared_steps = 0;
  std::size_t prepared_dropped = 0;
  // SLO rollup (docs/observability.md): step-latency percentiles over a
  // bounded per-session sample, computed with telemetry::percentile.
  double p50_step_s = 0.0;
  double p95_step_s = 0.0;
  double p99_step_s = 0.0;
};

// Point-in-time view of the whole server.
struct ServerStats {
  std::size_t sessions = 0;             // currently open
  std::size_t total_steps = 0;
  std::size_t total_deadline_misses = 0;
  std::size_t total_rejected = 0;
  std::size_t total_dropped = 0;
  std::size_t total_discarded = 0;      // close/teardown-dropped queued bins
  std::size_t queued = 0;               // pending bins across all sessions
  double uptime_s = 0.0;
  double steps_per_second = 0.0;        // total_steps / uptime
  double worker_busy_s = 0.0;           // summed pool-worker wall time
  double worker_utilization = 0.0;      // busy / (uptime * workers)
  // Bins consumed by submit() on the submitting thread (a prepared bin
  // that found its unit idle, docs/serving.md); their time is not in
  // worker_busy_s.
  std::size_t total_arrival_steps = 0;
  // Self-healing rollup (docs/robustness.md).
  std::size_t degraded_sessions = 0;
  std::size_t quarantined_sessions = 0;
  std::size_t failed_sessions = 0;
  std::size_t total_invalid_steps = 0;
  std::size_t total_restarts = 0;
  std::size_t total_degradations = 0;
  std::size_t total_quarantine_dropped = 0;
  // Batched serving rollup (docs/serving.md).
  std::size_t batched_sessions = 0;     // sessions currently in a group
  std::size_t batch_groups = 0;         // groups some session decodes in
  std::size_t total_batched_steps = 0;
  std::uint64_t gain_cache_hits = 0;
  std::uint64_t gain_cache_misses = 0;
  std::uint64_t gain_cache_evictions = 0;
  std::uint64_t gain_cache_collisions = 0;
  // Precompute rollup: the per-session fields summed (docs/serving.md).
  std::size_t total_prepared_steps = 0;
  std::size_t total_unprepared_steps = 0;
  std::size_t total_prepared_dropped = 0;
  // SLO rollup (docs/observability.md): fraction of recorded steps that met
  // their session deadline (1.0 while no step has been recorded), also
  // exported as the kalmmind.serve.slo_attainment gauge.
  double deadline_slo = 1.0;
  LatencySummary step_latency;
  std::vector<SessionStatsSnapshot> per_session;

  std::string to_string() const;
};

}  // namespace kalmmind::serve
