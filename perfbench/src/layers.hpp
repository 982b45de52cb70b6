// The traced run's per-layer ledger.  Every timing here is taken from the
// benchmark's own code, around calls into a layer's public functions; no
// span inside the program is involved.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerInputs {
  const WorkloadSpec& w;
  const Streams& streams;  // the measured run's models and bins
  std::uint64_t seed;
};

// Counters the serving layer already exports, read once after the run.
struct ServeCounters {
  double compute_p99_ms = 0.0;
  std::size_t compute_samples = 0;
  double utilization = 0.0;
  std::uint64_t steps = 0;
  std::uint64_t batched_steps = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  std::size_t max_backlog = 0;
};
void report_serve_counters(const ServeCounters& c, Report& report);

// Control-plane timings of a ShardedDecodeServer.
struct ClusterTimings {
  std::vector<double> pump_us;   // pump() calls that decoded something
  std::vector<double> tick_ms;
  std::vector<double> stats_ms;
  double checkpoint_ms_per_session = 0.0;
  std::size_t checkpointed = 0;
  double migrate_ms_per_session = 0.0;
  std::size_t migrated = 0;
  double admission_accept_ratio = 0.0;  // accepted submits / attempts
  std::uint64_t admission_attempts = 0;
};
// `source` names the cluster the timings came from; it is printed beside
// every value.
void report_cluster_timings(const ClusterTimings& t, const std::string& source,
                            Report& report);

// linalg.* (inverses on S = H P H^t + R from the workload's own models),
// kalman.* (KalmanFilter::step replayed over the workload's streams,
// GainSchedule::at on a fresh schedule), and serve.poll_us_per_step,
// serve.session_overhead_us and serve.batch_us_per_member from
// manual-mode DecodeServers.
void probe_layers(const LayerInputs& in, Report& report);

// cluster.migrate_ms_per_session.{cold,warm}.age{50,150}: one drain_shard
// per point, each on a fresh manual-pumped 4-shard cluster of motor
// sessions decoded to that age: per-user models (the target's cache is
// cold, so the schedule replays from iteration 0) or one shared model
// (warm).  With emit_cluster_timings -- on the workloads that run no
// cluster of their own -- the cold age-150 cluster also supplies the
// cluster.* control-plane timings, labelled as coming from it.
void probe_migration_series(const LayerInputs& in, Report& report,
                            bool emit_cluster_timings);

// How much of serve.poll_us_per_step the kalman and linalg timings explain.
void print_poll_ledger(Report& report);

}  // namespace perfbench
