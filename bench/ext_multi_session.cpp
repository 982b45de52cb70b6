// Extension: multi-session decode throughput scaling + batched serving.
//
// The paper's accelerator decodes one stream under a 50 ms/bin deadline;
// a production relay station serves many implanted users at once.  Two
// experiments on the somatosensory dataset (z=52, the middle-sized preset):
//
//  1. Solo scaling: S concurrent sessions through the DecodeServer as the
//     worker pool grows from 1 thread to hardware_concurrency — the
//     sessions/s curve a deployment sizes its host cores against.
//  2. Batched serving (docs/serving.md): the same-config fleet again,
//     solo (per-session stepping, batching disabled) vs batched (shared
//     gain schedule + fused SoA passes).  Because equal configs walk the
//     same gain trajectory, the batched path pays the measurement-
//     independent work once per bin instead of once per session — the
//     sessions/s ratio is written to BENCH_serve.json and floored by
//     scripts/bench_perf.sh.
//  3. Snapshot migration (docs/robustness.md) at the paper's motor dims
//     (x=6, z=164): a sharded cluster checkpoints every session through
//     the SessionSnapshot wire codec, then drain-migrates one shard
//     mid-stream.  Three series: a warm one (one shared model, so the
//     target shard's gain-schedule cache already holds the schedule), a
//     cold one (a model per user, sessions 150 bins old, so the target has
//     never seen the schedule and the snapshot's recursion state is all
//     it has) and a skewed one (one shared model, sessions opened 8 bins
//     apart, so a drained session can be older than every session on its
//     target and land ahead of that shard's schedule).  The per-session
//     checkpoint and migration (snapshot + restore + requeue) latencies go
//     into BENCH_serve.json; bench_perf.sh floors every series at
//     5 ms/session, because failover that costs more than a 50 ms bin
//     budget's tenth is an outage.  After the drain the rest of every
//     stream is decoded and timed — the first bin of every stream, then
//     steady-state steps/s and the share of those steps decoded batched,
//     which show whether the migrated sessions still share one gain
//     schedule per shard with the sessions already there.
//
// All experiments end with a determinism check: every served trajectory
// (solo, batched, or migrated) must be bit-identical to the same filter
// stepped sequentially.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common.hpp"
#include "linalg/simd/simd.hpp"
#include "serve/serve.hpp"

using namespace kalmmind;

namespace {

serve::SessionConfig session_config(const neural::NeuralDataset& dataset) {
  serve::SessionConfig cfg;
  cfg.filter.model = dataset.model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 0;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.queue_capacity = dataset.test_measurements.size();  // lossless
  cfg.deadline_s = 0.05;
  return cfg;
}

struct RunResult {
  double wall_s = 0.0;
  double steps_per_s = 0.0;
  double p99_ms = 0.0;
  std::size_t misses = 0;
  std::size_t batched_steps = 0;
  bool identical = true;
};

RunResult run_once(const neural::NeuralDataset& dataset,
                   const std::vector<std::vector<linalg::Vector<double>>>&
                       sequential_reference,
                   std::size_t sessions, unsigned workers, bool batching) {
  const serve::SessionConfig cfg = session_config(dataset);

  serve::ServerOptions options;
  options.workers = workers;
  options.max_batch = 4;
  options.batching = batching;
  serve::DecodeServer server(options);
  std::vector<serve::SessionId> ids;
  for (std::size_t s = 0; s < sessions; ++s) {
    ids.push_back(server.open_session(cfg));
  }

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& z : dataset.test_measurements) {
    for (const auto id : ids) server.submit(id, z);
  }
  server.drain();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const serve::ServerStats stats = server.stats();
  RunResult r;
  r.wall_s = wall;
  r.steps_per_s = double(stats.total_steps) / wall;
  r.p99_ms = stats.step_latency.p99_s * 1e3;
  r.misses = stats.total_deadline_misses;
  r.batched_steps = stats.total_batched_steps;

  // Every served session must reproduce the sequential filter bit for bit.
  for (std::size_t s = 0; s < sessions; ++s) {
    const auto served = server.trajectory(ids[s]);
    const auto& expect = sequential_reference[s % sequential_reference.size()];
    if (served.size() != expect.size()) {
      r.identical = false;
      break;
    }
    for (std::size_t n = 0; r.identical && n < served.size(); ++n) {
      for (std::size_t d = 0; d < served[n].size(); ++d) {
        if (served[n][d] != expect[n][d]) r.identical = false;
      }
    }
    if (!r.identical) break;
  }
  return r;
}

struct MigrationResult {
  std::size_t sessions = 0;
  std::size_t migrated = 0;
  std::size_t age_bins = 0;  // bins each session decoded before the move
  double snapshot_ms_per_session = 0.0;
  double migrate_ms_per_session = 0.0;
  double first_bin_ms = 0.0;            // every stream's first bin after
  double post_drain_steps_per_s = 0.0;  // the rest of every stream
  double batched_step_share = 0.0;      // of that rest
  bool identical = true;
};

// Experiment 3: snapshot migration at the paper's motor dims.  Session s
// decodes datasets[s % datasets.size()] for age - s * stagger bins, is
// checkpointed, drain-migrated, and then decodes the rest of its stream.
MigrationResult run_migration_bench(
    const std::vector<neural::NeuralDataset>& datasets, std::size_t sessions,
    std::size_t age, std::size_t stagger = 0) {
  MigrationResult r;
  r.sessions = sessions;
  r.age_bins = age;
  auto age_of = [&](std::size_t s) { return age - s * stagger; };
  std::vector<serve::SessionConfig> configs;
  for (const auto& dataset : datasets)
    configs.push_back(session_config(dataset));
  auto dataset_of = [&](std::size_t s) -> const neural::NeuralDataset& {
    return datasets[s % datasets.size()];
  };

  serve::ClusterOptions options;
  options.shards = 2;
  // Lossless bench: after the drain migration one shard hosts the whole
  // fleet, so the watermark must admit every outstanding bin at once.
  options.high_watermark = r.sessions * configs[0].queue_capacity + 1;
  options.low_watermark = options.high_watermark / 2;
  options.checkpoint_every_bins = 0;  // explicit checkpoints only
  serve::ShardedDecodeServer cluster(options);
  std::vector<serve::SessionId> ids;
  for (std::size_t s = 0; s < r.sessions; ++s) {
    ids.push_back(cluster.open_session(configs[s % configs.size()]));
  }

  // Decode each session's first age_of(s) bins, then checkpoint the whole
  // fleet through the SessionSnapshot codec.
  for (std::size_t n = 0; n < age; ++n) {
    for (std::size_t s = 0; s < ids.size(); ++s)
      if (n < age_of(s))
        (void)cluster.submit(ids[s], dataset_of(s).test_measurements[n]);
  }
  cluster.drain();

  const auto c0 = std::chrono::steady_clock::now();
  const std::size_t snapped = cluster.checkpoint_all();
  const double snap_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - c0)
          .count();
  r.snapshot_ms_per_session =
      snapped > 0 ? snap_s * 1e3 / double(snapped) : 0.0;

  // Drain-migrate one shard: checkpoint + steal-queue + restore + requeue
  // for every session it hosts, then a rebuild.
  const std::size_t victim = cluster.shard_of(ids.front());
  std::size_t victims = 0;
  for (const auto id : ids) {
    if (cluster.shard_of(id) == victim) ++victims;
  }
  const auto m0 = std::chrono::steady_clock::now();
  const Status migrated = cluster.drain_shard(victim);
  const double mig_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - m0)
          .count();
  r.migrated = migrated.ok() ? victims : 0;
  r.migrate_ms_per_session =
      r.migrated > 0 ? mig_s * 1e3 / double(r.migrated) : 1e9;

  // Finish the streams and hold migration to the bit-identity bar.  The
  // first bin of every stream after the drain is timed on its own: a
  // restore that landed ahead of its target's schedule has that shard
  // compute the iterations in between there (or, restoring by replay,
  // during the drain).  The rest is timed as steady-state steps/s, with
  // the share of those steps decoded batched.
  const std::size_t bins = datasets[0].test_measurements.size();
  auto finish = [&](std::size_t from_offset, std::size_t to_offset) {
    std::size_t steps = 0;
    for (std::size_t n = 0; n < bins; ++n) {
      for (std::size_t s = 0; s < ids.size(); ++s) {
        if (n < age_of(s) + from_offset || n >= age_of(s) + to_offset)
          continue;
        (void)cluster.submit(ids[s], dataset_of(s).test_measurements[n]);
        ++steps;
      }
    }
    cluster.drain();
    return steps;
  };
  auto batched_steps = [&] {
    std::size_t total = 0;
    for (const auto id : ids) total += cluster.session_stats(id).batched_steps;
    return total;
  };
  const auto f0 = std::chrono::steady_clock::now();
  (void)finish(0, 1);
  const auto p0 = std::chrono::steady_clock::now();
  r.first_bin_ms = std::chrono::duration<double>(p0 - f0).count() * 1e3;
  const std::size_t batched_before = batched_steps();
  const std::size_t post_steps = finish(1, bins);
  const double post_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - p0)
          .count();
  r.post_drain_steps_per_s = post_s > 0.0 ? double(post_steps) / post_s : 0.0;
  r.batched_step_share =
      post_steps ? double(batched_steps() - batched_before) / double(post_steps)
                 : 0.0;

  std::vector<std::vector<linalg::Vector<double>>> sequential;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    kalman::KalmanFilter<double> filter = configs[d].filter.make_filter();
    sequential.push_back(filter.run(datasets[d].test_measurements).states);
  }
  for (std::size_t s = 0; r.identical && s < ids.size(); ++s) {
    const auto served = cluster.trajectory(ids[s]);
    const auto& seq = sequential[s % sequential.size()];
    if (served.size() != seq.size()) {
      r.identical = false;
      break;
    }
    for (std::size_t n = 0; r.identical && n < served.size(); ++n) {
      for (std::size_t d = 0; d < served[n].size(); ++d) {
        if (served[n][d] != seq[n][d]) r.identical = false;
      }
    }
  }
  return r;
}

void print_migration(const char* label, const MigrationResult& mig) {
  std::printf("%-5s checkpoint : %.3f ms/session (SessionSnapshot codec, "
              "%zu sessions %zu bins old)\n",
              label, mig.snapshot_ms_per_session, mig.sessions, mig.age_bins);
  std::printf("%-5s migration  : %.3f ms/session (snapshot + restore + "
              "requeue, %zu sessions drained)\n",
              label, mig.migrate_ms_per_session, mig.migrated);
  std::printf("%-5s after drain: first bin of every stream %.3f ms, then "
              "%.0f steps/s, %.3f of them batched\n",
              label, mig.first_bin_ms, mig.post_drain_steps_per_s,
              mig.batched_step_share);
  std::printf("%-5s trajectories %s after migration\n", label,
              mig.identical ? "bit-identical to sequential execution"
                            : "DIVERGED — migration bug");
}

void print_migration_json(FILE* f, const char* key,
                          const MigrationResult& mig, bool last) {
  std::fprintf(f,
               "  \"%s\": {\n"
               "    \"dataset\": \"motor\",\n"
               "    \"sessions\": %zu,\n"
               "    \"migrated\": %zu,\n"
               "    \"age_bins\": %zu,\n"
               "    \"snapshot_ms_per_session\": %.3f,\n"
               "    \"migrate_ms_per_session\": %.3f,\n"
               "    \"first_bin_ms\": %.3f,\n"
               "    \"post_drain_steps_per_s\": %.1f,\n"
               "    \"batched_step_share\": %.3f,\n"
               "    \"identical\": %s\n"
               "  }%s\n",
               key, mig.sessions, mig.migrated, mig.age_bins,
               mig.snapshot_ms_per_session, mig.migrate_ms_per_session,
               mig.first_bin_ms, mig.post_drain_steps_per_s,
               mig.batched_step_share,
               mig.identical ? "true" : "false", last ? "" : ",");
}

}  // namespace

int main() {
  neural::DatasetSpec spec = neural::somatosensory_spec();
  spec.test_steps = 150;
  const neural::NeuralDataset dataset = neural::build_dataset(spec);
  const std::size_t bins = dataset.test_measurements.size();

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t sessions = std::size_t(2) * std::max(4u, hw);

  // Sequential reference: identical model + strategy, plain loop.  All
  // sessions share the measurement stream, so one reference covers them.
  const serve::SessionConfig cfg = session_config(dataset);
  kalman::KalmanFilter<double> sequential = cfg.filter.make_filter();
  const auto seq = sequential.run(dataset.test_measurements);
  const std::vector<std::vector<linalg::Vector<double>>> reference = {
      seq.states};

  std::printf("ext: multi-session decode scaling — %zu sessions x %zu bins, "
              "somatosensory z=%zu, %s\n\n",
              sessions, bins, dataset.model.z_dim(),
              cfg.filter.strategy.format().c_str());
  std::printf("%8s %10s %12s %9s %10s %8s %12s\n", "workers", "wall(s)",
              "steps/s", "speedup", "p99(ms)", "misses", "identical");

  // Sweep to at least 4 workers even on small machines: oversubscribed
  // pools still have to preserve bit-identity, and the curve is the point
  // on real multicore hosts.  Batching off: this is the solo scaling story.
  const unsigned max_workers = std::max(4u, hw);
  std::vector<unsigned> worker_counts;
  for (unsigned w = 1; w < max_workers; w *= 2) worker_counts.push_back(w);
  worker_counts.push_back(max_workers);

  double base = 0.0;
  bool all_identical = true;
  double best_speedup = 0.0;
  for (const unsigned w : worker_counts) {
    const RunResult r =
        run_once(dataset, reference, sessions, w, /*batching=*/false);
    if (w == 1) base = r.steps_per_s;
    const double speedup = base > 0.0 ? r.steps_per_s / base : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    all_identical = all_identical && r.identical;
    std::printf("%8u %10.3f %12.0f %8.2fx %10.3f %8zu %12s\n", w, r.wall_s,
                r.steps_per_s, speedup, r.p99_ms, r.misses,
                r.identical ? "yes" : "NO");
  }

  std::printf("\nbest scaling: %.2fx over 1 worker (%u hardware threads); "
              "trajectories %s\n",
              best_speedup, hw,
              all_identical ? "bit-identical to sequential execution"
                            : "DIVERGED — serving bug");

  // Batched vs solo: a same-config fleet big enough that the shared gain
  // schedule dominates (>= 32 sessions, more on wide machines), both modes
  // at the full worker pool.
  const std::size_t fleet = std::max<std::size_t>(32, std::size_t(4) * hw);
  std::printf("\next: batched serving — %zu same-config sessions x %zu bins, "
              "%u workers\n\n",
              fleet, bins, hw);
  const RunResult solo =
      run_once(dataset, reference, fleet, hw, /*batching=*/false);
  const RunResult batched =
      run_once(dataset, reference, fleet, hw, /*batching=*/true);
  const double batch_speedup =
      solo.steps_per_s > 0.0 ? batched.steps_per_s / solo.steps_per_s : 0.0;
  all_identical = all_identical && solo.identical && batched.identical;

  std::printf("%8s %10s %12s %9s %14s %12s\n", "mode", "wall(s)", "steps/s",
              "speedup", "batched steps", "identical");
  std::printf("%8s %10.3f %12.0f %8.2fx %14zu %12s\n", "solo", solo.wall_s,
              solo.steps_per_s, 1.0, solo.batched_steps,
              solo.identical ? "yes" : "NO");
  std::printf("%8s %10.3f %12.0f %8.2fx %14zu %12s\n", "batched",
              batched.wall_s, batched.steps_per_s, batch_speedup,
              batched.batched_steps, batched.identical ? "yes" : "NO");
  std::printf("\nbatched serving: %.2fx sessions/s over solo; "
              "trajectories %s\n",
              batch_speedup,
              all_identical ? "bit-identical to sequential execution"
                            : "DIVERGED — serving bug");

  // Snapshot migration at the paper's motor dims (x=6, z=164).  Warm:
  // one shared model, 50 bins old.  Cold: a model per user (per-user seed),
  // 150 bins old, so no target shard has its schedule cached.
  std::vector<neural::NeuralDataset> shared_model;
  {
    neural::DatasetSpec motor = neural::motor_spec();
    motor.test_steps = 100;
    shared_model.push_back(neural::build_dataset(motor));
  }
  const MigrationResult mig = run_migration_bench(shared_model, 16, 50);
  std::vector<neural::NeuralDataset> per_user;
  constexpr std::size_t kColdSessions = 16;
  for (std::size_t u = 0; u < kColdSessions; ++u) {
    neural::DatasetSpec motor = neural::motor_spec();
    motor.seed += 101 * (u + 1);
    motor.test_steps = 180;
    per_user.push_back(neural::build_dataset(motor));
  }
  const MigrationResult cold =
      run_migration_bench(per_user, kColdSessions, 150);
  // Skewed: one shared model, 16 sessions 150, 142, ..., 30 bins old.
  std::vector<neural::NeuralDataset> shared_long;
  {
    neural::DatasetSpec motor = neural::motor_spec();
    motor.test_steps = 250;
    shared_long.push_back(neural::build_dataset(motor));
  }
  const MigrationResult skewed =
      run_migration_bench(shared_long, 16, 150, /*stagger=*/8);
  all_identical =
      all_identical && mig.identical && cold.identical && skewed.identical;
  std::printf("\next: snapshot migration — motor x=6 z=164, 2 shards\n\n");
  print_migration("warm", mig);
  print_migration("cold", cold);
  print_migration("skew", skewed);

  // Machine-readable record for scripts/bench_perf.sh and CI artifacts.
  if (FILE* f = std::fopen("BENCH_serve.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"ext_multi_session_batched\",\n"
                 "  \"dataset\": \"%s\",\n"
                 "  \"sessions\": %zu,\n"
                 "  \"bins\": %zu,\n"
                 "  \"workers\": %u,\n"
                 "  \"simd_tier\": \"%s\",\n"
                 "  \"solo_steps_per_s\": %.1f,\n"
                 "  \"batched_steps_per_s\": %.1f,\n"
                 "  \"batched_speedup\": %.3f,\n"
                 "  \"batched_steps\": %zu,\n"
                 "  \"identical\": %s,\n",
                 spec.name.c_str(), fleet, bins, hw,
                 linalg::simd::tier_name(linalg::simd::active_tier()),
                 solo.steps_per_s, batched.steps_per_s, batch_speedup,
                 batched.batched_steps, all_identical ? "true" : "false");
    print_migration_json(f, "migration", mig, /*last=*/false);
    print_migration_json(f, "migration_cold", cold, /*last=*/false);
    print_migration_json(f, "migration_skewed", skewed, /*last=*/true);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");
  }
  return all_identical ? 0 : 1;
}
