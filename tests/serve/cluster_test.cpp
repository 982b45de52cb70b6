// ShardedDecodeServer: consistent-hash placement, admission control with
// retry-with-backoff, lossless drain migration, and seeded shard-kill
// chaos — checkpointed sessions must resume on another shard bit-identical
// to an uninterrupted solo run, with bin conservation closed:
// decoded + queued + dropped + discarded == submitted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "serve/serve.hpp"
#include "telemetry/telemetry.hpp"
#include "../kalman/kalman_test_util.hpp"

namespace kalmmind::serve {
namespace {

using linalg::Vector;

SessionConfig interleaved_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 3;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.queue_capacity = 1024;
  return cfg;
}

std::vector<Vector<double>> solo_trajectory(
    const SessionConfig& cfg, const std::vector<Vector<double>>& zs) {
  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> states;
  for (const auto& z : zs) states.push_back(filter.step(z));
  return states;
}

void expect_bit_identical(const std::vector<Vector<double>>& got,
                          const std::vector<Vector<double>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t n = 0; n < got.size(); ++n) {
    ASSERT_EQ(got[n].size(), want[n].size());
    for (std::size_t d = 0; d < got[n].size(); ++d)
      ASSERT_EQ(got[n][d], want[n][d]) << "step " << n << " dim " << d;
  }
}

// decoded + queued + dropped + discarded (+ divergence/quarantine sinks)
// must equal the bins the cluster accepted; accepted + rejections must
// equal the attempts the client made.
void expect_conservation(const ClusterStats& s, std::uint64_t attempts) {
  EXPECT_EQ(s.submitted + s.rejected_overload + s.rejected_full, attempts);
  EXPECT_EQ(s.decoded + s.invalid_steps + s.quarantine_dropped + s.dropped +
                s.discarded + s.queued,
            s.submitted);
}

TEST(ServeClusterTest, PlacementSpreadsSessionsAndDecodesBitExact) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 8;
  constexpr std::size_t kSteps = 30;

  ClusterOptions opts;
  opts.shards = 4;
  ShardedDecodeServer cluster(opts);

  std::vector<SessionId> ids;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    Status status;
    const SessionId id = cluster.open_session(cfg, &status);
    ASSERT_NE(id, ShardedDecodeServer::kInvalidSession) << status.message();
    ids.push_back(id);
    streams.push_back(testing::simulate_measurements(model, kSteps, 500 + s));
  }

  std::uint64_t attempts = 0;
  for (std::size_t n = 0; n < kSteps; ++n)
    for (std::size_t s = 0; s < kSessions; ++s) {
      ++attempts;
      ASSERT_TRUE(cluster.submit(ids[s], streams[s][n]).ok());
    }
  cluster.drain();

  for (std::size_t s = 0; s < kSessions; ++s)
    expect_bit_identical(cluster.trajectory(ids[s]),
                         solo_trajectory(cfg, streams[s]));

  const ClusterStats stats = cluster.stats();
  expect_conservation(stats, attempts);
  EXPECT_EQ(stats.decoded, kSessions * kSteps);
  // The ring spread the sessions over more than one shard.
  std::size_t used = 0;
  for (const auto& shard : stats.per_shard)
    used += shard.server.total_steps > 0 ? 1 : 0;
  EXPECT_GT(used, 1u);
}

TEST(ServeClusterTest, OverloadReturnsRetryableStatusAndBackoffLandsAll) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSteps = 40;

  ClusterOptions opts;
  opts.shards = 1;  // one shard so the watermark is easy to trip
  opts.high_watermark = 8;
  opts.low_watermark = 2;
  ShardedDecodeServer cluster(opts);
  const SessionId id = cluster.open_session(cfg);
  ASSERT_NE(id, ShardedDecodeServer::kInvalidSession);
  const auto zs = testing::simulate_measurements(model, kSteps, 9);

  // Unpumped, raw submits trip the watermark with a *retryable* Overloaded
  // Status — never an unbounded queue, never a block.
  std::size_t direct_ok = 0;
  Status overload = Status::Ok();
  for (std::size_t n = 0; n < 12; ++n) {
    const Status s = cluster.submit(id, zs[n]);
    if (s.ok()) {
      ++direct_ok;
    } else {
      overload = s;
    }
  }
  ASSERT_FALSE(overload.ok());
  EXPECT_EQ(overload.code(), StatusCode::kOverloaded);
  EXPECT_TRUE(overload.retryable());
  EXPECT_LT(direct_ok, 12u);

  // The retry client lands every remaining bin: between attempts it pumps
  // the cluster (the deterministic stand-in for backoff sleep), draining
  // the shard below the low watermark so hysteresis re-admits.
  RetryingSubmitter::Policy policy;
  policy.seed = 0x5eed;
  RetryingSubmitter submitter(cluster, policy);
  submitter.set_between_attempts([&] { cluster.pump(); });
  std::uint64_t attempts = 12;  // the direct probes above
  for (std::size_t n = direct_ok; n < kSteps; ++n) {
    // Replay the bins the probes failed to land, then the rest, in order.
    const Status s = submitter.submit(id, zs[n]);
    ASSERT_TRUE(s.ok()) << s.message();
  }
  attempts += submitter.stats().attempts;
  cluster.drain();

  const ClusterStats stats = cluster.stats();
  expect_conservation(stats, attempts);
  EXPECT_EQ(stats.decoded, kSteps);
  EXPECT_GT(stats.rejected_overload, 0u);
  EXPECT_EQ(submitter.stats().exhausted, 0u);
  EXPECT_GT(submitter.stats().retries, 0u);
  expect_bit_identical(
      cluster.trajectory(id),
      solo_trajectory(cfg, {zs.begin(), zs.begin() + kSteps}));
}

TEST(ServeClusterTest, DropOldestShedPolicyEvictsInsteadOfRejecting) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);

  ClusterOptions opts;
  opts.shards = 1;
  opts.high_watermark = 6;
  opts.low_watermark = 2;
  opts.shed = ShedPolicy::kDropOldest;
  ShardedDecodeServer cluster(opts);
  const SessionId id = cluster.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 20, 11);

  std::uint64_t attempts = 0;
  for (const auto& z : zs) {
    ++attempts;
    // kDropOldest sheds by eviction: submits keep succeeding.
    ASSERT_TRUE(cluster.submit(id, z).ok());
  }
  cluster.drain();

  const ClusterStats stats = cluster.stats();
  expect_conservation(stats, attempts);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.rejected_overload, 0u);
}

TEST(ServeClusterTest, DrainShardMigratesLosslesslyAndBitExact) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kSteps = 40;
  constexpr std::size_t kDecodedBeforeDrain = 25;

  ClusterOptions opts;
  opts.shards = 3;
  ShardedDecodeServer cluster(opts);

  std::vector<SessionId> ids;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(cluster.open_session(cfg));
    ASSERT_NE(ids.back(), ShardedDecodeServer::kInvalidSession);
    streams.push_back(testing::simulate_measurements(model, kSteps, 700 + s));
  }

  std::uint64_t attempts = 0;
  for (std::size_t n = 0; n < kDecodedBeforeDrain; ++n)
    for (std::size_t s = 0; s < kSessions; ++s) {
      ++attempts;
      ASSERT_TRUE(cluster.submit(ids[s], streams[s][n]).ok());
    }
  cluster.drain();
  // Leave undecoded bins queued: the drain must move them too, in order.
  for (std::size_t n = kDecodedBeforeDrain; n < kSteps; ++n)
    for (std::size_t s = 0; s < kSessions; ++s) {
      ++attempts;
      ASSERT_TRUE(cluster.submit(ids[s], streams[s][n]).ok());
    }

  const std::size_t victim = cluster.shard_of(ids[0]);
  ASSERT_TRUE(cluster.drain_shard(victim).ok());
  EXPECT_NE(cluster.shard_of(ids[0]), victim);
  EXPECT_EQ(cluster.shard_state(victim), ShardState::kHealthy);  // rebuilt
  cluster.drain();

  for (std::size_t s = 0; s < kSessions; ++s)
    expect_bit_identical(cluster.trajectory(ids[s]),
                         solo_trajectory(cfg, streams[s]));

  const ClusterStats stats = cluster.stats();
  expect_conservation(stats, attempts);
  EXPECT_EQ(stats.decoded, kSessions * kSteps);
  EXPECT_EQ(stats.discarded, 0u);  // lossless: nothing was thrown away
  EXPECT_GT(stats.sessions_migrated, 0u);
  EXPECT_GT(stats.shard_rebuilds, 0u);
}

// The quiesce/fence protocol under real concurrency (the TSan rerun's
// target): pump() from several threads while a drain migration fences,
// quiesces and rebuilds a shard mid-stream.  Submits that hit the fence
// come back retryable and land on retry; every stream stays bit-identical.
TEST(ServeClusterTest, ConcurrentPumpingSurvivesDrainMigration) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kSteps = 80;
  constexpr std::size_t kMigrateAt = 40;

  ClusterOptions opts;
  opts.shards = 3;
  opts.checkpoint_every_bins = 0;
  ShardedDecodeServer cluster(opts);

  std::vector<SessionId> ids;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(cluster.open_session(cfg));
    ASSERT_NE(ids.back(), ShardedDecodeServer::kInvalidSession);
    streams.push_back(testing::simulate_measurements(model, kSteps, 7100 + s));
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> pumpers;
  for (int t = 0; t < 4; ++t) {
    pumpers.emplace_back([&] {
      while (!stop.load()) cluster.pump();
    });
  }

  RetryingSubmitter::Policy policy;
  policy.max_attempts = 10000;  // the fence window is transient; outlast it
  RetryingSubmitter client(cluster, policy);
  client.set_between_attempts([] { std::this_thread::yield(); });

  for (std::size_t n = 0; n < kSteps; ++n) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      const Status st = client.submit(ids[s], streams[s][n]);
      ASSERT_TRUE(st.ok()) << st.message();
    }
    if (n == kMigrateAt) {
      const Status st = cluster.drain_shard(cluster.shard_of(ids[0]));
      ASSERT_TRUE(st.ok()) << st.message();
    }
  }
  cluster.drain();
  stop.store(true);
  for (auto& t : pumpers) t.join();

  for (std::size_t s = 0; s < kSessions; ++s)
    expect_bit_identical(cluster.trajectory(ids[s]),
                         solo_trajectory(cfg, streams[s]));
  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.decoded, kSessions * kSteps);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.discarded, 0u);  // drain migration is lossless
  EXPECT_GT(stats.sessions_migrated, 0u);
}

TEST(ServeClusterTest, CloseDiscardCountsQueuedBins) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  ClusterOptions opts;
  opts.shards = 2;
  ShardedDecodeServer cluster(opts);
  const SessionId id = cluster.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 10, 3);

  for (std::size_t n = 0; n < 4; ++n)
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
  cluster.drain();
  for (std::size_t n = 4; n < 10; ++n)
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());

  ASSERT_TRUE(cluster.close_session(id, CloseMode::kDiscard));
  EXPECT_FALSE(cluster.submit(id, zs[0]).ok());
  cluster.drain();

  const auto stats = cluster.session_stats(id);
  EXPECT_EQ(stats.steps, 4u);
  EXPECT_EQ(stats.discarded, 6u);  // the queued tail, counted not lost
  expect_conservation(cluster.stats(), 10);
}

// tick() reaps finished routes: the closed session's counters fold into
// the cluster totals (conservation keeps closing), its route and shard
// slot are freed, and the id turns permanently unknown.
TEST(ServeClusterTest, TickReapsFinishedRoutesAndKeepsConservation) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSteps = 10;

  ClusterOptions opts;
  opts.shards = 2;
  ShardedDecodeServer cluster(opts);
  const SessionId keep = cluster.open_session(cfg);
  const SessionId gone = cluster.open_session(cfg);
  ASSERT_NE(keep, ShardedDecodeServer::kInvalidSession);
  ASSERT_NE(gone, ShardedDecodeServer::kInvalidSession);
  const auto zs = testing::simulate_measurements(model, kSteps, 21);

  std::uint64_t attempts = 0;
  for (std::size_t n = 0; n < kSteps; ++n) {
    attempts += 2;
    ASSERT_TRUE(cluster.submit(keep, zs[n]).ok());
    ASSERT_TRUE(cluster.submit(gone, zs[n]).ok());
  }
  cluster.drain();
  ASSERT_TRUE(cluster.close_session(gone, CloseMode::kDrain));
  cluster.tick();

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.sessions_reaped, 1u);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.decoded, 2 * kSteps);  // the reaped decodes still count
  expect_conservation(stats, attempts);

  // The reaped id is permanently unknown; the survivor keeps decoding.
  EXPECT_TRUE(cluster.trajectory(gone).empty());
  const Status st = cluster.submit(gone, zs[0]);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(st.retryable());
  ASSERT_TRUE(cluster.submit(keep, zs[0]).ok());
  cluster.drain();
  EXPECT_EQ(cluster.stats().decoded, 2 * kSteps + 1);
}

// Stall detection without fault hooks: the pumpers simply stop reaching a
// shard with a backlog.  The ladder must climb healthy -> probe ->
// quarantine from the observable condition alone (queued bins, zero step
// delta) and fail the sessions over to a pumped shard.
TEST(ServeClusterTest, BackloggedUnpumpedShardEscalatesToQuarantine) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSteps = 40;
  constexpr std::size_t kCheckpointAt = 20;
  constexpr std::size_t kQueuedAtStall = 8;

  ClusterOptions opts;
  opts.shards = 2;
  opts.checkpoint_every_bins = 0;
  opts.escalate_after_ticks = 2;
  ShardedDecodeServer cluster(opts);
  const SessionId id = cluster.open_session(cfg);
  ASSERT_NE(id, ShardedDecodeServer::kInvalidSession);
  const auto zs = testing::simulate_measurements(model, kSteps, 99);

  std::uint64_t attempts = 0;
  for (std::size_t n = 0; n < kCheckpointAt; ++n) {
    ++attempts;
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
  }
  cluster.drain();
  ASSERT_TRUE(cluster.checkpoint(id).ok());

  // Queue a backlog and never pump again: a genuinely wedged deployment.
  const std::size_t victim = cluster.shard_of(id);
  for (std::size_t n = kCheckpointAt; n < kCheckpointAt + kQueuedAtStall;
       ++n) {
    ++attempts;
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
  }
  for (int i = 0; i < 6 && cluster.stats().shard_quarantines == 0; ++i)
    cluster.tick();

  EXPECT_EQ(cluster.stats().shard_quarantines, 1u);
  EXPECT_NE(cluster.shard_of(id), victim);
  EXPECT_EQ(cluster.next_expected_bin(id), kCheckpointAt);

  for (std::size_t n = cluster.next_expected_bin(id); n < kSteps; ++n) {
    ++attempts;
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
  }
  cluster.drain();

  expect_bit_identical(cluster.trajectory(id), solo_trajectory(cfg, zs));
  const ClusterStats stats = cluster.stats();
  expect_conservation(stats, attempts);
  EXPECT_EQ(stats.decoded, kSteps);
  EXPECT_EQ(cluster.shard_state(victim), ShardState::kHealthy);  // rebuilt
}

// close(kDiscard) racing a drain migration: whichever interleaving wins —
// applied on the source before the fence, deferred past it, or applied on
// the restored incarnation — the queued tail must be *discarded*, never
// silently decoded by a hard-coded kDrain in the migration path.
TEST(ServeClusterTest, DiscardCloseKeepsSemanticsAcrossDrainMigration) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kHead = 12;
  constexpr std::size_t kTail = 6;

  ClusterOptions opts;
  opts.shards = 2;
  ShardedDecodeServer cluster(opts);
  const SessionId id = cluster.open_session(cfg);
  ASSERT_NE(id, ShardedDecodeServer::kInvalidSession);
  const auto zs = testing::simulate_measurements(model, kHead + kTail, 13);

  for (std::size_t n = 0; n < kHead; ++n)
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
  cluster.drain();
  for (std::size_t n = kHead; n < kHead + kTail; ++n)
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());

  const std::size_t victim = cluster.shard_of(id);
  std::thread admin([&] {
    const Status st = cluster.drain_shard(victim);
    EXPECT_TRUE(st.ok()) << st.message();
  });
  ASSERT_TRUE(cluster.close_session(id, CloseMode::kDiscard));
  admin.join();
  cluster.drain();

  const auto s = cluster.session_stats(id);
  EXPECT_EQ(s.steps, kHead);
  EXPECT_EQ(s.discarded, kTail);  // discard semantics survived the race
  expect_conservation(cluster.stats(), kHead + kTail);
}

// open_session racing a rebuild storm: placement, the shard-local open,
// and the route insertion happen under admin_mu_, so an open can neither
// run inside a DecodeServer that a failover is destroying nor strand its
// local id on an incarnation a migration sweep already condemned.
TEST(ServeClusterTest, ConcurrentOpensSurviveDrainMigrations) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 12;
  constexpr std::size_t kSteps = 8;

  ClusterOptions opts;
  opts.shards = 3;
  ShardedDecodeServer cluster(opts);

  std::atomic<bool> stop{false};
  std::thread admin([&] {
    std::size_t s = 0;
    while (!stop.load()) {
      (void)cluster.drain_shard(s++ % 3);
      std::this_thread::yield();
    }
  });

  RetryingSubmitter::Policy policy;
  policy.max_attempts = 100000;  // fences are transient; outlast them
  RetryingSubmitter client(cluster, policy);
  client.set_between_attempts([&] { cluster.pump(); });

  std::vector<SessionId> ids;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    Status status;
    const SessionId id = cluster.open_session(cfg, &status);
    ASSERT_NE(id, ShardedDecodeServer::kInvalidSession) << status.message();
    ids.push_back(id);
    streams.push_back(testing::simulate_measurements(model, kSteps, 4400 + s));
    for (std::size_t n = 0; n < kSteps; ++n) {
      const Status st = client.submit(ids[s], streams[s][n]);
      ASSERT_TRUE(st.ok()) << st.message();
    }
  }
  stop.store(true);
  admin.join();
  cluster.drain();

  for (std::size_t s = 0; s < kSessions; ++s)
    expect_bit_identical(cluster.trajectory(ids[s]),
                         solo_trajectory(cfg, streams[s]));
  EXPECT_EQ(cluster.stats().decoded, kSessions * kSteps);
}

TEST(ServeClusterTest, ServeGaugesTrackTheWholeCluster) {
  // kalmmind.serve.sessions_open and kalmmind.serve.queued_bins are
  // process-wide: every shard's sessions move them incrementally.  A
  // shard's stats() must not overwrite them with its own counts, a drain
  // rebuild must not leak the drained sessions, and destroying the cluster
  // returns both gauges to where they started.
  if constexpr (!telemetry::kCompiledIn) GTEST_SKIP();
  auto& registry = telemetry::MetricsRegistry::global();
  telemetry::Gauge& open_gauge = registry.gauge("kalmmind.serve.sessions_open");
  telemetry::Gauge& queued_gauge = registry.gauge("kalmmind.serve.queued_bins");
  const double open0 = open_gauge.value();
  const double queued0 = queued_gauge.value();
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  const auto zs = testing::simulate_measurements(model, 6);
  {
    ClusterOptions opts;
    opts.shards = 4;
    ShardedDecodeServer cluster(opts);
    auto expect_gauges_match = [&](const char* when) {
      SCOPED_TRACE(when);
      const ClusterStats st = cluster.stats();
      EXPECT_EQ(open_gauge.value() - open0, double(st.sessions));
      EXPECT_EQ(queued_gauge.value() - queued0, double(st.queued));
    };
    std::vector<SessionId> ids;
    for (int s = 0; s < 16; ++s) ids.push_back(cluster.open_session(cfg));
    for (const SessionId id : ids)
      for (int n = 0; n < 3; ++n) ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
    cluster.pump();
    cluster.tick();
    expect_gauges_match("after tick");
    EXPECT_EQ(cluster.stats().sessions, 16u);

    const std::size_t busy = cluster.shard_of(ids[0]);
    ASSERT_TRUE(cluster.drain_shard(busy).ok());
    expect_gauges_match("after drain_shard");
    cluster.tick();
    expect_gauges_match("after drain_shard and tick");
    for (const SessionId id : ids)
      for (int n = 3; n < 6; ++n) ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
    EXPECT_GT(cluster.stats().queued, 0u);
    expect_gauges_match("with queued bins");
  }
  EXPECT_EQ(open_gauge.value(), open0);
  EXPECT_EQ(queued_gauge.value(), queued0);
}

TEST(ServeClusterTest, UnknownSessionIsPermanentNotRetryable) {
  ShardedDecodeServer cluster;
  const Status s = cluster.submit(999, Vector<double>(3));
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.retryable());
}

#if defined(KALMMIND_FAULTS)

// The acceptance chaos scenario: seeded fail_shard mid-stream.  Sessions
// checkpointed on the dead shard resume on healthy shards; their decoded
// trajectories (prefix + resumed incarnation) are bit-identical to an
// uninterrupted solo run once the client resubmits from its cursor; and
// conservation closes — decoded + discarded + rejected == submitted.
TEST(ServeClusterTest, SeededShardKillResumesBitIdenticalElsewhere) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kSteps = 60;
  constexpr std::size_t kCheckpointAt = 30;
  constexpr std::size_t kQueuedAtKill = 10;  // bins lost with the shard

  ClusterOptions opts;
  opts.shards = 3;
  opts.checkpoint_every_bins = 0;  // explicit checkpoints only
  ShardedDecodeServer cluster(opts);

  std::vector<SessionId> ids;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(cluster.open_session(cfg));
    ASSERT_NE(ids.back(), ShardedDecodeServer::kInvalidSession);
    streams.push_back(testing::simulate_measurements(model, kSteps, 900 + s));
  }

  std::uint64_t attempts = 0;
  for (std::size_t n = 0; n < kCheckpointAt; ++n)
    for (std::size_t s = 0; s < kSessions; ++s) {
      ++attempts;
      ASSERT_TRUE(cluster.submit(ids[s], streams[s][n]).ok());
    }
  cluster.drain();
  EXPECT_EQ(cluster.checkpoint_all(), kSessions);

  // Bins accepted after the checkpoint sit in queues; on the victim shard
  // they die with it and must be counted discarded.
  for (std::size_t n = kCheckpointAt; n < kCheckpointAt + kQueuedAtKill; ++n)
    for (std::size_t s = 0; s < kSessions; ++s) {
      ++attempts;
      ASSERT_TRUE(cluster.submit(ids[s], streams[s][n]).ok());
    }

  const std::size_t victim = cluster.shard_of(ids[0]);
  std::vector<std::size_t> pre_shard;
  for (std::size_t s = 0; s < kSessions; ++s)
    pre_shard.push_back(cluster.shard_of(ids[s]));
  cluster.fault_fail_shard(victim);

  // Every session that lived on the victim moved and rewound to its
  // checkpoint; survivors kept their queues.
  for (std::size_t s = 0; s < kSessions; ++s) {
    if (pre_shard[s] == victim) {
      EXPECT_NE(cluster.shard_of(ids[s]), victim) << s;
      EXPECT_EQ(cluster.next_expected_bin(ids[s]), kCheckpointAt) << s;
    } else {
      EXPECT_EQ(cluster.next_expected_bin(ids[s]),
                kCheckpointAt + kQueuedAtKill)
          << s;
    }
  }

  // Clients resume from their cursor (resubmitting what the dead shard
  // lost) and stream the rest.
  for (std::size_t s = 0; s < kSessions; ++s) {
    for (std::size_t n = cluster.next_expected_bin(ids[s]); n < kSteps; ++n) {
      ++attempts;
      const Status st = cluster.submit(ids[s], streams[s][n]);
      ASSERT_TRUE(st.ok()) << st.message();
    }
  }
  cluster.drain();

  for (std::size_t s = 0; s < kSessions; ++s)
    expect_bit_identical(cluster.trajectory(ids[s]),
                         solo_trajectory(cfg, streams[s]));

  const ClusterStats stats = cluster.stats();
  expect_conservation(stats, attempts);
  EXPECT_EQ(stats.decoded, kSessions * kSteps);
  EXPECT_GT(stats.discarded, 0u);  // the dead shard's queues, acknowledged
  EXPECT_EQ(stats.shard_quarantines, 1u);
  EXPECT_GT(stats.sessions_migrated, 0u);
  EXPECT_EQ(cluster.shard_state(victim), ShardState::kHealthy);  // rebuilt
}

// A stalled shard (consumer wedged, queues growing) escalates the ladder:
// healthy -> probe -> quarantine (snapshot failover), then rebuilds.
TEST(ServeClusterTest, StalledShardClimbsLadderToQuarantine) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSteps = 40;
  constexpr std::size_t kCheckpointAt = 20;

  ClusterOptions opts;
  opts.shards = 2;
  opts.checkpoint_every_bins = 0;
  opts.escalate_after_ticks = 2;
  ShardedDecodeServer cluster(opts);
  const SessionId id = cluster.open_session(cfg);
  ASSERT_NE(id, ShardedDecodeServer::kInvalidSession);
  const auto zs = testing::simulate_measurements(model, kSteps, 77);

  std::uint64_t attempts = 0;
  for (std::size_t n = 0; n < kCheckpointAt; ++n) {
    ++attempts;
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
  }
  cluster.drain();
  ASSERT_TRUE(cluster.checkpoint(id).ok());

  const std::size_t victim = cluster.shard_of(id);
  cluster.fault_stall_shard(victim, true);
  for (std::size_t n = kCheckpointAt; n < kCheckpointAt + 8; ++n) {
    ++attempts;
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());  // queues into the wedge
  }

  // Ladder cadence: tick 1 absorbs the pre-stall step delta; ticks 2-3
  // escalate healthy -> probe; ticks 4-5 escalate probe -> quarantine.
  for (int i = 0; i < 6 && cluster.stats().shard_quarantines == 0; ++i)
    cluster.tick();

  const ClusterStats mid = cluster.stats();
  EXPECT_EQ(mid.shard_quarantines, 1u);
  EXPECT_NE(cluster.shard_of(id), victim);

  for (std::size_t n = cluster.next_expected_bin(id); n < kSteps; ++n) {
    ++attempts;
    ASSERT_TRUE(cluster.submit(id, zs[n]).ok());
  }
  cluster.drain();

  expect_bit_identical(cluster.trajectory(id), solo_trajectory(cfg, zs));
  const ClusterStats stats = cluster.stats();
  expect_conservation(stats, attempts);
  EXPECT_EQ(stats.decoded, kSteps);
  EXPECT_EQ(cluster.shard_state(victim), ShardState::kHealthy);
}

// The scripts/chaos.sh shard-kill scenario: a seeded storm of fail_shard
// events against a streaming fleet (KALMMIND_CHAOS_SEED selects victims,
// kill points, and pump depth).  Invariants for any seed: every stream
// finishes bit-identical to its solo run after clients resubmit from
// next_expected_bin, conservation closes every round, and every victim
// shard rejoins the ring healthy.
TEST(ServeChaosTest, SeededShardKillStormPreservesEveryStream) {
  std::uint64_t seed = 7;
  if (const char* env = std::getenv("KALMMIND_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
    if (seed == 0) seed = 7;
  }
  SCOPED_TRACE("KALMMIND_CHAOS_SEED=" + std::to_string(seed));
  auto next = [state = seed]() mutable {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  const auto model = testing::small_model(5);
  const SessionConfig cfg = interleaved_config(model);
  constexpr std::size_t kSessions = 5;
  constexpr std::size_t kSteps = 48;
  constexpr std::size_t kRounds = 3;

  ClusterOptions opts;
  opts.shards = 4;
  opts.checkpoint_every_bins = 0;  // snapshots taken at seeded points
  ShardedDecodeServer cluster(opts);

  std::vector<SessionId> ids;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(cluster.open_session(cfg));
    ASSERT_NE(ids.back(), ShardedDecodeServer::kInvalidSession);
    streams.push_back(
        testing::simulate_measurements(model, kSteps, 3000 + seed * 64 + s));
  }

  std::uint64_t attempts = 0;
  std::vector<std::size_t> cursor(kSessions, 0);
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::size_t target = (round + 1) * (kSteps / kRounds);
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t n = cursor[s]; n < target; ++n) {
        ++attempts;
        const Status st = cluster.submit(ids[s], streams[s][n]);
        ASSERT_TRUE(st.ok()) << st.message();
      }
    }

    // Decode a seeded amount, snapshot the fleet at that edge, then kill a
    // seeded shard.  Bins past the snapshot die with it and must be both
    // counted discarded and re-coverable from next_expected_bin.
    const std::size_t pumps = next() % 24;
    for (std::size_t p = 0; p < pumps; ++p) cluster.pump();
    EXPECT_EQ(cluster.checkpoint_all(), kSessions);
    const std::size_t victim = next() % opts.shards;
    cluster.fault_fail_shard(victim);
    EXPECT_EQ(cluster.shard_state(victim), ShardState::kHealthy) << "rebuilt";

    for (std::size_t s = 0; s < kSessions; ++s) {
      cursor[s] = cluster.next_expected_bin(ids[s]);
      ASSERT_LE(cursor[s], target) << s;
      for (std::size_t n = cursor[s]; n < target; ++n) {
        ++attempts;
        const Status st = cluster.submit(ids[s], streams[s][n]);
        ASSERT_TRUE(st.ok()) << st.message();
      }
      cursor[s] = target;
    }
    cluster.drain();
    expect_conservation(cluster.stats(), attempts);
  }

  for (std::size_t s = 0; s < kSessions; ++s)
    expect_bit_identical(cluster.trajectory(ids[s]),
                         solo_trajectory(cfg, streams[s]));

  const ClusterStats stats = cluster.stats();
  EXPECT_EQ(stats.decoded, kSessions * kSteps);
  EXPECT_EQ(stats.shard_quarantines, kRounds);
  for (std::size_t i = 0; i < opts.shards; ++i)
    EXPECT_EQ(cluster.shard_state(i), ShardState::kHealthy) << i;
}

#endif  // KALMMIND_FAULTS

}  // namespace
}  // namespace kalmmind::serve
