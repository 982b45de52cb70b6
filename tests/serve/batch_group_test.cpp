// Batched serving (docs/serving.md): same-config sessions fused into
// BatchGroups over a shared gain schedule.  The contract under test is the
// tentpole acceptance bar — a batched fleet decodes bit-identically to the
// solo path — plus every fall-out edge: mixed configs, health-enabled
// sessions, opt-outs, and sliding-window misses.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "linalg/simd/simd.hpp"
#include "serve/serve.hpp"
#include "../kalman/kalman_test_util.hpp"

namespace kalmmind::serve {
namespace {

using linalg::Vector;

SessionConfig batched_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 3;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.queue_capacity = 1024;
  return cfg;
}

std::vector<Vector<double>> sequential_trajectory(
    const SessionConfig& cfg, const std::vector<Vector<double>>& zs) {
  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> states;
  for (const auto& z : zs) states.push_back(filter.step(z));
  return states;
}

void expect_bit_identical(const std::vector<Vector<double>>& a,
                          const std::vector<Vector<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    ASSERT_EQ(a[n].size(), b[n].size());
    for (std::size_t d = 0; d < a[n].size(); ++d) {
      ASSERT_EQ(a[n][d], b[n][d]) << "step " << n << " dim " << d;
    }
  }
}

const SessionStatsSnapshot& snapshot_for(const ServerStats& stats,
                                         SessionId id) {
  for (const auto& s : stats.per_session) {
    if (s.id == id) return s;
  }
  static const SessionStatsSnapshot missing;
  ADD_FAILURE() << "no snapshot for session " << id;
  return missing;
}

TEST(ServeBatchTest, BatchedFleetIsBitIdenticalToSolo) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = batched_config(model);

  // The acceptance bar: >= 32 same-config sessions through the batched
  // path, each with its own measurement stream, all bit-identical to the
  // plain sequential filter.
  constexpr std::size_t kSessions = 33;
  constexpr std::size_t kSteps = 40;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(testing::simulate_measurements(model, kSteps, 500 + s));
  }

  ServerOptions options;
  options.workers = 4;
  options.max_batch = 4;
  DecodeServer server(options);
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    ids.push_back(server.open_session(cfg));
    ASSERT_NE(ids.back(), DecodeServer::kInvalidSession);
  }

  for (std::size_t n = 0; n < kSteps; ++n) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ(server.submit(ids[s], streams[s][n]), PushResult::kAccepted);
    }
  }
  server.drain();

  for (std::size_t s = 0; s < kSessions; ++s) {
    SCOPED_TRACE(s);
    expect_bit_identical(server.trajectory(ids[s]),
                         sequential_trajectory(cfg, streams[s]));
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_groups, 1u);           // one config, one group
  EXPECT_EQ(stats.batched_sessions, kSessions);
  EXPECT_EQ(stats.total_batched_steps, kSessions * kSteps);
  EXPECT_EQ(stats.total_steps, kSessions * kSteps);
  EXPECT_EQ(stats.gain_cache_misses, 1u);      // one schedule built
  EXPECT_EQ(stats.gain_cache_hits, kSessions - 1);
  for (const auto id : ids) {
    const auto& snap = snapshot_for(stats, id);
    EXPECT_TRUE(snap.batched);
    EXPECT_EQ(snap.batched_steps, kSteps);
  }
}

// The batched-vs-solo bit-identity bar again, once per SIMD tier the host
// can run (docs/performance.md): the fused SoA panel passes must reproduce
// the solo filter exactly under every dispatched kernel table, not just
// whichever tier the probe picked.  The tier is process-global, so the
// worker threads and the sequential reference run the same kernels.
TEST(ServeBatchTest, BatchedFleetBitIdenticalToSoloOnEveryTier) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = batched_config(model);
  constexpr std::size_t kSessions = 9;
  constexpr std::size_t kSteps = 25;

  const linalg::simd::Tier entry_tier = linalg::simd::active_tier();
  for (const linalg::simd::Tier tier : linalg::simd::available_tiers()) {
    SCOPED_TRACE(linalg::simd::tier_name(tier));
    ASSERT_TRUE(linalg::simd::set_dispatch_tier(tier));

    std::vector<std::vector<Vector<double>>> streams;
    for (std::size_t s = 0; s < kSessions; ++s) {
      streams.push_back(
          testing::simulate_measurements(model, kSteps, 900 + s));
    }
    ServerOptions options;
    options.workers = 2;
    options.max_batch = 4;
    DecodeServer server(options);
    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(server.open_session(cfg));
    }
    for (std::size_t n = 0; n < kSteps; ++n) {
      for (std::size_t s = 0; s < kSessions; ++s) {
        ASSERT_EQ(server.submit(ids[s], streams[s][n]),
                  PushResult::kAccepted);
      }
    }
    server.drain();
    for (std::size_t s = 0; s < kSessions; ++s) {
      SCOPED_TRACE(s);
      expect_bit_identical(server.trajectory(ids[s]),
                           sequential_trajectory(cfg, streams[s]));
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.total_batched_steps, kSessions * kSteps);
  }
  linalg::simd::set_dispatch_tier(entry_tier);
}

TEST(ServeBatchTest, MixedConfigsFormSeparateGroups) {
  const auto model = testing::small_model(4);
  const SessionConfig a = batched_config(model);
  SessionConfig b = a;
  b.filter.strategy.calc_freq = 5;  // different datapath, no sharing

  const auto zs = testing::simulate_measurements(model, 25);
  DecodeServer server({/*workers=*/2, /*max_batch=*/4});
  const SessionId ida1 = server.open_session(a);
  const SessionId ida2 = server.open_session(a);
  const SessionId idb = server.open_session(b);
  for (const auto& z : zs) {
    server.submit(ida1, z);
    server.submit(ida2, z);
    server.submit(idb, z);
  }
  server.drain();

  expect_bit_identical(server.trajectory(ida1), sequential_trajectory(a, zs));
  expect_bit_identical(server.trajectory(idb), sequential_trajectory(b, zs));

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_groups, 2u);
  EXPECT_EQ(stats.batched_sessions, 3u);
  EXPECT_EQ(stats.gain_cache_misses, 2u);  // one schedule per config
}

TEST(ServeBatchTest, HealthEnabledSessionsStaySolo) {
  // Health monitoring makes the gain trajectory measurement-dependent
  // (gated channels change K's effect), so such sessions must never join
  // a group — they decode solo, still correctly.
  const auto model = testing::small_model(4);
  SessionConfig cfg = batched_config(model);
  cfg.filter.options.health.enabled = true;
  cfg.filter.options.health.innovation_gate_sigma = 8.0;

  const auto zs = testing::simulate_measurements(model, 20);
  DecodeServer server({/*workers=*/2, /*max_batch=*/4});
  const SessionId id = server.open_session(cfg);
  ASSERT_NE(id, DecodeServer::kInvalidSession);
  for (const auto& z : zs) server.submit(id, z);
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_groups, 0u);
  EXPECT_EQ(stats.batched_sessions, 0u);
  EXPECT_EQ(stats.total_batched_steps, 0u);
  const auto& snap = snapshot_for(stats, id);
  EXPECT_FALSE(snap.batched);
  EXPECT_EQ(snap.steps, zs.size());
}

TEST(ServeBatchTest, OptOutsStaySolo) {
  const auto model = testing::small_model(4);
  const auto zs = testing::simulate_measurements(model, 15);

  // Server-wide opt-out (ServerOptions::batching is the only switch).
  ServerOptions options;
  options.workers = 2;
  options.batching = false;
  DecodeServer server(options);
  const SessionId id = server.open_session(batched_config(model));
  for (const auto& z : zs) server.submit(id, z);
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batched_sessions, 0u);
  EXPECT_EQ(stats.total_batched_steps, 0u);
  EXPECT_EQ(stats.gain_cache_misses, 0u);  // cache never consulted
  expect_bit_identical(server.trajectory(id),
                       sequential_trajectory(batched_config(model), zs));
}

TEST(ServeBatchTest, WindowMissEjectsToSoloAndStaysCorrect) {
  // A member whose iteration falls behind the schedule's sliding window
  // cannot be served batched any more: it falls out to the solo path and
  // finishes its stream there, still bit-identical.
  const auto model = testing::small_model(4);
  const SessionConfig cfg = batched_config(model);
  const auto zs = testing::simulate_measurements(model, 30);

  ServerOptions options;
  options.workers = 2;
  options.max_batch = 4;
  options.gain_window = 4;  // tiny: easy to fall behind
  DecodeServer server(options);
  const SessionId a = server.open_session(cfg);
  const SessionId b = server.open_session(cfg);  // joins at base 0

  // A decodes the full stream, pushing the window far past iteration 0.
  for (const auto& z : zs) server.submit(a, z);
  server.drain();
  {
    const ServerStats stats = server.stats();
    EXPECT_TRUE(snapshot_for(stats, a).batched);
    EXPECT_TRUE(snapshot_for(stats, b).batched);  // joined, not yet stepped
  }

  // B's first bin needs entry 0, which has slid out: eject to solo.
  for (const auto& z : zs) server.submit(b, z);
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_FALSE(snapshot_for(stats, b).batched);
  EXPECT_EQ(snapshot_for(stats, b).steps, zs.size());
  expect_bit_identical(server.trajectory(b), sequential_trajectory(cfg, zs));
  // A was never ejected.
  EXPECT_TRUE(snapshot_for(stats, a).batched);
  expect_bit_identical(server.trajectory(a), sequential_trajectory(cfg, zs));
}

TEST(ServeBatchTest, LateJoinAfterWindowSlideStartsSolo) {
  // A session opened after the group's schedule has slid past iteration 0
  // can never replay the early entries — admission keeps it solo from the
  // start rather than ejecting on its first bin.
  const auto model = testing::small_model(4);
  const SessionConfig cfg = batched_config(model);
  const auto zs = testing::simulate_measurements(model, 30);

  ServerOptions options;
  options.workers = 2;
  options.gain_window = 4;
  DecodeServer server(options);
  const SessionId a = server.open_session(cfg);
  for (const auto& z : zs) server.submit(a, z);
  server.drain();

  const SessionId late = server.open_session(cfg);
  for (const auto& z : zs) server.submit(late, z);
  server.drain();

  const ServerStats stats = server.stats();
  EXPECT_FALSE(snapshot_for(stats, late).batched);
  EXPECT_EQ(snapshot_for(stats, late).batched_steps, 0u);
  expect_bit_identical(server.trajectory(late),
                       sequential_trajectory(cfg, zs));
}

TEST(ServeBatchTest, GroupIsErasedWhenItsLastMemberLeaves) {
  // Removal and ejection both empty groups; an empty group is erased (its
  // schedule reference goes with it), so batch_groups counts live groups.
  const auto model = testing::small_model(4);
  const SessionConfig cfg = batched_config(model);
  const auto zs = testing::simulate_measurements(model, 30);

  ServerOptions options;
  options.workers = ServerOptions::kManual;
  options.gain_window = 4;  // tiny: easy to fall behind
  DecodeServer server(options);
  const SessionId a = server.open_session(cfg);
  const SessionId b = server.open_session(cfg);
  for (const auto& z : zs) server.submit(a, z);
  server.drain();
  EXPECT_EQ(server.stats().batch_groups, 1u);

  // Removal: A leaves; B is still a member.
  ASSERT_TRUE(server.remove_session(a));
  EXPECT_EQ(server.stats().batch_groups, 1u);

  // Ejection: B's first bin needs entry 0, which A's run slid out of the
  // window, so B falls out to solo and the group is left empty.
  for (const auto& z : zs) server.submit(b, z);
  server.drain();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_groups, 0u);
  EXPECT_FALSE(snapshot_for(stats, b).batched);
  expect_bit_identical(server.trajectory(b), sequential_trajectory(cfg, zs));

  // Removing every member of a fresh group erases it too.  (cfg's cached
  // schedule has slid, so new sessions of cfg would start solo.)
  const SessionConfig fresh = batched_config(testing::small_model(4, 9));
  const SessionId c = server.open_session(fresh);
  const SessionId d = server.open_session(fresh);
  EXPECT_EQ(server.stats().batch_groups, 1u);
  ASSERT_TRUE(server.remove_session(c));
  EXPECT_EQ(server.stats().batch_groups, 1u);
  ASSERT_TRUE(server.remove_session(d));
  stats = server.stats();
  EXPECT_EQ(stats.batch_groups, 0u);
  EXPECT_EQ(stats.batched_sessions, 0u);
}

TEST(ServeBatchTest, ErasingAScheduledGroupStillDrains) {
  // A group erased while a scheduling token for it is still queued (a
  // ready-queue entry in manual mode, a pool job otherwise): the token
  // parks on its turn, drain() returns, and a same-config successor group
  // decodes bit-identically.
  const auto model = testing::small_model(4);
  const SessionConfig cfg = batched_config(model);
  const auto zs = testing::simulate_measurements(model, 40);
  // A wide solo session queued first keeps the single pool worker busy for
  // a long quantum while the group's job waits behind it.
  const auto wide = testing::small_model(96);
  // Health-gated: a health-enabled filter never batches.
  SessionConfig solo_cfg = batched_config(wide);
  solo_cfg.filter.options.health.enabled = true;
  const auto wide_zs = testing::simulate_measurements(wide, 64);

  for (const unsigned workers : {ServerOptions::kManual, 1u}) {
    SCOPED_TRACE(workers == ServerOptions::kManual ? "manual" : "pool");
    ServerOptions options;
    options.workers = workers;
    options.max_batch = 64;
    DecodeServer server(options);
    const SessionId busy = server.open_session(solo_cfg);
    for (const auto& z : wide_zs) server.submit(busy, z);
    const SessionId doomed = server.open_session(cfg);
    for (const auto& z : zs) server.submit(doomed, z);  // group scheduled
    ASSERT_TRUE(server.remove_session(doomed));
    EXPECT_EQ(server.stats().batch_groups, 0u);

    const SessionId next = server.open_session(cfg);
    for (const auto& z : zs) server.submit(next, z);
    server.drain();
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.batch_groups, 1u);
    EXPECT_EQ(stats.queued, 0u);
    EXPECT_TRUE(snapshot_for(stats, next).batched);
    expect_bit_identical(server.trajectory(next),
                         sequential_trajectory(cfg, zs));
    expect_bit_identical(server.trajectory(busy),
                         sequential_trajectory(solo_cfg, wide_zs));
  }
}

TEST(ServeBatchTest, ManualModePumpsGroupsThroughPoll) {
  // kManual: no pool, poll() drives group passes — the mode unit tests
  // and single-threaded embeddings rely on.
  const auto model = testing::small_model(4);
  const SessionConfig cfg = batched_config(model);
  const auto zs = testing::simulate_measurements(model, 12);

  ServerOptions options;
  options.workers = ServerOptions::kManual;
  options.max_batch = 4;
  DecodeServer server(options);
  const SessionId a = server.open_session(cfg);
  const SessionId b = server.open_session(cfg);
  for (const auto& z : zs) {
    server.submit(a, z);
    server.submit(b, z);
  }

  std::size_t decoded = 0;
  while (std::size_t n = server.poll()) decoded += n;
  EXPECT_EQ(decoded, 2 * zs.size());

  expect_bit_identical(server.trajectory(a), sequential_trajectory(cfg, zs));
  expect_bit_identical(server.trajectory(b), sequential_trajectory(cfg, zs));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.total_batched_steps, 2 * zs.size());
}

}  // namespace
}  // namespace kalmmind::serve
