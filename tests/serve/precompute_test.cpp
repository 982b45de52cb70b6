// Precompute (docs/serving.md): a scheduling unit's next gain is computed in
// idle worker time, so a bin that arrives later runs only its correction.
// Every decode must stay bit-identical to a sequential KalmanFilter over the
// same bins (or, where the self-healing ladder swaps filters, to the same
// session decoded without precompute), and the ServerStats precompute
// counters must say how each bin found its gain.  Suite names start with
// "Serve" so the tier-1 TSan rerun covers precompute racing submit,
// checkpoint and remove_session.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "serve/serve.hpp"
#include "../kalman/kalman_test_util.hpp"

namespace kalmmind::serve {
namespace {

using linalg::Vector;

void expect_bit_identical(const std::vector<Vector<double>>& got,
                          const std::vector<Vector<double>>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t n = 0; n < got.size(); ++n) {
    ASSERT_EQ(got[n].size(), want[n].size()) << what;
    ASSERT_EQ(std::memcmp(got[n].data(), want[n].data(),
                          got[n].size() * sizeof(double)),
              0)
        << what << " bin " << n;
  }
}

std::vector<Vector<double>> sequential(const SessionConfig& cfg,
                                       const std::vector<Vector<double>>& zs) {
  kalman::KalmanFilter<double> filter = cfg.filter.make_filter();
  std::vector<Vector<double>> out;
  for (const auto& z : zs) out.push_back(filter.step(z));
  return out;
}

// A health-gated solo session whose Newton probe fails on every
// approximation (each one is repaired by a forced calculation inside the
// prepared half).  The repaired fault is counted but climbs no rung, so
// only runs of exploding states climb the ladder.
SessionConfig gated_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 4;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.filter.options.health.enabled = true;
  cfg.filter.options.health.newton_residual_limit = 1e-12;
  cfg.filter.options.health.max_state_abs = 50.0;
  cfg.filter.options.health.deescalate_after = 1;
  cfg.queue_capacity = 256;
  cfg.self_healing.enabled = true;
  return cfg;
}

// Clean bins with NaN bins and one run of three saturated bins, which
// blows the state past max_state_abs three times in a row: from rung 0 the
// ladder climbs to rung 3 (covariance reset) without reaching the
// fallback.
std::vector<Vector<double>> faulty_bins(const kalman::KalmanModel<double>& m,
                                        std::size_t n, std::uint64_t seed) {
  auto zs = testing::simulate_measurements(m, n, seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t k = 5; k < n; k += 9) zs[k][0] = nan;
  for (std::size_t k = 15; k < 18; ++k) {
    for (std::size_t i = 0; i < zs[k].size(); ++i) zs[k][i] = 1e7;
  }
  return zs;
}

std::size_t nan_bins(const std::vector<Vector<double>>& zs) {
  std::size_t count = 0;
  for (const auto& z : zs) count += !(z[0] == z[0]);
  return count;
}

ServerOptions pool_options(unsigned workers = 2) {
  ServerOptions options;
  options.workers = workers;
  return options;
}

// One bin per drain(): in pool mode drain() waits for the precompute that
// follows the bin, so every later bin arrives to a prepared half.
void feed_paced(DecodeServer& server, SessionId id,
                const std::vector<Vector<double>>& zs, std::size_t from,
                std::size_t to) {
  for (std::size_t n = from; n < to; ++n) {
    ASSERT_EQ(server.submit(id, zs[n]), PushResult::kAccepted);
    server.drain();
  }
}

TEST(ServePrecomputeTest, PacedHealthGatedSessionMatchesSequential) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = gated_config(model);
  const auto zs = faulty_bins(model, 64, 3);

  kalman::KalmanFilter<double> reference = cfg.filter.make_filter();
  for (const auto& z : zs) reference.step(z);
  ASSERT_GT(reference.health().total(kalman::RecoveryAction::kCovarianceReset),
            0u);
  ASSERT_GT(reference.health().total(kalman::RecoveryAction::kForceCalculation),
            0u);
  ASSERT_FALSE(reference.health().fallback_active);

  DecodeServer server(pool_options());
  const SessionId id = server.open_session(cfg);
  feed_paced(server, id, zs, 0, zs.size());
  expect_bit_identical(server.trajectory(id), sequential(cfg, zs), "paced");

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.total_steps, zs.size());
  EXPECT_EQ(stats.total_invalid_steps, 0u);
  EXPECT_EQ(stats.total_unprepared_steps, 1u);  // the first bin
  EXPECT_EQ(stats.total_prepared_dropped, nan_bins(zs));
  EXPECT_EQ(stats.total_prepared_steps, zs.size() - 1 - nan_bins(zs));
}

TEST(ServePrecomputeTest, PacedSessionFindsEveryLaterGainPrepared) {
  const auto model = testing::small_model(8);
  SessionConfig cfg = gated_config(model);
  cfg.filter.options.health.enabled = false;
  cfg.self_healing.enabled = false;
  ServerOptions options = pool_options(1);
  options.batching = false;
  const auto zs = testing::simulate_measurements(model, 30, 5);

  DecodeServer server(options);
  const SessionId id = server.open_session(cfg);
  feed_paced(server, id, zs, 0, zs.size());
  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_EQ(st.prepared_steps, zs.size() - 1);
  EXPECT_EQ(st.unprepared_steps, 1u);
  EXPECT_EQ(st.prepared_dropped, 0u);
  expect_bit_identical(server.trajectory(id), sequential(cfg, zs), "paced");

  // A flood finds only its first bin prepared: the rest are queued, and a
  // precompute never runs ahead of a queued bin.
  const auto more = testing::simulate_measurements(model, 20, 6);
  for (const auto& z : more)
    ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
  server.drain();
  const SessionStatsSnapshot after = server.session_stats(id);
  EXPECT_GE(after.prepared_steps, st.prepared_steps + 1);
  EXPECT_EQ(after.prepared_steps + after.unprepared_steps,
            zs.size() + more.size());
}

// Checkpoints taken between a prepare and the next bin describe the last
// decoded bin, not the prepared one: the source keeps decoding from its
// prepared half, and a restore elsewhere continues bit for bit.
TEST(ServePrecomputeTest, CheckpointBetweenAPrepareAndTheNextBinRestores) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = gated_config(model);
  const auto zs = faulty_bins(model, 60, 4);
  const auto want = sequential(cfg, zs);

  DecodeServer source(pool_options());
  const SessionId id = source.open_session(cfg);
  for (const std::size_t cut : {7u, 13u, 14u, 33u, 46u}) {
    feed_paced(source, id, zs, source.session_steps(id), cut);
    SessionSnapshot snap;
    ASSERT_TRUE(source.checkpoint_session(id, &snap).ok());
    ASSERT_EQ(snap.iteration, cut);

    DecodeServer target(pool_options());
    Status status;
    const SessionId moved = target.restore_session(cfg, snap, &status);
    ASSERT_NE(moved, DecodeServer::kInvalidSession) << status.message();
    feed_paced(target, moved, zs, cut, zs.size());
    expect_bit_identical(
        target.trajectory(moved),
        std::vector<Vector<double>>(want.begin() + std::ptrdiff_t(cut),
                                    want.end()),
        "restored at " + std::to_string(cut));
  }
  feed_paced(source, id, zs, source.session_steps(id), zs.size());
  expect_bit_identical(source.trajectory(id), want, "source");
  EXPECT_EQ(source.stats().total_unprepared_steps, 1u);
}

#if defined(KALMMIND_FAULTS)
// The deadline ladder swaps the filter twice (degrade to the constant
// gain, restore the original): a session prepared before every bin decodes
// exactly like one that never prepares.
TEST(ServePrecomputeTest, DegradeRestoreCycleMatchesUnpreparedSession) {
  const auto model = testing::small_model(5);
  SessionConfig cfg = gated_config(model);
  cfg.filter.options.health.newton_residual_limit = 1.0;
  cfg.deadline_s = 0.01;
  cfg.self_healing.degrade_after_misses = 2;
  cfg.self_healing.recover_after_hits = 3;
  auto zs = testing::simulate_measurements(model, 40, 9);
  zs[9][1] = std::numeric_limits<double>::quiet_NaN();
  zs[21][0] = std::numeric_limits<double>::quiet_NaN();

  std::vector<std::vector<Vector<double>>> runs;
  for (const bool prepare : {false, true}) {
    Session session(1, cfg);
    std::size_t prepared = 0;
    for (std::size_t n = 0; n < zs.size(); ++n) {
      // Misses on bins [4, 6) and [20, 23): two degradations, each
      // restored after three hits.
      const bool miss = (n >= 4 && n < 6) || (n >= 20 && n < 23);
      session.fault_override_step_seconds(miss ? 1.0 : 0.0);
      if (prepare) prepared += session.prepare_next();
      session.enqueue(zs[n]);
      ASSERT_EQ(session.step_pending(1), 1u);
    }
    const SessionStatsSnapshot st = session.stats();
    EXPECT_EQ(st.degradations, 2u);
    EXPECT_EQ(st.state, SessionState::kHealthy);
    EXPECT_EQ(st.invalid_steps, 0u);
    EXPECT_EQ(st.prepared_steps + st.prepared_dropped, prepared);
    EXPECT_EQ(st.prepared_dropped, prepare ? 2u : 0u);  // the NaN bins
    if (prepare) {
      EXPECT_EQ(prepared, zs.size());
    }
    runs.push_back(session.trajectory());
  }
  expect_bit_identical(runs[1], runs[0], "degrade/restore");
}
#endif

// A per-user model decodes as a one-member group on its own schedule; in
// manual mode a poll() with no bin ready extends the schedule to the
// member's next iteration, so the next cohort pass only reads K.
TEST(ServePrecomputeTest, ManualModeBatchedSessionReadsPrecomputedEntries) {
  const auto model = testing::small_model(6, 77);
  SessionConfig cfg = gated_config(model);
  cfg.filter.options.health.enabled = false;
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  DecodeServer server(options);
  const SessionId id = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 25, 12);
  for (const auto& z : zs) {
    ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
    EXPECT_EQ(server.poll(), 1u);  // the bin goes first
    EXPECT_EQ(server.poll(), 0u);  // then the precompute
    EXPECT_EQ(server.poll(), 0u);  // and nothing else
  }
  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_TRUE(st.batched);
  EXPECT_EQ(st.batched_steps, zs.size());
  EXPECT_EQ(st.prepared_steps, zs.size() - 1);
  EXPECT_EQ(st.unprepared_steps, 1u);
  expect_bit_identical(server.trajectory(id), sequential(cfg, zs), "batched");
}

// A group of several members precomputes nothing — its cohort pass
// computes each schedule entry once for all of them — and a group that
// shrinks to one member precomputes again.
TEST(ServePrecomputeTest, OnlyAOneMemberGroupPrecomputes) {
  const auto model = testing::small_model(6, 77);
  SessionConfig cfg = gated_config(model);
  cfg.filter.options.health.enabled = false;
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  DecodeServer server(options);
  const SessionId a = server.open_session(cfg);
  const SessionId b = server.open_session(cfg);
  ASSERT_EQ(server.stats().batch_groups, 1u);
  const auto zs = testing::simulate_measurements(model, 6, 13);
  for (std::size_t n = 0; n < 3; ++n) {
    ASSERT_EQ(server.submit(a, zs[n]), PushResult::kAccepted);
    ASSERT_EQ(server.submit(b, zs[n]), PushResult::kAccepted);
    EXPECT_EQ(server.poll(), 2u);  // one cohort pass
    EXPECT_EQ(server.poll(), 0u);
  }
  EXPECT_EQ(server.stats().total_prepared_steps, 0u);
  EXPECT_EQ(server.stats().total_unprepared_steps, 6u);

  ASSERT_TRUE(server.remove_session(b));
  for (std::size_t n = 3; n < zs.size(); ++n) {
    ASSERT_EQ(server.submit(a, zs[n]), PushResult::kAccepted);
    EXPECT_EQ(server.poll(), 1u);
    EXPECT_EQ(server.poll(), 0u);  // a's precompute
  }
  const SessionStatsSnapshot st = server.session_stats(a);
  EXPECT_EQ(st.prepared_steps, 2u);  // bins 4 and 5
  EXPECT_EQ(st.unprepared_steps, 4u);
  expect_bit_identical(server.trajectory(a), sequential(cfg, zs), "a");
}

// A closed session's last bin is its last: no next gain is precomputed for
// it, solo or batched, so once its queue is decoded a manual poll() finds
// nothing to run and no worker time is spent.
TEST(ServePrecomputeTest, ClosedSessionPrecomputesNothingAfterItsLastBin) {
  const auto model = testing::small_model(48);
  const SessionConfig gated = gated_config(model);
  SessionConfig batched = gated;
  batched.filter.options.health.enabled = false;
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  const auto zs = testing::simulate_measurements(model, 4, 21);
  for (const SessionConfig& cfg : {gated, batched}) {
    DecodeServer server(options);
    const SessionId id = server.open_session(cfg);
    for (const auto& z : zs)
      ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
    ASSERT_TRUE(server.close_session(id, CloseMode::kDrain));
    server.drain();  // manual mode: decodes only
    const ServerStats closed = server.stats();
    ASSERT_EQ(closed.total_steps, zs.size());
    EXPECT_EQ(server.poll(), 0u);
    const ServerStats after = server.stats();
    EXPECT_EQ(after.worker_busy_s, closed.worker_busy_s);
    EXPECT_EQ(after.total_prepared_steps, closed.total_prepared_steps);
    EXPECT_EQ(after.total_prepared_dropped, closed.total_prepared_dropped);
    EXPECT_TRUE(server.remove_session(id));
  }
}

// A bin submitted while its unit's precompute is still queued is decoded
// first: the precompute is promoted away, not run ahead of the bin.
TEST(ServePrecomputeTest, QueuedPrecomputeNeverRunsAheadOfABin) {
  const auto model = testing::small_model(6);
  SessionConfig cfg = gated_config(model);
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  DecodeServer server(options);
  const SessionId a = server.open_session(cfg);
  const SessionId b = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 3, 2);
  ASSERT_EQ(server.submit(a, zs[0]), PushResult::kAccepted);
  ASSERT_EQ(server.submit(b, zs[0]), PushResult::kAccepted);
  EXPECT_EQ(server.poll(), 1u);  // a decodes; its precompute is queued
  ASSERT_EQ(server.submit(a, zs[1]), PushResult::kAccepted);
  EXPECT_EQ(server.poll(), 1u);  // b's bin
  EXPECT_EQ(server.poll(), 1u);  // a's bin, ahead of any precompute
  EXPECT_EQ(server.session_stats(a).unprepared_steps, 2u);
  EXPECT_EQ(server.poll(), 0u);
  EXPECT_EQ(server.poll(), 0u);
  EXPECT_EQ(server.poll(), 0u);  // nothing left
  ASSERT_EQ(server.submit(a, zs[2]), PushResult::kAccepted);
  server.drain();
  EXPECT_EQ(server.session_stats(a).prepared_steps, 1u);
  expect_bit_identical(server.trajectory(a), sequential(cfg, zs), "a");
}

// Producers, a checkpointing thread and remove_session calls race the
// workers' precomputes (run under TSan by the tier-1 script).  Every
// session that stays decodes bit for bit; a removal only succeeds on an
// idle session or one whose precompute had not started.
TEST(ServePrecomputeTest, PrecomputeRacesSubmitCheckpointAndRemove) {
  const auto model = testing::small_model(6);
  const SessionConfig gated = gated_config(model);
  SessionConfig batched = gated;
  batched.filter.options.health.enabled = false;
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kBins = 40;
  DecodeServer server(pool_options(3));
  std::vector<SessionId> ids;
  std::vector<SessionConfig> cfgs;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    cfgs.push_back(s % 2 ? gated : batched);
    ids.push_back(server.open_session(cfgs.back()));
    streams.push_back(testing::simulate_measurements(model, kBins, 100 + s));
  }
  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    while (!done.load()) {
      for (const SessionId id : ids) {
        SessionSnapshot snap;
        (void)server.checkpoint_session(id, &snap);
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      for (const auto& z : streams[s]) {
        EXPECT_EQ(server.submit(ids[s], z), PushResult::kAccepted);
        if (s % 3 == 0) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  // The last (solo) session leaves once it has decoded everything; its
  // precompute may still be queued (cancelled) or running (retry).
  const SessionId leaving = ids.back();
  auto consumed = [&] {
    const SessionStatsSnapshot st = server.session_stats(leaving);
    return st.steps + st.invalid_steps + st.quarantine_dropped;
  };
  while (consumed() < kBins) std::this_thread::yield();
  while (!server.remove_session(leaving)) std::this_thread::yield();
  server.drain();
  done.store(true);
  checkpointer.join();
  for (std::size_t s = 0; s + 1 < kSessions; ++s) {
    expect_bit_identical(server.trajectory(ids[s]),
                         sequential(cfgs[s], streams[s]),
                         "session " + std::to_string(s));
  }
  EXPECT_EQ(server.session_steps(leaving), 0u);  // gone
}

}  // namespace
}  // namespace kalmmind::serve
