// DecodeServer behavior: deterministic decoding, backpressure, deadline
// accounting, admission control and clean shutdown.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "serve/serve.hpp"
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

// The same decode the server performs, as a plain sequential loop.
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
      // Exact equality on purpose: per-session decode order is sequential,
      // so concurrency must not perturb a single bit.
      ASSERT_EQ(a[n][d], b[n][d]) << "step " << n << " dim " << d;
    }
  }
}

TEST(ServeDecodeServerTest, SessionsAreBitIdenticalToSequentialRuns) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = interleaved_config(model);

  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kSteps = 40;
  // Distinct measurement stream per session (different seeds).
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    streams.push_back(testing::simulate_measurements(model, kSteps, 100 + s));
  }

  DecodeServer server({/*workers=*/4, /*max_batch=*/3});
  std::vector<SessionId> ids;
  for (std::size_t s = 0; s < kSessions; ++s) {
    Status status;
    const SessionId id = server.open_session(cfg, &status);
    ASSERT_NE(id, DecodeServer::kInvalidSession) << status.message();
    ids.push_back(id);
  }

  // Round-robin arrival, like simultaneous acquisition across subjects.
  for (std::size_t n = 0; n < kSteps; ++n) {
    for (std::size_t s = 0; s < kSessions; ++s) {
      EXPECT_EQ(server.submit(ids[s], streams[s][n]), PushResult::kAccepted);
    }
  }
  server.drain();

  for (std::size_t s = 0; s < kSessions; ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    expect_bit_identical(server.trajectory(ids[s]),
                         sequential_trajectory(cfg, streams[s]));
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.total_steps, kSessions * kSteps);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.sessions, kSessions);
  EXPECT_EQ(stats.step_latency.samples, kSessions * kSteps);
}

TEST(ServeDecodeServerTest, RejectPolicyBouncesWhenFull) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  cfg.queue_capacity = 3;
  cfg.backpressure = BackpressurePolicy::kReject;

  // Manual mode: nothing decodes until poll(), so the queue really fills.
  DecodeServer server({ServerOptions::kManual, 8});
  const SessionId id = server.open_session(cfg);
  ASSERT_NE(id, DecodeServer::kInvalidSession);

  const auto zs = testing::simulate_measurements(model, 5);
  EXPECT_EQ(server.submit(id, zs[0]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[1]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[2]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[3]), PushResult::kRejectedFull);
  EXPECT_EQ(server.submit(id, zs[4]), PushResult::kRejectedFull);

  server.drain();
  // Only the accepted prefix decodes, in order.
  expect_bit_identical(
      server.trajectory(id),
      sequential_trajectory(cfg, {zs.begin(), zs.begin() + 3}));

  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_EQ(st.steps, 3u);
  EXPECT_EQ(st.rejected, 2u);
  EXPECT_EQ(st.dropped, 0u);
  EXPECT_EQ(st.max_backlog, 3u);
}

TEST(ServeDecodeServerTest, DropOldestPolicyEvictsStalestBins) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  cfg.queue_capacity = 3;
  cfg.backpressure = BackpressurePolicy::kDropOldest;

  DecodeServer server({ServerOptions::kManual, 8});
  const SessionId id = server.open_session(cfg);
  ASSERT_NE(id, DecodeServer::kInvalidSession);

  const auto zs = testing::simulate_measurements(model, 5);
  EXPECT_EQ(server.submit(id, zs[0]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[1]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[2]), PushResult::kAccepted);
  EXPECT_EQ(server.submit(id, zs[3]), PushResult::kDroppedOldest);  // evicts 0
  EXPECT_EQ(server.submit(id, zs[4]), PushResult::kDroppedOldest);  // evicts 1

  server.drain();
  // The three newest bins decode, from the initial filter state.
  expect_bit_identical(
      server.trajectory(id),
      sequential_trajectory(cfg, {zs.begin() + 2, zs.end()}));

  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_EQ(st.steps, 3u);
  EXPECT_EQ(st.dropped, 2u);
  EXPECT_EQ(st.rejected, 0u);
}

TEST(ServeDecodeServerTest, ManualPollPumpsOneBatchAtATime) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);

  DecodeServer server({ServerOptions::kManual, /*max_batch=*/2});
  const SessionId id = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 5);
  for (const auto& z : zs) server.submit(id, z);

  EXPECT_EQ(server.poll(), 2u);  // first quantum: max_batch bins
  EXPECT_EQ(server.session_stats(id).steps, 2u);
  EXPECT_EQ(server.poll(), 2u);
  EXPECT_EQ(server.poll(), 1u);  // remainder
  EXPECT_EQ(server.poll(), 0u);  // nothing ready
  EXPECT_EQ(server.session_stats(id).steps, 5u);
}

TEST(ServeDecodeServerTest, DeadlineAccountingUsesIterationTimings) {
  const auto model = testing::small_model(4);

  // An impossible deadline: every step must be recorded as a miss, with
  // one IterationTiming row per decoded bin.
  SessionConfig cfg = interleaved_config(model);
  cfg.deadline_s = 1e-12;
  DecodeServer server({/*workers=*/2, 8});
  const SessionId id = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 10);
  for (const auto& z : zs) server.submit(id, z);
  server.drain();

  const auto timings = server.timings(id);
  ASSERT_EQ(timings.size(), 10u);
  for (const auto& t : timings) {
    EXPECT_FALSE(t.meets_deadline);
    EXPECT_GT(t.seconds, 0.0);
  }
  EXPECT_EQ(server.session_stats(id).deadline_misses, 10u);

  // A generous deadline: zero misses.
  SessionConfig relaxed = interleaved_config(model);
  relaxed.deadline_s = 10.0;
  const SessionId id2 = server.open_session(relaxed);
  for (const auto& z : zs) server.submit(id2, z);
  server.drain();
  EXPECT_EQ(server.session_stats(id2).deadline_misses, 0u);
  EXPECT_EQ(server.stats().total_deadline_misses, 10u);
}

TEST(ServeDecodeServerTest, AdmissionRejectsBadConfigsWithoutThrowing) {
  const auto model = testing::small_model(4);
  DecodeServer server({/*workers=*/1, 8});

  SessionConfig bad_queue;
  bad_queue.filter.model = model;
  bad_queue.queue_capacity = 0;
  Status status;
  EXPECT_EQ(server.open_session(bad_queue, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  SessionConfig bad_strategy;
  bad_strategy.filter.model = model;
  bad_strategy.filter.strategy.kind = kalman::StrategyKind::kTaylor;
  bad_strategy.filter.strategy.taylor_order = 0;  // spec check rejects
  EXPECT_EQ(server.open_session(bad_strategy, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // sskf without a preloaded inverse: FilterConfig::check catches the
  // spec/matrices mismatch — still a Status, not a throw.
  SessionConfig missing_preload;
  missing_preload.filter.model = model;
  missing_preload.filter.strategy.kind = kalman::StrategyKind::kSskf;
  EXPECT_EQ(server.open_session(missing_preload, &status),
            DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // And a good config still opens.
  EXPECT_NE(server.open_session(interleaved_config(model), &status),
            DecodeServer::kInvalidSession);
  EXPECT_TRUE(status.ok());
}

TEST(ServeDecodeServerTest, AdmissionRejectsMisshapenIfkfNoise) {
  // An ifkf R that is not z_dim x z_dim would only throw inside a worker
  // on the first decode; admission must refuse it with a Status instead.
  const auto model = testing::small_model(3);
  DecodeServer server({/*workers=*/1, 8});
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kIfkf;
  cfg.filter.strategy_data.r = linalg::Matrix<double>::identity(5);
  Status status;
  EXPECT_EQ(server.open_session(cfg, &status), DecodeServer::kInvalidSession);
  EXPECT_FALSE(status.ok());

  // The true R of the model is accepted.
  cfg.filter.strategy_data.r = model.r;
  EXPECT_NE(server.open_session(cfg, &status), DecodeServer::kInvalidSession);
  EXPECT_TRUE(status.ok()) << status.message();
}

TEST(ServeDecodeServerTest, UnknownAndClosedSessionsRejectSubmits) {
  const auto model = testing::small_model(4);
  DecodeServer server({/*workers=*/1, 8});
  const auto zs = testing::simulate_measurements(model, 3);

  EXPECT_EQ(server.submit(12345, zs[0]), PushResult::kUnknownSession);
  EXPECT_FALSE(server.close_session(12345));

  const SessionId id = server.open_session(interleaved_config(model));
  EXPECT_EQ(server.submit(id, zs[0]), PushResult::kAccepted);
  EXPECT_TRUE(server.close_session(id));
  EXPECT_EQ(server.submit(id, zs[1]), PushResult::kUnknownSession);

  // Already-queued work still decodes after close.
  server.drain();
  EXPECT_EQ(server.session_stats(id).steps, 1u);
  EXPECT_EQ(server.stats().sessions, 0u);  // closed sessions aren't "open"
}

TEST(ServeDecodeServerTest, CleanShutdownWithQueuedWork) {
  const auto model = testing::small_model(6);
  const auto zs = testing::simulate_measurements(model, 200);
  // Destroy the server while plenty of bins are still queued: must not
  // hang, crash, or race (TSan covers the latter).
  for (int round = 0; round < 3; ++round) {
    DecodeServer server({/*workers=*/4, 2});
    std::vector<SessionId> ids;
    for (int s = 0; s < 4; ++s) {
      ids.push_back(server.open_session(interleaved_config(model)));
    }
    for (const auto& z : zs) {
      for (const auto id : ids) server.submit(id, z);
    }
    // No drain() — destructor races the workers on purpose.
  }
  SUCCEED();
}

TEST(ServeDecodeServerTest, CloseModesDrainOrDiscardWithAccounting) {
  const auto model = testing::small_model(4);
  const auto zs = testing::simulate_measurements(model, 12);
  DecodeServer server({/*workers=*/ServerOptions::kManual});

  // kDrain (the default): queued bins still decode after close.
  const SessionId drained = server.open_session(interleaved_config(model));
  for (std::size_t n = 0; n < 5; ++n)
    ASSERT_EQ(server.submit(drained, zs[n]), PushResult::kAccepted);
  ASSERT_TRUE(server.close_session(drained, CloseMode::kDrain));
  server.drain();
  EXPECT_EQ(server.session_stats(drained).steps, 5u);
  EXPECT_EQ(server.session_stats(drained).discarded, 0u);

  // kDiscard: the queued tail is dropped now — and counted, never silent.
  const SessionId discarded = server.open_session(interleaved_config(model));
  for (std::size_t n = 0; n < 3; ++n)
    ASSERT_EQ(server.submit(discarded, zs[n]), PushResult::kAccepted);
  server.drain();
  for (std::size_t n = 3; n < 10; ++n)
    ASSERT_EQ(server.submit(discarded, zs[n]), PushResult::kAccepted);
  ASSERT_TRUE(server.close_session(discarded, CloseMode::kDiscard));
  EXPECT_EQ(server.submit(discarded, zs[0]), PushResult::kUnknownSession);
  server.drain();
  const auto stats = server.session_stats(discarded);
  EXPECT_EQ(stats.steps, 3u);
  EXPECT_EQ(stats.discarded, 7u);
  EXPECT_EQ(server.stats().total_discarded, 7u);
}

TEST(ServeDecodeServerTest, TeardownCountsUndecodedBinsAsDiscarded) {
  const auto model = testing::small_model(4);
  const auto zs = testing::simulate_measurements(model, 8);
  auto& counter = telemetry::MetricsRegistry::global().counter(
      "kalmmind.serve.discarded_total");
  const std::uint64_t before = counter.value();
  {
    DecodeServer server({/*workers=*/ServerOptions::kManual});
    const SessionId id = server.open_session(interleaved_config(model));
    for (const auto& z : zs)
      ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
    // Destroy with all 8 bins still queued: the destructor must count
    // them, so a teardown never loses bins silently.
  }
  EXPECT_EQ(counter.value() - before, 8u);
}

TEST(ServeDecodeServerTest, TrajectoryRecordingCanBeDisabled) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = interleaved_config(model);
  cfg.record_trajectory = false;
  DecodeServer server({/*workers=*/1, 8});
  const SessionId id = server.open_session(cfg);
  const auto zs = testing::simulate_measurements(model, 8);
  for (const auto& z : zs) server.submit(id, z);
  server.drain();
  EXPECT_TRUE(server.trajectory(id).empty());
  EXPECT_TRUE(server.timings(id).empty());
  EXPECT_EQ(server.session_stats(id).steps, 8u);  // stats still counted
}

TEST(ServeDecodeServerTest, StatsSnapshotAggregatesSessions) {
  const auto model = testing::small_model(4);
  DecodeServer server({/*workers=*/2, 8});
  const SessionId a = server.open_session(interleaved_config(model));
  const SessionId b = server.open_session(interleaved_config(model));
  const auto zs = testing::simulate_measurements(model, 6);
  for (const auto& z : zs) {
    server.submit(a, z);
    server.submit(b, z);
  }
  server.drain();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.total_steps, 12u);
  EXPECT_EQ(stats.per_session.size(), 2u);
  EXPECT_GT(stats.steps_per_second, 0.0);
  EXPECT_GT(stats.uptime_s, 0.0);
  EXPECT_FALSE(stats.to_string().empty());
}

}  // namespace
}  // namespace kalmmind::serve
