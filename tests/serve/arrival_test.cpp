// Decode on arrival (docs/serving.md): in pool mode, a bin whose solo
// session is idle with its next gain prepared is decoded by submit() on the
// calling thread, before submit() returns.  Every other bin — unprepared,
// behind a queued or running unit, degraded, batched, or on a manual-mode
// server — still goes through the ready structure.  Every decode stays
// bit-identical to a sequential KalmanFilter over the submission order.
// Suite names start with "Serve" so the tier-1 TSan rerun covers the
// submitting thread racing workers, checkpoints, removals and teardown.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <limits>
#include <memory>
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

SessionConfig solo_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 4;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.queue_capacity = 1024;
  return cfg;
}

// Health gating keeps a session solo even with batching on.
SessionConfig gated_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg = solo_config(model);
  cfg.filter.options.health.enabled = true;
  cfg.filter.options.health.max_state_abs = 50.0;
  cfg.self_healing.enabled = true;
  return cfg;
}

ServerOptions pool_options(unsigned workers, bool batching = false) {
  ServerOptions options;
  options.workers = workers;
  options.batching = batching;
  return options;
}

TEST(ServeArrivalTest, PacedPreparedBinsDecodeBeforeSubmitReturns) {
  const auto model = testing::small_model(6);
  auto faulty = testing::simulate_measurements(model, 48, 3);
  faulty[9][0] = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t i = 0; i < faulty[20].size(); ++i) faulty[20][i] = 1e7;
  struct Case {
    SessionConfig cfg;
    std::vector<Vector<double>> zs;
    std::string what;
  };
  const std::vector<Case> cases = {
      {solo_config(model), testing::simulate_measurements(model, 48, 2),
       "plain"},
      {gated_config(model), faulty, "health-gated, NaN and saturated bins"},
  };
  for (const Case& c : cases) {
    DecodeServer server(pool_options(2));
    const SessionId id = server.open_session(c.cfg);
    for (std::size_t n = 0; n < c.zs.size(); ++n) {
      ASSERT_EQ(server.submit(id, c.zs[n]), PushResult::kAccepted);
      // From the second bin on, the gain was prepared while the session
      // idled: the bin is decoded when submit() returns.
      if (n > 0) {
        EXPECT_EQ(server.session_steps(id), n + 1) << c.what << " bin " << n;
        EXPECT_EQ(server.stats().total_arrival_steps, n) << c.what;
      }
      server.drain();  // waits for the precompute of the next gain
    }
    expect_bit_identical(server.trajectory(id), sequential(c.cfg, c.zs),
                         c.what);
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.total_arrival_steps, c.zs.size() - 1) << c.what;
    EXPECT_EQ(stats.total_unprepared_steps, 1u) << c.what;
    EXPECT_EQ(stats.total_prepared_steps + stats.total_prepared_dropped,
              c.zs.size() - 1)
        << c.what;
    EXPECT_EQ(stats.total_invalid_steps, 0u) << c.what;
    EXPECT_LE(stats.worker_utilization, 1.0) << c.what;
  }
}

// The first bin of a session finds nothing prepared: a worker computes its
// whole step.
TEST(ServeArrivalTest, UnpreparedBinGoesToThePool) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = solo_config(model);
  const auto zs = testing::simulate_measurements(model, 2, 4);
  DecodeServer server(pool_options(1));
  const SessionId id = server.open_session(cfg);
  ASSERT_EQ(server.submit(id, zs[0]), PushResult::kAccepted);
  EXPECT_EQ(server.stats().total_arrival_steps, 0u);
  server.drain();
  ASSERT_EQ(server.submit(id, zs[1]), PushResult::kAccepted);
  EXPECT_EQ(server.stats().total_arrival_steps, 1u);
  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_EQ(st.unprepared_steps, 1u);
  EXPECT_EQ(st.prepared_steps, 1u);
  server.drain();
  expect_bit_identical(server.trajectory(id), sequential(cfg, zs), "a");
}

// One worker busy with a flood of bins for session b.  Session a's bins
// arrive while its unit is owned — first its decode is queued, then its
// precompute is queued behind b's decodes — so each one goes to the pool
// instead of running on the submitting thread.
TEST(ServeArrivalTest, BinsBehindAQueuedUnitGoToThePool) {
  const auto model = testing::small_model(48);
  const SessionConfig cfg = solo_config(model);
  const auto flood = testing::simulate_measurements(model, 600, 5);
  const auto zs = testing::simulate_measurements(model, 3, 6);
  DecodeServer server(pool_options(1));
  const SessionId a = server.open_session(cfg);
  const SessionId b = server.open_session(cfg);
  for (const auto& z : flood)
    ASSERT_EQ(server.submit(b, z), PushResult::kAccepted);
  ASSERT_EQ(server.submit(a, zs[0]), PushResult::kAccepted);  // unprepared
  ASSERT_EQ(server.submit(a, zs[1]), PushResult::kAccepted);  // decode queued
  // a's decode runs between two of b's quanta; its precompute then waits
  // until b's queue is empty (decodes first, one worker).
  while (server.session_steps(a) < 2) std::this_thread::yield();
  ASSERT_EQ(server.submit(a, zs[2]), PushResult::kAccepted);
  // b still had bins after that submit, so a's precompute had not started.
  ASSERT_GT(server.session_stats(b).queue_depth, 0u)
      << "the flood drained before the test could submit; enlarge it";
  EXPECT_EQ(server.stats().total_arrival_steps, 0u);
  server.drain();
  const SessionStatsSnapshot st = server.session_stats(a);
  EXPECT_EQ(st.unprepared_steps, 3u);  // the queued precompute was promoted
  EXPECT_EQ(server.stats().total_arrival_steps, 0u);
  expect_bit_identical(server.trajectory(a), sequential(cfg, zs), "a");
  expect_bit_identical(server.trajectory(b), sequential(cfg, flood), "b");
}

#if defined(KALMMIND_FAULTS)
// A session that degraded to the constant gain decodes on the pool, even
// though its degraded filter is prepared between bins.
TEST(ServeArrivalTest, DegradedSessionGoesToThePool) {
  const auto model = testing::small_model(6);
  SessionConfig cfg = solo_config(model);
  cfg.deadline_s = 1e-12;  // every decode misses: deterministic degradation
  cfg.self_healing.enabled = true;
  cfg.self_healing.degrade_after_misses = 3;
  const auto zs = testing::simulate_measurements(model, 20, 7);

  DecodeServer server(pool_options(2));
  const SessionId id = server.open_session(cfg);
  for (std::size_t n = 0; n < zs.size(); ++n) {
    ASSERT_EQ(server.submit(id, zs[n]), PushResult::kAccepted);
    // Bins 1 and 2 arrive healthy and prepared; bin 2's miss is the third
    // and degrades the session, so no later bin runs on this thread.
    EXPECT_EQ(server.stats().total_arrival_steps, std::min<std::size_t>(n, 2))
        << "bin " << n;
    server.drain();
  }
  const SessionStatsSnapshot st = server.session_stats(id);
  EXPECT_EQ(st.state, SessionState::kDegraded);
  EXPECT_EQ(st.degradations, 1u);
  EXPECT_EQ(st.prepared_steps, zs.size() - 1);  // workers still prepare

  // The same stream on a manual-mode server, where no bin runs on arrival.
  ServerOptions manual;
  manual.workers = ServerOptions::kManual;
  manual.batching = false;
  DecodeServer reference(manual);
  const SessionId ref = reference.open_session(cfg);
  for (const auto& z : zs) {
    ASSERT_EQ(reference.submit(ref, z), PushResult::kAccepted);
    ASSERT_EQ(reference.poll(), 1u);  // the bin
    ASSERT_EQ(reference.poll(), 0u);  // the next gain's precompute
  }
  expect_bit_identical(server.trajectory(id), reference.trajectory(ref),
                       "degraded");
}
#endif

// A per-user model decodes as a one-member group: its gain is prepared
// between bins, but a group's bins always go to the pool.
TEST(ServeArrivalTest, BatchedSessionGoesToThePool) {
  const auto model = testing::small_model(6, 77);
  const SessionConfig cfg = solo_config(model);
  const auto zs = testing::simulate_measurements(model, 20, 8);
  DecodeServer server(pool_options(2, /*batching=*/true));
  const SessionId id = server.open_session(cfg);
  for (const auto& z : zs) {
    ASSERT_EQ(server.submit(id, z), PushResult::kAccepted);
    server.drain();
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.batched_sessions, 1u);
  EXPECT_EQ(stats.total_prepared_steps, zs.size() - 1);
  EXPECT_EQ(stats.total_arrival_steps, 0u);
  expect_bit_identical(server.trajectory(id), sequential(cfg, zs), "batched");
}

// Manual mode never decodes in submit(): a bin waits for poll(), so the
// cluster's shards and the deterministic poll() counts are unchanged.
TEST(ServeArrivalTest, ManualModeNeverDecodesInSubmit) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = solo_config(model);
  const auto zs = testing::simulate_measurements(model, 10, 9);
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  options.batching = false;
  DecodeServer server(options);
  const SessionId id = server.open_session(cfg);
  for (std::size_t n = 0; n < zs.size(); ++n) {
    ASSERT_EQ(server.submit(id, zs[n]), PushResult::kAccepted);
    EXPECT_EQ(server.session_steps(id), n);
    EXPECT_EQ(server.poll(), 1u);  // the bin
    EXPECT_EQ(server.poll(), 0u);  // its successor's precompute
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.total_arrival_steps, 0u);
  EXPECT_EQ(stats.total_prepared_steps, zs.size() - 1);
  expect_bit_identical(server.trajectory(id), sequential(cfg, zs), "manual");
}

// A bin of the wrong size is refused before it is queued, so neither a
// worker nor the submitting thread ever steps it, and the session keeps
// decoding.
TEST(ServeArrivalTest, WrongSizeBinIsRefusedBeforeItIsQueued) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = solo_config(model);
  const auto zs = testing::simulate_measurements(model, 4, 11);
  ServerOptions manual;
  manual.workers = ServerOptions::kManual;
  for (const ServerOptions& options : {pool_options(2), manual}) {
    DecodeServer server(options);
    const SessionId id = server.open_session(cfg);
    for (std::size_t n = 0; n < zs.size(); ++n) {
      EXPECT_EQ(server.submit(id, Vector<double>(5)),
                PushResult::kRejectedInvalid);
      EXPECT_EQ(server.session_stats(id).queue_depth, 0u);
      ASSERT_EQ(server.submit(id, zs[n]), PushResult::kAccepted);
      server.drain();
    }
    EXPECT_FALSE(push_status(PushResult::kRejectedInvalid).ok());
    expect_bit_identical(server.trajectory(id), sequential(cfg, zs),
                         "after refusals");
  }
}

// Two producers take turns on one session.  In the first half each waits
// for the precompute before handing over, so every bin after the first is
// decoded on whichever producer submitted it; in the second half they hand
// over at once, racing the worker's precompute.  Either way the session
// decodes the bins in submission order.
TEST(ServeArrivalTest, TwoProducersOnOneSessionKeepSubmissionOrder) {
  const auto model = testing::small_model(6);
  const SessionConfig cfg = gated_config(model);
  constexpr std::size_t kBins = 80;
  const auto zs = testing::simulate_measurements(model, kBins, 10);
  DecodeServer server(pool_options(2));
  const SessionId id = server.open_session(cfg);
  std::atomic<std::size_t> turn{0};
  std::atomic<std::size_t> arrivals_in_first_half{0};
  auto producer = [&](std::size_t parity) {
    for (std::size_t n = parity; n < kBins; n += 2) {
      while (turn.load() != n) std::this_thread::yield();
      EXPECT_EQ(server.submit(id, zs[n]), PushResult::kAccepted);
      if (n < kBins / 2) {
        server.drain();
        if (n + 1 == kBins / 2)
          arrivals_in_first_half = server.stats().total_arrival_steps;
      }
      turn.store(n + 1);
    }
  };
  std::thread even(producer, 0);
  std::thread odd(producer, 1);
  even.join();
  odd.join();
  server.drain();
  EXPECT_EQ(arrivals_in_first_half.load(), kBins / 2 - 1);
  EXPECT_EQ(server.session_steps(id), kBins);
  expect_bit_identical(server.trajectory(id), sequential(cfg, zs), "order");
}

// Producers pace their bins so most are decoded on arrival, while a
// checkpointing thread, a close_session(kDiscard), a remove_session racing
// its own producer and the workers' precomputes run against them (TSan in
// the tier-1 run).  Every session that stays decodes bit for bit, and the
// discarded one decodes a bit-identical prefix with every bin accounted
// for.  A removal only succeeds while no thread owns the session's unit;
// afterwards its producer is refused.  The server is finally destroyed
// with bins and precomputes in flight.
TEST(ServeArrivalTest, ArrivalsRaceCheckpointCloseRemoveAndTeardown) {
  const auto model = testing::small_model(6);
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kBins = 60;
  auto server = std::make_unique<DecodeServer>(pool_options(3));
  std::vector<SessionId> ids;
  std::vector<SessionConfig> cfgs;
  std::vector<std::vector<Vector<double>>> streams;
  for (std::size_t s = 0; s < kSessions; ++s) {
    cfgs.push_back(s % 2 ? gated_config(model) : solo_config(model));
    ids.push_back(server->open_session(cfgs.back()));
    streams.push_back(testing::simulate_measurements(model, kBins, 200 + s));
  }
  const std::size_t discarding = 0;
  const std::size_t removing = 1;
  std::atomic<bool> done{false};
  std::thread checkpointer([&] {
    while (!done.load()) {
      for (const SessionId id : ids) {
        SessionSnapshot snap;
        (void)server->checkpoint_session(id, &snap);
      }
      std::this_thread::yield();
    }
  });
  std::atomic<bool> removed{false};
  std::thread remover([&] {
    while (server->session_steps(ids[removing]) < kBins / 3)
      std::this_thread::yield();
    while (!server->remove_session(ids[removing])) std::this_thread::yield();
    removed = true;
  });
  std::vector<std::size_t> accepted(kSessions, 0);
  std::vector<std::thread> producers;
  for (std::size_t s = 0; s < kSessions; ++s) {
    producers.emplace_back([&, s] {
      for (std::size_t n = 0; n < kBins; ++n) {
        if (s == discarding && n == kBins / 2) {
          EXPECT_TRUE(server->close_session(ids[s], CloseMode::kDiscard));
        }
        const bool gone = s == removing && removed.load();
        const PushResult r = server->submit(ids[s], streams[s][n]);
        if (r == PushResult::kAccepted) {
          ++accepted[s];
        } else if (s == removing) {
          EXPECT_EQ(r, PushResult::kUnknownSession);
        } else if (s == discarding) {
          EXPECT_EQ(r, PushResult::kUnknownSession);
          EXPECT_GE(n, kBins / 2);
        } else {
          ADD_FAILURE() << "session " << s << " bin " << n << " refused";
        }
        if (gone) {
          EXPECT_NE(r, PushResult::kAccepted);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (auto& t : producers) t.join();
  remover.join();
  server->drain();
  done.store(true);
  checkpointer.join();

  for (std::size_t s = 0; s < kSessions; ++s) {
    if (s == removing) continue;
    auto want = sequential(cfgs[s], streams[s]);
    const SessionStatsSnapshot st = server->session_stats(ids[s]);
    if (s == discarding) {
      EXPECT_EQ(accepted[s], kBins / 2);
      EXPECT_EQ(st.steps + st.discarded, accepted[s]);
      want.resize(st.steps);
    }
    expect_bit_identical(server->trajectory(ids[s]), want,
                         "session " + std::to_string(s));
  }
  EXPECT_EQ(server->session_steps(ids[removing]), 0u);  // gone
  EXPECT_GT(server->stats().total_arrival_steps, 0u);

  // Teardown with bins in flight: producers submit one more round and the
  // server is destroyed without a drain, racing arrivals' precomputes.
  std::vector<std::thread> last;
  for (std::size_t s = 2; s < kSessions; ++s) {
    last.emplace_back([&, s] {
      for (std::size_t n = 0; n < 8; ++n)
        (void)server->submit(ids[s], streams[s][n]);
    });
  }
  for (auto& t : last) t.join();
  server.reset();
}

}  // namespace
}  // namespace kalmmind::serve
