// Serve-layer self-healing (serve/session.hpp): the decode guard that keeps
// diverged steps out of the latency percentiles, quarantine + bounded
// exponential-backoff restarts, and deadline-driven degradation to the
// cheap constant-gain strategy with automatic recovery.  Suite names start
// with "Serve" on purpose: scripts/tier1.sh re-runs ^Serve|^Telemetry under
// TSan.
//
// Every test runs its scenario on both decode engines — solo sessions
// (ServerOptions::batching off) and BatchGroup members (batching on) — and
// expects the two runs to agree bit-for-bit on every trajectory and on
// every self-healing counter (on_both_engines).
#include <cmath>
#include <cstdlib>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "serve/serve.hpp"
#include "../kalman/kalman_test_util.hpp"
#if defined(KALMMIND_FAULTS)
#include "testing/fault_injection.hpp"
#endif

namespace kalmmind::serve {
namespace {

using linalg::Vector;

SessionConfig healing_config(const kalman::KalmanModel<double>& model) {
  SessionConfig cfg;
  cfg.filter.model = model;
  cfg.filter.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.filter.strategy.calc_freq = 3;
  cfg.filter.strategy.approx = 2;
  cfg.filter.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  cfg.queue_capacity = 1024;
  cfg.self_healing.enabled = true;
  cfg.self_healing.max_restarts = 2;
  cfg.self_healing.backoff_initial_bins = 1;
  cfg.self_healing.backoff_max_bins = 8;
  return cfg;
}

Vector<double> nan_bin(std::size_t z_dim) {
  Vector<double> z(z_dim);
  for (std::size_t i = 0; i < z_dim; ++i) {
    z[i] = std::numeric_limits<double>::quiet_NaN();
  }
  return z;
}

ServerOptions manual_options(bool batching, std::size_t max_batch = 8) {
  ServerOptions options;
  options.workers = ServerOptions::kManual;
  options.max_batch = max_batch;
  options.batching = batching;
  return options;
}

void drain_manual(DecodeServer& server) {
  while (server.poll() > 0) {
  }
}

void expect_all_finite(const std::vector<Vector<double>>& states) {
  for (std::size_t n = 0; n < states.size(); ++n) {
    for (std::size_t d = 0; d < states[n].size(); ++d) {
      EXPECT_TRUE(std::isfinite(states[n][d])) << "step " << n << " dim " << d;
    }
  }
}

// What one engine produced, per session, for the cross-engine comparison.
struct EngineRun {
  std::vector<std::vector<Vector<double>>> trajectories;
  std::vector<SessionStatsSnapshot> stats;

  void add(std::vector<Vector<double>> trajectory, SessionStatsSnapshot st) {
    trajectories.push_back(std::move(trajectory));
    stats.push_back(st);
  }
  void add(const DecodeServer& server, SessionId id) {
    add(server.trajectory(id), server.session_stats(id));
  }
};

// Runs `scenario(batching)` once per engine and expects bit-identical
// trajectories and equal counters.  Deadline misses are left to each
// scenario's own assertions: with real timing they depend on the host.
template <typename Scenario>
void on_both_engines(Scenario scenario) {
  std::vector<EngineRun> runs;
  for (const bool batching : {false, true}) {
    SCOPED_TRACE(batching ? "batched engine" : "solo engine");
    runs.push_back(scenario(batching));
  }
  const EngineRun& solo = runs[0];
  const EngineRun& batched = runs[1];
  ASSERT_EQ(solo.trajectories.size(), batched.trajectories.size());
  for (std::size_t s = 0; s < solo.trajectories.size(); ++s) {
    SCOPED_TRACE("session " + std::to_string(s));
    const auto& a = solo.trajectories[s];
    const auto& b = batched.trajectories[s];
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t n = 0; n < a.size(); ++n) {
      ASSERT_EQ(a[n].size(), b[n].size());
      for (std::size_t d = 0; d < a[n].size(); ++d) {
        EXPECT_EQ(a[n][d], b[n][d]) << "step " << n << " dim " << d;
      }
    }
    const SessionStatsSnapshot& x = solo.stats[s];
    const SessionStatsSnapshot& y = batched.stats[s];
    EXPECT_EQ(x.steps, y.steps);
    EXPECT_EQ(x.queue_depth, y.queue_depth);
    EXPECT_EQ(x.max_backlog, y.max_backlog);
    EXPECT_EQ(x.rejected, y.rejected);
    EXPECT_EQ(x.dropped, y.dropped);
    EXPECT_EQ(x.discarded, y.discarded);
    EXPECT_EQ(x.state, y.state);
    EXPECT_EQ(x.invalid_steps, y.invalid_steps);
    EXPECT_EQ(x.restarts, y.restarts);
    EXPECT_EQ(x.degradations, y.degradations);
    EXPECT_EQ(x.quarantine_dropped, y.quarantine_dropped);
    EXPECT_EQ(x.batched_steps, 0u);  // the solo engine never batches
  }
}

TEST(ServeSelfHealingTest, ConfigRejectsDegenerateBackoffAndRecovery) {
  const auto model = testing::small_model(4);
  on_both_engines([&](bool batching) {
    DecodeServer server(manual_options(batching));
    Status status;

    SessionConfig bad = healing_config(model);
    bad.self_healing.backoff_initial_bins = 0;
    EXPECT_EQ(server.open_session(bad, &status),
              DecodeServer::kInvalidSession);
    EXPECT_FALSE(status.ok());

    bad = healing_config(model);
    bad.self_healing.backoff_max_bins = 0;  // < initial
    EXPECT_EQ(server.open_session(bad, &status),
              DecodeServer::kInvalidSession);
    EXPECT_FALSE(status.ok());

    bad = healing_config(model);
    bad.self_healing.degrade_after_misses = 3;
    bad.self_healing.recover_after_hits = 0;
    EXPECT_EQ(server.open_session(bad, &status),
              DecodeServer::kInvalidSession);
    EXPECT_FALSE(status.ok());

    const SessionId id = server.open_session(healing_config(model), &status);
    EXPECT_NE(id, DecodeServer::kInvalidSession);
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(server.session_stats(id).batched, batching);
    EngineRun run;
    run.add(server, id);
    return run;
  });
}

TEST(ServeSelfHealingTest, DivergedSessionIsQuarantinedThenRestarted) {
  const auto model = testing::small_model(4);
  const SessionConfig cfg = healing_config(model);
  const auto zs = testing::simulate_measurements(model, 4);

  on_both_engines([&](bool batching) {
    DecodeServer server(manual_options(batching));
    const SessionId id = server.open_session(cfg);
    EXPECT_NE(id, DecodeServer::kInvalidSession);

    // clean | NaN (diverges) | clean (absorbed by backoff) | clean, clean
    // (decoded by the restarted filter, from a fresh x0/P0).
    server.submit(id, zs[0]);
    server.submit(id, nan_bin(4));
    server.submit(id, zs[1]);
    server.submit(id, zs[2]);
    server.submit(id, zs[3]);
    drain_manual(server);

    const SessionStatsSnapshot st = server.session_stats(id);
    EXPECT_EQ(st.state, SessionState::kHealthy);
    EXPECT_EQ(st.steps, 3u);  // zs[0], zs[2], zs[3]
    EXPECT_EQ(st.invalid_steps, 1u);
    EXPECT_EQ(st.quarantine_dropped, 1u);  // zs[1] consumed as backoff
    EXPECT_EQ(st.restarts, 1u);
    EXPECT_EQ(st.batched_steps, batching ? 3u : 0u);

    // The post-restart decode starts over from the initial filter state.
    kalman::KalmanFilter<double> fresh = cfg.filter.make_filter();
    const auto trajectory = server.trajectory(id);
    EXPECT_EQ(trajectory.size(), 3u);
    expect_all_finite(trajectory);
    const Vector<double> first = fresh.step(zs[0]);
    for (std::size_t d = 0; d < first.size() && !trajectory.empty(); ++d) {
      EXPECT_EQ(trajectory[0][d], first[d]);
    }
    fresh.reset();
    const Vector<double> restarted = fresh.step(zs[2]);
    for (std::size_t d = 0; d < restarted.size() && trajectory.size() > 1;
         ++d) {
      EXPECT_EQ(trajectory[1][d], restarted[d]);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.total_invalid_steps, 1u);
    EXPECT_EQ(stats.total_restarts, 1u);
    EXPECT_EQ(stats.quarantined_sessions, 0u);
    EXPECT_EQ(stats.failed_sessions, 0u);
    EXPECT_NE(stats.to_string().find("health"), std::string::npos);
    EngineRun run;
    run.add(server, id);
    return run;
  });
}

TEST(ServeSelfHealingTest, RestartsAreBoundedThenSessionFails) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = healing_config(model);
  cfg.self_healing.max_restarts = 1;
  const auto zs = testing::simulate_measurements(model, 3);

  on_both_engines([&](bool batching) {
    DecodeServer server(manual_options(batching));
    const SessionId id = server.open_session(cfg);
    EXPECT_NE(id, DecodeServer::kInvalidSession);

    // NaN -> quarantine; clean -> backoff; NaN -> restart + diverge again,
    // and with max_restarts=1 exhausted the session fails permanently.
    server.submit(id, nan_bin(4));
    server.submit(id, zs[0]);
    server.submit(id, nan_bin(4));
    server.submit(id, zs[1]);
    server.submit(id, zs[2]);
    drain_manual(server);

    const SessionStatsSnapshot st = server.session_stats(id);
    EXPECT_EQ(st.state, SessionState::kFailed);
    EXPECT_EQ(st.restarts, 1u);  // never exceeds max_restarts
    EXPECT_EQ(st.invalid_steps, 2u);
    EXPECT_EQ(st.steps, 0u);
    EXPECT_EQ(st.quarantine_dropped, 3u);  // backoff bin + 2 post-failure bins
    EXPECT_TRUE(server.trajectory(id).empty());

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.failed_sessions, 1u);
    EXPECT_EQ(stats.total_restarts, 1u);

    // A healthy neighbor session is completely unaffected.
    const SessionId ok = server.open_session(healing_config(model));
    for (const auto& z : zs) server.submit(ok, z);
    drain_manual(server);
    EXPECT_EQ(server.session_stats(ok).steps, 3u);
    EXPECT_EQ(server.session_stats(ok).state, SessionState::kHealthy);
    EXPECT_EQ(server.session_stats(ok).batched_steps, batching ? 3u : 0u);
    EngineRun run;
    run.add(server, id);
    run.add(server, ok);
    return run;
  });
}

TEST(ServeSelfHealingTest, InvalidStepsNeverReachLatencyStats) {
  // The Status guard applies even with self-healing off: a NaN-poisoned
  // filter keeps producing invalid steps, and none of them may pollute the
  // latency recorder, the trajectory, or the timing rows.
  const auto model = testing::small_model(4);
  SessionConfig cfg = healing_config(model);
  cfg.self_healing.enabled = false;
  const auto zs = testing::simulate_measurements(model, 4);

  on_both_engines([&](bool batching) {
    DecodeServer server(manual_options(batching));
    const SessionId id = server.open_session(cfg);
    server.submit(id, zs[0]);
    server.submit(id, zs[1]);
    server.submit(id, nan_bin(4));  // poisons the filter state for good
    server.submit(id, zs[2]);
    server.submit(id, zs[3]);
    drain_manual(server);

    const SessionStatsSnapshot st = server.session_stats(id);
    EXPECT_EQ(st.state, SessionState::kHealthy);  // no healing, no quarantine
    EXPECT_EQ(st.steps, 2u);
    EXPECT_EQ(st.invalid_steps, 3u);
    EXPECT_EQ(st.restarts, 0u);
    EXPECT_EQ(st.batched_steps, batching ? 2u : 0u);
    EXPECT_EQ(server.trajectory(id).size(), 2u);
    EXPECT_EQ(server.timings(id).size(), 2u);
    expect_all_finite(server.trajectory(id));

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.step_latency.samples, 2u);
    EXPECT_EQ(stats.total_steps, 2u);
    EXPECT_EQ(stats.total_invalid_steps, 3u);
    EngineRun run;
    run.add(server, id);
    return run;
  });
}

#if defined(KALMMIND_FAULTS)

// One self-healing session stepped by hand, so the fault hook can script
// deadline outcomes.  On the batched engine it decodes as the single member
// of a BatchGroup until the deadline ladder ejects it to the solo path —
// what DecodeServer does after a group pass.
class HandSteppedSession {
 public:
  HandSteppedSession(const SessionConfig& cfg, bool batching)
      : session_(std::make_shared<Session>(1, cfg)) {
    if (!batching) return;
    group_ = std::make_unique<BatchGroup>(
        std::make_shared<kalman::GainSchedule>(cfg.filter));
    session_->enable_batching(group_->schedule());
    group_->add(session_);
  }

  Session* operator->() { return session_.get(); }

  std::size_t step(std::size_t max_batch) {
    if (session_->batched()) {
      return group_->step_pending(max_batch, nullptr).steps;
    }
    return session_->step_pending(max_batch);
  }

  EngineRun run() const {
    EngineRun out;
    out.add(session_->trajectory(), session_->stats());
    return out;
  }

 private:
  std::shared_ptr<Session> session_;
  std::unique_ptr<BatchGroup> group_;
};

TEST(ServeSelfHealingTest, DeadlineMissesDegradeThenRecoveryRestores) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = healing_config(model);
  cfg.deadline_s = 0.01;
  cfg.self_healing.degrade_after_misses = 3;
  cfg.self_healing.recover_after_hits = 2;
  const auto zs = testing::simulate_measurements(model, 8);

  on_both_engines([&](bool batching) {
    HandSteppedSession session(cfg, batching);
    // Deterministic deadline outcomes: pretend every step took 1 s.
    session->fault_override_step_seconds(1.0);
    for (int n = 0; n < 3; ++n) {
      session->enqueue(zs[n]);
      EXPECT_EQ(session.step(1), 1u);
    }
    EXPECT_EQ(session->state(), SessionState::kDegraded);
    EXPECT_FALSE(session->batched());  // a degraded member leaves its group
    EXPECT_EQ(session->stats().degradations, 1u);
    EXPECT_EQ(session->stats().deadline_misses, 3u);
    EXPECT_EQ(session->stats().batched_steps, batching ? 3u : 0u);

    // Degraded decode keeps flowing (constant-gain strategy), carrying the
    // state estimate across the swap.
    session->enqueue(zs[3]);
    session->fault_override_step_seconds(0.0);  // now every step hits
    EXPECT_EQ(session.step(1), 1u);
    EXPECT_EQ(session->state(), SessionState::kDegraded);  // 1 hit < 2

    session->enqueue(zs[4]);
    EXPECT_EQ(session.step(1), 1u);
    EXPECT_EQ(session->state(), SessionState::kHealthy);  // restored

    session->enqueue(zs[5]);
    EXPECT_EQ(session.step(1), 1u);
    const SessionStatsSnapshot st = session->stats();
    EXPECT_EQ(st.steps, 6u);
    EXPECT_EQ(st.degradations, 1u);
    EXPECT_EQ(st.invalid_steps, 0u);
    expect_all_finite(session->trajectory());
    return session.run();
  });
}

TEST(ServeSelfHealingTest, DegradedSessionThatDivergesRestartsOnOriginal) {
  const auto model = testing::small_model(4);
  SessionConfig cfg = healing_config(model);
  cfg.deadline_s = 0.01;
  cfg.self_healing.degrade_after_misses = 2;
  cfg.self_healing.recover_after_hits = 2;
  const auto zs = testing::simulate_measurements(model, 5);

  on_both_engines([&](bool batching) {
    HandSteppedSession session(cfg, batching);
    session->fault_override_step_seconds(1.0);
    for (int n = 0; n < 2; ++n) {
      session->enqueue(zs[n]);
      session.step(1);
    }
    EXPECT_EQ(session->state(), SessionState::kDegraded);

    // Divergence while degraded: quarantine restores the original strategy
    // before the restart, then the backoff drains and the session decodes
    // again — healthy, not degraded.
    session->fault_override_step_seconds(-1.0);  // real timing again
    session->enqueue(nan_bin(4));
    session->enqueue(zs[2]);  // absorbed by the backoff
    session->enqueue(zs[3]);  // decoded by the restarted session
    session.step(8);

    EXPECT_EQ(session->state(), SessionState::kHealthy);
    const SessionStatsSnapshot st = session->stats();
    EXPECT_EQ(st.restarts, 1u);
    EXPECT_EQ(st.degradations, 1u);
    EXPECT_EQ(st.invalid_steps, 1u);
    EXPECT_EQ(st.steps, 3u);  // zs[0], zs[1], zs[3]
    expect_all_finite(session->trajectory());

    // The post-restart decode matches a fresh filter on the original
    // (non-degraded) strategy exactly.
    kalman::KalmanFilter<double> fresh = cfg.filter.make_filter();
    const Vector<double> expected = fresh.step(zs[3]);
    const auto trajectory = session->trajectory();
    EXPECT_EQ(trajectory.size(), 3u);
    for (std::size_t d = 0; d < expected.size() && trajectory.size() == 3;
         ++d) {
      EXPECT_EQ(trajectory[2][d], expected[d]);
    }
    return session.run();
  });
}

TEST(ServeChaosTest, SeededFaultStormNeverProducesNonFiniteOutput) {
  // The soak scripts/chaos.sh loops: a seeded storm of measurement faults
  // against self-healing sessions with filter-level health enabled.  The
  // invariants are absolute — every recorded state finite, restarts
  // bounded, stats consistent — for any seed (KALMMIND_CHAOS_SEED).
  std::uint64_t seed = 1;
  if (const char* env = std::getenv("KALMMIND_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 10);
    if (seed == 0) seed = 1;
  }
  SCOPED_TRACE("KALMMIND_CHAOS_SEED=" + std::to_string(seed));

  const auto model = testing::small_model(6);
  SessionConfig cfg = healing_config(model);
  cfg.filter.strategy.calc_freq = 4;
  cfg.filter.strategy.approx = 1;
  cfg.filter.options.health.enabled = true;
  cfg.filter.options.health.innovation_gate_sigma = 8.0;
  cfg.self_healing.max_restarts = 10;

  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kSteps = 80;
  // The same storm on both engines: one injector per engine, same seed.
  on_both_engines([&](bool batching) {
    testing::FaultInjector injector(seed);
    DecodeServer server(manual_options(batching, 4));
    std::vector<SessionId> ids;
    for (std::size_t s = 0; s < kSessions; ++s) {
      ids.push_back(server.open_session(cfg));
      EXPECT_NE(ids.back(), DecodeServer::kInvalidSession);
    }

    for (std::size_t s = 0; s < kSessions; ++s) {
      auto zs = testing::simulate_measurements(model, kSteps, 500 + s);
      for (std::size_t n = 0; n < kSteps; ++n) {
        const double roll = injector.next_unit();
        if (roll < 0.05) {
          testing::FaultInjector::nan_spike(zs[n], injector.next_index(6));
        } else if (roll < 0.10) {
          testing::FaultInjector::dropout(zs[n], injector.next_index(6),
                                          1 + injector.next_index(3));
        } else if (roll < 0.15) {
          testing::FaultInjector::saturate(zs[n], injector.next_index(6),
                                           injector.next_unit() < 0.5 ? 1e9
                                                                      : -1e9);
        } else if (roll < 0.17) {
          // Raw IEEE-754 upset on one channel, any bit.
          testing::FaultInjector::flip_bit(zs[n][injector.next_index(6)],
                                           unsigned(injector.next_index(64)));
        }
        server.submit(ids[s], zs[n]);
      }
    }
    drain_manual(server);

    EngineRun run;
    std::size_t decoded = 0;
    for (const SessionId id : ids) {
      expect_all_finite(server.trajectory(id));
      const SessionStatsSnapshot st = server.session_stats(id);
      EXPECT_LE(st.restarts, cfg.self_healing.max_restarts);
      EXPECT_EQ(st.queue_depth, 0u);
      EXPECT_EQ(st.steps, server.trajectory(id).size());
      decoded += st.steps;
      run.add(server, id);
    }
    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.total_steps, decoded);
    EXPECT_EQ(stats.step_latency.samples, decoded);
    EXPECT_FALSE(stats.to_string().empty());
    return run;
  });
}

#endif  // KALMMIND_FAULTS

}  // namespace
}  // namespace kalmmind::serve
