#include "layers.hpp"

#include <algorithm>
#include <stdexcept>

#include "kalman/gain_schedule.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/gauss.hpp"
#include "linalg/newton.hpp"
#include "linalg/ops.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kReplayBins = 64;
constexpr std::size_t kInverseReps = 20;
constexpr std::size_t kScheduleEntries = 32;
constexpr std::size_t kPollBins = 16;
constexpr std::size_t kBatchBins = 8;
constexpr std::size_t kMigrationSessions = 8;
constexpr std::size_t kProbeRounds = 3;
constexpr std::size_t kMigrationAges[] = {50, 150};

double us_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e6;
}

// Sessions the single-threaded probes replay: a few per-user motor models,
// or a slice of the shared fleet.
std::size_t probe_sessions(const LayerInputs& in) {
  const std::size_t want = in.w.kind == Kind::kSomaSharedFleet ? 16 : 4;
  return std::min(want, in.streams.sessions());
}

// S = H (F P F^t + Q) H^t + R, built the way the filter builds it.
Matrix<double> innovation_covariance(const kalman::KalmanModel<double>& m,
                                     const Matrix<double>& p) {
  Matrix<double> p_pred, s, scratch;
  kalmmind::linalg::symmetric_sandwich_into(p_pred, m.f, p, scratch);
  p_pred += m.q;
  kalmmind::linalg::symmetric_sandwich_into(s, m.h, p_pred, scratch);
  s += m.r;
  return s;
}

double per_step(double total_us, std::size_t steps) {
  return steps ? total_us / double(steps) : 0.0;
}

// Manual-mode server over `configs`: submit `bins` bins per session, then
// time every poll() until idle.
struct PollResult {
  double total_us = 0.0;
  std::size_t steps = 0;
  std::size_t polls = 0;
  double batched_share = 0.0;
  double group_size = 0.0;  // batched sessions per live BatchGroup
};

PollResult time_polls(const LayerInputs& in,
                      const std::vector<serve::SessionConfig>& configs,
                      std::size_t bins) {
  serve::ServerOptions options;
  options.workers = serve::ServerOptions::kManual;
  serve::DecodeServer server(options);
  std::vector<serve::SessionId> ids;
  for (const auto& cfg : configs) {
    kalmmind::Status status;
    const auto id = server.open_session(cfg, &status);
    if (id == serve::DecodeServer::kInvalidSession)
      throw std::runtime_error(std::string("probe open_session: ") +
                               status.message());
    ids.push_back(id);
  }
  for (std::size_t k = 0; k < bins; ++k)
    for (std::size_t s = 0; s < ids.size(); ++s)
      (void)server.submit(ids[s], in.streams.bin(s % in.streams.sessions(), k));
  PollResult r;
  for (;;) {
    const auto t0 = Clock::now();
    const std::size_t n = server.poll();
    const double us = us_since(t0);
    if (n == 0) break;
    r.total_us += us;
    r.steps += n;
    ++r.polls;
  }
  const auto stats = server.stats();
  r.batched_share = stats.total_steps
                        ? double(stats.total_batched_steps) / double(stats.total_steps)
                        : 0.0;
  r.group_size = stats.batch_groups ? double(stats.batched_sessions) /
                                          double(stats.batch_groups)
                                    : 0.0;
  return r;
}

struct ClusterRun {
  double ms_per_session = 0.0;
  std::size_t moved = 0;
  std::uint64_t cache_misses = 0;  // on the surviving shards, during the drain
  ClusterTimings timings;
};

std::uint64_t misses_except(const serve::ClusterStats& c, std::size_t skip) {
  std::uint64_t m = 0;
  for (const auto& shard : c.per_shard)
    if (shard.index != skip) m += shard.server.gain_cache_misses;
  return m;
}

// Decode every session to `age` bins on a fresh 4-shard cluster pumped by
// the calling thread, then drain the most loaded shard.
ClusterRun run_migration_cluster(
    const std::vector<std::shared_ptr<const neural::NeuralDataset>>& datasets,
    bool shared_model, std::size_t age) {
  serve::ClusterOptions options;
  options.shards = 4;
  serve::ShardedDecodeServer cluster(options);
  std::vector<serve::SessionId> ids;
  std::vector<std::size_t> source;  // dataset of each session
  const std::size_t capacity = 256;
  auto open = [&](std::size_t d) {
    const auto id = cluster.open_session(
        cluster_session_config(datasets[d]->model, capacity));
    if (id == serve::ShardedDecodeServer::kInvalidSession)
      throw std::runtime_error("probe cluster open_session failed");
    ids.push_back(id);
    source.push_back(d);
  };
  if (shared_model) {
    // Warm targets: keep opening sessions of the one model until every
    // shard hosts one, so any drain target already caches its schedule.
    std::vector<bool> hosted(cluster.shard_count(), false);
    while (ids.size() < kMigrationSessions ||
           (std::find(hosted.begin(), hosted.end(), false) != hosted.end() &&
            ids.size() < 4 * kMigrationSessions)) {
      open(0);
      hosted[cluster.shard_of(ids.back())] = true;
    }
  } else {
    for (std::size_t i = 0; i < datasets.size(); ++i) open(i);
  }

  ClusterRun out;
  std::uint64_t accepted = 0;
  for (std::size_t k = 0; k < age; ++k) {
    for (std::size_t s = 0; s < ids.size(); ++s) {
      // A bin that admission bounces is retried after a pump, as a client
      // would; the accept ratio counts every attempt.
      for (;;) {
        ++out.timings.admission_attempts;
        if (cluster.submit(ids[s], datasets[source[s]]->test_measurements[k]).ok()) {
          ++accepted;
          break;
        }
        if (cluster.pump() == 0)
          throw std::runtime_error("probe cluster submit bounced on an idle cluster");
      }
    }
    for (;;) {
      const auto t0 = Clock::now();
      const std::size_t n = cluster.pump();
      if (n == 0) break;
      out.timings.pump_us.push_back(us_since(t0));
    }
    const auto t0 = Clock::now();
    cluster.tick();
    out.timings.tick_ms.push_back(us_since(t0) * 1e-3);
    if (k % 10 == 0) {
      const auto t1 = Clock::now();
      const serve::ClusterStats cs = cluster.stats();
      out.timings.stats_ms.push_back(us_since(t1) * 1e-3);
    }
  }
  auto t0 = Clock::now();
  out.timings.checkpointed = cluster.checkpoint_all();
  out.timings.checkpoint_ms_per_session =
      us_since(t0) * 1e-3 / double(std::max<std::size_t>(1, out.timings.checkpointed));

  std::vector<std::size_t> load(cluster.shard_count(), 0);
  for (const auto id : ids) ++load[cluster.shard_of(id)];
  const std::size_t victim =
      std::size_t(std::max_element(load.begin(), load.end()) - load.begin());
  const std::uint64_t misses_before = misses_except(cluster.stats(), victim);
  t0 = Clock::now();
  if (!cluster.drain_shard(victim).ok())
    throw std::runtime_error("probe drain_shard failed");
  const double ms = us_since(t0) * 1e-3;
  out.cache_misses = misses_except(cluster.stats(), victim) - misses_before;
  out.moved = load[victim];
  out.ms_per_session = ms / double(std::max<std::size_t>(1, out.moved));
  out.timings.migrate_ms_per_session = out.ms_per_session;
  out.timings.migrated = out.moved;
  out.timings.admission_accept_ratio =
      double(accepted) / double(std::max<std::uint64_t>(1, out.timings.admission_attempts));
  return out;
}

}  // namespace

void report_serve_counters(const ServeCounters& c, Report& report) {
  report.set("serve.compute_p99_ms", c.compute_p99_ms, "ms", c.compute_samples,
             "ServerStats.step_latency: compute only, no queue wait");
  report.set("serve.worker_utilization", c.utilization, "ratio", c.steps);
  report.set("serve.batched_step_share",
             c.steps ? double(c.batched_steps) / double(c.steps) : 0.0, "ratio",
             c.steps);
  report.set("serve.batched_step_share.base", double(c.steps), "count", 1);
  report.set("serve.gain_cache_hit_ratio",
             c.cache_lookups ? double(c.cache_hits) / double(c.cache_lookups) : 0.0,
             "ratio", c.cache_lookups);
  report.set("serve.gain_cache_hit_ratio.base", double(c.cache_lookups), "count", 1);
  report.set("serve.max_backlog", double(c.max_backlog), "count", 1);
}

void report_cluster_timings(const ClusterTimings& t, const std::string& source,
                            Report& report) {
  report.set("cluster.pump_us", median(t.pump_us), "us", t.pump_us.size(),
             source + ", pump() calls that decoded bins");
  report.set("cluster.tick_ms", median(t.tick_ms), "ms", t.tick_ms.size(), source);
  report.set("cluster.stats_ms", median(t.stats_ms), "ms", t.stats_ms.size(), source);
  report.set("cluster.checkpoint_ms_per_session", t.checkpoint_ms_per_session,
             "ms", t.checkpointed, source);
  report.set("cluster.migrate_ms_per_session", t.migrate_ms_per_session, "ms",
             t.migrated, source);
  report.set("cluster.admission_accept_ratio", t.admission_accept_ratio, "ratio",
             t.admission_attempts, source);
}

namespace {

struct StepSample {
  double us;
  kalman::InversePath path;
  kalman::CalcMethod method;
  std::size_t newton_iterations;
};

struct LayerSamples {
  std::vector<double> gauss_us, chol_us, newton_us, entry_us;
  std::vector<StepSample> steps;
  double poll_us = 0.0, batch_us = 0.0;
  std::size_t poll_steps = 0, poll_calls = 0, batch_steps = 0;
  double batched_share = 0.0, group_size = 0.0;
};

// KalmanFilter::step replayed over the first probe sessions' streams, and
// the public inverses on each replayed filter's final S.
void sample_linalg_kalman(const LayerInputs& in, LayerSamples& out) {
  for (std::size_t s = 0; s < probe_sessions(in); ++s) {
    const auto& cfg = in.streams.configs[s].filter;
    auto filter = cfg.make_filter();
    for (std::size_t k = 0; k < kReplayBins; ++k) {
      const Vector<double>& z = in.streams.bin(s, k);
      const auto t0 = Clock::now();
      filter.step(z);
      const double us = us_since(t0);
      const auto ev = filter.last_inverse_event();
      if (ev.path != kalman::InversePath::kNone)
        out.steps.push_back({us, ev.path, cfg.strategy.calc_method, ev.newton_iterations});
    }
    const Matrix<double> S = innovation_covariance(cfg.model, filter.covariance());
    const Matrix<double> v = kalmmind::linalg::invert_gauss(S);
    Matrix<double> product, scratch;
    for (std::size_t r = 0; r < kInverseReps; ++r) {
      auto t0 = Clock::now();
      const Matrix<double> g = kalmmind::linalg::invert_gauss(S);
      out.gauss_us.push_back(us_since(t0));
      t0 = Clock::now();
      const Matrix<double> c = kalmmind::linalg::invert_cholesky(S);
      out.chol_us.push_back(us_since(t0));
      t0 = Clock::now();
      kalmmind::linalg::newton_step_into(product, v, S, scratch);
      out.newton_us.push_back(us_since(t0));
    }
  }
  for (std::size_t s = 0; s < std::min<std::size_t>(2, in.streams.sessions()); ++s) {
    kalman::FilterConfig<double> cfg = in.streams.configs[s].filter;
    cfg.options.health.enabled = false;  // schedules serve health-off sessions
    kalman::GainSchedule schedule(cfg);
    for (std::size_t i = 0; i < kScheduleEntries; ++i) {
      const auto t0 = Clock::now();
      (void)schedule.at(i);
      out.entry_us.push_back(us_since(t0));
    }
  }
}

// Manual-mode polls over the workload's own sessions, and over a
// same-config group of every session with health off (so all batch).
void sample_serve(const LayerInputs& in, LayerSamples& out) {
  const std::size_t sessions = in.w.kind == Kind::kSomaSharedFleet
                                   ? in.streams.sessions()
                                   : std::min<std::size_t>(8, in.streams.sessions());
  const std::vector<serve::SessionConfig> configs(
      in.streams.configs.begin(), in.streams.configs.begin() + long(sessions));
  const PollResult poll = time_polls(in, configs, kPollBins);
  out.poll_us += poll.total_us;
  out.poll_steps += poll.steps;
  out.poll_calls += poll.polls;
  out.batched_share = poll.batched_share;
  out.group_size = poll.group_size;

  std::vector<serve::SessionConfig> shared(in.streams.sessions(),
                                           in.streams.configs[0]);
  for (auto& cfg : shared) {
    cfg.filter.options.health.enabled = false;
    cfg.self_healing.enabled = false;
  }
  const PollResult batch = time_polls(in, shared, kBatchBins);
  out.batch_us += batch.total_us;
  out.batch_steps += batch.steps;
}

}  // namespace

void probe_layers(const LayerInputs& in, Report& report) {
  // Rounds alternate the kalman/linalg replay with the serve polls, so a
  // slow spell of the host lands on both sides of the ledger.
  LayerSamples x;
  for (std::size_t round = 0; round < kProbeRounds; ++round) {
    sample_linalg_kalman(in, x);
    sample_serve(in, x);
  }
  const double gauss = median(x.gauss_us), chol = median(x.chol_us),
               newton = median(x.newton_us);
  report.set("linalg.invert_gauss_us", gauss, "us", x.gauss_us.size());
  report.set("linalg.invert_cholesky_us", chol, "us", x.chol_us.size());
  report.set("linalg.newton_step_us", newton, "us", x.newton_us.size());

  std::vector<double> calc, approx, rest;
  double step_total = 0.0, inverse_total = 0.0;
  for (const auto& st : x.steps) {
    double inverse = 0.0;
    if (st.path == kalman::InversePath::kCalculation) {
      calc.push_back(st.us);
      inverse = st.method == kalman::CalcMethod::kCholesky ? chol : gauss;
    } else {
      approx.push_back(st.us);
      inverse = double(st.newton_iterations) * newton;
    }
    rest.push_back(st.us - inverse);
    step_total += st.us;
    inverse_total += inverse;
  }
  const double step = per_step(step_total, x.steps.size());
  report.set("kalman.step_calc_us", median(calc), "us", calc.size());
  report.set("kalman.step_approx_us", median(approx), "us", approx.size());
  report.set("kalman.step_minus_inverse_us", mean(rest), "us", rest.size(),
             "mean of step - matching inverse");
  report.set("kalman.schedule_entry_us", median(x.entry_us), "us", x.entry_us.size());
  // Printed only: the ledger's mean step and mean inverse per step.
  report.set("kalman.step_mean_us", step, "us", x.steps.size());
  report.set("linalg.inverse_mean_us", per_step(inverse_total, x.steps.size()), "us",
             x.steps.size());

  const double poll = per_step(x.poll_us, x.poll_steps);
  char note[96];
  std::snprintf(note, sizeof note, "%zu polls, batched share %.2f", x.poll_calls,
                x.batched_share);
  report.set("serve.poll_us_per_step", poll, "us", x.poll_steps, note);
  report.set("serve.poll_batched_share", x.batched_share, "ratio", x.poll_steps);
  report.set("serve.poll_group_size", x.group_size, "count", 1);
  report.set("serve.session_overhead_us", poll - step, "us", x.poll_steps,
             "poll per step - mean filter step");
  report.set("serve.batch_us_per_member", per_step(x.batch_us, x.batch_steps), "us",
             x.batch_steps, "same-config group of every session");
}

void probe_migration_series(const LayerInputs& in, Report& report,
                            bool emit_cluster_timings) {
  const std::size_t oldest = kMigrationAges[std::size(kMigrationAges) - 1];
  const auto datasets = build_motor_datasets(in.seed, 2, kMigrationSessions,
                                             oldest, 4, nullptr);
  for (const bool warm : {false, true}) {
    for (const std::size_t age : kMigrationAges) {
      const ClusterRun run = run_migration_cluster(datasets, warm, age);
      const std::string name = std::string("cluster.migrate_ms_per_session.") +
                               (warm ? "warm" : "cold") + ".age" +
                               std::to_string(age);
      char note[96];
      std::snprintf(note, sizeof note, "target cache misses %llu of %zu moves",
                    (unsigned long long)run.cache_misses, run.moved);
      report.set(name, run.ms_per_session, "ms", run.moved, note);
      if (!warm && age == oldest && emit_cluster_timings)
        report_cluster_timings(
            run.timings,
            "side cluster: cold age-" + std::to_string(oldest) +
                " migration series, not this workload's serving run",
            report);
    }
  }
}

void print_poll_ledger(Report& report) {
  const double poll = report.get("serve.poll_us_per_step").value;
  const double batched = report.get("serve.poll_batched_share").value;
  const double step = report.get("kalman.step_mean_us").value;
  const double inverse = report.get("linalg.inverse_mean_us").value;
  char buf[320];
  if (batched < 0.5) {
    std::snprintf(buf, sizeof buf,
                  "ledger: serve.poll_us_per_step %.2f us = kalman step %.2f us "
                  "(linalg inverse %.2f + rest of step %.2f) + session overhead "
                  "%.2f us (queue pop, guard, timing, trajectory record, "
                  "scheduling); kalman+linalg explain %.1f%%",
                  poll, step, inverse, step - inverse, poll - step,
                  poll > 0 ? 100.0 * step / poll : 0.0);
    report.set("serve.poll_explained_share", poll > 0 ? step / poll : 0.0, "ratio", 1);
  } else {
    const double entry = report.get("kalman.schedule_entry_us").value;
    const double members = std::max(1.0, report.get("serve.poll_group_size").value);
    const double amortised = entry / members;
    std::snprintf(buf, sizeof buf,
                  "ledger (batched): serve.poll_us_per_step %.3f us = schedule "
                  "entry %.3f us amortised over %.0f members + fused update, "
                  "batch bookkeeping and scheduling %.3f us; kalman explains %.1f%%",
                  poll, amortised, members, poll - amortised,
                  poll > 0 ? 100.0 * amortised / poll : 0.0);
    report.set("serve.poll_explained_share", poll > 0 ? amortised / poll : 0.0,
               "ratio", 1);
  }
  report.line(buf);
}

}  // namespace perfbench
