#include "driver.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "layers.hpp"
#include "openloop.hpp"

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

namespace {

using namespace std::chrono_literals;

constexpr int kSetupRepeats = 3;
constexpr std::size_t kFloodRounds = 4;
constexpr std::uint64_t kRetryStream = 8;  // seed stream of the flood's retry jitter
constexpr double kDeadlineMs = 50.0;
constexpr auto kObserveEvery = 200us;
constexpr auto kTickEvery = 100ms;
constexpr auto kStatsEvery = 1s;
// Fractions of the paced phase at which the cluster workload drains a
// shard (shard 0, then shard 1): sessions are ~60 and ~120 bins old.
constexpr double kDrainAt[] = {0.3, 0.6};
constexpr double kStragglerTimeoutS = 60.0;

// The driver's threads wait by yielding, never by sleeping: a sleeping
// thread can wait a whole scheduler slice for a core after its timer
// fires, which would show up as generator lag and observation delay.
// Total threads (workers or pumpers + driver threads) stay <= 4 cores.
void wait_until(Clock::time_point t) {
  while (Clock::now() < t) std::this_thread::yield();
}

SubmitOutcome outcome_of(serve::PushResult r) {
  switch (r) {
    case serve::PushResult::kAccepted: return SubmitOutcome::kAccepted;
    case serve::PushResult::kRejectedFull: return SubmitOutcome::kRejectedFull;
    case serve::PushResult::kRejectedOverload: return SubmitOutcome::kOverloaded;
    default: return SubmitOutcome::kError;
  }
}

SubmitOutcome outcome_of(const kalmmind::Status& s) {
  switch (s.code()) {
    case kalmmind::StatusCode::kOk: return SubmitOutcome::kAccepted;
    case kalmmind::StatusCode::kOverloaded: return SubmitOutcome::kOverloaded;
    case kalmmind::StatusCode::kUnavailable: return SubmitOutcome::kUnavailable;
    default: return SubmitOutcome::kError;
  }
}

class ServerBackend final : public Backend {
 public:
  ServerBackend(serve::DecodeServer& server,
                const std::vector<serve::SessionId>& ids)
      : server_(server), ids_(ids) {}
  SubmitOutcome submit(std::size_t s, Vector<double> z) override {
    return outcome_of(server_.submit(ids_[s], std::move(z)));
  }
  std::size_t decoded(std::size_t s, std::size_t known,
                      std::size_t upto) override {
    return known + server_.trajectory_slice(ids_[s], known, upto).size();
  }

 private:
  serve::DecodeServer& server_;
  const std::vector<serve::SessionId>& ids_;
};

class ClusterBackend final : public Backend {
 public:
  ClusterBackend(serve::ShardedDecodeServer& cluster,
                 const std::vector<serve::SessionId>& ids)
      : cluster_(cluster), ids_(ids) {}
  SubmitOutcome submit(std::size_t s, Vector<double> z) override {
    return outcome_of(cluster_.submit(ids_[s], std::move(z)));
  }
  // The cluster has no incremental trajectory read; the per-session stats
  // carry the decoded count across migrations.
  std::size_t decoded(std::size_t s, std::size_t, std::size_t) override {
    return cluster_.session_stats(ids_[s]).steps;
  }

 private:
  serve::ShardedDecodeServer& cluster_;
  const std::vector<serve::SessionId>& ids_;
};

// One set-up instance: streams, the serving system, open sessions and (for
// the cluster) the benchmark's own pump threads.
struct Fixture {
  Streams streams;
  std::unique_ptr<serve::DecodeServer> server;
  std::unique_ptr<serve::ShardedDecodeServer> cluster;
  std::vector<serve::SessionId> ids;
  std::unique_ptr<Backend> backend;

  std::atomic<bool> stop{false};
  std::atomic<bool> time_pumps{false};
  std::vector<std::vector<double>> pump_us;  // one vector per pump thread
  std::vector<std::thread> pumpers;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() { stop_pumping(); }

  void start_pumping(unsigned n) {
    pump_us.assign(n, {});
    for (unsigned i = 0; i < n; ++i) {
      pumpers.emplace_back([this, i] {
        while (!stop.load(std::memory_order_relaxed)) {
          const bool timed = time_pumps.load(std::memory_order_relaxed);
          const auto t0 = Clock::now();
          const std::size_t steps = cluster->pump();
          if (steps == 0) {
            std::this_thread::sleep_for(50us);
            continue;
          }
          if (timed) pump_us[i].push_back(seconds_between(t0, Clock::now()) * 1e6);
        }
      });
    }
  }
  void stop_pumping() {
    stop.store(true);
    for (auto& t : pumpers) t.join();
    pumpers.clear();
  }

  // Cluster: wait until each session has decoded expect[s] states.
  bool wait_decoded(const std::vector<std::size_t>& expect, double timeout_s) {
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    for (std::size_t s = 0; s < ids.size(); ++s) {
      while (cluster->session_stats(ids[s]).steps < expect[s]) {
        if (Clock::now() > deadline) return false;
        std::this_thread::sleep_for(1ms);
      }
    }
    return true;
  }
};

std::unique_ptr<Fixture> set_up(const WorkloadSpec& w, std::uint64_t seed,
                                std::size_t run_bins) {
  auto fx = std::make_unique<Fixture>();
  // One thread: a set-up spread over every core is the part of a run most
  // exposed to other tenants of the host, and setup_s has to repeat.
  fx->streams = build_streams(w, seed, run_bins, 1);
  const std::size_t n = fx->streams.sessions();
  kalmmind::Status status;
  if (w.cluster()) {
    serve::ClusterOptions options;
    options.shards = 4;
    fx->cluster = std::make_unique<serve::ShardedDecodeServer>(options, &status);
    if (!status.ok()) throw std::runtime_error(status.message());
    for (std::size_t s = 0; s < n; ++s) {
      const auto id = fx->cluster->open_session(fx->streams.configs[s], &status);
      if (id == serve::ShardedDecodeServer::kInvalidSession)
        throw std::runtime_error(std::string("open_session: ") + status.message());
      fx->ids.push_back(id);
    }
    fx->start_pumping(w.workers);
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t k = 0; k < fx->streams.warmup[s]; ++k) {
        if (!fx->cluster->submit(fx->ids[s], fx->streams.bin(s, k)).ok())
          throw std::runtime_error("warm-up submit bounced");
      }
    }
    if (!fx->wait_decoded(fx->streams.warmup, kStragglerTimeoutS))
      throw std::runtime_error("warm-up never decoded");
    fx->backend = std::make_unique<ClusterBackend>(*fx->cluster, fx->ids);
  } else {
    serve::ServerOptions options;
    options.workers = w.workers;
    fx->server = std::make_unique<serve::DecodeServer>(options);
    for (std::size_t s = 0; s < n; ++s) {
      const auto id = fx->server->open_session(fx->streams.configs[s], &status);
      if (id == serve::DecodeServer::kInvalidSession)
        throw std::runtime_error(std::string("open_session: ") + status.message());
      fx->ids.push_back(id);
    }
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t k = 0; k < fx->streams.warmup[s]; ++k) {
        if (fx->server->submit(fx->ids[s], fx->streams.bin(s, k)) !=
            serve::PushResult::kAccepted)
          throw std::runtime_error("warm-up submit bounced");
      }
    }
    fx->server->drain();
    fx->backend = std::make_unique<ServerBackend>(*fx->server, fx->ids);
  }
  return fx;
}

struct DrainRecord {
  std::size_t shard = 0;
  std::size_t sessions = 0;
  double mean_age_bins = 0.0;
  double ms = 0.0;
  bool ok = true;
};

std::string counts_line(const char* phase, std::uint64_t offered,
                        const SubmitCounts& c, std::uint64_t decoded,
                        std::uint64_t dropped, std::uint64_t discarded,
                        std::uint64_t invalid) {
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "%s: offered=%llu accepted=%llu decoded=%llu rejected_full=%llu "
                "overloaded=%llu unavailable=%llu errors=%llu dropped=%llu "
                "discarded=%llu invalid=%llu (attempts=%llu)",
                phase, (unsigned long long)offered,
                (unsigned long long)c.accepted, (unsigned long long)decoded,
                (unsigned long long)c.rejected_full,
                (unsigned long long)c.overloaded,
                (unsigned long long)c.unavailable, (unsigned long long)c.errors,
                (unsigned long long)dropped,
                (unsigned long long)discarded, (unsigned long long)invalid,
                (unsigned long long)c.attempts);
  return buf;
}

// Loss counters of the serving system, for the per-phase accounting.
struct LossCounters {
  std::uint64_t decoded = 0, dropped = 0, discarded = 0, invalid = 0,
                queued = 0, rejected = 0;
  std::uint64_t degradations = 0, restarts = 0, quarantined = 0;
};

LossCounters losses(const serve::ServerStats& s) {
  LossCounters l;
  l.decoded = s.total_steps;
  l.dropped = s.total_dropped;
  l.discarded = s.total_discarded;
  l.invalid = s.total_invalid_steps + s.total_quarantine_dropped;
  l.queued = s.queued;
  l.rejected = s.total_rejected;
  l.degradations = s.total_degradations;
  l.restarts = s.total_restarts;
  l.quarantined = s.quarantined_sessions + s.failed_sessions + s.degraded_sessions;
  return l;
}

LossCounters losses(const serve::ClusterStats& c) {
  LossCounters l;
  l.decoded = c.decoded;
  l.dropped = c.dropped;
  l.discarded = c.discarded;
  l.invalid = c.invalid_steps + c.quarantine_dropped;
  l.queued = c.queued;
  l.rejected = c.rejected_overload + c.rejected_full;
  for (const auto& shard : c.per_shard) {
    l.degradations += shard.server.total_degradations;
    l.restarts += shard.server.total_restarts;
    l.quarantined += shard.server.quarantined_sessions +
                     shard.server.failed_sessions +
                     shard.server.degraded_sessions;
  }
  l.quarantined += c.shard_quarantines;
  return l;
}

// Bit-for-bit comparison of every decoded state against a sequential
// KalmanFilter of the same config over the same bins.  Returns, per
// session, the number of bins whose state is missing or differs.
std::vector<std::size_t> check_against_reference(
    const Streams& streams,
    const std::vector<std::vector<Vector<double>>>& trajectories,
    const std::vector<std::size_t>& expected_len, unsigned threads) {
  const std::size_t n = streams.sessions();
  std::vector<std::size_t> bad(n, 0);
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t s = next.fetch_add(1); s < n; s = next.fetch_add(1)) {
      auto filter = streams.configs[s].filter.make_filter();
      const auto& traj = trajectories[s];
      const std::size_t len = expected_len[s];
      std::size_t mismatched = traj.size() > len ? traj.size() - len : 0;
      for (std::size_t k = 0; k < len; ++k) {
        const Vector<double>& x = filter.step(streams.bin(s, k));
        if (k >= traj.size() || traj[k].size() != x.size() ||
            std::memcmp(traj[k].data(), x.data(), x.size() * sizeof(double)) != 0)
          ++mismatched;
      }
      bad[s] = mismatched;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  return bad;
}

// End-to-end latency metrics of the paced phase, over every observed bin
// of the whole phase.  The p99 is the highest percentile with at least 10
// samples beyond it.  Deadline attainment counts every offered bin, so a
// bin that never decoded is a miss.
void report_latency(const Observer& obs, const PacedPlan& plan,
                    std::uint64_t offered_paced, Report& report) {
  const auto& lat = obs.latency_ms;
  report.set("bin_latency_p50_ms", median(lat), "ms", lat.size());
  const double tail_q = supported_tail_q(lat.size());
  char note[64];
  std::snprintf(note, sizeof note, "percentile p%.4g", tail_q * 100.0);
  report.set("bin_latency_p99_ms", percentile(lat, tail_q), "ms", lat.size(), note);
  {
    // Printed only: the p99 per window of due times (the fewest whole
    // periods holding >= 1000 bins).  A tail concentrated in a few windows
    // points at the host taking cores away; one present in every window
    // is the program's.
    const double window_s = plan.period_s * double((1000 + plan.sessions - 1) / plan.sessions);
    std::vector<std::vector<double>> windows;
    for (std::size_t i = 0; i < lat.size(); ++i) {
      const std::size_t win = std::size_t(obs.latency_due_s[i] / window_s);
      if (windows.size() <= win) windows.resize(win + 1);
      windows[win].push_back(lat[i]);
    }
    std::vector<double> win_p99;
    for (const auto& v : windows)
      if (!v.empty()) win_p99.push_back(percentile(v, supported_tail_q(v.size())));
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "p99 per window of %.2f s (%zu windows): median %.4f, upper "
                  "quartile %.4f, max %.4f ms",
                  window_s, win_p99.size(), percentile(win_p99, 0.5),
                  percentile(win_p99, 0.75), percentile(win_p99, 1.0));
    report.line(buf);
  }
  std::size_t within = 0;
  for (double l : lat) within += l <= kDeadlineMs ? 1 : 0;
  report.set("deadline_attainment", double(within) / double(offered_paced),
             "ratio", offered_paced, "decoded within 50 ms of arrival");
}

// Counters the serving layer exports, read once after the run.
ServeCounters serve_counters(const serve::ServerStats& ss) {
  ServeCounters sc;
  sc.compute_p99_ms = ss.step_latency.p99_s * 1e3;
  sc.compute_samples = ss.step_latency.samples;
  sc.utilization = ss.worker_utilization;
  sc.steps = ss.total_steps;
  sc.batched_steps = ss.total_batched_steps;
  sc.cache_hits = ss.gain_cache_hits;
  sc.cache_lookups = ss.gain_cache_hits + ss.gain_cache_misses;
  for (const auto& ps : ss.per_session)
    sc.max_backlog = std::max(sc.max_backlog, ps.max_backlog);
  return sc;
}

// The same over the cluster's current shard incarnations; utilization is
// busy time over the benchmark's `pumpers` threads.
ServeCounters serve_counters(const serve::ClusterStats& cs, unsigned pumpers) {
  ServeCounters sc;
  double busy = 0.0, uptime = 0.0;
  for (const auto& shard : cs.per_shard) {
    const ServeCounters one = serve_counters(shard.server);
    sc.compute_p99_ms = std::max(sc.compute_p99_ms, one.compute_p99_ms);
    sc.compute_samples += one.compute_samples;
    sc.steps += one.steps;
    sc.batched_steps += one.batched_steps;
    sc.cache_hits += one.cache_hits;
    sc.cache_lookups += one.cache_lookups;
    sc.max_backlog = std::max(sc.max_backlog, one.max_backlog);
    busy += shard.server.worker_busy_s;
    uptime = std::max(uptime, shard.server.uptime_s);
  }
  sc.utilization = uptime > 0 ? busy / (uptime * pumpers) : 0.0;
  return sc;
}

}  // namespace

RunTotals run_workload(const RunOptions& opt, Report& report) {
  const WorkloadSpec& w = opt.workload;
  const std::size_t S = w.sessions;
  const std::size_t P = std::size_t(std::ceil(opt.seconds / 0.05));
  const std::size_t F = w.flood_bins;

  // --- set-up, repeated; the last instance is the one measured ----------
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = set_up(w, opt.seed, P + F * kFloodRounds);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const Streams& streams = fx->streams;
  Backend& backend = *fx->backend;
  const std::vector<std::size_t>& W = streams.warmup;  // per session

  // --- paced open-loop phase ---------------------------------------------
  PacedPlan plan(S, P, W, opt.seed);
  Generator gen(plan, streams, backend, opt.trace);
  Observer obs(plan, backend);
  std::vector<double> tick_ms, stats_ms;
  std::vector<DrainRecord> drains;
  std::atomic<bool> gen_done{false};
  std::atomic<bool> observed_all{false};
  std::atomic<bool> control_stop{false};
  std::thread control;
  if (opt.trace) fx->time_pumps = true;
  plan.t0 = Clock::now() + 20ms;
  const auto straggler_deadline =
      plan.t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(opt.seconds + kStragglerTimeoutS));

  if (w.cluster()) {
    // Control plane + observer on one thread; the generator keeps its own
    // thread so a drain (which holds the cluster's admin lock, and with it
    // every read) cannot delay arrivals.
    control = std::thread([&] {
      auto next_tick = plan.t0 + kTickEvery;
      auto next_stats = plan.t0 + kStatsEvery;
      std::size_t di = 0;
      bool observing = true;
      while (!control_stop.load()) {
        const auto now = Clock::now();
        if (observing) {
          obs.pass();
          if (gen_done.load() && obs.caught_up()) {
            observing = false;
            observed_all.store(true);
          }
        }
        if (now >= next_tick) {
          const auto t0 = Clock::now();
          fx->cluster->tick();
          tick_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
          next_tick = std::max(next_tick + kTickEvery, Clock::now());
        }
        if (now >= next_stats) {
          const auto t0 = Clock::now();
          (void)fx->cluster->stats();
          stats_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
          next_stats = std::max(next_stats + kStatsEvery, Clock::now());
        }
        if (observing && di < std::size(kDrainAt) &&
            now >= plan.t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kDrainAt[di] *
                                                               opt.seconds))) {
          DrainRecord d;
          d.shard = di % fx->cluster->shard_count();
          double age = 0.0;
          for (std::size_t s = 0; s < S; ++s) {
            if (fx->cluster->shard_of(fx->ids[s]) != d.shard)
              continue;
            ++d.sessions;
            age += double(W[s] + plan.accepted[s].load());
          }
          d.mean_age_bins = d.sessions ? age / double(d.sessions) : 0.0;
          const auto t0 = Clock::now();
          d.ok = fx->cluster->drain_shard(d.shard).ok();
          d.ms = seconds_between(t0, Clock::now()) * 1e3;
          drains.push_back(d);
          ++di;
        }
        wait_until(Clock::now() + kObserveEvery);
      }
    });
    while (!gen.done()) {
      const auto next = gen.step();
      wait_until(std::min(next, Clock::now() + 1ms));
    }
    gen_done.store(true);
    while (!observed_all.load() && Clock::now() < straggler_deadline)
      std::this_thread::sleep_for(1ms);
  } else {
    for (;;) {
      const auto next = gen.done() ? Clock::now() + kObserveEvery : gen.step();
      obs.pass();
      if (gen.done() && obs.caught_up()) break;
      if (Clock::now() > straggler_deadline) break;
      wait_until(std::min(next, Clock::now() + kObserveEvery));
    }
  }
  // The cluster's observer runs on the control thread: only its flag may
  // be read here.
  if (!(w.cluster() ? observed_all.load() : obs.caught_up()))
    report.fail("paced phase: accepted bins never observed decoded");
  fx->time_pumps = false;

  std::uint64_t paced_accepted = 0;
  std::vector<std::size_t> paced_acc(S);
  for (std::size_t s = 0; s < S; ++s) {
    paced_acc[s] = plan.accepted[s].load();
    paced_accepted += paced_acc[s];
  }

  // Traced run: one explicit cadence-style checkpoint of every session.
  double checkpoint_ms = 0.0;
  std::size_t checkpointed = 0;
  if (opt.trace && w.cluster()) {
    const auto t0 = Clock::now();
    checkpointed = fx->cluster->checkpoint_all();
    checkpoint_ms = seconds_between(t0, Clock::now()) * 1e3;
  }

  const LossCounters after_paced =
      w.cluster() ? losses(fx->cluster->stats()) : losses(fx->server->stats());

  // --- flood phase: the same sessions offered a whole backlog at once ----
  // Repeated kFloodRounds times, each round drained before the next.  The
  // capacity reported is the best round: interference from other tenants
  // of the host can only lower a round's throughput, so the best round is
  // the steadiest estimate of what the program sustains.
  SubmitCounts flood;
  std::vector<std::size_t> flood_acc(S, 0);
  std::vector<double> round_capacity;
  {
    serve::RetryingSubmitter::Policy policy;
    policy.max_attempts = 64;
    policy.seed = derive_seed(opt.seed, kRetryStream, 0);
    std::unique_ptr<serve::RetryingSubmitter> submitter;
    if (w.cluster())
      submitter = std::make_unique<serve::RetryingSubmitter>(*fx->cluster, policy);
    for (std::size_t round = 0; round < kFloodRounds; ++round) {
      std::uint64_t landed = 0;
      const auto t0 = Clock::now();
      for (std::size_t k = round * F; k < (round + 1) * F; ++k) {
        for (std::size_t s = 0; s < S; ++s) {
          if (flood_acc[s] < k) continue;  // an earlier bin never landed
          const Vector<double>& z = streams.bin(s, W[s] + P + k);
          if (w.cluster()) {
            if (submitter->submit(fx->ids[s], z).ok()) {
              ++flood_acc[s];
              ++landed;
            }
            continue;
          }
          for (;;) {
            const SubmitOutcome r = backend.submit(s, z);
            flood.note(r);
            if (r == SubmitOutcome::kAccepted) {
              ++flood_acc[s];
              ++landed;
              break;
            }
            if (r == SubmitOutcome::kError) break;
            std::this_thread::yield();
          }
        }
      }
      if (w.cluster()) {
        std::vector<std::size_t> expect(S);
        for (std::size_t s = 0; s < S; ++s) expect[s] = W[s] + paced_acc[s] + flood_acc[s];
        if (!fx->wait_decoded(expect, kStragglerTimeoutS))
          report.fail("flood phase: accepted bins never decoded");
      } else {
        fx->server->drain();
      }
      round_capacity.push_back(double(landed) / seconds_between(t0, Clock::now()));
    }
    if (w.cluster()) {
      const auto rs = submitter->stats();
      std::uint64_t landed = 0;
      for (auto a : flood_acc) landed += a;
      flood.attempts = rs.attempts;
      flood.accepted = landed;
      flood.overloaded = rs.attempts - landed;
    }
  }
  std::uint64_t flood_accepted = 0;
  for (auto a : flood_acc) flood_accepted += a;

  control_stop.store(true);
  if (control.joinable()) control.join();
  if (w.cluster()) fx->stop_pumping();
  const double rss_mb = peak_rss_mb();

  // --- failure accounting --------------------------------------------------
  const std::uint64_t offered_paced = std::uint64_t(S) * P;
  const std::uint64_t offered_flood = std::uint64_t(S) * F * kFloodRounds;
  std::uint64_t warm = 0;
  for (auto b : W) warm += b;
  LossCounters fin;
  serve::ServerStats server_stats;
  serve::ClusterStats cluster_stats;
  if (w.cluster()) {
    cluster_stats = fx->cluster->stats();
    fin = losses(cluster_stats);
  } else {
    server_stats = fx->server->stats();
    fin = losses(server_stats);
  }
  report.line(counts_line("paced", offered_paced, gen.counts,
                          after_paced.decoded - warm,
                          after_paced.dropped, after_paced.discarded,
                          after_paced.invalid));
  report.line(counts_line("flood", offered_flood, flood,
                          fin.decoded - after_paced.decoded,
                          fin.dropped - after_paced.dropped,
                          fin.discarded - after_paced.discarded,
                          fin.invalid - after_paced.invalid));

  const std::uint64_t accepted_total = warm + paced_accepted + flood_accepted;
  auto reconcile = [&](bool ok, const std::string& what) {
    if (!ok) report.fail("accounting does not reconcile: " + what);
  };
  reconcile(fin.decoded == accepted_total,
            "decoded " + std::to_string(fin.decoded) + " != accepted " +
                std::to_string(accepted_total));
  reconcile(fin.dropped == 0 && fin.discarded == 0 && fin.queued == 0,
            "bins dropped, discarded or still queued");
  reconcile(fin.rejected == gen.counts.rejected_full + gen.counts.overloaded +
                                flood.rejected_full + flood.overloaded,
            "server rejections " + std::to_string(fin.rejected) +
                " != generator rejections");
  if (w.cluster()) {
    const auto& c = cluster_stats;
    reconcile(c.submitted == accepted_total,
              "cluster submitted " + std::to_string(c.submitted) +
                  " != accepted " + std::to_string(accepted_total));
    reconcile(c.decoded + c.invalid_steps + c.quarantine_dropped + c.dropped +
                      c.discarded + c.queued ==
                  c.submitted,
              "cluster conservation law");
    std::uint64_t moved = 0;
    for (const auto& d : drains) moved += d.sessions;
    reconcile(c.sessions_migrated == moved,
              "sessions migrated " + std::to_string(c.sessions_migrated) +
                  " != drained " + std::to_string(moved));
    for (const auto& d : drains) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "drain shard %zu: %zu sessions, mean age %.0f bins, "
                    "%.2f ms/session (cold: per-user models)",
                    d.shard, d.sessions, d.mean_age_bins,
                    d.sessions ? d.ms / double(d.sessions) : 0.0);
      report.line(buf);
      if (!d.ok) report.fail("drain_shard failed");
    }
  }
  if (gen.counts.errors || flood.errors)
    report.fail("submit returned a permanent error for " +
                std::to_string(gen.counts.errors + flood.errors) + " attempts");
  if (fin.invalid || fin.degradations || fin.restarts || fin.quarantined) {
    report.fail("invalid run: invalid/gated bins=" + std::to_string(fin.invalid) +
                " degradations=" + std::to_string(fin.degradations) +
                " restarts=" + std::to_string(fin.restarts) +
                " quarantined/degraded/failed sessions or shards=" +
                std::to_string(fin.quarantined));
  }

  // --- output check: every decoded state against the sequential filter ---
  std::vector<std::vector<Vector<double>>> trajectories(S);
  std::vector<std::size_t> expected_len(S);
  for (std::size_t s = 0; s < S; ++s) {
    trajectories[s] = w.cluster() ? fx->cluster->trajectory(fx->ids[s])
                                  : fx->server->trajectory(fx->ids[s]);
    expected_len[s] = W[s] + paced_acc[s] + flood_acc[s];
  }
  // Stop the serving system before the reference replay uses every core.
  fx->cluster.reset();
  fx->server.reset();
  const auto check_t0 = Clock::now();
  const auto bad = check_against_reference(streams, trajectories, expected_len, 4);
  std::uint64_t mismatched = 0, checked = 0;
  for (auto b : bad) mismatched += b;
  for (auto n : expected_len) checked += n;
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "output check: %llu decoded states vs sequential KalmanFilter, "
                  "%llu differ (%.1f s)",
                  (unsigned long long)checked, (unsigned long long)mismatched,
                  seconds_between(check_t0, Clock::now()));
    report.line(buf);
  }
  trajectories.clear();
  trajectories.shrink_to_fit();
  if (mismatched)
    report.fail(std::to_string(mismatched) +
                " decoded states differ from the sequential reference");
  const std::uint64_t never = (offered_paced - paced_accepted) +
                              (offered_flood - flood_accepted);
  RunTotals totals;
  totals.attempted = offered_paced + offered_flood;
  totals.failed = std::min<std::uint64_t>(totals.attempted, never + mismatched);

  // --- end-to-end metrics --------------------------------------------------
  report_latency(obs, plan, offered_paced, report);
  char note[96];
  std::snprintf(note, sizeof note, "best of %zu flood rounds, median %.6g",
                round_capacity.size(), median(round_capacity));
  report.set("capacity_bins_per_s",
             *std::max_element(round_capacity.begin(), round_capacity.end()), "1/s",
             flood_accepted, note);
  report.set("bins_failed_ratio", double(totals.failed) / double(totals.attempted),
             "ratio", totals.attempted, "printed only: 0 on a correct run");
  report.set("peak_rss_mb", rss_mb, "MB", 1);
  std::snprintf(note, sizeof note, "min %.4g max %.4g",
                *std::min_element(setup_s.begin(), setup_s.end()),
                *std::max_element(setup_s.begin(), setup_s.end()));
  report.set("setup_s", median(setup_s), "s", setup_s.size(), note);

  // Open-loop validity: generator lateness and observation resolution.
  report.set("driver.generator_lag_p99_ms", percentile(gen.lag_ms, 0.99), "ms",
             gen.lag_ms.size());
  report.set("driver.observe_period_ms", median(obs.pass_gap_ms), "ms",
             obs.pass_gap_ms.size());
  {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "validity: generator lag p50 %.3f ms max %.3f ms; observer "
                  "pass gap max %.3f ms",
                  median(gen.lag_ms),
                  gen.lag_ms.empty() ? 0.0 : *std::max_element(gen.lag_ms.begin(), gen.lag_ms.end()),
                  obs.pass_gap_ms.empty() ? 0.0 : *std::max_element(obs.pass_gap_ms.begin(), obs.pass_gap_ms.end()));
    report.line(buf);
  }

  // --- traced run: per-layer ledger ----------------------------------------
  if (opt.trace) {
    std::vector<double> traced, untraced;
    const auto& lat = obs.latency_ms;
    for (std::size_t i = 0; i < lat.size(); ++i) {
      (PacedPlan::traced_session(obs.latency_session[i]) ? traced : untraced)
          .push_back(lat[i]);
    }
    report.set("trace.overhead_p50_ms", median(traced) - median(untraced), "ms",
               traced.size(), "traced minus untraced sessions of this run");
    const double q = supported_tail_q(std::min(traced.size(), untraced.size()));
    report.set("trace.overhead_p99_ms",
               percentile(traced, q) - percentile(untraced, q), "ms",
               traced.size());
    report.set("serve.submit_us.p50", median(gen.submit_us), "us",
               gen.submit_us.size());
    report.set("serve.submit_us.p99", percentile(gen.submit_us, 0.99), "us",
               gen.submit_us.size());

    const ServeCounters sc = w.cluster()
                                 ? serve_counters(cluster_stats, w.workers)
                                 : serve_counters(server_stats);
    report_serve_counters(sc, report);

    if (w.cluster()) {
      ClusterTimings ct;
      for (const auto& v : fx->pump_us) ct.pump_us.insert(ct.pump_us.end(), v.begin(), v.end());
      ct.tick_ms = tick_ms;
      ct.stats_ms = stats_ms;
      ct.checkpoint_ms_per_session =
          checkpointed ? checkpoint_ms / double(checkpointed) : 0.0;
      ct.checkpointed = checkpointed;
      std::size_t moved = 0;
      double ms = 0.0;
      for (const auto& d : drains) {
        moved += d.sessions;
        ms += d.ms;
      }
      ct.migrate_ms_per_session = moved ? ms / double(moved) : 0.0;
      ct.migrated = moved;
      const std::uint64_t attempts = gen.counts.attempts + flood.attempts;
      ct.admission_accept_ratio =
          attempts ? double(gen.counts.accepted + flood.accepted) / double(attempts)
                   : 0.0;
      ct.admission_attempts = attempts;
      report_cluster_timings(ct, "this workload's paced and flood phases", report);
    }
    // The probes run on the same models and streams, with the serving
    // system of the measured run torn down.
    const Streams kept = std::move(fx->streams);
    fx.reset();
    const LayerInputs in{w, kept, opt.seed};
    probe_layers(in, report);
    probe_migration_series(in, report, /*emit_cluster_timings=*/!w.cluster());
    report.set("neural.build_dataset_s", median(kept.build_dataset_s), "s",
               kept.build_dataset_s.size());
    print_poll_ledger(report);
  }
  return totals;
}

}  // namespace perfbench
