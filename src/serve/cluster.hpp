// ShardedDecodeServer: N in-process DecodeServer shards behind
// consistent-hash session placement, with snapshot failover,
// admission control and backpressure (docs/serving.md, docs/robustness.md).
//
// This is the survivability layer the ROADMAP's sharded-service item needs
// before a real network transport: every mechanism here — the
// SessionSnapshot wire frames (serve/snapshot.hpp), the watermark
// admission gate, the retry-with-backoff client, the shard health ladder —
// is transport-agnostic, exercised today across in-process shard
// boundaries and reused verbatim when shards become processes.
//
// Shard model:
//  * Every shard is a *manual-mode* DecodeServer (workers = kManual); the
//    cluster owns pumping via pump(), which any number of caller threads
//    may run concurrently (DecodeServer::poll is safe to call from many
//    threads — one ready item per call, session ownership via the
//    scheduled flag).  A paused or fenced shard is skipped; migration
//    quiesces a shard by pausing it and waiting for in-flight polls to
//    reach zero, which is what makes checkpoint/steal-queue/rebuild safe.
//  * Each shard incarnation gets a disjoint session-id range
//    (ServerOptions::session_id_base), so flight-recorder journals never
//    interleave across shards.  Cluster-level SessionIds are separate and
//    stable across migrations; routes_ maps them to (shard, local id).
//
// Shard health ladder (docs/robustness.md — the PR5 session ladder lifted
// to whole shards).  tick() scores each shard from its own ServerStats
// deltas (SLO attainment, restart churn, quarantine rate, stalled
// consumption) and escalates:
//    healthy -> probe      no new placements; watch another tick
//    probe   -> drain      lossless: checkpoint + steal-queue + restore on
//                          a healthy shard, resubmit stolen bins in order
//    probe   -> quarantine a wedged shard (stall) skips drain: snapshot
//                          failover; bins past the last checkpoint are
//                          counted discarded, the client resubmits
//    drain/quarantine ->   rebuild: fresh DecodeServer incarnation, shard
//    healthy               rejoins the placement ring
// fail_shard (KALMMIND_FAULTS) jumps straight to the quarantine rung.
// Drain and failover share one evacuation routine; they differ only in
// what they feed it (a fresh checkpoint plus the stolen queue, or the last
// snapshot plus the loss it counts).
//
// Failover is bit-exact: a snapshot carries the session's recursion state
// (serve/snapshot.hpp), so a restored session of any kind continues
// bit-identical to an uninterrupted run without replaying its past
// (tests/serve/cluster_test.cpp proves this under seeded shard kills).  A
// route dies only when no shard can host it.
//
// Admission control: per-shard pending-bin watermarks with hysteresis.
// Above high_watermark submit() returns an Overloaded Status (never
// blocks, never queues unboundedly); below low_watermark the shard
// re-admits.  RetryingSubmitter is the client half: jittered exponential
// backoff until the bin lands or attempts run out.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace kalmmind::serve {

// Shard rung on the cluster ladder (see the header comment).
enum class ShardState {
  kHealthy = 0,
  kProbe,       // under observation: no new session placements
  kDraining,    // lossless migration in progress
  kQuarantined, // fenced: sessions restored elsewhere from snapshots
};

inline const char* to_string(ShardState s) {
  switch (s) {
    case ShardState::kHealthy: return "healthy";
    case ShardState::kProbe: return "probe";
    case ShardState::kDraining: return "draining";
    case ShardState::kQuarantined: return "quarantined";
  }
  return "?";
}

// What admission control does with a bin for an over-watermark shard.
enum class ShedPolicy {
  kRejectNew,   // bounce it with an Overloaded Status (client retries)
  kDropOldest,  // evict the submitting session's stalest queued bin
};

struct ClusterOptions {
  std::size_t shards = 4;
  // Virtual nodes per shard on the placement ring (evens out the keyspace).
  std::size_t vnodes = 16;
  // Per-shard DecodeServer options.  workers is forced to kManual: the
  // cluster owns pumping (see the shard model above).
  ServerOptions shard;

  // Admission control: queued-bin watermarks per shard, with hysteresis —
  // a shard that trips high_watermark sheds until it drains below
  // low_watermark.
  std::size_t high_watermark = 4096;
  std::size_t low_watermark = 1024;
  ShedPolicy shed = ShedPolicy::kRejectNew;

  // tick() checkpoints a session once it has decoded this many bins past
  // its last snapshot (0: only explicit checkpoint()/checkpoint_all()).
  std::size_t checkpoint_every_bins = 64;

  // Ladder: consecutive bad ticks before a shard escalates one rung, the
  // SLO attainment floor below which a tick is bad, and the per-tick
  // restart delta that counts as churn.
  std::size_t escalate_after_ticks = 2;
  double slo_floor = 0.90;
  std::size_t restart_churn_per_tick = 4;

  [[nodiscard]] Status check() const noexcept {
    if (shards == 0)
      return Status::Invalid("ClusterOptions: shards must be > 0");
    if (vnodes == 0)
      return Status::Invalid("ClusterOptions: vnodes must be > 0");
    if (high_watermark == 0)
      return Status::Invalid("ClusterOptions: high_watermark must be > 0");
    if (low_watermark > high_watermark)
      return Status::Invalid(
          "ClusterOptions: low_watermark must be <= high_watermark");
    if (escalate_after_ticks == 0)
      return Status::Invalid(
          "ClusterOptions: escalate_after_ticks must be > 0");
    if (!(slo_floor >= 0.0 && slo_floor <= 1.0))
      return Status::Invalid("ClusterOptions: slo_floor must be in [0, 1]");
    return Status::Ok();
  }
};

// Per-shard rollup inside ClusterStats (the ISSUE's "per-shard rollups in
// ServerStats": the full ServerStats of the current incarnation plus the
// cluster-side ladder counters).
struct ShardRollup {
  std::size_t index = 0;
  ShardState state = ShardState::kHealthy;
  std::uint64_t generation = 0;       // incarnations so far (rebuild count+1)
  std::size_t pending_estimate = 0;   // admission-control queued-bin view
  bool shedding = false;              // currently above the watermark
  std::uint64_t admission_rejected = 0;
  std::uint64_t migrations_out = 0;   // sessions this shard lost (any rung)
  std::uint64_t restores_in = 0;      // sessions restored onto this shard
  ServerStats server;                 // current incarnation's stats
};

// Point-in-time view of the whole cluster.  The bin conservation law the
// chaos tests assert: decoded + queued + dropped + discarded == submitted,
// and submitted + rejected_overload + rejected_full == submit attempts.
struct ClusterStats {
  std::size_t shards = 0;
  std::size_t sessions = 0;            // live (non-closed, non-dead) routes
  std::uint64_t submitted = 0;         // bins accepted by the cluster
  std::uint64_t rejected_overload = 0; // admission-control bounces
  std::uint64_t rejected_full = 0;     // session-queue-full bounces
  std::uint64_t decoded = 0;           // recorded steps across incarnations
  std::uint64_t invalid_steps = 0;
  std::uint64_t quarantine_dropped = 0;
  std::uint64_t dropped = 0;           // kDropOldest evictions (incl. shed)
  std::uint64_t discarded = 0;         // close/teardown + failover losses
  std::uint64_t queued = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t sessions_migrated = 0;
  std::uint64_t sessions_reaped = 0;   // finished routes folded into totals
  std::uint64_t shard_quarantines = 0;
  std::uint64_t shard_rebuilds = 0;
  double worst_shard_p99_s = 0.0;
  double deadline_slo = 1.0;           // worst shard's attainment
  std::vector<ShardRollup> per_shard;

  std::string to_string() const;
};

class ShardedDecodeServer {
 public:
  static constexpr SessionId kInvalidSession = DecodeServer::kInvalidSession;

  // `status` (optional) reports an invalid ClusterOptions; the cluster is
  // then constructed with defaults so the object is still usable.
  explicit ShardedDecodeServer(ClusterOptions options = {},
                               Status* status = nullptr);
  ~ShardedDecodeServer();

  ShardedDecodeServer(const ShardedDecodeServer&) = delete;
  ShardedDecodeServer& operator=(const ShardedDecodeServer&) = delete;

  // Admit a session on a ring-placed healthy shard.  The returned id is
  // cluster-level: it stays valid across migrations and rebuilds.
  SessionId open_session(SessionConfig config, Status* status = nullptr);

  // Enqueue one bin.  Never blocks: an over-watermark shard returns an
  // Overloaded Status (kRejectNew) or evicts the session's stalest bin
  // (kDropOldest); a fenced/failing-over shard returns Unavailable.  Both
  // are Status::retryable() — see RetryingSubmitter.
  [[nodiscard]] Status submit(SessionId id, Vector<double> z);

  // Stop accepting bins.  On a fenced (mid-migration) shard the close is
  // deferred; the requested mode is remembered on the route and applied to
  // the restored incarnation, so kDiscard keeps its discard semantics
  // across a migration.
  bool close_session(SessionId id, CloseMode mode = CloseMode::kDrain);

  // One pumping pass: polls every active shard once and refreshes the
  // admission estimates.  Safe to call from many threads concurrently.
  // Returns filter steps executed.
  std::size_t pump();

  // Pump until every active shard is idle (manual-mode drain).
  void drain();

  // One control-plane beat: refresh admission watermarks, score shard
  // health, advance the ladder (probe/drain/quarantine/rebuild), take
  // cadence checkpoints, and reap finished sessions (closed-and-drained or
  // dead routes fold their counters into the cluster totals and are
  // erased, so routes_ stays bounded).  Deterministic — tests drive it
  // explicitly.  Stall scoring reads the observable condition (queued
  // bins, zero decode progress since the last tick), so tick() must run
  // no faster than the pump cadence or an under-pumped shard reads as
  // wedged.
  void tick();

  // Snapshot the session now (stored for failover; also journals
  // kSnapshotTaken).  Fails for unknown and dead sessions.
  [[nodiscard]] Status checkpoint(SessionId id);
  // Checkpoint every live session; returns how many succeeded.
  std::size_t checkpoint_all();

  // Administratively drain a shard: lossless migration of every session to
  // healthy peers (checkpoint + steal-queue + restore + resubmit), then
  // rebuild.  The shard rejoins the ring healthy.
  [[nodiscard]] Status drain_shard(std::size_t shard);

  // Decoded trajectory across incarnations: the concatenation of the
  // checkpointed prefix and the current incarnation's states — the
  // sequence the chaos test compares bit-for-bit against a solo run.
  std::vector<Vector<double>> trajectory(SessionId id) const;
  SessionStatsSnapshot session_stats(SessionId id) const;
  ClusterStats stats() const;

  // Bins the stream has safely absorbed (consumed + queued on the current
  // incarnation): the client's resubmission cursor after a failover.
  std::size_t next_expected_bin(SessionId id) const;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(SessionId id) const;
  ShardState shard_state(std::size_t shard) const;

#if defined(KALMMIND_FAULTS)
  // Fault-injection hooks (KALMMIND_FAULTS builds only).  stall: the shard
  // stops being pumped — queues grow, the ladder detects the stall.
  // fail: the shard is fenced and synchronously failed over (snapshot
  // restore on healthy peers), then rebuilt.
  void fault_stall_shard(std::size_t shard, bool stalled);
  void fault_fail_shard(std::size_t shard);
#endif

 private:
  struct Shard;
  struct Route;
  struct Evacuee;

  // submit() past the fence check, inside the shard's inflight guard:
  // admission control + the actual enqueue.
  [[nodiscard]] Status submit_admitted(SessionId id, Shard& shard,
                                       SessionId local, Vector<double> z);

  // Ring lookup: first eligible shard clockwise of key (skips the
  // `exclude` index when another candidate exists).  Returns shards_.size()
  // when nothing accepts placements.
  std::size_t place(std::uint64_t key, std::size_t exclude) const;
  // Pause the shard and wait until no pump() is inside it.
  void quiesce(Shard& shard);
  // A fresh manual-mode shard server with its own session-id range.
  std::unique_ptr<DecodeServer> new_incarnation();
  // Replace the shard's DecodeServer with a fresh incarnation.
  void rebuild_locked(Shard& shard);
  // Lossless migration of every session off `shard` (admin_mu_ held).
  [[nodiscard]] Status drain_shard_locked(std::size_t shard);
  // Snapshot failover of every session off `shard` (admin_mu_
  // held); queued and post-snapshot bins are counted discarded.
  void failover_shard_locked(std::size_t shard, const char* reason);
  // The live routes of `shard` (kAllShards: of every shard), and the same
  // set as evacuees for drain/failover.
  static constexpr std::size_t kAllShards = ~std::size_t(0);
  std::vector<std::pair<SessionId, Route*>> live_routes(
      std::size_t shard) const;
  std::vector<Evacuee> evacuees(std::size_t shard) const;
  // The route loop drain and failover share (admin_mu_ held, `shard`
  // fenced): place each evacuee on a peer and restore it, re-applying a
  // close deferred by the fence; an evacuee no shard can host dies with
  // its prepared final stats.  Returns how many routes moved.
  std::size_t evacuate_locked(std::size_t shard, const char* reason,
                              std::vector<Evacuee>& moving);
  // Move one route to `target` from its stored snapshot; `queued` is the
  // stolen undecoded tail (empty on failover), resubmitted to the new
  // incarnation *before* the route is rewritten so a concurrent client
  // submit cannot jump ahead of it.  Returns false if the restore was
  // rejected.  routes_mu_ must NOT be held.
  bool restore_route(SessionId id, Route& route, std::size_t target,
                     const char* reason, std::deque<Vector<double>>& queued);
  // Take one snapshot + prefix copy for the route (routes_mu_ held via
  // caller contract; see implementation).
  [[nodiscard]] Status checkpoint_route(SessionId id, Route& route);
  // Fold finished routes (dead, or closed with a drained queue) into
  // retired_ and erase them (admin_mu_ held) — routes_ stays bounded on a
  // long-running cluster.
  void reap_routes_locked();
  // Add one route's bin counters (its current stats `s`) into `out`.
  static void fold_route(ClusterStats& out, const Route& route,
                         const SessionStatsSnapshot& s);
  // Reset the shard's admission estimate to a fresh queued-bin count and
  // apply the watermark hysteresis (pump, drain and tick).
  void refresh_admission(Shard& shard, std::size_t queued);

  ClusterOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;  // sorted points
  std::atomic<std::uint64_t> next_id_base_{1};  // per-incarnation id ranges

  mutable std::mutex routes_mu_;  // guards routes_, next_session_, retired_
  std::unordered_map<SessionId, std::unique_ptr<Route>> routes_;
  SessionId next_session_ = 1;
  // Bin counters folded out of reaped routes (fold_route) plus
  // sessions_reaped; every other field stays at its default.  The
  // conservation law (decoded + ... == submitted) stays closed after the
  // Route objects are gone.
  ClusterStats retired_;

  // Serializes control-plane operations (tick, drain, failover, rebuild).
  mutable std::mutex admin_mu_;
  std::uint64_t snapshots_taken_ = 0;     // admin_mu_
  std::uint64_t sessions_migrated_ = 0;   // admin_mu_
  std::uint64_t shard_quarantines_ = 0;   // admin_mu_
  std::uint64_t shard_rebuilds_ = 0;      // admin_mu_
};

// Client-side retry-with-backoff for the overload path: resubmits a bin
// while the cluster reports a retryable Status (Overloaded/Unavailable),
// sleeping a jittered exponential backoff between attempts.  Deterministic
// tests replace the sleep with a pump callback via set_between_attempts.
class RetryingSubmitter {
 public:
  struct Policy {
    std::size_t max_attempts = 12;
    double base_delay_s = 0.0005;
    double max_delay_s = 0.05;
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;  // jitter PRNG (splitmix64)
  };
  struct Stats {
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t exhausted = 0;  // bins that never landed
  };

  explicit RetryingSubmitter(ShardedDecodeServer& cluster);
  RetryingSubmitter(ShardedDecodeServer& cluster, Policy policy);

  // Called between attempts *instead of* sleeping (e.g. pump the cluster
  // in a manual-mode test, making retry convergence deterministic).
  void set_between_attempts(std::function<void()> hook);

  // Submit with retries.  Returns the last Status: ok() once the bin
  // landed, the final retryable Status if attempts ran out, or the
  // permanent error immediately.
  [[nodiscard]] Status submit(SessionId id, const Vector<double>& z);

  Stats stats() const { return stats_; }

 private:
  double next_delay_s(std::size_t retry);

  ShardedDecodeServer& cluster_;
  Policy policy_;
  Stats stats_;
  std::uint64_t prng_;
  std::function<void()> between_attempts_;
};

}  // namespace kalmmind::serve
