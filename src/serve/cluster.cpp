#include "serve/cluster.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace kalmmind::serve {

namespace {

// splitmix64: the repo's standard tiny deterministic mixer (see
// testing/fault_injection.hpp) — here it spreads shard/vnode indices and
// session ids over the placement ring.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// One shard slot.  The DecodeServer pointer is replaced on rebuild; the
// pause/quiesce protocol (see pump()) is what makes the swap safe without a
// lock on the hot pumping path.
struct ShardedDecodeServer::Shard {
  std::size_t index = 0;
  std::unique_ptr<DecodeServer> server;

  // Pump gate.  paused: skip this shard (stall fault, quiesce window).
  // fenced: shard is failing over/rebuilding — submits bounce Unavailable.
  std::atomic<bool> paused{false};
  std::atomic<bool> fenced{false};
  std::atomic<std::size_t> inflight{0};  // pump() calls inside server->

  // Control-plane state (admin_mu_ of the cluster).
  ShardState state = ShardState::kHealthy;
  std::uint64_t generation = 1;
  std::size_t bad_ticks = 0;       // consecutive demerit ticks at this rung
  bool stall_suspected = false;    // last demerit included a wedged consumer
  // Previous tick()'s stats sample, for delta scoring.
  std::size_t prev_steps = 0;
  std::size_t prev_restarts = 0;
  std::size_t prev_invalid = 0;

  // Admission control (its own mutex: submit() must not contend with the
  // control plane; mutable so const stats() can read the estimate).
  mutable std::mutex adm_mu;
  std::size_t base_queued = 0;      // last queued_now() refresh
  std::size_t accepted_since = 0;   // accepts since that refresh
  bool shedding = false;            // above high watermark (hysteresis)
  std::uint64_t admission_rejected = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t restores_in = 0;
};

// One cluster-level session.  The route survives migrations and rebuilds;
// only (shard, local) change.  Trajectory across incarnations is the
// checkpointed prefix plus the live incarnation's states (see trajectory()).
struct ShardedDecodeServer::Route {
  std::size_t shard = 0;
  SessionId local = kInvalidSession;
  SessionConfig config;  // for re-admission on another shard
  bool closed = false;
  // The mode the client asked close_session for.  A close deferred by a
  // fenced shard is re-applied to the restored incarnation with this mode,
  // so kDiscard survives a migration instead of silently draining.
  CloseMode close_mode = CloseMode::kDrain;
  bool dead = false;     // lost its shard and no shard could host it

  std::uint64_t accepted = 0;          // bins the cluster accepted
  std::uint64_t rejected_overload = 0; // admission bounces
  std::uint64_t rejected_full = 0;     // session-queue-full bounces
  // Failover losses acknowledged by the cluster: bins accepted but neither
  // in the snapshot's counters nor resumable (queued or decoded after the
  // last checkpoint on a shard that died).
  std::uint64_t discarded_failover = 0;

  std::optional<SessionSnapshot> snap;  // the last checkpoint, if any
  // Decoded states already checkpointed out of live incarnations.  The
  // first prefix.size() - incarnation_copied entries precede the current
  // incarnation; the tail duplicates its first incarnation_copied states.
  std::vector<Vector<double>> prefix;
  std::size_t incarnation_copied = 0;  // current incarnation states in prefix

  // Final stats of a dead route (captured before its shard was torn down).
  SessionStatsSnapshot final_stats;
};

// One route leaving a shard, as drain or failover prepared it for the
// shared route loop (evacuate_locked).
struct ShardedDecodeServer::Evacuee {
  SessionId id = kInvalidSession;
  Route* route = nullptr;
  std::deque<Vector<double>> queued;  // undecoded tail to resubmit in order
  SessionStatsSnapshot final_stats;   // the route's stats if it dies
};

ShardedDecodeServer::ShardedDecodeServer(ClusterOptions options,
                                         Status* status)
    : options_(std::move(options)) {
  if (Status s = options_.check(); !s.ok()) {
    if (status) *status = s;
    options_ = ClusterOptions{};
  } else if (status) {
    *status = Status::Ok();
  }
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->server = new_incarnation();
    shards_.push_back(std::move(shard));
  }
  // Placement ring: vnodes per shard, points from the deterministic mixer.
  ring_.reserve(options_.shards * options_.vnodes);
  for (std::size_t s = 0; s < options_.shards; ++s)
    for (std::size_t v = 0; v < options_.vnodes; ++v)
      ring_.emplace_back(mix64((std::uint64_t(s) << 20) | v), s);
  std::sort(ring_.begin(), ring_.end());
}

ShardedDecodeServer::~ShardedDecodeServer() {
  // Quiesce all pumping, then let each DecodeServer's destructor count its
  // leftover queued bins as discarded.
  for (auto& shard : shards_) quiesce(*shard);
}

std::size_t ShardedDecodeServer::place(std::uint64_t key,
                                       std::size_t exclude) const {
  // admin_mu_ is held by every caller (shard->state is control-plane data).
  auto eligible = [&](std::size_t s, bool allow_exclude) {
    if (s == exclude && !allow_exclude) return false;
    return shards_[s]->state == ShardState::kHealthy &&
           !shards_[s]->fenced.load();
  };
  // Double-mix: ring points are mix64(small shard/vnode ints), and session
  // ids are small ints too — a single mix would land every lookup exactly
  // on shard 0's vnode points.  The second round puts keys in a distinct
  // hash domain.
  const std::uint64_t point = mix64(mix64(key));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(),
      std::make_pair(point, std::size_t(0)));
  for (std::size_t walked = 0; walked < ring_.size(); ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (eligible(it->second, /*allow_exclude=*/false)) return it->second;
  }
  // No healthy peer: fall back to the excluded shard itself (it may have
  // just been rebuilt), then to any non-fenced shard.
  if (exclude < shards_.size() && eligible(exclude, /*allow_exclude=*/true))
    return exclude;
  for (std::size_t s = 0; s < shards_.size(); ++s)
    if (!shards_[s]->fenced.load() &&
        shards_[s]->state != ShardState::kQuarantined)
      return s;
  return shards_.size();
}

std::unique_ptr<DecodeServer> ShardedDecodeServer::new_incarnation() {
  ServerOptions so = options_.shard;
  so.workers = ServerOptions::kManual;  // the cluster owns pumping
  so.session_id_base = (next_id_base_.fetch_add(1) << 32) | 1;
  return std::make_unique<DecodeServer>(so);
}

void ShardedDecodeServer::quiesce(Shard& shard) {
  shard.paused.store(true);
  // pump() increments inflight *before* re-checking paused, so once every
  // in-flight count drains no pump is (or will be) inside the server.
  while (shard.inflight.load() != 0) std::this_thread::yield();
}

void ShardedDecodeServer::rebuild_locked(Shard& shard) {
  // Caller holds admin_mu_ and has quiesced the shard.  The old
  // incarnation's destructor counts any remaining queued bins as discarded
  // (lossless drains have already stolen their queues).
  shard.server.reset();
  shard.server = new_incarnation();
  ++shard.generation;
  shard.state = ShardState::kHealthy;
  shard.bad_ticks = 0;
  shard.stall_suspected = false;
  shard.prev_steps = shard.prev_restarts = shard.prev_invalid = 0;
  {
    std::lock_guard<std::mutex> lock(shard.adm_mu);
    shard.base_queued = 0;
    shard.accepted_since = 0;
    shard.shedding = false;
  }
  shard.fenced.store(false);
  shard.paused.store(false);
  ++shard_rebuilds_;
}

SessionId ShardedDecodeServer::open_session(SessionConfig config,
                                            Status* status) {
  if (Status s = config.check(); !s.ok()) {
    if (status) *status = s;
    return kInvalidSession;
  }
  // admin_mu_ is held across placement, the shard-local open, and the route
  // insertion.  Releasing it in between would race tick()-driven failover:
  // rebuild_locked() replaces the target's DecodeServer (use-after-free for
  // a thread still inside open_session), and a migration sweep that has
  // already collected its routes would strand the new local id on the
  // condemned incarnation.  Opens are control-plane, so the serialization
  // is the point, not a bottleneck.
  std::lock_guard<std::mutex> admin(admin_mu_);
  SessionId id;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    id = next_session_++;
  }
  const std::size_t target = place(id, shards_.size());
  if (target >= shards_.size()) {
    if (status)
      *status = Status::Unavailable("cluster: no shard accepting sessions");
    return kInvalidSession;
  }
  Status open_status = Status::Ok();
  const SessionId local =
      shards_[target]->server->open_session(config, &open_status);
  if (local == DecodeServer::kInvalidSession) {
    if (status) *status = open_status;
    return kInvalidSession;
  }
  auto route = std::make_unique<Route>();
  route->shard = target;
  route->local = local;
  route->config = std::move(config);
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    routes_.emplace(id, std::move(route));
  }
  if (status) *status = Status::Ok();
  return id;
}

[[nodiscard]] Status ShardedDecodeServer::submit(SessionId id,
                                                 Vector<double> z) {
  std::size_t shard_index;
  SessionId local;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    auto it = routes_.find(id);
    if (it == routes_.end() || it->second->closed || it->second->dead)
      return Status::Invalid("cluster: unknown or closed session");
    shard_index = it->second->shard;
    local = it->second->local;
  }
  Shard& shard = *shards_[shard_index];
  // Same protocol as pump(): the inflight count is what lets a migration
  // quiesce the shard before its DecodeServer is replaced.  A fenced shard
  // bounces Unavailable — the session is mid-migration, and once the route
  // is rewritten the retry lands on its new shard.  A merely *paused*
  // (stalled) shard still accepts: producers keep queueing into a wedged
  // consumer, which is exactly what the ladder's stall detection watches.
  shard.inflight.fetch_add(1);
  if (shard.fenced.load()) {
    shard.inflight.fetch_sub(1);
    return Status::Unavailable("cluster: shard failing over; retry");
  }
  const Status result = submit_admitted(id, shard, local, std::move(z));
  shard.inflight.fetch_sub(1);
  return result;
}

[[nodiscard]] Status ShardedDecodeServer::submit_admitted(SessionId id,
                                                          Shard& shard,
                                            SessionId local,
                                            Vector<double> z) {
  // Admission control: cheap pending estimate (last refresh + accepts
  // since), exact refresh only at the high-watermark boundary.  Hysteresis:
  // once shedding, only a drain below low_watermark (seen by pump()/tick()
  // refreshes) re-admits.
  bool shed_this = false;
  {
    std::lock_guard<std::mutex> lock(shard.adm_mu);
    const std::size_t estimate = shard.base_queued + shard.accepted_since;
    if (!shard.shedding && estimate >= options_.high_watermark) {
      shard.base_queued = shard.server->queued_now();
      shard.accepted_since = 0;
      if (shard.base_queued >= options_.high_watermark) shard.shedding = true;
    }
    if (shard.shedding) {
      if (options_.shed == ShedPolicy::kRejectNew) {
        ++shard.admission_rejected;
        telemetry::FlightRecorder::global().record(
            telemetry::FlightEventKind::kAdmissionRejected, id, 0,
            shard.index, double(shard.base_queued + shard.accepted_since),
            "watermark");
        {
          std::lock_guard<std::mutex> rl(routes_mu_);
          auto it = routes_.find(id);
          if (it != routes_.end()) ++it->second->rejected_overload;
        }
        return Status::Overloaded(
            "cluster: shard over admission watermark; retry with backoff");
      }
      shed_this = true;  // kDropOldest: admit, evict the stalest queued bin
    }
    ++shard.accepted_since;
  }
  if (shed_this) shard.server->shed_oldest(local);

  const PushResult r = shard.server->submit(local, std::move(z));
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    auto it = routes_.find(id);
    if (it != routes_.end()) {
      switch (r) {
        case PushResult::kAccepted:
        case PushResult::kDroppedOldest:
          ++it->second->accepted;
          break;
        case PushResult::kRejectedFull:
          ++it->second->rejected_full;
          break;
        default:
          break;
      }
    }
  }
  if (r == PushResult::kRejectedFull || r == PushResult::kUnknownSession ||
      r == PushResult::kRejectedInvalid) {
    // The optimistic accepted_since bump did not materialize.
    std::lock_guard<std::mutex> lock(shard.adm_mu);
    if (shard.accepted_since > 0) --shard.accepted_since;
  }
  if (r == PushResult::kUnknownSession)
    // The route resolved at entry, so the session is alive cluster-wide:
    // the local id went stale under a concurrent migration.  Retryable —
    // the retry re-resolves the rewritten route.
    return Status::Unavailable("cluster: session migrating; retry");
  return push_status(r);
}

bool ShardedDecodeServer::close_session(SessionId id, CloseMode mode) {
  std::size_t shard_index;
  SessionId local;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    auto it = routes_.find(id);
    if (it == routes_.end() || it->second->closed || it->second->dead)
      return false;
    it->second->closed = true;
    it->second->close_mode = mode;
    shard_index = it->second->shard;
    local = it->second->local;
  }
  // Same quiesce protocol as submit().  On a fenced shard the close is
  // deferred: the route is already marked closed, and the migration path
  // closes the restored incarnation.
  Shard& shard = *shards_[shard_index];
  shard.inflight.fetch_add(1);
  if (!shard.fenced.load()) shard.server->close_session(local, mode);
  shard.inflight.fetch_sub(1);
  return true;
}

std::size_t ShardedDecodeServer::pump() {
  std::size_t steps = 0;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.inflight.fetch_add(1);
    // Re-check *after* the increment: quiesce() sets paused first, then
    // waits for inflight to drain, so either we see paused here or the
    // quiescer waits for us.
    if (!shard.paused.load() && !shard.fenced.load()) {
      steps += shard.server->poll();
      // Refresh the admission estimate while we are safely inside the
      // shard (this is what re-admits a drained shard).
      refresh_admission(shard, shard.server->queued_now());
    }
    shard.inflight.fetch_sub(1);
  }
  return steps;
}

void ShardedDecodeServer::drain() {
  for (;;) {
    bool idle = true;
    for (auto& shard_ptr : shards_) {
      Shard& shard = *shard_ptr;
      shard.inflight.fetch_add(1);
      if (!shard.paused.load() && !shard.fenced.load()) {
        shard.server->drain();
        const std::size_t queued = shard.server->queued_now();
        if (queued != 0) idle = false;
        // A fully drained shard must re-admit (and its pending estimate
        // read zero) without needing a separate pump() pass.
        refresh_admission(shard, queued);
      }
      shard.inflight.fetch_sub(1);
    }
    if (idle) return;
  }
}

void ShardedDecodeServer::refresh_admission(Shard& shard,
                                            std::size_t queued) {
  // Watermark hysteresis: shed from high_watermark until the shard drains
  // to low_watermark.
  std::lock_guard<std::mutex> lock(shard.adm_mu);
  shard.base_queued = queued;
  shard.accepted_since = 0;
  if (shard.shedding && queued <= options_.low_watermark)
    shard.shedding = false;
  else if (!shard.shedding && queued >= options_.high_watermark)
    shard.shedding = true;
}

std::vector<std::pair<SessionId, ShardedDecodeServer::Route*>>
ShardedDecodeServer::live_routes(std::size_t shard) const {
  std::lock_guard<std::mutex> lock(routes_mu_);
  std::vector<std::pair<SessionId, Route*>> live;
  live.reserve(routes_.size());
  for (const auto& [id, route] : routes_)
    if (!route->dead && (shard == kAllShards || route->shard == shard))
      live.emplace_back(id, route.get());
  return live;
}

[[nodiscard]] Status ShardedDecodeServer::checkpoint_route(SessionId,
                                                           Route& route) {
  // Caller holds admin_mu_ or is otherwise serialized with migration (the
  // route's shard/local pair must be stable).
  Shard& shard = *shards_[route.shard];
  SessionSnapshot snap;
  if (Status s = shard.server->checkpoint_session(route.local, &snap);
      !s.ok())
    return s;
  // Incremental prefix copy: append the states this incarnation decoded
  // since its last checkpoint, so a later failover can serve the full
  // trajectory as prefix + next incarnation.
  if (snap.recorded_states > route.incarnation_copied) {
    auto slice = shard.server->trajectory_slice(
        route.local, route.incarnation_copied, snap.recorded_states);
    for (auto& x : slice) route.prefix.push_back(std::move(x));
    route.incarnation_copied = snap.recorded_states;
  }
  route.snap = std::move(snap);
  ++snapshots_taken_;
  return Status::Ok();
}

[[nodiscard]] Status ShardedDecodeServer::checkpoint(SessionId id) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  Route* route = nullptr;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    auto it = routes_.find(id);
    if (it == routes_.end())
      return Status::Invalid("cluster: unknown session");
    if (it->second->dead)
      return Status::Invalid("cluster: session lost its shard");
    route = it->second.get();
  }
  // Safe without routes_mu_: admin_mu_ serializes every route rewrite.
  return checkpoint_route(id, *route);
}

std::size_t ShardedDecodeServer::checkpoint_all() {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::size_t ok = 0;
  for (auto& [id, route] : live_routes(kAllShards))
    if (checkpoint_route(id, *route).ok()) ++ok;
  return ok;
}

void ShardedDecodeServer::reap_routes_locked() {
  // admin_mu_ held: no migration can rewrite a route's (shard, local) pair
  // while we decide its fate.  A route is finished once it is dead, or
  // closed with an empty queue (kDrain has worked the tail off; kDiscard
  // emptied it at close).  Its counters fold into retired_ so the
  // conservation law stays closed, then the route — and its shard-local
  // slot — are erased; without this a long-running cluster's routes_ (and
  // every stats()/checkpoint/migration sweep over it) grows forever.
  std::vector<SessionId> candidates;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    for (auto& [id, route] : routes_)
      if (route->dead || route->closed) candidates.push_back(id);
  }
  for (const SessionId id : candidates) {
    Route* route = nullptr;
    {
      std::lock_guard<std::mutex> lock(routes_mu_);
      auto it = routes_.find(id);
      if (it == routes_.end()) continue;
      route = it->second.get();
    }
    SessionStatsSnapshot s;
    if (route->dead) {
      s = route->final_stats;
    } else {
      Shard& shard = *shards_[route->shard];
      s = shard.server->session_stats(route->local);
      if (s.queue_depth != 0) continue;  // kDrain still working the tail
      // Free the shard-local slot too.  remove_session's manual-mode
      // contract wants no poll() inside the server, so briefly quiesce —
      // restoring the prior pause flag, which a stall fault may own.
      const bool was_paused = shard.paused.load();
      quiesce(shard);
      shard.server->remove_session(route->local);
      shard.paused.store(was_paused);
    }
    std::lock_guard<std::mutex> lock(routes_mu_);
    fold_route(retired_, *route, s);
    ++retired_.sessions_reaped;
    routes_.erase(id);
  }
}

bool ShardedDecodeServer::restore_route(SessionId id, Route& route,
                                        std::size_t target,
                                        const char* reason,
                                        std::deque<Vector<double>>& queued) {
  // admin_mu_ held.  The stored snapshot resumes on the target shard; a
  // stream never checkpointed starts over there from x0.
  DecodeServer& server = *shards_[target]->server;
  const SessionId local =
      route.snap ? server.restore_session(route.config, *route.snap)
                     : server.open_session(route.config);
  if (local == DecodeServer::kInvalidSession) return false;
  {
    std::lock_guard<std::mutex> lock(shards_[target]->adm_mu);
    ++shards_[target]->restores_in;
  }
  // Replay the stolen undecoded tail, in order, before any client submit
  // can reach the new incarnation (the route still points at the fenced
  // source until the rewrite below).
  for (auto& z : queued) server.submit(local, std::move(z));
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    route.shard = target;
    route.local = local;
    route.incarnation_copied = 0;  // fresh incarnation: prefix is its past
  }
  ++sessions_migrated_;
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEventKind::kSessionMigrated, id,
      route.snap ? route.snap->steps : 0, target, 0.0, reason);
  return true;
}

[[nodiscard]] Status ShardedDecodeServer::drain_shard(std::size_t shard) {
  std::lock_guard<std::mutex> admin(admin_mu_);
  if (shard >= shards_.size())
    return Status::Invalid("cluster: no such shard");
  return drain_shard_locked(shard);
}

[[nodiscard]] Status ShardedDecodeServer::drain_shard_locked(
    std::size_t index) {
  Shard& source = *shards_[index];
  source.state = ShardState::kDraining;
  // Fence as well as pause: submits landing between steal-queue and rebuild
  // would die with the old incarnation, so they bounce retryable instead.
  source.fenced.store(true);
  quiesce(source);

  std::vector<Evacuee> moving = evacuees(index);
  for (Evacuee& e : moving) {
    // Fresh snapshot at the quiesced edge: the session is idle, so the
    // checkpoint is exactly its latest decode and the stolen queue is
    // exactly its undecoded tail — the migration is lossless.  Every kind
    // of live session checkpoints.  Should the route find no host, its
    // stolen queue counts as discarded — nothing vanishes silently.
    (void)checkpoint_route(e.id, *e.route);
    e.queued = source.server->steal_queue(e.route->local);
    e.final_stats = source.server->session_stats(e.route->local);
    e.final_stats.discarded += e.queued.size();
  }
  const std::size_t moved = evacuate_locked(index, "drain", moving);
  {
    std::lock_guard<std::mutex> lock(source.adm_mu);
    source.migrations_out += moved;
  }
  rebuild_locked(source);
  if (moved < moving.size())
    return Status::Unavailable("cluster: no shard could host a session");
  return Status::Ok();
}

void ShardedDecodeServer::failover_shard_locked(std::size_t index,
                                                const char* reason) {
  Shard& source = *shards_[index];
  source.fenced.store(true);
  source.state = ShardState::kQuarantined;
  quiesce(source);
  ++shard_quarantines_;
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEventKind::kShardQuarantined, 0, 0, index, 0.0,
      reason);

  std::vector<Evacuee> moving = evacuees(index);
  for (Evacuee& e : moving) {
    Route& route = *e.route;
    // Postmortem evidence before the journal-owning incarnation goes away.
    telemetry::FlightRecorder::global().postmortem(e.id, "shard_failover");
    // The route's surviving history is its last snapshot: its carried
    // counters are the final stats should no shard take the route.
    if (route.snap) static_cast<SessionCounters&>(e.final_stats) = *route.snap;
    // Bins the cluster accepted that neither the snapshot's counters nor a
    // resubmission can account for: decoded-after-snapshot or queued at
    // death.  The client's resubmission cursor (next_expected_bin) starts
    // them over; acknowledging them here keeps conservation closed.
    const SessionCounters& c = e.final_stats;
    const std::uint64_t accounted = c.steps + c.invalid_steps +
                                    c.quarantine_dropped + c.dropped +
                                    c.discarded + route.discarded_failover;
    if (route.accepted > accounted)
      route.discarded_failover += route.accepted - accounted;
  }
  // The shard is treated as dead: its live queues and post-snapshot decodes
  // are unrecoverable.  Tear it down first (the DecodeServer destructor
  // counts the queue remnants into the global discarded telemetry), then
  // restore every route from its last snapshot on the survivors.
  rebuild_locked(source);
  (void)evacuate_locked(index, "failover", moving);
}

std::vector<ShardedDecodeServer::Evacuee> ShardedDecodeServer::evacuees(
    std::size_t shard) const {
  std::vector<Evacuee> out;
  for (const auto& [id, route] : live_routes(shard))
    out.push_back({id, route, {}, {}});
  return out;
}

std::size_t ShardedDecodeServer::evacuate_locked(
    std::size_t index, const char* reason, std::vector<Evacuee>& moving) {
  std::size_t moved = 0;
  for (Evacuee& e : moving) {
    Route& route = *e.route;
    const std::size_t target = place(e.id, index);
    if (target < shards_.size() &&
        restore_route(e.id, route, target, reason, e.queued)) {
      // closed/close_mode are written by close_session under routes_mu_
      // (concurrently — a close deferred by our fence), so re-read them
      // under it.  Reading after the route rewrite means a deferral
      // either lands here or applied itself directly to the new
      // incarnation.
      bool deferred_close = false;
      CloseMode deferred_mode = CloseMode::kDrain;
      {
        std::lock_guard<std::mutex> lock(routes_mu_);
        deferred_close = route.closed;
        deferred_mode = route.close_mode;
      }
      if (deferred_close)
        shards_[route.shard]->server->close_session(route.local,
                                                    deferred_mode);
      ++moved;
      continue;
    }
    // Dead-route accounting: no shard could host the stream, so it stops
    // here, with the final stats its evacuation prepared.
    std::lock_guard<std::mutex> lock(routes_mu_);
    route.dead = true;
    route.final_stats = std::move(e.final_stats);
  }
  return moved;
}

void ShardedDecodeServer::tick() {
  std::lock_guard<std::mutex> admin(admin_mu_);

  // Score every shard from its own ServerStats deltas.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    if (shard.fenced.load() || shard.state == ShardState::kQuarantined)
      continue;
    const ServerStats s = shard.server->stats();

    refresh_admission(shard, s.queued);

    const std::size_t steps_delta = s.total_steps - shard.prev_steps;
    const std::size_t restarts_delta = s.total_restarts - shard.prev_restarts;
    const std::size_t invalid_delta =
        s.total_invalid_steps - shard.prev_invalid;
    shard.prev_steps = s.total_steps;
    shard.prev_restarts = s.total_restarts;
    shard.prev_invalid = s.total_invalid_steps;

    bool demerit = false;
    bool stall = false;
    // A shard with queued work that consumed nothing since the last tick
    // is wedged — pump gate closed (stall fault) or the pumpers genuinely
    // stopped reaching it.  Scoring the observable condition alone keeps
    // this rung reachable for real stalls, not just fault injection; the
    // escalate_after_ticks * 2 consecutive sightings the ladder demands
    // before quarantining filter out a tick that merely raced the pump
    // loop (tick() must not outpace pumping — see the header).
    if (s.queued > 0 && steps_delta == 0) demerit = stall = true;
    // SLO attainment below the floor while actually doing work.
    if (steps_delta > 0 && s.deadline_slo < options_.slo_floor) demerit = true;
    // Restart churn / divergence storms: the shard's sessions keep
    // crashing; its gain cache or memory may be bad.
    if (restarts_delta >= options_.restart_churn_per_tick) demerit = true;
    if (invalid_delta > 0 && s.failed_sessions > 0) demerit = true;

    if (!demerit) {
      shard.bad_ticks = 0;
      shard.stall_suspected = false;
      if (shard.state == ShardState::kProbe)
        shard.state = ShardState::kHealthy;
      continue;
    }
    ++shard.bad_ticks;
    shard.stall_suspected = shard.stall_suspected || stall;
    if (shard.bad_ticks < options_.escalate_after_ticks) continue;
    shard.bad_ticks = 0;

    switch (shard.state) {
      case ShardState::kHealthy:
        shard.state = ShardState::kProbe;  // stop new placements, observe
        break;
      case ShardState::kProbe:
        if (shard.stall_suspected) {
          // A wedged consumer cannot be trusted to drain: snapshot
          // failover (bins past the checkpoints are counted discarded).
          failover_shard_locked(shard.index, "stall");
        } else {
          // Failures already downgraded affected routes to dead (counted);
          // the shard itself still rebuilds healthy.
          (void)drain_shard_locked(shard.index);  // lossless, then rebuild
        }
        break;
      case ShardState::kDraining:
      case ShardState::kQuarantined:
        break;  // migration already in progress / done
    }
  }

  // Cadence checkpoints: durable state for the next failover.
  if (options_.checkpoint_every_bins > 0) {
    for (auto& [id, route] : live_routes(kAllShards)) {
      const std::size_t steps =
          shards_[route->shard]->server->session_steps(route->local);
      if (!route->snap ||
          steps - route->snap->steps >= options_.checkpoint_every_bins)
        (void)checkpoint_route(id, *route);
    }
  }

  reap_routes_locked();
}

std::vector<Vector<double>> ShardedDecodeServer::trajectory(
    SessionId id) const {
  // Observers hold admin_mu_ so the shard's DecodeServer cannot be
  // replaced (rebuild) underneath them.
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::size_t shard_index = 0;
  SessionId local = kInvalidSession;
  std::vector<Vector<double>> head;
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    auto it = routes_.find(id);
    if (it == routes_.end()) return {};
    const Route& route = *it->second;
    dead = route.dead;
    shard_index = route.shard;
    local = route.local;
    // States that precede the current incarnation (the prefix minus its
    // duplicated tail — see Route::prefix).
    const std::size_t base = route.prefix.size() - route.incarnation_copied;
    head.assign(route.prefix.begin(), route.prefix.begin() + long(base));
  }
  if (dead) return head;
  auto tail = shards_[shard_index]->server->trajectory(local);
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

SessionStatsSnapshot ShardedDecodeServer::session_stats(SessionId id) const {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::lock_guard<std::mutex> lock(routes_mu_);
  auto it = routes_.find(id);
  if (it == routes_.end()) return {};
  const Route& route = *it->second;
  if (route.dead) return route.final_stats;
  return shards_[route.shard]->server->session_stats(route.local);
}

std::size_t ShardedDecodeServer::next_expected_bin(SessionId id) const {
  std::lock_guard<std::mutex> admin(admin_mu_);
  std::size_t shard_index = 0;
  SessionId local = kInvalidSession;
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    auto it = routes_.find(id);
    if (it == routes_.end()) return 0;
    if (it->second->dead) {
      const auto& f = it->second->final_stats;
      return f.steps + f.invalid_steps + f.quarantine_dropped;
    }
    shard_index = it->second->shard;
    local = it->second->local;
  }
  const auto s = shards_[shard_index]->server->session_stats(local);
  return s.steps + s.invalid_steps + s.quarantine_dropped + s.queue_depth;
}

std::size_t ShardedDecodeServer::shard_of(SessionId id) const {
  std::lock_guard<std::mutex> lock(routes_mu_);
  auto it = routes_.find(id);
  return it == routes_.end() ? shards_.size() : it->second->shard;
}

ShardState ShardedDecodeServer::shard_state(std::size_t shard) const {
  std::lock_guard<std::mutex> admin(admin_mu_);
  return shard < shards_.size() ? shards_[shard]->state
                                : ShardState::kQuarantined;
}

void ShardedDecodeServer::fold_route(ClusterStats& out, const Route& route,
                                     const SessionStatsSnapshot& s) {
  out.submitted += route.accepted;
  out.rejected_overload += route.rejected_overload;
  out.rejected_full += route.rejected_full;
  out.decoded += s.steps;
  out.invalid_steps += s.invalid_steps;
  out.quarantine_dropped += s.quarantine_dropped;
  out.dropped += s.dropped;
  out.discarded += s.discarded + route.discarded_failover;
  out.queued += route.dead ? 0 : s.queue_depth;  // zero at reap time
}

ClusterStats ShardedDecodeServer::stats() const {
  std::lock_guard<std::mutex> admin(admin_mu_);
  // Sessions reaped by tick() live on as aggregate counters: the
  // conservation law closes over retired totals + live routes.
  ClusterStats out = [this] {
    std::lock_guard<std::mutex> lock(routes_mu_);
    return retired_;
  }();
  out.shards = shards_.size();
  out.snapshots_taken = snapshots_taken_;
  out.sessions_migrated = sessions_migrated_;
  out.shard_quarantines = shard_quarantines_;
  out.shard_rebuilds = shard_rebuilds_;

  for (const auto& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    ShardRollup roll;
    roll.index = shard.index;
    roll.state = shard.state;
    roll.generation = shard.generation;
    {
      std::lock_guard<std::mutex> lock(shard.adm_mu);
      roll.pending_estimate = shard.base_queued + shard.accepted_since;
      roll.shedding = shard.shedding;
      roll.admission_rejected = shard.admission_rejected;
      roll.migrations_out = shard.migrations_out;
      roll.restores_in = shard.restores_in;
    }
    roll.server = shard.server->stats();
    out.worst_shard_p99_s =
        std::max(out.worst_shard_p99_s, roll.server.step_latency.p99_s);
    out.deadline_slo = std::min(out.deadline_slo, roll.server.deadline_slo);
    out.per_shard.push_back(std::move(roll));
  }

  std::lock_guard<std::mutex> lock(routes_mu_);
  for (const auto& [id, route_ptr] : routes_) {
    const Route& route = *route_ptr;
    if (!route.dead && !route.closed) ++out.sessions;
    fold_route(out, route,
               route.dead ? route.final_stats
                          : shards_[route.shard]->server->session_stats(
                                route.local));
  }
  return out;
}

std::string ClusterStats::to_string() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "cluster: %zu shards, %zu sessions | submitted=%llu "
                "decoded=%llu queued=%llu discarded=%llu dropped=%llu\n",
                shards, sessions, (unsigned long long)submitted,
                (unsigned long long)decoded, (unsigned long long)queued,
                (unsigned long long)discarded, (unsigned long long)dropped);
  out += line;
  std::snprintf(line, sizeof(line),
                "  rejected: overload=%llu full=%llu | snapshots=%llu "
                "migrations=%llu reaped=%llu quarantines=%llu rebuilds=%llu\n",
                (unsigned long long)rejected_overload,
                (unsigned long long)rejected_full,
                (unsigned long long)snapshots_taken,
                (unsigned long long)sessions_migrated,
                (unsigned long long)sessions_reaped,
                (unsigned long long)shard_quarantines,
                (unsigned long long)shard_rebuilds);
  out += line;
  std::snprintf(line, sizeof(line),
                "  worst shard: p99=%.3fms slo=%.3f\n", worst_shard_p99_s * 1e3,
                deadline_slo);
  out += line;
  for (const auto& shard : per_shard) {
    std::snprintf(
        line, sizeof(line),
        "  shard %zu [%s gen=%llu]: sessions=%zu steps=%zu queued~%zu%s "
        "adm_rej=%llu out=%llu in=%llu\n",
        shard.index, kalmmind::serve::to_string(shard.state),
        (unsigned long long)shard.generation, shard.server.sessions,
        shard.server.total_steps, shard.pending_estimate,
        shard.shedding ? " SHED" : "",
        (unsigned long long)shard.admission_rejected,
        (unsigned long long)shard.migrations_out,
        (unsigned long long)shard.restores_in);
    out += line;
  }
  return out;
}

#if defined(KALMMIND_FAULTS)
void ShardedDecodeServer::fault_stall_shard(std::size_t shard, bool stalled) {
  if (shard >= shards_.size()) return;
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEventKind::kFaultInjected, 0, 0, shard, 0.0,
      "shard_stall");
  shards_[shard]->paused.store(stalled);
}

void ShardedDecodeServer::fault_fail_shard(std::size_t shard) {
  if (shard >= shards_.size()) return;
  telemetry::FlightRecorder::global().record(
      telemetry::FlightEventKind::kFaultInjected, 0, 0, shard, 0.0,
      "shard_fail");
  std::lock_guard<std::mutex> admin(admin_mu_);
  failover_shard_locked(shard, "fail_shard");
}
#endif

// --- RetryingSubmitter ------------------------------------------------------

RetryingSubmitter::RetryingSubmitter(ShardedDecodeServer& cluster)
    : RetryingSubmitter(cluster, Policy()) {}

RetryingSubmitter::RetryingSubmitter(ShardedDecodeServer& cluster,
                                     Policy policy)
    : cluster_(cluster), policy_(policy), prng_(policy.seed) {}

void RetryingSubmitter::set_between_attempts(std::function<void()> hook) {
  between_attempts_ = std::move(hook);
}

double RetryingSubmitter::next_delay_s(std::size_t retry) {
  // Exponential backoff, full jitter in [0.5, 1.0) of the window
  // (splitmix64 stream: deterministic per seed).
  prng_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = prng_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double u = double(z >> 11) * 0x1.0p-53;  // [0, 1)
  double window = policy_.base_delay_s;
  for (std::size_t i = 0; i < retry && window < policy_.max_delay_s; ++i)
    window *= 2.0;
  window = std::min(window, policy_.max_delay_s);
  return window * (0.5 + 0.5 * u);
}

[[nodiscard]] Status RetryingSubmitter::submit(SessionId id,
                                               const Vector<double>& z) {
  Status last = Status::Ok();
  for (std::size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    ++stats_.attempts;
    last = cluster_.submit(id, z);
    if (last.ok()) return last;
    if (!last.retryable()) return last;  // permanent: do not hammer
    ++stats_.retries;
    if (attempt + 1 == policy_.max_attempts) break;
    if (between_attempts_) {
      between_attempts_();
    } else {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(next_delay_s(attempt)));
    }
  }
  ++stats_.exhausted;
  return last;
}

}  // namespace kalmmind::serve
