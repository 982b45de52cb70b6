#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace kalmmind::serve {

namespace {

telemetry::Gauge& sessions_open_gauge() {
  static telemetry::Gauge& g = telemetry::MetricsRegistry::global().gauge(
      "kalmmind.serve.sessions_open");
  return g;
}

telemetry::Counter& worker_busy_counter() {
  static telemetry::Counter& c = telemetry::MetricsRegistry::global().counter(
      "kalmmind.serve.worker_busy_us_total");
  return c;
}

// Whether a unit — a solo session or a group — has bins queued.
bool has_bins(const Session* session, const BatchGroup* group) {
  return group ? group->pending() : session && session->queue_depth() > 0;
}

}  // namespace

DecodeServer::DecodeServer(ServerOptions options)
    : options_(options),
      start_(std::chrono::steady_clock::now()),
      cache_(options.gain_cache_capacity, options.gain_window) {
  if (options_.workers != ServerOptions::kManual) {
    pool_ = std::make_unique<ThreadPool>(options_.workers);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_id_ = options_.session_id_base == kInvalidSession
                   ? 1
                   : options_.session_id_base;
  }
}

DecodeServer::~DecodeServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    ready_.clear();
    prepare_.clear();
  }
  if (pool_) pool_->shutdown();  // in-flight batches finish, queued jobs park
  // Account for the bins this teardown abandons: every queued-but-undecoded
  // bin is counted into its session's discarded tally and the process-wide
  // kalmmind.serve.discarded_total counter (the close_session satellite —
  // nothing vanishes silently).  Sessions still open leave the process-wide
  // sessions_open gauge.
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, slot] : slots_) {
    slot.session->discard_queue();
    if (!slot.session->closed()) sessions_open_gauge().add(-1.0);
  }
}

SessionId DecodeServer::open_session(SessionConfig config, Status* status) {
  return admit(std::move(config), nullptr, status);
}

SessionId DecodeServer::restore_session(SessionConfig config,
                                        const SessionSnapshot& snap,
                                        Status* status) {
  return admit(std::move(config), &snap, status);
}

SessionId DecodeServer::admit(SessionConfig config,
                              const SessionSnapshot* snap, Status* status) {
  auto fail = [status](Status why) {
    if (status) *status = why;
    return kInvalidSession;
  };
  if (Status s = config.check(); !s.ok()) return fail(s);
  SessionId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return fail(snap ? Status::Unavailable("DecodeServer: shutting down")
                       : Status::Invalid("DecodeServer: shutting down"));
    }
    id = next_id_++;
  }
  // Build the session and, for a restore, its recursion state — both
  // outside mu_.  A restore runs no recursion step: a filter snapshot is
  // imported into the session's own filter, a schedule snapshot joins the
  // live group of its config or seeds a schedule at its head (O(1) at any
  // session age).  The flight-session scope attributes the cache's journal
  // events to the admitting session.
  std::shared_ptr<Session> session;
  std::shared_ptr<kalman::GainSchedule> schedule;
  const std::size_t iteration = snap ? std::size_t(snap->iteration) : 0;
  const bool batched_restore = snap && snap->kind == SnapshotKind::kSchedule;
  std::shared_ptr<Unit> live;  // the group a batched restore probed
  try {
    session = std::make_shared<Session>(id, std::move(config));
    const kalman::FilterConfig<double>& filter = session->config().filter;
    telemetry::ScopedFlightSession flight(id, snap ? snap->steps : 0);
    if (snap) {
      session->prime_restore(*snap);
      if (batched_restore) {
        std::lock_guard<std::mutex> lock(mu_);
        live = live_group_locked(*session, iteration);
      }
      if (batched_restore && !live)
        schedule = std::make_shared<kalman::GainSchedule>(
            filter, options_.gain_window, session->fingerprint(),
            snap->recursion, snap->entries);
    } else if (options_.batching && !filter.options.health.enabled) {
      // Health gates read the decoded state, so a health-enabled session's
      // gain trajectory is measurement-dependent: never batch it.
      schedule = cache_.acquire(filter, session->fingerprint());
    }
  } catch (const std::invalid_argument&) {
    // config.check() passed, so this is a factory-parameter problem (e.g.
    // sskf/lite without StrategyMatrices::preloaded_inverse) or a snapshot
    // that prime_restore() found not to match the config.
    return fail(Status::Invalid(
        snap ? "restore: snapshot does not match the config (fingerprint, "
               "dimensions or recursion state)"
             : "SessionConfig: strategy is missing required parameters "
               "(e.g. sskf/lite need StrategyMatrices::preloaded_inverse)"));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    Slot slot;
    slot.session = session;
    std::shared_ptr<Unit> unit;
    if (schedule || batched_restore)
      unit = live_group_locked(*session, iteration);
    // The probed group left groups_ since (its last member went): it still
    // decodes, as a group of its own.
    if (!unit) unit = live;
    if (!unit && schedule && schedule->base() <= iteration) {
      unit = std::make_shared<Unit>();
      unit->group = std::make_shared<BatchGroup>(schedule);
      // Only a schedule that starts at iteration 0 is registered: a seeded
      // one decodes in a group of its own, so fresh sessions of the config
      // still find a group they can join.
      if (!snap) groups_.emplace(schedule->fingerprint(), unit);
    }
    // A fresh session with no group (fingerprint collision, slid window)
    // decodes solo, like every restored filter snapshot.
    if (unit) {
      join_group_locked(slot, std::move(unit));
    } else {
      slot.unit = std::make_shared<Unit>();
      slot.unit->session = session;
    }
    slots_.emplace(id, std::move(slot));
  }
  sessions_open_gauge().add(1.0);
  if (snap && telemetry::enabled()) {
    auto& blackbox = telemetry::FlightRecorder::global();
    blackbox.record(telemetry::FlightEventKind::kSnapshotRestored, id,
                    snap->steps, snap->iteration);
  }
  if (status) *status = Status::Ok();
  return id;
}

std::shared_ptr<DecodeServer::Unit> DecodeServer::live_group_locked(
    const Session& session, std::size_t iteration) const {
  auto it = groups_.find(session.fingerprint());
  if (it == groups_.end()) return nullptr;
  // A fingerprint collision, or a stream the group's window already slid
  // past (it would eject on its first bin).  A group behind the stream
  // computes the missing iterations on its next cohort — work its younger
  // members would do anyway.
  const BatchGroup& group = *it->second->group;
  if (!(group.config() == session.config().filter) ||
      group.schedule()->base() > iteration)
    return nullptr;
  return it->second;
}

void DecodeServer::join_group_locked(Slot& slot, std::shared_ptr<Unit> unit) {
  slot.session->enable_batching(unit->group->schedule());
  unit->group->add(slot.session);
  if (telemetry::enabled()) {
    auto& blackbox = telemetry::FlightRecorder::global();
    blackbox.record(telemetry::FlightEventKind::kBatchJoin,
                    slot.session->id(), 0, unit->group->key());
  }
  slot.unit = std::move(unit);
}

PushResult DecodeServer::submit(SessionId id, Vector<double> z) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it == slots_.end() || it->second.session->closed() || stopping_) {
      return PushResult::kUnknownSession;
    }
    session = it->second.session;
  }
  // Checked before the bin is queued: a decode would throw on it, on a
  // worker or on this thread while it owns the unit.
  if (z.size() != session->config().filter.model.z_dim())
    return PushResult::kRejectedInvalid;
  const PushResult result = session->enqueue(std::move(z));
  if (result == PushResult::kRejectedFull) return result;
  std::shared_ptr<Unit> arrival;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it == slots_.end() || stopping_) return result;
    const std::shared_ptr<Unit>& unit = it->second.unit;
    // An idle pool-mode solo unit whose next gain is prepared: this thread
    // takes ownership and runs the bin's correction itself, instead of
    // waiting for a worker.  Everything else goes to the ready structure.
    if (pool_ && unit->session && !unit->scheduled &&
        unit->session->arrival_ready()) {
      unit->scheduled = true;
      ++scheduled_count_;
      arrival = unit;
    } else {
      dispatch_locked(unit);
    }
  }
  if (arrival) run(arrival, Job::kArrival);
  return result;
}

bool DecodeServer::close_session(SessionId id, CloseMode mode) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(id);
    if (it == slots_.end()) return false;
    if (!it->second.session->closed()) sessions_open_gauge().add(-1.0);
    it->second.session->close();  // no new submits either way
    if (mode == CloseMode::kDiscard) session = it->second.session;
  }
  // kDiscard: drop the queued bins now, counted (a consumer that already
  // popped a batch still finishes it — discard is queue surgery, not an
  // interrupt).  kDrain keeps the historical behavior: they still decode.
  if (session) session->discard_queue();
  return true;
}

BatchGroup::StepResult DecodeServer::step_timed(Session* session,
                                                BatchGroup* group, Job job) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchGroup::StepResult result;
  if (job == Job::kPrepare) {
    if (group) {
      group->prepare_next();
    } else if (session) {
      session->prepare_next();
    }
  } else if (group) {
    result = group->step_pending(options_.max_batch, &latency_);
  } else if (session) {
    result.steps = session->step_pending(
        job == Job::kArrival ? 1 : options_.max_batch, &latency_);
  }
  if (job == Job::kArrival) {
    // The submitting thread's time is not worker time.
    arrival_steps_.fetch_add(result.steps, std::memory_order_relaxed);
    return result;
  }
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  busy_us_.fetch_add(std::uint64_t(us), std::memory_order_relaxed);
  worker_busy_counter().add(std::uint64_t(us));
  return result;
}

void DecodeServer::dispatch_locked(const std::shared_ptr<Unit>& unit) {
  if (!unit->scheduled) {
    unit->scheduled = true;
    ++scheduled_count_;
    enqueue_locked(unit, Job::kDecode);
    return;
  }
  // Its precompute has not started: the bin goes first.  The unit keeps
  // its worker token.
  if (!unit->prepare_queued) return;  // queued for decoding, or running
  prepare_.erase(std::find(prepare_.begin(), prepare_.end(), unit));
  unit->prepare_queued = false;
  ready_.push_back(unit);
}

void DecodeServer::enqueue_locked(std::shared_ptr<Unit> unit, Job job) {
  unit->prepare_queued = job == Job::kPrepare;
  (job == Job::kDecode ? ready_ : prepare_).push_back(std::move(unit));
  if (pool_) pool_->submit([this] { run_next(/*decode_only=*/false); });
}

void DecodeServer::erase_if_empty_locked(
    const std::shared_ptr<BatchGroup>& group) {
  if (!group || group->size() > 0) return;
  // Only this group's own entry: a same-key successor may already exist.
  auto it = groups_.find(group->key());
  if (it != groups_.end() && it->second->group == group) groups_.erase(it);
}

void DecodeServer::handle_ejections_locked(
    const std::shared_ptr<BatchGroup>& group,
    const std::vector<SessionId>& ejected) {
  for (SessionId id : ejected) {
    auto it = slots_.find(id);
    if (it == slots_.end()) continue;
    Slot& slot = it->second;
    slot.unit = std::make_shared<Unit>();
    slot.unit->session = slot.session;
    if (!stopping_ && slot.session->queue_depth() > 0) {
      dispatch_locked(slot.unit);
    }
  }
  if (!ejected.empty()) erase_if_empty_locked(group);
}

std::size_t DecodeServer::run_next(bool decode_only) {
  std::shared_ptr<Unit> unit;
  Job job = Job::kDecode;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ready_.empty()) {
      unit = std::move(ready_.front());
      ready_.pop_front();
    } else if (!decode_only && !prepare_.empty()) {
      unit = std::move(prepare_.front());
      prepare_.pop_front();
      unit->prepare_queued = false;
      job = Job::kPrepare;
    } else {
      return 0;  // a token whose unit was cancelled or promoted
    }
  }
  return run(unit, job);
}

std::size_t DecodeServer::run(const std::shared_ptr<Unit>& unit, Job job) {
  std::shared_ptr<Session> session;
  std::shared_ptr<BatchGroup> group;
  bool stopping = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session = unit->session;
    group = unit->group;
    stopping = stopping_;
  }
  // A precompute never starts ahead of a bin: one that arrived after the
  // unit was queued (but before submit() could promote it) decodes now.
  if (job == Job::kPrepare && has_bins(session.get(), group.get()))
    job = Job::kDecode;
  BatchGroup::StepResult result;
  if (!stopping) result = step_timed(session.get(), group.get(), job);
  std::lock_guard<std::mutex> lock(mu_);
  handle_ejections_locked(group, result.ejected);
  // Atomically (under mu_) decide: more bins -> stay scheduled and decode
  // again; a next gain to precompute -> stay scheduled at low priority;
  // else park.  submit() checks `scheduled` under the same mutex, so a bin
  // enqueued concurrently is never stranded.
  if (!stopping_ && has_bins(unit->session.get(), group.get())) {
    enqueue_locked(unit, Job::kDecode);
  } else if (!stopping_ && job != Job::kPrepare &&
             wants_prepare_locked(*unit)) {
    enqueue_locked(unit, Job::kPrepare);
  } else {
    unit->scheduled = false;
    --scheduled_count_;
    drain_cv_.notify_all();
  }
  return result.steps;
}

bool DecodeServer::wants_prepare_locked(const Unit& unit) const {
  if (unit.group) return unit.group->wants_prepare();
  return unit.session && unit.session->wants_prepare();
}

std::size_t DecodeServer::poll() { return run_next(/*decode_only=*/false); }

void DecodeServer::drain() {
  if (!pool_) {
    // Manual mode: pump decodes on the calling thread until none is ready;
    // precomputes stay queued for later poll() calls.
    while (run_next(/*decode_only=*/true) > 0 || [this] {
      std::lock_guard<std::mutex> lock(mu_);
      return !ready_.empty();
    }()) {
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  drain_cv_.wait(lock, [this] { return scheduled_count_ == 0 || stopping_; });
}

std::shared_ptr<Session> DecodeServer::find(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  return it == slots_.end() ? nullptr : it->second.session;
}

std::vector<Vector<double>> DecodeServer::trajectory(SessionId id) const {
  auto session = find(id);
  return session ? session->trajectory() : std::vector<Vector<double>>{};
}

std::vector<Vector<double>> DecodeServer::trajectory_slice(
    SessionId id, std::size_t from, std::size_t to) const {
  auto session = find(id);
  return session ? session->trajectory_slice(from, to)
                 : std::vector<Vector<double>>{};
}

[[nodiscard]] Status DecodeServer::checkpoint_session(
    SessionId id, SessionSnapshot* out) const {
  auto session = find(id);
  if (!session) return Status::Invalid("checkpoint: unknown session");
  session->checkpoint(out);
  if (telemetry::enabled()) {
    auto& blackbox = telemetry::FlightRecorder::global();
    blackbox.record(telemetry::FlightEventKind::kSnapshotTaken, id, out->steps,
                    out->iteration);
  }
  return Status::Ok();
}

bool DecodeServer::remove_session(SessionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) return false;
  Slot& slot = it->second;
  const std::shared_ptr<BatchGroup> group = slot.unit->group;
  if (group) {
    group->remove(id);
    erase_if_empty_locked(group);
  } else {
    // A precompute that has not started is cancelled; its worker token
    // finds nothing to run.
    if (slot.unit->prepare_queued) {
      prepare_.erase(std::find(prepare_.begin(), prepare_.end(), slot.unit));
      slot.unit->prepare_queued = false;
      slot.unit->scheduled = false;
      --scheduled_count_;
    }
    // Pool mode: a worker may be inside the session right now — refuse.
    // Manual mode with quiesced pumping (the migration contract): a token
    // still queued for the emptied unit parks on its next poll().
    if (slot.unit->scheduled && pool_) return false;
    slot.unit->session.reset();
  }
  if (!slot.session->closed()) sessions_open_gauge().add(-1.0);
  slots_.erase(it);
  drain_cv_.notify_all();
  return true;
}

std::size_t DecodeServer::queued_now() const {
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(slots_.size());
    for (const auto& [id, slot] : slots_) sessions.push_back(slot.session);
  }
  std::size_t queued = 0;
  for (const auto& s : sessions) {
    if (s) queued += s->queue_depth();
  }
  return queued;
}

bool DecodeServer::shed_oldest(SessionId id) {
  auto session = find(id);
  return session && session->shed_oldest();
}

std::deque<Vector<double>> DecodeServer::steal_queue(SessionId id) {
  auto session = find(id);
  return session ? session->steal_queue() : std::deque<Vector<double>>{};
}

std::vector<core::IterationTiming> DecodeServer::timings(SessionId id) const {
  auto session = find(id);
  return session ? session->timings() : std::vector<core::IterationTiming>{};
}

SessionStatsSnapshot DecodeServer::session_stats(SessionId id) const {
  auto session = find(id);
  return session ? session->stats() : SessionStatsSnapshot{};
}

std::size_t DecodeServer::session_steps(SessionId id) const {
  auto session = find(id);
  return session ? session->steps() : 0;
}

ServerStats DecodeServer::stats() const {
  ServerStats out;
  std::vector<std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.reserve(slots_.size());
    // Every group some session decodes in — including a restored stream's
    // seeded one-member group, which groups_ does not register.
    std::unordered_set<const BatchGroup*> groups;
    for (const auto& [id, slot] : slots_) {
      sessions.push_back(slot.session);
      if (!slot.session->closed()) ++out.sessions;
      if (const BatchGroup* g = slot.unit->group.get()) groups.insert(g);
    }
    out.batch_groups = groups.size();
  }
  for (const auto& session : sessions) {
    SessionStatsSnapshot s = session->stats();
    if (s.batched) ++out.batched_sessions;
    out.total_batched_steps += s.batched_steps;
    out.total_steps += s.steps;
    out.total_deadline_misses += s.deadline_misses;
    out.total_rejected += s.rejected;
    out.total_dropped += s.dropped;
    out.total_discarded += s.discarded;
    out.queued += s.queue_depth;
    out.total_invalid_steps += s.invalid_steps;
    out.total_restarts += s.restarts;
    out.total_degradations += s.degradations;
    out.total_quarantine_dropped += s.quarantine_dropped;
    out.total_prepared_steps += s.prepared_steps;
    out.total_unprepared_steps += s.unprepared_steps;
    out.total_prepared_dropped += s.prepared_dropped;
    switch (s.state) {
      case SessionState::kDegraded: ++out.degraded_sessions; break;
      case SessionState::kQuarantined: ++out.quarantined_sessions; break;
      case SessionState::kFailed: ++out.failed_sessions; break;
      case SessionState::kHealthy: break;
    }
    out.per_session.push_back(std::move(s));
  }
  out.uptime_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  out.steps_per_second =
      out.uptime_s > 0.0 ? double(out.total_steps) / out.uptime_s : 0.0;
  out.total_arrival_steps = arrival_steps_.load(std::memory_order_relaxed);
  out.worker_busy_s =
      double(busy_us_.load(std::memory_order_relaxed)) * 1e-6;
  const double lanes = double(std::max(1u, workers()));
  out.worker_utilization =
      out.uptime_s > 0.0
          ? std::min(1.0, out.worker_busy_s / (out.uptime_s * lanes))
          : 0.0;
  out.step_latency = latency_.summarize();
  out.deadline_slo =
      out.total_steps > 0
          ? double(out.total_steps - out.total_deadline_misses) /
                double(out.total_steps)
          : 1.0;
  const kalman::GainScheduleCache::Stats cache_stats = cache_.stats();
  out.gain_cache_hits = cache_stats.hits;
  out.gain_cache_misses = cache_stats.misses;
  out.gain_cache_evictions = cache_stats.evictions;
  out.gain_cache_collisions = cache_stats.collisions;
  // Publish the snapshot-only gauges.  sessions_open and queued_bins are
  // not set here: sessions maintain them incrementally across every server
  // in the process.  The gauges below are per-server values, so with
  // several servers (a cluster's shards) they hold whichever server's
  // stats() ran last.
  auto& registry = telemetry::MetricsRegistry::global();
  registry.gauge("kalmmind.serve.worker_utilization")
      .set(out.worker_utilization);
  registry.gauge("kalmmind.serve.sessions_quarantined")
      .set(double(out.quarantined_sessions));
  registry.gauge("kalmmind.serve.sessions_degraded")
      .set(double(out.degraded_sessions));
  registry.gauge("kalmmind.serve.sessions_batched")
      .set(double(out.batched_sessions));
  registry.gauge("kalmmind.serve.batch_groups").set(double(out.batch_groups));
  registry.gauge("kalmmind.serve.slo_attainment").set(out.deadline_slo);
  return out;
}

std::string ServerStats::to_string() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "sessions   : %zu open, %zu queued bins\n", sessions, queued);
  out += line;
  std::snprintf(line, sizeof(line),
                "throughput : %zu steps in %.3f s  (%.1f steps/s)\n",
                total_steps, uptime_s, steps_per_second);
  out += line;
  std::snprintf(line, sizeof(line),
                "workers    : %.3f s busy  (%.1f%% utilization); "
                "%zu bins decoded by submit() on arrival, not in busy time\n",
                worker_busy_s, worker_utilization * 100.0,
                total_arrival_steps);
  out += line;
  std::snprintf(line, sizeof(line),
                "latency    : p50 %.3f ms  p99 %.3f ms  max %.3f ms  "
                "(%zu samples)\n",
                step_latency.p50_s * 1e3, step_latency.p99_s * 1e3,
                step_latency.max_s * 1e3, step_latency.samples);
  out += line;
  std::snprintf(line, sizeof(line),
                "quality    : %zu deadline misses, %zu rejected, %zu dropped, "
                "%zu discarded\n",
                total_deadline_misses, total_rejected, total_dropped,
                total_discarded);
  out += line;
  double worst_p99 = 0.0;
  for (const auto& s : per_session) {
    worst_p99 = std::max(worst_p99, s.p99_step_s);
  }
  std::snprintf(line, sizeof(line),
                "slo        : %.2f%% deadline attainment  "
                "(worst session p99 %.3f ms)\n",
                deadline_slo * 100.0, worst_p99 * 1e3);
  out += line;
  std::snprintf(line, sizeof(line),
                "health     : %zu degraded, %zu quarantined, %zu failed  "
                "(%zu restarts, %zu degradations, %zu invalid steps)\n",
                degraded_sessions, quarantined_sessions, failed_sessions,
                total_restarts, total_degradations, total_invalid_steps);
  out += line;
  std::snprintf(line, sizeof(line),
                "batching   : %zu groups, %zu batched sessions, "
                "%zu batched steps  (gain cache: %llu hits, %llu misses, "
                "%llu evictions)\n",
                batch_groups, batched_sessions, total_batched_steps,
                (unsigned long long)gain_cache_hits,
                (unsigned long long)gain_cache_misses,
                (unsigned long long)gain_cache_evictions);
  out += line;
  std::snprintf(line, sizeof(line),
                "precompute : %zu bins found their gain prepared, %zu did "
                "not, %zu prepared gains dropped\n",
                total_prepared_steps, total_unprepared_steps,
                total_prepared_dropped);
  out += line;
  return out;
}

}  // namespace kalmmind::serve
