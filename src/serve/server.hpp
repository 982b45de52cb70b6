// The streaming multi-session decode engine: many concurrent BCI sessions
// scheduled over one shared serve::ThreadPool.
//
// Scheduling model (run-to-ready, one owner per scheduling unit).  A unit
// is either one solo session or one BatchGroup; both take the same path:
//  * submit() enqueues a bin into the session's bounded queue, then, under
//    mu_, looks at the session's unit.  The `scheduled` flag marks a unit
//    that has an owner (a thread running it, or a queued job); whoever
//    sets it owns the unit until the same run clears it.
//  * Decode on arrival.  In pool mode, a solo session whose unit is idle
//    (not scheduled) and whose filter already holds its prepared gain
//    (Session::arrival_ready: healthy, not degraded or quarantined) is run
//    by submit() itself: it marks the unit scheduled and runs one bin, the
//    ~3 µs correction, on the calling thread before it returns.  The
//    producer pays about one correction; the bin never waits for a worker
//    (the paper's Fig. 3b measurement datapath).
//  * Every other bin — unprepared, its precompute queued or running, a
//    degraded or quarantined session, a group, and every manual-mode
//    server (so a cluster's shards and poll() counts are unchanged) — marks
//    an idle unit scheduled and queues it for decoding.
//  * One ready structure with two priorities holds the scheduled units
//    waiting for a worker: units with bins to decode, and idle units whose
//    next gain can be precomputed.  Pool workers and manual-mode poll()
//    (which runs one unit on the calling thread — deterministic tests,
//    single-threaded embedding) take from it alike, decode units first.
//  * The unit body — run(), for worker, poll() and arrival alike — steps
//    the unit for one quantum (up to max_batch bins, rounds of one bin per
//    member for a group, one bin on arrival), then either re-queues it
//    (more bins arrived meanwhile), queues its precompute, or clears the
//    scheduled flag.  At most one thread ever owns a given unit, so
//    per-session decode order — and the decoded trajectory — is exactly the
//    single-threaded result, bit for bit.
//  * Precompute (docs/serving.md): the measurement-independent half of a
//    unit's next decode — P', S, S^-1, K and the next P, which never read
//    the bin (PAPER.md pillar 1) — runs in idle worker time right after the
//    unit's last bin, so the next bin pays only its correction.  A solo
//    session prepares its filter (KalmanFilter::prepare_next), a one-member
//    group extends its schedule to its member's next iteration; a larger
//    group precomputes nothing.  A bin arriving while the precompute still
//    waits promotes the unit to a decode; one arriving while it runs is
//    decoded by a worker right after it.
//
// Batched serving (docs/serving.md): with ServerOptions::batching on,
// sessions admitted with equal FilterConfigs (health disabled) share a
// GainSchedule from the server's GainScheduleCache and decode together in
// a BatchGroup.
// Sessions that degrade or fall out of the schedule window eject back to
// the solo path and get a unit of their own.  A group whose last member is
// removed or ejected is erased, releasing its schedule; a token still
// queued for it parks on its next turn.
//
// Session admission is exception-free: open_session() and
// restore_session() validate via the Status-returning check() chain and
// report failure through a Status.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "kalman/gain_schedule.hpp"
#include "serve/batch_group.hpp"
#include "serve/session.hpp"
#include "serve/snapshot.hpp"
#include "serve/stats.hpp"
#include "serve/thread_pool.hpp"

namespace kalmmind::serve {

struct ServerOptions {
  // Pool width.  0 => one worker per hardware thread.  kManual (no pool)
  // requires poll() to make progress.
  static constexpr unsigned kManual = ~0u;
  unsigned workers = 0;
  // Bins decoded per scheduling quantum before a session yields its worker
  // (bounds head-of-line blocking across sessions).  For a BatchGroup this
  // is rounds of one-bin-per-member.
  std::size_t max_batch = 8;
  // Batched serving (docs/serving.md).  When enabled, same-config sessions
  // share a cached gain schedule and decode through fused SoA passes.
  bool batching = true;
  // Distinct filter configs whose schedules stay cached (LRU beyond this).
  std::size_t gain_cache_capacity = 16;
  // Trailing K/P entries each schedule keeps (see GainSchedule).  At paper
  // dims no schedule settles into a bitwise fixed point or calc_freq
  // cycle, so there is no shorter exact representation (docs/serving.md).
  std::size_t gain_window = kalman::GainSchedule::kDefaultWindow;
  // First session id this server hands out.  The cluster gives each shard
  // (incarnation) a disjoint id range so flight-recorder journals — keyed
  // by session id process-wide — never interleave across shards.  0 is
  // kInvalidSession and is bumped to 1.
  SessionId session_id_base = 1;
};

// What close_session does with bins that are queued but not yet decoded.
enum class CloseMode {
  kDrain,    // they still decode; the stream just stops accepting submits
  kDiscard,  // they are dropped now and counted as discarded
};

class DecodeServer {
 public:
  static constexpr SessionId kInvalidSession = 0;

  explicit DecodeServer(ServerOptions options = {});
  // Drains nothing: in-flight batches finish, workers join, and every
  // queued-but-undecoded bin is discarded — but *counted*, into each
  // session's discarded tally and kalmmind.serve.discarded_total, so a
  // teardown never loses bins silently.  Call drain() first for a lossless
  // stop.
  ~DecodeServer();

  DecodeServer(const DecodeServer&) = delete;
  DecodeServer& operator=(const DecodeServer&) = delete;

  // Admit a session.  On failure returns kInvalidSession and, if `status`
  // is non-null, why.  Never throws for invalid configs.
  SessionId open_session(SessionConfig config, Status* status = nullptr);

  // Enqueue one measurement bin for decoding.  In pool mode, a bin whose
  // solo session is idle with its gain prepared is decoded on the calling
  // thread before this returns (see the scheduling model above).  A bin
  // whose size is not the session's z_dim is refused (kRejectedInvalid).
  PushResult submit(SessionId id, Vector<double> z);

  // Stop accepting bins for the session.  kDrain (default): already-queued
  // bins still decode.  kDiscard: they are dropped immediately and counted
  // in the session's discarded tally (SessionStatsSnapshot::discarded and
  // ServerStats::total_discarded).  The session's trajectory/stats stay
  // readable until the server dies.  Returns false for an unknown id.
  bool close_session(SessionId id, CloseMode mode = CloseMode::kDrain);

  // Block until every queued bin (across all sessions) has been decoded.
  // Pool mode waits until the workers are idle, so the precomputes that
  // follow those bins are done too.  Manual mode pumps decodes on the
  // calling thread and leaves precomputes to later poll() calls, so a
  // manual caller decides when that work runs.
  void drain();

  // Manual mode: run one ready unit on the calling thread — a unit with
  // bins to decode if there is one, else one precompute.  Returns the
  // number of bins consumed (0 = nothing to decode: a precompute ran, or
  // nothing was ready).
  std::size_t poll();

  std::vector<Vector<double>> trajectory(SessionId id) const;
  // Decoded states [from, to) clamped to what exists (incremental prefix
  // copies for the cluster's post-failover trajectory concatenation).
  std::vector<Vector<double>> trajectory_slice(SessionId id, std::size_t from,
                                               std::size_t to) const;
  std::vector<core::IterationTiming> timings(SessionId id) const;
  SessionStatsSnapshot session_stats(SessionId id) const;
  // The session's decoded-bin count (0 for an unknown id): the cheap read
  // of SessionStatsSnapshot::steps, without the latency percentiles.
  std::size_t session_steps(SessionId id) const;
  ServerStats stats() const;

  // --- checkpoint / restore / migration (serve/snapshot.hpp) --------------

  // Capture the session's durable state, recursion state included (see
  // Session::checkpoint).  Safe from any thread; fails only for unknown ids.
  [[nodiscard]] Status checkpoint_session(SessionId id,
                                          SessionSnapshot* out) const;

  // Admit a session that resumes from a snapshot of any kind of session
  // (batched, solo, health-gated, degraded, ejected, quarantined): its
  // next decode runs at the snapshot's iteration and the continued
  // trajectory is bit-identical to the uninterrupted run.  The restore
  // runs no recursion step: a solo snapshot is imported into the session's own
  // filter; a batched one joins the live group of its config when that
  // group's window has not slid past the iteration (a group behind it
  // computes the iterations in between on its next cohort), and otherwise
  // seeds a schedule at the snapshot's head in a group of its own.  Fails
  // (kInvalidSession, reason in `status`) when the config's fingerprint or
  // dimensions do not match the snapshot, or its recursion state lacks a
  // matrix its flags require.
  SessionId restore_session(SessionConfig config, const SessionSnapshot& snap,
                            Status* status = nullptr);

  // Fully remove a session (migration hand-off: its state now lives on
  // another shard).  Manual-mode servers only, and the caller must have
  // quiesced poll() calls; with a thread pool a scheduled session (a worker
  // or a submit() on arrival owns it) cannot be safely removed and this
  // returns false.
  bool remove_session(SessionId id);

  // Current queued-bin total across sessions (O(sessions); the cluster's
  // admission watermark refresh).
  std::size_t queued_now() const;

  // Evict the oldest queued bin of `id` (ShedPolicy::kDropOldest).
  bool shed_oldest(SessionId id);

  // Move the session's queued bins out for lossless drain-migration.
  std::deque<Vector<double>> steal_queue(SessionId id);

  unsigned workers() const { return pool_ ? pool_->size() : 0; }

 private:
  // The scheduling unit: exactly one of `session` (solo) or `group` is set,
  // until removal or group erasure empties the unit.  Every field is
  // guarded by mu_.
  struct Unit {
    std::shared_ptr<Session> session;
    std::shared_ptr<BatchGroup> group;
    bool scheduled = false;  // a worker owns (or will own) this unit
    bool prepare_queued = false;  // waiting in prepare_, not yet started
  };

  // What the owner of a unit does with it: a decode quantum, a
  // precompute, or one bin decoded by submit() on the submitting thread.
  enum class Job { kDecode, kPrepare, kArrival };

  struct Slot {
    std::shared_ptr<Session> session;
    std::shared_ptr<Unit> unit;  // the session's own unit, or its group's
  };

  std::shared_ptr<Session> find(SessionId id) const;
  // Admission shared by open_session (snap == nullptr) and restore_session:
  // validate, build the Session (restored: prime it, seed its schedule),
  // join a group or take a solo unit.
  SessionId admit(SessionConfig config, const SessionSnapshot* snap,
                  Status* status);
  // mu_ held: the registered group of `session`'s config that can host a
  // stream whose next decode runs at `iteration`, or nullptr.
  std::shared_ptr<Unit> live_group_locked(const Session& session,
                                          std::size_t iteration) const;
  // mu_ held: add the slot's session to `unit`'s group.
  void join_group_locked(Slot& slot, std::shared_ptr<Unit> unit);
  // mu_ held: a bin arrived for `unit`.  An idle unit is marked scheduled
  // and queued for decoding; one whose precompute is still queued is
  // promoted to a decode.
  void dispatch_locked(const std::shared_ptr<Unit>& unit);
  // mu_ held: queue a scheduled unit for `job` and, in pool mode, post a
  // worker token for it.
  void enqueue_locked(std::shared_ptr<Unit> unit, Job job);
  // Worker body, for pool tokens and poll() alike: take the next unit
  // (decodes first; `decode_only` leaves precomputes queued) and run it.
  // Returns bins consumed.
  std::size_t run_next(bool decode_only);
  // Run one unit's job: a decode quantum, an arrival's one bin, or its
  // precompute (turned into a decode when bins arrived meanwhile), then
  // re-queue or park it.  The caller owns the unit (set `scheduled`).
  std::size_t run(const std::shared_ptr<Unit>& unit, Job job);
  // mu_ held: whether the unit's next decode can be precomputed.
  bool wants_prepare_locked(const Unit& unit) const;
  // Step one quantum of `job`.  A worker's quantum (decode or precompute)
  // is timed into the busy-time tally plus the
  // kalmmind.serve.worker_busy_us_total counter; an arrival's bin is
  // counted in arrival_steps_ instead.
  BatchGroup::StepResult step_timed(Session* session, BatchGroup* group,
                                    Job job);
  // mu_ held: give each ejected member a solo unit (scheduled if it has
  // pending bins), then erase `group` if it emptied.
  void handle_ejections_locked(const std::shared_ptr<BatchGroup>& group,
                               const std::vector<SessionId>& ejected);
  void erase_if_empty_locked(const std::shared_ptr<BatchGroup>& group);

  const ServerOptions options_;
  std::unique_ptr<ThreadPool> pool_;  // null in manual mode
  LatencyRecorder latency_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> busy_us_{0};  // summed pool-worker wall time
  std::atomic<std::size_t> arrival_steps_{0};  // bins run by submit()
  mutable kalman::GainScheduleCache cache_;

  mutable std::mutex mu_;
  std::condition_variable drain_cv_;
  std::unordered_map<SessionId, Slot> slots_;
  // Live groups by schedule fingerprint.
  std::unordered_map<std::uint64_t, std::shared_ptr<Unit>> groups_;
  // The ready structure: scheduled units waiting for a worker, by
  // priority.  Pool mode posts one worker token per queued unit; a token
  // takes whichever unit is first when it runs.
  std::deque<std::shared_ptr<Unit>> ready_;    // bins to decode
  std::deque<std::shared_ptr<Unit>> prepare_;  // precompute the next gain
  SessionId next_id_ = 1;
  std::size_t scheduled_count_ = 0;
  bool stopping_ = false;
};

}  // namespace kalmmind::serve
