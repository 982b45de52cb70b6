// Batched same-config serving: N sessions sharing one GainSchedule step
// together through a fused, SoA-style kernel pass (docs/serving.md).
//
// Per decoded bin, a solo session pays the full reorganized-filter step —
// dominated by the measurement-INDEPENDENT gain path (P', S, S^-1, K:
// O(z^2 x + z^3-ish) work).  Sessions with equal FilterConfigs walk
// identical gain trajectories, so a BatchGroup reads K_n from the shared
// schedule (computed once per config, amortized across every member) and
// fuses only the measurement-dependent remainder of the cohort:
//
//   X' = F X            one batched small-GEMM over the state panel
//   N  = Z - H X'       innovation panel
//   X  = X' + K_n N     correction panel
//
// where X/Z pack one session per COLUMN (SoA panels: the batch dimension
// is innermost, so linalg::batched_multiply_into runs vector lanes across
// the cohort and one broadcast of each F/H/K coefficient feeds every
// session — the only way to fill a vector unit when the per-session
// operator is just x = 6 wide; see the batched series in
// bench/micro_kernels).  Every output element keeps the exact per-element
// accumulation shape (and per-tier FMA policy) of the dispatched solo
// matvec (single accumulator, shared dimension ascending — see
// linalg/ops.hpp and linalg/simd/simd.hpp), so a batched decode is
// bit-identical to the solo path at any fixed dispatch tier.
//
// Scheduling: a group is one DecodeServer scheduling unit, exactly like a
// solo session — one consumer at a time, `scheduled` flag at unit
// granularity.  Each scheduling quantum runs up to max_batch rounds; a
// round pops at most one bin per member through the session's own
// self-healing gate (Session::pop_gated) and groups the poppers into
// cohorts by schedule iteration (members drift apart through quarantine
// restarts: a restarted stream decodes from iteration 0 while its peers
// are far ahead — each cohort gets its own fused pass).  The fused pass
// only produces each member's next state; Session::note_batch_result then
// runs the same guard and recorded-decode bookkeeping as a solo step.
// Between quanta the server may run a one-member group's precompute
// (prepare_next), which extends the schedule to the member's next
// iteration so the next pass finds its K already computed.
//
// Fall-out:
//  * divergence -> quarantine/restart handled inside the session's gate,
//    staying in the group (restart = x0, schedule iteration 0);
//  * deadline-ladder degradation -> the session swaps to the cheap
//    constant-gain solo filter and leaves the group;
//  * schedule window miss (a member so far behind its iteration slid out
//    of the bounded schedule window) -> the popped bin is requeued and the
//    session falls back to the solo path, carrying x from the batch state
//    and P from its last consumed schedule entry.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/realtime.hpp"
#include "kalman/gain_schedule.hpp"
#include "serve/session.hpp"
#include "serve/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::serve {

class BatchGroup {
 public:
  explicit BatchGroup(std::shared_ptr<kalman::GainSchedule> schedule)
      : schedule_(std::move(schedule)) {}

  std::uint64_t key() const { return schedule_->fingerprint(); }
  const kalman::FilterConfig<double>& config() const {
    return schedule_->config();
  }
  const std::shared_ptr<kalman::GainSchedule>& schedule() const {
    return schedule_;
  }

  // Membership is mutated by server threads (admission / ejection cleanup)
  // while a worker may be mid-pass: guarded by its own mutex, snapshotted
  // per pass.  A member added mid-pass joins the next pass.
  void add(std::shared_ptr<Session> session) {
    std::lock_guard<std::mutex> lock(members_mu_);
    members_.push_back(std::move(session));
  }

  void remove(SessionId id) {
    std::lock_guard<std::mutex> lock(members_mu_);
    members_.erase(std::remove_if(members_.begin(), members_.end(),
                                  [id](const std::shared_ptr<Session>& s) {
                                    return s->id() == id;
                                  }),
                   members_.end());
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(members_mu_);
    return members_.size();
  }

  bool pending() const {
    std::vector<std::shared_ptr<Session>> members;
    {
      std::lock_guard<std::mutex> lock(members_mu_);
      members = members_;
    }
    for (const auto& m : members) {
      if (m->queue_depth() > 0) return true;
    }
    return false;
  }

  // Precompute (docs/serving.md; owner of the group's scheduling unit,
  // between quanta): extend a one-member group's schedule through the
  // iteration its member decodes next, so its next pass only reads K.
  void prepare_next() {
    if (const auto n = next_uncomputed()) (void)schedule_->at(*n);
  }

  // Whether prepare_next() has work: the only member's next iteration is
  // not computed yet.
  bool wants_prepare() const { return next_uncomputed().has_value(); }

  struct StepResult {
    std::size_t steps = 0;              // bins consumed (decoded or gated)
    std::vector<SessionId> ejected;     // now solo: reschedule individually
  };

  // One scheduling quantum.  Single consumer at a time (the server's
  // group-level `scheduled` flag) — the same contract as
  // Session::step_pending.
  StepResult step_pending(std::size_t max_batch, LatencyRecorder* recorder) {
    StepResult result;
    std::vector<std::shared_ptr<Session>> members;
    {
      std::lock_guard<std::mutex> lock(members_mu_);
      members = members_;
    }
    for (std::size_t round = 0; round < max_batch; ++round) {
      cohort_.clear();
      bool consumed_any = false;
      for (auto& m : members) {
        if (!m) continue;
        Vector<double> z;
        switch (m->pop_gated(&z)) {
          case GatedPop::kEmpty:
            continue;
          case GatedPop::kDropped:
            ++result.steps;
            consumed_any = true;
            continue;
          case GatedPop::kDecode:
            break;
        }
        consumed_any = true;
        cohort_.push_back({m.get(), std::move(z), m->batch_iteration()});
      }
      if (cohort_.empty()) {
        if (!consumed_any) break;  // every queue empty: quantum over
        continue;
      }
      // Cohorts: contiguous runs of equal schedule iteration.
      std::stable_sort(cohort_.begin(), cohort_.end(),
                       [](const Item& a, const Item& b) { return a.n < b.n; });
      std::size_t begin = 0;
      while (begin < cohort_.size()) {
        std::size_t end = begin + 1;
        while (end < cohort_.size() && cohort_[end].n == cohort_[begin].n) {
          ++end;
        }
        run_cohort(begin, end, recorder, &result, members);
        begin = end;
      }
    }
    return result;
  }

 private:
  // The iteration the group's only member runs its next bin at, if it
  // will decode one (Session::decodes_next: not closed, quarantined or
  // failed) and the schedule has not computed it yet.  A group of several
  // members precomputes nothing: its cohort pass computes each entry once
  // for every member, and reading every member's state between quanta to
  // decide whether a precompute is due cost a 1,024-member fleet more bin
  // latency than the precomputed entries saved (docs/serving.md).
  std::optional<std::size_t> next_uncomputed() const {
    std::lock_guard<std::mutex> lock(members_mu_);
    if (members_.size() != 1 || !members_.front()->decodes_next())
      return std::nullopt;
    const std::size_t n = members_.front()->batch_iteration();
    if (n < schedule_->computed()) return std::nullopt;
    return n;
  }

  struct Item {
    Session* session;
    Vector<double> z;
    std::size_t n;  // schedule iteration this bin decodes at
  };

  // Fused pass over cohort_[begin, end), all at the same iteration n.
  void run_cohort(std::size_t begin, std::size_t end,
                  LatencyRecorder* recorder, StepResult* result,
                  std::vector<std::shared_ptr<Session>>& members)
      KALMMIND_REALTIME {
    const std::size_t n = cohort_[begin].n;
    // The cohort's compute time starts before the schedule probe: a probe
    // that has to extend the schedule computes this iteration's K/P, which
    // is part of decoding the cohort (docs/serving.md).
    const auto t0 = std::chrono::steady_clock::now();
    bool precomputed = false;
    const std::shared_ptr<const kalman::GainSchedule::Entry> entry =
        // kalmmind-lint: allow(RT1,RT2) one bounded schedule-cache probe per cohort pass, amortized over every member; advance past a window boundary allocates the next entry for the whole fleet
        schedule_->at(n, &precomputed);
    if (!entry) {
      // Window miss: these members fell behind the bounded schedule.  The
      // popped bins go back to the queue head and the sessions continue
      // solo, in order.
      for (std::size_t i = begin; i < end; ++i) {
        // kalmmind-lint: allow(RT1,RT2) window-miss fall-out: the member is leaving the realtime cohort, and the requeue takes its own session lock on the exit path only
        cohort_[i].session->requeue_front(std::move(cohort_[i].z));
        // kalmmind-lint: allow(RT1,RT2,RT3) ejection rebuilds the member's solo filter outside the cohort's deadline — the documented fall-out slow path
        cohort_[i].session->eject_to_solo();
        if (telemetry::enabled()) {
          auto& blackbox = telemetry::FlightRecorder::global();
          blackbox.record(telemetry::FlightEventKind::kBatchFallOut,
                          cohort_[i].session->id(), 0, n, 0.0, "window_miss");
        }
        // kalmmind-lint: allow(RT1,RT2) membership surgery runs only for a member that already fell out of the cohort; the surviving members' pass is untouched
        drop_member(cohort_[i].session->id(), result, members);
      }
      return;
    }

    const PrepareOutcome outcome =
        precomputed ? PrepareOutcome::kUsed : PrepareOutcome::kMissed;
    const kalman::FilterConfig<double>& cfg = schedule_->config();
    const std::size_t m = end - begin;
    const std::size_t x_dim = cfg.model.x_dim();
    const std::size_t z_dim = cfg.model.z_dim();

    // Gather the SoA panels: one session per COLUMN (batch dim innermost).
    x_panel_.resize_for_overwrite(x_dim, m);
    nu_panel_.resize_for_overwrite(z_dim, m);
    for (std::size_t i = 0; i < m; ++i) {
      const Vector<double>& x = cohort_[begin + i].session->batch_state();
      for (std::size_t j = 0; j < x_dim; ++j) x_panel_(j, i) = x[j];
      const Vector<double>& z = cohort_[begin + i].z;
      for (std::size_t j = 0; j < z_dim; ++j) nu_panel_(j, i) = z[j];
    }

    // X' = F X ; N = Z - H X' ; X = X' + K N.  Same per-element
    // accumulation as the solo matvecs (see the header comment).
    linalg::batched_multiply_into(xp_panel_, cfg.model.f, x_panel_);
    linalg::batched_multiply_into(hx_panel_, cfg.model.h, xp_panel_);
    nu_panel_ -= hx_panel_;
    linalg::batched_multiply_into(corr_panel_, entry->k, nu_panel_);
    xp_panel_ += corr_panel_;

    // Scatter back to one-session-per-row for the per-member handoff.
    xn_block_.resize_for_overwrite(m, x_dim);
    for (std::size_t i = 0; i < m; ++i) {
      double* xr = xn_block_.row(i);
      for (std::size_t j = 0; j < x_dim; ++j) xr[j] = xp_panel_(j, i);
    }

    const auto t1 = std::chrono::steady_clock::now();
    const double per_step =
        std::chrono::duration<double>(t1 - t0).count() / double(m);

    for (std::size_t i = 0; i < m; ++i) {
      Session* session = cohort_[begin + i].session;
      // kalmmind-lint: allow(RT1,RT2) per-member result handoff takes the session's own lock, uncontended while the session is batched; the divergence branches inside (quarantine, postmortem) are the self-healing slow path
      const bool degraded = session->note_batch_result(
          entry, xn_block_.row(i), t0, per_step, recorder, outcome);
      ++result->steps;
      if (degraded) {
        if (telemetry::enabled()) {
          auto& blackbox = telemetry::FlightRecorder::global();
          blackbox.record(telemetry::FlightEventKind::kBatchEject,
                          session->id(), 0, n, 0.0, "degraded");
        }
        // kalmmind-lint: allow(RT1,RT2) a degraded member's ejection is terminal: surgery happens after its last realtime step
        drop_member(session->id(), result, members);
      }
    }
  }

  void drop_member(SessionId id, StepResult* result,
                   std::vector<std::shared_ptr<Session>>& members) {
    result->ejected.push_back(id);
    remove(id);
    for (auto& m : members) {
      if (m && m->id() == id) m.reset();  // skip in later rounds of this pass
    }
  }

  const std::shared_ptr<kalman::GainSchedule> schedule_;

  mutable std::mutex members_mu_;
  std::vector<std::shared_ptr<Session>> members_;

  // Pass-local scratch, reused across quanta (single consumer): the SoA
  // state/measurement panels (dim x cohort) plus the row-major handoff
  // block, and the cohort list.  Steady state allocates nothing once the
  // cohort size stabilizes.
  std::vector<Item> cohort_;
  Matrix<double> x_panel_, xp_panel_, hx_panel_, nu_panel_, corr_panel_,
      xn_block_;
};

}  // namespace kalmmind::serve
