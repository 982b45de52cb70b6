#include "openloop.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

namespace perfbench {

namespace {
constexpr std::uint64_t kPhaseStream = 4;
// A bounced bin is retried after this long (the shard is mid-migration or
// the queue is full); retrying every loop pass would only inflate attempts.
constexpr auto kRetryDelay = std::chrono::microseconds(1000);
}  // namespace

void SubmitCounts::note(SubmitOutcome r) {
  ++attempts;
  switch (r) {
    case SubmitOutcome::kAccepted: ++accepted; break;
    case SubmitOutcome::kRejectedFull: ++rejected_full; break;
    case SubmitOutcome::kOverloaded: ++overloaded; break;
    case SubmitOutcome::kUnavailable: ++unavailable; break;
    case SubmitOutcome::kError: ++errors; break;
  }
}

PacedPlan::PacedPlan(std::size_t sessions_, std::size_t bins_,
                     std::vector<std::size_t> base_bin_, std::uint64_t seed)
    : sessions(sessions_),
      bins(bins_),
      base_bin(std::move(base_bin_)),
      phase_s(sessions_),
      accepted(new std::atomic<std::size_t>[sessions_]) {
  // Independent users: each session's phase offset is drawn on its own,
  // uniformly over the period, so arrivals bunch as they would in the field.
  for (std::size_t s = 0; s < sessions; ++s) {
    phase_s[s] = period_s * unit_from(derive_seed(seed, kPhaseStream, s));
    accepted[s].store(0);
  }
}

Generator::Generator(PacedPlan& plan, const Streams& streams, Backend& backend,
                     bool trace)
    : plan_(plan),
      streams_(streams),
      backend_(backend),
      trace_(trace),
      order_(plan.sessions),
      next_bin_(plan.sessions, 0),
      released_(plan.sessions, 0),
      retry_at_(plan.sessions) {
  std::iota(order_.begin(), order_.end(), std::size_t(0));
  std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
    return plan_.phase_s[a] < plan_.phase_s[b];
  });
  lag_ms.reserve(plan.sessions * plan.bins);
}

bool Generator::try_submit(std::size_t s, Clock::time_point now) {
  const std::size_t k = next_bin_[s];
  const bool timed = trace_ && PacedPlan::traced_session(s);
  const auto t0 = timed ? Clock::now() : Clock::time_point{};
  const SubmitOutcome r =
      backend_.submit(s, streams_.bin(s, plan_.base_bin[s] + k));
  if (timed) submit_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  counts.note(r);
  if (r != SubmitOutcome::kAccepted) {
    retry_at_[s] = now + kRetryDelay;
    return false;
  }
  ++next_bin_[s];
  plan_.accepted[s].store(next_bin_[s], std::memory_order_release);
  return true;
}

Clock::time_point Generator::step() {
  const auto now = Clock::now();
  const double t = seconds_between(plan_.t0, now);
  const std::size_t total = plan_.sessions * plan_.bins;

  // Retry bounced bins first: a session's bins go out strictly in order.
  for (std::size_t i = 0; i < backlog_.size();) {
    const std::size_t s = backlog_[i];
    bool blocked = false;
    while (next_bin_[s] < released_[s]) {
      if (now < retry_at_[s] || !try_submit(s, now)) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      ++i;
    } else {
      backlog_[i] = backlog_.back();
      backlog_.pop_back();
    }
  }

  while (next_event_ < total) {
    const std::size_t s = order_[next_event_ % plan_.sessions];
    const std::size_t k = next_event_ / plan_.sessions;
    if (plan_.due_s(s, k) > t) break;
    ++next_event_;
    ++released_[s];
    lag_ms.push_back((t - plan_.due_s(s, k)) * 1e3);
    if (next_bin_[s] + 1 < released_[s]) continue;  // already backlogged
    if (!try_submit(s, now)) backlog_.push_back(s);
  }

  done_ = next_event_ == total && backlog_.empty();
  if (next_event_ >= total) return now + std::chrono::milliseconds(1);
  const std::size_t s = order_[next_event_ % plan_.sessions];
  const std::size_t k = next_event_ / plan_.sessions;
  return plan_.t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(plan_.due_s(s, k)));
}

Observer::Observer(const PacedPlan& plan, Backend& backend)
    : plan_(plan),
      backend_(backend),
      seen_(plan.sessions, 0) {
  latency_ms.reserve(plan.sessions * plan.bins);
  latency_due_s.reserve(plan.sessions * plan.bins);
  latency_session.reserve(plan.sessions * plan.bins);
}

void Observer::pass() {
  const auto start = Clock::now();
  if (last_pass_ != Clock::time_point{})
    pass_gap_ms.push_back(seconds_between(last_pass_, start) * 1e3);
  last_pass_ = start;
  for (std::size_t s = 0; s < plan_.sessions; ++s) {
    const std::size_t acc = plan_.accepted[s].load(std::memory_order_acquire);
    if (seen_[s] >= acc) continue;
    const std::size_t base = plan_.base_bin[s];
    const std::size_t known = base + seen_[s];
    const std::size_t now_decoded =
        std::min(backend_.decoded(s, known, base + acc), base + acc);
    if (now_decoded <= known) continue;
    const double t_obs_s = seconds_between(plan_.t0, Clock::now());
    for (std::size_t k = seen_[s]; k < now_decoded - base; ++k) {
      latency_ms.push_back((t_obs_s - plan_.due_s(s, k)) * 1e3);
      latency_due_s.push_back(plan_.due_s(s, k));
      latency_session.push_back(std::uint32_t(s));
    }
    seen_[s] = now_decoded - base;
  }
}

bool Observer::caught_up() const {
  for (std::size_t s = 0; s < plan_.sessions; ++s) {
    if (seen_[s] < plan_.accepted[s].load(std::memory_order_acquire))
      return false;
  }
  return true;
}

}  // namespace perfbench
