// The open-loop arrival engine.  Each session emits one bin every 50 ms
// from a seeded phase offset, whether or not earlier bins have decoded.
// Every bin is timed from its due time, not from when it was sent, so a
// stall in the generator or the server shows up as latency of every bin
// due during the stall.
//
// The generator and the observer are separate objects so that the cluster
// workload can run them on different threads.  They share only the
// per-session accepted count (atomic).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

enum class SubmitOutcome { kAccepted, kRejectedFull, kOverloaded, kUnavailable, kError };

// How the engine talks to the system under test.
class Backend {
 public:
  virtual ~Backend() = default;
  virtual SubmitOutcome submit(std::size_t session, Vector<double> z) = 0;
  // Decoded-state count of `session`, given that `known` states were
  // already seen and at most `upto` can exist.  Must be a cheap read.
  virtual std::size_t decoded(std::size_t session, std::size_t known,
                              std::size_t upto) = 0;
};

struct SubmitCounts {
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t errors = 0;
  void note(SubmitOutcome r);
};

// Shared between generator and observer.
struct PacedPlan {
  std::size_t sessions = 0;
  std::size_t bins = 0;        // paced bins per session
  std::vector<std::size_t> base_bin;  // per session: index of paced bin 0
  double period_s = 0.05;
  Clock::time_point t0;
  std::vector<double> phase_s;  // per session
  std::unique_ptr<std::atomic<std::size_t>[]> accepted;  // paced bins accepted

  PacedPlan(std::size_t sessions, std::size_t bins,
            std::vector<std::size_t> base_bin, std::uint64_t seed);
  double due_s(std::size_t s, std::size_t k) const {
    return phase_s[s] + double(k) * period_s;
  }
  // Traced run: spans are recorded only for the odd-numbered sessions, so
  // the even-numbered sessions of the same run, which see the same load
  // and the same drains, are the untraced comparison.
  static bool traced_session(std::size_t s) { return s % 2 == 1; }
};

class Generator {
 public:
  Generator(PacedPlan& plan, const Streams& streams, Backend& backend,
            bool trace);
  // Release every bin due by now, submit it (retrying bounced bins in
  // order), and return the time the next bin falls due.
  Clock::time_point step();
  bool done() const { return done_; }

  SubmitCounts counts;
  std::vector<double> lag_ms;     // release (first send) - due time
  std::vector<double> submit_us;  // traced sessions only

 private:
  bool try_submit(std::size_t s, Clock::time_point now);

  PacedPlan& plan_;
  const Streams& streams_;
  Backend& backend_;
  const bool trace_;
  std::vector<std::size_t> order_;      // sessions by phase
  std::size_t next_event_ = 0;          // index into (round, order_)
  std::vector<std::size_t> next_bin_;   // per session: next bin to submit
  std::vector<std::size_t> released_;   // per session: bins due so far
  std::vector<Clock::time_point> retry_at_;
  std::vector<std::size_t> backlog_;    // sessions with bounced bins
  bool done_ = false;
};

class Observer {
 public:
  Observer(const PacedPlan& plan, Backend& backend);
  // One pass over sessions with accepted-but-unseen bins.
  void pass();
  // Every accepted bin has been observed.
  bool caught_up() const;

  // Every paced bin's latency is kept.  Time the driver loses -- a slow
  // submit on the shared thread, or a core taken away by the host -- is
  // part of what a client of the system would see, so no sample is
  // filtered out; generator lag and the observation period are reported
  // beside the figures instead.
  std::vector<double> latency_ms;     // per observed bin, due -> observed
  std::vector<double> latency_due_s;  // due time of each, from t0
  std::vector<std::uint32_t> latency_session;
  std::vector<double> pass_gap_ms;    // time between pass starts

 private:
  const PacedPlan& plan_;
  Backend& backend_;

  std::vector<std::size_t> seen_;
  Clock::time_point last_pass_{};
};

}  // namespace perfbench
