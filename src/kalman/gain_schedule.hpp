// Compute-once gain/covariance trajectories, shared across sessions.
//
// The reorganized filter isolates `compute K` from the measurement-
// dependent path (PAPER.md pillar 1): P', S, S^-1 and K at iteration n
// depend only on the model, the options and the inverse strategy — never
// on a measurement.  Every session running the same FilterConfig therefore
// walks an *identical* K/P trajectory, and DecodeServer used to recompute
// it once per session.  A GainSchedule computes the trajectory once on
// the filter's own GainRecursion (kalman/recursion.hpp: same ops, same
// order, so entries are bit-identical to what a solo KalmanFilter would
// produce), and hands out immutable ref-counted entries.
//
// Memory is bounded by a sliding window: once more than `window` entries
// exist the oldest are dropped and at() returns nullptr for them — a
// consumer that far behind falls out to the solo path (serve/batch_group
// does exactly that).  Entries are shared_ptr<const Entry>, so a holder
// keeps its entry alive across eviction.
//
// GainScheduleCache memoizes schedules per FilterConfig fingerprint with
// LRU eviction at a bounded capacity, exporting
// kalmmind.serve.gain_cache.{hits,misses,evictions}.  An evicted schedule
// stays valid for sessions still holding its shared_ptr; it is simply no
// longer findable, so a later acquire() recomputes.
//
// Thread safety: both classes are internally synchronized.  Concurrent
// at() calls racing to extend the same schedule serialize on its mutex —
// the "concurrent warm-up" path exercised by the tier-1 TSan rerun.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "kalman/filter_config.hpp"
#include "kalman/recursion.hpp"
#include "telemetry/telemetry.hpp"

namespace kalmmind::kalman {

class GainSchedule {
 public:
  // Everything the measurement-dependent half of iteration n needs.
  struct Entry {
    Matrix<double> k;        // Kalman gain K_n
    Matrix<double> p_after;  // posterior covariance P_n (batch fall-out
                             // re-seeds a solo filter from this)
    InverseEvent event;      // inversion path that produced S^-1_n
  };

  // Precondition: config.check().ok().  `fingerprint` must be
  // config.fingerprint(); pass it when already known (hashing a z=164 model
  // costs ~0.3 ms), 0 computes it.
  explicit GainSchedule(FilterConfig<double> config,
                        std::size_t window = kDefaultWindow,
                        std::uint64_t fingerprint = 0)
      : config_(std::move(config)),
        fingerprint_(fingerprint ? fingerprint : config_.fingerprint()),
        window_(window == 0 ? 1 : window),
        recursion_(config_.model, config_.make_strategy(),
                   config_.options.joseph_update) {}

  // Resume another schedule from its exported head (export_head): the
  // recursion continues at head.n and `entries` are the resident entries of
  // iterations [head.n - entries.size(), head.n).  No iteration is
  // recomputed, so this costs O(1) recursion steps at any age.
  // `fingerprint` must be config.fingerprint(), which the caller already
  // holds (hashing a z=164 model costs ~0.3 ms).  Throws
  // std::invalid_argument when head or an entry does not fit the config's
  // dimensions, or there are more entries than iterations.
  GainSchedule(FilterConfig<double> config, std::size_t window,
               std::uint64_t fingerprint, const RecursionState<double>& head,
               std::vector<std::shared_ptr<const Entry>> entries)
      : config_(std::move(config)),
        fingerprint_(fingerprint),
        window_(window == 0 ? 1 : window),
        recursion_(config_.model, config_.make_strategy(),
                   config_.options.joseph_update) {
    if (entries.size() > head.n) {
      throw std::invalid_argument("GainSchedule: more entries than iterations");
    }
    const std::size_t x = config_.model.x_dim();
    const std::size_t z = config_.model.z_dim();
    for (const auto& e : entries) {
      if (!e || e->k.rows() != x || e->k.cols() != z ||
          !e->p_after.same_shape(config_.model.p0)) {
        throw std::invalid_argument("GainSchedule: entry shape mismatch");
      }
    }
    recursion_.import_state(head);
    base_ = head.n - entries.size();
    window_entries_.assign(entries.begin(), entries.end());
  }

  static constexpr std::size_t kDefaultWindow = 4096;

  const FilterConfig<double>& config() const { return config_; }
  std::uint64_t fingerprint() const { return fingerprint_; }

  // The entry for iteration n, extending the schedule as needed.  Returns
  // nullptr when n has already slid out of the window (never for n ahead
  // of the window — those are computed on demand).  `precomputed`, if
  // given, is set to whether n was computed before this call.
  std::shared_ptr<const Entry> at(std::size_t n, bool* precomputed = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (precomputed) *precomputed = recursion_.iteration() > n;
    while (recursion_.iteration() <= n) advance_locked();
    if (n < base_) return nullptr;
    return window_entries_[n - base_];
  }

  // The head's recursion state and the resident entries [from, computed()),
  // read together under the schedule's lock; false (outputs untouched) when
  // `from` already slid out of the window.  Entries are shared, not copied.
  // A schedule behind `from` is first extended to it, as at(from) would.
  bool export_head(std::size_t from, RecursionState<double>& head,
                   std::vector<std::shared_ptr<const Entry>>& entries) {
    std::lock_guard<std::mutex> lock(mu_);
    while (recursion_.iteration() < from) advance_locked();
    if (from < base_) return false;
    recursion_.export_state(head);
    entries.assign(window_entries_.begin() + std::ptrdiff_t(from - base_),
                   window_entries_.end());
    return true;
  }

  // Iterations computed so far ([base, computed) are resident).
  std::size_t computed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recursion_.iteration();
  }
  std::size_t base() const {
    std::lock_guard<std::mutex> lock(mu_);
    return base_;
  }

 private:
  // One measurement-independent KF iteration (mu_ held) on the recursion
  // KalmanFilter::step runs, so K_n and P_n match a solo filter bit for
  // bit (health monitoring is measurement-dependent and therefore never
  // batched, see serve/batch_group.hpp).
  void advance_locked() {
    auto entry = std::make_shared<Entry>();
    entry->event = recursion_.step(config_.model);
    entry->k = recursion_.k();
    entry->p_after = recursion_.p();
    window_entries_.push_back(std::move(entry));
    while (window_entries_.size() > window_) {
      window_entries_.pop_front();
      ++base_;
    }
  }

  const FilterConfig<double> config_;
  const std::uint64_t fingerprint_;  // config_.fingerprint()
  const std::size_t window_;

  mutable std::mutex mu_;
  // Advanced strictly in order; its iteration() is one past the newest
  // computed entry.
  GainRecursion<double> recursion_;
  std::deque<std::shared_ptr<const Entry>> window_entries_;
  std::size_t base_ = 0;  // iteration of window_entries_.front()
};

// Bounded, LRU-evicting memo of GainSchedules keyed by config fingerprint
// (verified with FilterConfig::operator== on every hit, so a fingerprint
// collision can never alias two different configs — it just declines to
// share).
class GainScheduleCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    // Verified fingerprint collisions: the key matched a resident schedule
    // whose config compared unequal.  Counted separately from misses — a
    // collision means two live configs share a 64-bit fingerprint, which
    // is worth alerting on, not just a cold cache.
    std::uint64_t collisions = 0;
    std::size_t size = 0;  // schedules currently resident
  };

  explicit GainScheduleCache(std::size_t capacity = 16,
                             std::size_t window = GainSchedule::kDefaultWindow)
      : capacity_(capacity == 0 ? 1 : capacity), window_(window) {}

  // The schedule for `config`, building (miss) or sharing (hit) as needed.
  // Returns nullptr only on a verified fingerprint collision with a
  // resident different config — callers treat that as "don't batch".
  // Precondition: config.check().ok(); `fingerprint`, when non-zero, is
  // config.fingerprint() (a caller that already holds it saves the hash).
  std::shared_ptr<GainSchedule> acquire(const FilterConfig<double>& config,
                                        std::uint64_t fingerprint = 0) {
    auto& tm = telemetry_();
    const std::uint64_t real_key =
        fingerprint ? fingerprint : config.fingerprint();
    std::uint64_t key = real_key;
    std::lock_guard<std::mutex> lock(mu_);
#if defined(KALMMIND_FAULTS)
    // Collision injection (docs/robustness.md): force every acquire onto
    // one key so two different configs exercise the verified-collision
    // path deterministically.
    if (fault_forced_key_set_) key = fault_forced_key_;
#endif
    if (auto it = map_.find(key); it != map_.end()) {
      if (!(it->second.schedule->config() == config)) {
        // Verified collision: same 64-bit fingerprint, different config.
        // Never alias — decline to share — but do not bury it as a plain
        // miss: count it and journal it so an operator can see that two
        // live configs are contending for one cache line.
        tm.collisions.add();
        ++stats_.collisions;
        if (telemetry::enabled()) {
          auto& blackbox = telemetry::FlightRecorder::global();
          blackbox.record_here(
              telemetry::FlightEventKind::kGainCacheCollision, key);
        }
        return nullptr;
      }
      tm.hits.add();
      ++stats_.hits;
      if (telemetry::enabled()) {
        auto& blackbox = telemetry::FlightRecorder::global();
        blackbox.record_here(telemetry::FlightEventKind::kGainCacheHit, key);
      }
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.schedule;
    }
    tm.misses.add();
    ++stats_.misses;
    if (telemetry::enabled()) {
      auto& blackbox = telemetry::FlightRecorder::global();
      blackbox.record_here(telemetry::FlightEventKind::kGainCacheMiss, key);
    }
    while (map_.size() >= capacity_) {
      const std::uint64_t victim = lru_.back();
      lru_.pop_back();
      map_.erase(victim);  // holders keep the schedule alive via shared_ptr
      tm.evictions.add();
      ++stats_.evictions;
      if (telemetry::enabled()) {
        auto& blackbox = telemetry::FlightRecorder::global();
        blackbox.record_here(telemetry::FlightEventKind::kGainCacheEviction,
                             victim);
      }
    }
    auto schedule = std::make_shared<GainSchedule>(config, window_, real_key);
    lru_.push_front(key);
    map_.emplace(key, Node{schedule, lru_.begin()});
    return schedule;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats s = stats_;
    s.size = map_.size();
    return s;
  }

#if defined(KALMMIND_FAULTS)
  // Fault-injection hook (KALMMIND_FAULTS builds only): force every
  // acquire() onto `key` regardless of the config's real fingerprint, so a
  // test can make two different configs collide.  clear_fault_forced_key()
  // restores real fingerprints.
  void fault_force_key(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    fault_forced_key_ = key;
    fault_forced_key_set_ = true;
  }
  void clear_fault_forced_key() {
    std::lock_guard<std::mutex> lock(mu_);
    fault_forced_key_set_ = false;
  }
#endif

 private:
  struct Node {
    std::shared_ptr<GainSchedule> schedule;
    std::list<std::uint64_t>::iterator lru_it;
  };

  // Process-wide counters (cached handles, see telemetry/registry.hpp);
  // instance-level numbers live in stats_.
  struct CacheTelemetry {
    telemetry::Counter& hits;
    telemetry::Counter& misses;
    telemetry::Counter& evictions;
    telemetry::Counter& collisions;
  };
  static CacheTelemetry& telemetry_() {
    static CacheTelemetry t{
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.hits"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.misses"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.evictions"),
        telemetry::MetricsRegistry::global().counter(
            "kalmmind.serve.gain_cache.collisions"),
    };
    return t;
  }

  const std::size_t capacity_;
  const std::size_t window_;
  mutable std::mutex mu_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, Node> map_;
  Stats stats_;
#if defined(KALMMIND_FAULTS)
  std::uint64_t fault_forced_key_ = 0;  // see fault_force_key()
  bool fault_forced_key_set_ = false;
#endif
};

}  // namespace kalmmind::kalman
