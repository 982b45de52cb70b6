// GainSchedule / GainScheduleCache: memoized gain trajectories shared
// across same-config sessions.  Cache mechanics (hit/miss/LRU eviction,
// ref-count survival), window fall-out, bit-identity of entries against a
// solo filter's gains, and the concurrent warm-up path the tier-1 TSan
// rerun exercises.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "kalman/gain_schedule.hpp"
#include "../kalman/kalman_test_util.hpp"

namespace kalmmind::serve {
namespace {

using kalman::FilterConfigD;
using kalman::GainSchedule;
using kalman::GainScheduleCache;

FilterConfigD interleaved_config(std::size_t z_dim = 4,
                                 std::uint64_t seed = 123) {
  FilterConfigD cfg;
  cfg.model = testing::small_model(z_dim, seed);
  cfg.strategy.kind = kalman::StrategyKind::kInterleaved;
  cfg.strategy.calc_freq = 3;
  cfg.strategy.approx = 2;
  cfg.strategy.policy = kalman::SeedPolicy::kPreviousIteration;
  return cfg;
}

TEST(ServeGainCacheTest, AcquireSharesOneScheduleAndCountsHits) {
  GainScheduleCache cache(/*capacity=*/4);
  const FilterConfigD cfg = interleaved_config();

  auto first = cache.acquire(cfg);
  ASSERT_NE(first, nullptr);
  auto second = cache.acquire(cfg);
  EXPECT_EQ(first.get(), second.get());  // same memoized schedule

  const GainScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
}

// A caller that already holds the config's fingerprint passes it through:
// the cache keys on it and the schedule it builds keeps it, so opening a
// session hashes the model once.  Collision injection still overrides the
// key.
TEST(ServeGainCacheTest, AcquireTakesTheCallersFingerprint) {
  GainScheduleCache cache(/*capacity=*/4);
  const FilterConfigD cfg = interleaved_config();
  const std::uint64_t fp = cfg.fingerprint();
  auto first = cache.acquire(cfg, fp);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->fingerprint(), fp);
  EXPECT_EQ(cache.acquire(cfg).get(), first.get());  // the same key
  EXPECT_EQ(cache.stats().hits, 1u);
#if defined(KALMMIND_FAULTS)
  FilterConfigD other = cfg;
  other.strategy.calc_freq = 5;
  cache.fault_force_key(fp);
  EXPECT_EQ(cache.acquire(other, other.fingerprint()), nullptr);
  EXPECT_EQ(cache.stats().collisions, 1u);
  cache.clear_fault_forced_key();
#endif
}

TEST(ServeGainCacheTest, DifferentConfigsGetDifferentSchedules) {
  GainScheduleCache cache(/*capacity=*/4);
  const FilterConfigD a = interleaved_config(4, 1);
  FilterConfigD b = a;
  b.strategy.calc_freq = 5;  // different datapath, same model

  auto sa = cache.acquire(a);
  auto sb = cache.acquire(b);
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_NE(sa.get(), sb.get());
  EXPECT_NE(sa->fingerprint(), sb->fingerprint());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(ServeGainCacheTest, LruEvictionDropsTheColdestSchedule) {
  GainScheduleCache cache(/*capacity=*/2);
  const FilterConfigD a = interleaved_config(4, 1);
  const FilterConfigD b = interleaved_config(4, 2);
  const FilterConfigD c = interleaved_config(4, 3);

  auto sa = cache.acquire(a);
  (void)cache.acquire(b);
  (void)cache.acquire(a);  // refresh a: b is now the LRU victim
  (void)cache.acquire(c);  // evicts b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);

  // a survived the eviction round...
  const std::uint64_t hits_before = cache.stats().hits;
  auto sa2 = cache.acquire(a);
  EXPECT_EQ(sa.get(), sa2.get());
  EXPECT_EQ(cache.stats().hits, hits_before + 1);

  // ...and b was the one dropped: re-acquiring is a fresh miss.
  const std::uint64_t misses_before = cache.stats().misses;
  (void)cache.acquire(b);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(ServeGainCacheTest, EvictedScheduleStaysValidForHolders) {
  GainScheduleCache cache(/*capacity=*/1);
  const FilterConfigD a = interleaved_config(4, 1);
  const FilterConfigD b = interleaved_config(4, 2);

  std::shared_ptr<GainSchedule> held = cache.acquire(a);
  ASSERT_NE(held, nullptr);
  const auto entry_before = held->at(5);
  ASSERT_NE(entry_before, nullptr);

  (void)cache.acquire(b);  // capacity 1: evicts a
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The holder's schedule keeps working and keeps its computed entries.
  const auto entry_after = held->at(5);
  ASSERT_NE(entry_after, nullptr);
  EXPECT_EQ(entry_before.get(), entry_after.get());
  EXPECT_NE(held->at(9), nullptr);  // can still extend past eviction

  // A later acquire(a) rebuilds rather than resurrecting the evicted one.
  auto rebuilt = cache.acquire(a);
  EXPECT_NE(rebuilt.get(), held.get());
}

TEST(ServeGainCacheTest, EntriesMatchSoloFilterBitForBit) {
  // Both forms of the covariance update (plain and Joseph) and both
  // calculation units the perfbench workloads use (gauss, cholesky).
  const FilterConfigD plain = interleaved_config(5, 77);
  FilterConfigD joseph = plain;
  joseph.options.joseph_update = true;
  FilterConfigD cholesky = plain;
  cholesky.strategy.calc_method = kalman::CalcMethod::kCholesky;
  for (const FilterConfigD& cfg : {plain, joseph, cholesky}) {
    SCOPED_TRACE(cfg.strategy.format() +
                 (cfg.options.joseph_update ? " joseph" : " plain"));
    GainSchedule schedule(cfg);

    // The schedule shares the filter's recursion: its P_n must equal the
    // solo filter's posterior covariance bit for bit, and stepping the state
    // through the schedule's K_n must land on the solo state.
    kalman::KalmanFilter<double> solo = cfg.make_filter();
    const auto zs = testing::simulate_measurements(cfg.model, 30);
    linalg::Vector<double> x = cfg.model.x0;
    linalg::Vector<double> xp, hx, corr;
    for (std::size_t n = 0; n < zs.size(); ++n) {
      solo.step(zs[n]);
      const auto entry = schedule.at(n);
      ASSERT_NE(entry, nullptr);
      for (std::size_t i = 0; i < entry->p_after.rows(); ++i) {
        for (std::size_t j = 0; j < entry->p_after.cols(); ++j) {
          ASSERT_EQ(entry->p_after(i, j), solo.covariance()(i, j))
              << "P step " << n;
        }
      }
      linalg::multiply_into(xp, cfg.model.f, x);
      linalg::multiply_into(hx, cfg.model.h, xp);
      linalg::Vector<double> nu = zs[n];
      for (std::size_t i = 0; i < nu.size(); ++i) nu[i] -= hx[i];
      linalg::multiply_into(corr, entry->k, nu);
      for (std::size_t i = 0; i < x.size(); ++i) x[i] = xp[i] + corr[i];
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_EQ(x[i], solo.state()[i]) << "x step " << n;
      }
    }
  }
}

TEST(ServeGainCacheTest, WindowSlidesAndOldEntriesFallOut) {
  const FilterConfigD cfg = interleaved_config();
  GainSchedule schedule(cfg, /*window=*/4);

  ASSERT_NE(schedule.at(9), nullptr);  // extends through iteration 9
  EXPECT_EQ(schedule.computed(), 10u);
  EXPECT_EQ(schedule.base(), 6u);  // only [6, 10) resident

  EXPECT_EQ(schedule.at(5), nullptr);  // slid out: consumer must fall out
  EXPECT_EQ(schedule.at(0), nullptr);
  ASSERT_NE(schedule.at(6), nullptr);   // oldest resident
  ASSERT_NE(schedule.at(12), nullptr);  // ahead: computed on demand
  EXPECT_EQ(schedule.base(), 9u);
}

TEST(ServeGainCacheTest, ConcurrentWarmUpYieldsOneTrajectory) {
  GainScheduleCache cache(/*capacity=*/4);
  const FilterConfigD cfg = interleaved_config();
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kSteps = 64;

  // All threads race acquire() + at() over the same range; every observer
  // must see the same shared entries (TSan guards the synchronization).
  std::vector<std::shared_ptr<const GainSchedule::Entry>> seen(
      kThreads * kSteps);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto schedule = cache.acquire(cfg);
      if (!schedule) return;  // checked via stats + seen[] on the main thread
      for (std::size_t n = 0; n < kSteps; ++n) {
        seen[t * kSteps + n] = schedule->at(n);
      }
    });
  }
  for (auto& th : threads) th.join();

  const GainScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);  // exactly one thread built the schedule
  EXPECT_EQ(stats.hits, kThreads - 1);
  for (std::size_t n = 0; n < kSteps; ++n) ASSERT_NE(seen[n], nullptr);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t n = 0; n < kSteps; ++n) {
      ASSERT_EQ(seen[t * kSteps + n].get(), seen[n].get())
          << "thread " << t << " step " << n;
    }
  }
}

#if defined(KALMMIND_FAULTS)
// Two different configs forced onto one cache key: the ==-verification must
// refuse to serve the wrong schedule (nullptr, counted as a collision, and
// journaled) rather than silently decoding with another filter's gains.
TEST(ServeGainCacheTest, InjectedFingerprintCollisionIsRefusedAndCounted) {
  GainScheduleCache cache(4);
  const FilterConfigD a = interleaved_config(4, 123);
  FilterConfigD b = interleaved_config(4, 123);
  b.strategy.calc_freq = 5;  // genuinely different trajectory

  auto sa = cache.acquire(a);
  ASSERT_NE(sa, nullptr);

  // Force b to resolve to a's key: a verified collision, not a hit.
  cache.fault_force_key(sa->fingerprint());
  auto sb = cache.acquire(b);
  EXPECT_EQ(sb, nullptr);

  const GainScheduleCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // Collisions self-heal once real fingerprints are back.
  cache.clear_fault_forced_key();
  auto sb2 = cache.acquire(b);
  ASSERT_NE(sb2, nullptr);
  EXPECT_NE(sb2->fingerprint(), sa->fingerprint());
}
#endif  // KALMMIND_FAULTS

}  // namespace
}  // namespace kalmmind::serve
