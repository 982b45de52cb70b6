// KalmanFilter::prepare_next: the measurement-independent half of a step,
// computed before its bin arrives, must leave every observable result
// bit-identical to a filter that computes it on arrival — whether the half
// is consumed, dropped by a mutator, or dropped because the bin skipped its
// measurement — for every strategy kind, both interleave seed policies, a
// failing Newton probe and the whole recovery ladder.  While a half is
// waiting, the filter reports (and exports) the state of its last step.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "kalman/riccati.hpp"
#include "kalman/strategy_spec.hpp"
#include "kalman_test_util.hpp"

namespace kalmmind::kalman {
namespace {

bool bit_equal(const Matrix<double>& a, const Matrix<double>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool bit_equal(const Vector<double>& a, const Vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Every strategy kind, plus the interleaved kind under both seed policies.
std::vector<StrategySpec> every_spec() {
  std::vector<StrategySpec> specs;
  for (std::size_t k = 0; k < kStrategyKindCount; ++k) {
    StrategySpec spec;
    spec.kind = StrategyKind(k);
    if (spec.kind == StrategyKind::kSskf) spec.approx = 2;
    if (spec.kind == StrategyKind::kInterleaved) {
      spec.calc_freq = 3;
      spec.approx = 2;
      for (const SeedPolicy policy :
           {SeedPolicy::kLastCalculated, SeedPolicy::kPreviousIteration}) {
        spec.policy = policy;
        specs.push_back(spec);
      }
      continue;
    }
    specs.push_back(spec);
  }
  return specs;
}

KalmanFilter<double> make(const StrategySpec& spec,
                          const KalmanModel<double>& model,
                          FilterOptions options = {}) {
  StrategyMatrices<double> data;
  if (spec.kind == StrategyKind::kLite || spec.kind == StrategyKind::kSskf)
    data.preloaded_inverse = solve_steady_state(model).s_inv;
  if (spec.kind == StrategyKind::kIfkf) data.r = model.r;
  return KalmanFilter<double>(
      model, make_inverse_strategy<double>(spec, data), options);
}

void expect_same_health(const HealthStats& a, const HealthStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.last_faults, b.last_faults) << what;
  EXPECT_EQ(a.faulty_steps, b.faulty_steps) << what;
  EXPECT_EQ(a.gated_channels, b.gated_channels) << what;
  EXPECT_EQ(a.recoveries, b.recoveries) << what;
  EXPECT_EQ(a.escalation_level, b.escalation_level) << what;
  EXPECT_EQ(a.fallback_active, b.fallback_active) << what;
}

// Step `ahead` (half prepared before every bin, and every `drop_every`-th
// half dropped again before the bin) and `plain` (computes on arrival) in
// lockstep: every state, covariance, inversion path and health verdict
// must match bit for bit.
void expect_lockstep(KalmanFilter<double>& plain, KalmanFilter<double>& ahead,
                     const std::vector<Vector<double>>& zs,
                     std::size_t drop_every, const std::string& what) {
  for (std::size_t n = 0; n < zs.size(); ++n) {
    const std::string at = what + " bin " + std::to_string(n);
    const HealthStats before = ahead.health();
    ahead.prepare_next();
    // Nothing the filter reports moves until the bin arrives.
    ASSERT_EQ(ahead.iteration(), plain.iteration()) << at;
    ASSERT_TRUE(bit_equal(ahead.covariance(), plain.covariance())) << at;
    expect_same_health(ahead.health(), before, at + " (prepared)");
    if (drop_every != 0 && n % drop_every == drop_every - 1)
      EXPECT_TRUE(!ahead.prepared() || ahead.drop_prepared()) << at;
    const Vector<double>& a = plain.step(zs[n]);
    const Vector<double>& b = ahead.step(zs[n]);
    EXPECT_FALSE(ahead.prepared()) << at;
    ASSERT_TRUE(bit_equal(a, b)) << at;
    ASSERT_TRUE(bit_equal(plain.covariance(), ahead.covariance())) << at;
    ASSERT_EQ(plain.last_inverse_event().path, ahead.last_inverse_event().path)
        << at;
    expect_same_health(plain.health(), ahead.health(), at);
  }
}

TEST(PrepareTest, PreparedAndDroppedHalvesMatchSequentialForEveryStrategy) {
  const auto model = testing::small_model(5);
  const auto zs = testing::simulate_measurements(model, 24);
  for (const StrategySpec& spec : every_spec()) {
    for (const std::size_t drop_every : {0u, 1u, 3u}) {
      KalmanFilter<double> plain = make(spec, model);
      KalmanFilter<double> ahead = make(spec, model);
      expect_lockstep(plain, ahead, zs, drop_every,
                      spec.format() + " drop_every " +
                          std::to_string(drop_every));
    }
  }
}

// NaN bins after a prepare, a Newton probe that fails on every
// approximation (forcing the same-step repair inside the prepared half),
// exploding states that climb the ladder to the covariance reset and the
// SSKF fallback, and saturated channels the innovation gate zeroes.
TEST(PrepareTest, HealthGatedFilterMatchesSequentialThroughTheLadder) {
  const auto model = testing::small_model(6);
  auto zs = testing::simulate_measurements(model, 60);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t n = 4; n < zs.size(); n += 7) zs[n][1] = nan;
  for (std::size_t n = 9; n < zs.size(); n += 11) zs[n][2] = 1e6;
  for (std::size_t n = 20; n < 40; n += 3) {
    for (std::size_t i = 0; i < zs[n].size(); ++i) zs[n][i] *= 1e9;
  }
  FilterOptions options;
  options.health.enabled = true;
  options.health.innovation_gate_sigma = 50.0;
  options.health.max_state_abs = 1e4;
  options.health.deescalate_after = 3;
  for (const double probe_limit : {1.0, 1e-300}) {
    options.health.newton_residual_limit = probe_limit;
    for (const StrategySpec& spec : every_spec()) {
      // Dropping every other half drops forced calculations the ladder
      // requested, which the next prepare must still run.
      for (const std::size_t drop_every : {0u, 2u}) {
        const std::string what = spec.format() + " probe " +
                                 std::to_string(probe_limit) +
                                 " drop_every " + std::to_string(drop_every);
        KalmanFilter<double> plain = make(spec, model, options);
        KalmanFilter<double> ahead = make(spec, model, options);
        expect_lockstep(plain, ahead, zs, drop_every, what);
        EXPECT_GT(plain.health().total(RecoveryAction::kSkipMeasurement), 0u)
            << what;
      }
    }
  }
}

// A dropped half gives back what its inversion consumed: a pending forced
// calculation (interleaved, both policies) and the first-iteration anchor
// (Taylor), so the next step still calculates.
TEST(PrepareTest, DroppedHalfRestoresTheStrategysRecoveryFlags) {
  const auto model = testing::small_model(5);
  const auto zs = testing::simulate_measurements(model, 8);
  for (const char* text :
       {"interleaved(calc=gauss,calc_freq=0,approx=2,policy=0)",
        "interleaved(calc=gauss,calc_freq=0,approx=2,policy=1)",
        "taylor(order=2)"}) {
    const StrategySpec spec = StrategySpec::parse(text);
    KalmanFilter<double> plain = make(spec, model);
    KalmanFilter<double> ahead = make(spec, model);
    ahead.prepare_next();  // Taylor anchors here, then forgets it
    ahead.drop_prepared();
    for (std::size_t n = 0; n < zs.size(); ++n) {
      if (n == 3) {
        plain.strategy().request_calculation();
        ahead.strategy().request_calculation();
        ahead.prepare_next();  // consumes the forced calculation...
        ahead.drop_prepared();  // ...and gives it back
      }
      ASSERT_TRUE(bit_equal(plain.step(zs[n]), ahead.step(zs[n])))
          << text << " bin " << n;
      ASSERT_EQ(plain.last_inverse_event().path,
                ahead.last_inverse_event().path)
          << text << " bin " << n;
    }
  }
}

TEST(PrepareTest, FailingProbeIsRecordedOnArrivalAndForgottenOnADrop) {
  const auto model = testing::small_model(6);
  const auto zs = testing::simulate_measurements(model, 8);
  FilterOptions options;
  options.health.enabled = true;
  options.health.newton_residual_limit = 1e-300;  // every probe fails
  const StrategySpec spec = StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=0,approx=2,policy=1)");
  KalmanFilter<double> plain = make(spec, model, options);
  KalmanFilter<double> filter = make(spec, model, options);
  plain.step(zs[0]);
  filter.step(zs[0]);  // iteration 0 calculates: nothing to probe
  ASSERT_EQ(filter.health().last_faults, 0u);

  filter.prepare_next();  // iteration 1 approximates: the probe fails
  EXPECT_EQ(filter.health().last_faults, 0u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kForceCalculation), 0u);
  filter.drop_prepared();
  filter.prepare_next();
  filter.step(zs[1]);
  plain.step(zs[1]);
  EXPECT_TRUE(filter.health().has(HealthFault::kResidualGrowth));
  // Only the same-step repair: a repaired residual fault climbs no rung.
  EXPECT_EQ(filter.health().total(RecoveryAction::kForceCalculation), 1u);
  EXPECT_EQ(filter.health().escalation_level, 0u);
  expect_same_health(filter.health(), plain.health(), "after the repair");
  EXPECT_EQ(filter.last_inverse_event().path, InversePath::kCalculation);
}

// A snapshot taken while a half waits is the last step's state: importing
// it (with state()) continues exactly like the uninterrupted filter.
TEST(PrepareTest, ExportWhilePreparedDescribesTheLastStep) {
  const auto model = testing::small_model(5);
  const auto zs = testing::simulate_measurements(model, 20);
  FilterOptions options;
  options.health.enabled = true;
  for (const StrategySpec& spec : every_spec()) {
    const std::string what = spec.format();
    KalmanFilter<double> plain = make(spec, model, options);
    KalmanFilter<double> ahead = make(spec, model, options);
    for (std::size_t n = 0; n < 7; ++n) {
      plain.step(zs[n]);
      ahead.step(zs[n]);
    }
    ahead.prepare_next();
    RecursionState<double> want_recursion, got_recursion;
    HealthState<double> want_health, got_health;
    plain.export_state(want_recursion, want_health);
    ahead.export_state(got_recursion, got_health);
    EXPECT_EQ(got_recursion.n, want_recursion.n) << what;
    EXPECT_TRUE(bit_equal(got_recursion.p, want_recursion.p)) << what;
    EXPECT_TRUE(bit_equal(got_recursion.strategy.seed,
                          want_recursion.strategy.seed))
        << what;
    EXPECT_EQ(got_recursion.strategy.seed_ready,
              want_recursion.strategy.seed_ready)
        << what;
    EXPECT_EQ(got_recursion.strategy.force_calculation,
              want_recursion.strategy.force_calculation)
        << what;

    KalmanFilter<double> restored = make(spec, model, options);
    restored.import_state(ahead.state(), got_recursion, got_health);
    for (std::size_t n = 7; n < zs.size(); ++n) {
      ASSERT_TRUE(bit_equal(plain.step(zs[n]), restored.step(zs[n])))
          << what << " bin " << n;
      ASSERT_TRUE(bit_equal(ahead.step(zs[n]), restored.state()))
          << what << " bin " << n;
    }
  }
}

// Every mutator drops a waiting half before it changes the state the half
// was computed from.
TEST(PrepareTest, MutatorsDropAPreparedHalf) {
  const auto model = testing::small_model(4);
  const auto zs = testing::simulate_measurements(model, 12);
  const StrategySpec spec = StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=4,approx=2,policy=1)");
  const Matrix<double> p = Matrix<double>::identity(2) * 0.25;
  Vector<double> x(2);
  x[0] = 0.5;
  const Matrix<double> h2 = model.h * 1.5;
  const auto mutations = {
      +[](KalmanFilter<double>& f, const Vector<double>& x,
          const Matrix<double>& p, const Matrix<double>&) {
        f.set_state(x, p);
      },
      +[](KalmanFilter<double>& f, const Vector<double>&,
          const Matrix<double>&, const Matrix<double>& h) {
        f.update_observation_model(h, f.model().r);
      },
      +[](KalmanFilter<double>& f, const Vector<double>&,
          const Matrix<double>&, const Matrix<double>&) { f.reset(); },
  };
  std::size_t which = 0;
  for (const auto& mutate : mutations) {
    KalmanFilter<double> plain = make(spec, model);
    KalmanFilter<double> ahead = make(spec, model);
    for (std::size_t n = 0; n < 5; ++n) {
      plain.step(zs[n]);
      ahead.step(zs[n]);
    }
    ahead.prepare_next();
    mutate(plain, x, p, h2);
    mutate(ahead, x, p, h2);
    EXPECT_FALSE(ahead.prepared()) << "mutation " << which;
    for (std::size_t n = 5; n < zs.size(); ++n) {
      ahead.prepare_next();
      ASSERT_TRUE(bit_equal(plain.step(zs[n]), ahead.step(zs[n])))
          << "mutation " << which << " bin " << n;
    }
    ++which;
  }
}

}  // namespace
}  // namespace kalmmind::kalman
