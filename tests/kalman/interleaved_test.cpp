// The KalmMind interleaving technique: schedule semantics, both seed
// policies, the LITE and constant-inverse variants.
#include "kalman/interleaved.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "../test_util.hpp"
#include "kalman/filter.hpp"
#include "kalman/reference.hpp"
#include "kalman/strategy_spec.hpp"
#include "kalman_test_util.hpp"
#include "linalg/lu.hpp"
#include "linalg/random.hpp"

namespace kalmmind::kalman {
namespace {

using kalmmind::testing::inverse_error;
using kalmmind::testing::simulate_measurements;
using kalmmind::testing::small_model;
using linalg::Matrix;
using linalg::random_spd;
using linalg::Rng;

TEST(InterleaveConfigTest, CalcFreqZeroCalculatesOnlyAtIterationZero) {
  InterleaveConfig cfg{0, 1, SeedPolicy::kLastCalculated};
  EXPECT_TRUE(cfg.is_calculation_iteration(0));
  for (std::size_t n = 1; n < 20; ++n)
    EXPECT_FALSE(cfg.is_calculation_iteration(n)) << n;
}

TEST(InterleaveConfigTest, CalcFreqOneCalculatesEveryIteration) {
  InterleaveConfig cfg{1, 1, SeedPolicy::kLastCalculated};
  for (std::size_t n = 0; n < 10; ++n)
    EXPECT_TRUE(cfg.is_calculation_iteration(n)) << n;
}

TEST(InterleaveConfigTest, PeriodicSchedule) {
  InterleaveConfig cfg{3, 1, SeedPolicy::kLastCalculated};
  EXPECT_TRUE(cfg.is_calculation_iteration(0));
  EXPECT_FALSE(cfg.is_calculation_iteration(1));
  EXPECT_FALSE(cfg.is_calculation_iteration(2));
  EXPECT_TRUE(cfg.is_calculation_iteration(3));
  EXPECT_TRUE(cfg.is_calculation_iteration(6));
}

// A slowly drifting SPD sequence, standing in for S_n across KF iterations.
std::vector<Matrix<double>> drifting_sequence(std::size_t n, std::size_t dim,
                                              double drift) {
  Rng rng(31);
  auto s = random_spd<double>(dim, rng, 2.0);
  std::vector<Matrix<double>> seq;
  for (std::size_t k = 0; k < n; ++k) {
    seq.push_back(s);
    for (std::size_t i = 0; i < dim; ++i)
      s(i, i) += drift * (1.0 + 0.1 * double(i));
  }
  return seq;
}

TEST(InterleavedStrategyTest, EventsFollowTheSchedule) {
  InterleavedStrategy<double> strat(CalcMethod::kGauss,
                                    {2, 3, SeedPolicy::kLastCalculated});
  auto seq = drifting_sequence(6, 6, 0.001);
  for (std::size_t n = 0; n < seq.size(); ++n) {
    strat.invert(seq[n], n);
    const auto ev = strat.last_event();
    if (n % 2 == 0) {
      EXPECT_EQ(ev.path, InversePath::kCalculation) << n;
    } else {
      EXPECT_EQ(ev.path, InversePath::kApproximation) << n;
      EXPECT_EQ(ev.newton_iterations, 3u) << n;
    }
  }
}

TEST(InterleavedStrategyTest, FirstInvertCalculatesEvenIfScheduleSaysNot) {
  // calc_freq = 3 means iteration 1 is an approximation step, but if the
  // strategy starts at iteration 1 (no seed yet) it must calculate.
  InterleavedStrategy<double> strat(CalcMethod::kGauss,
                                    {3, 2, SeedPolicy::kLastCalculated});
  auto seq = drifting_sequence(2, 5, 0.001);
  strat.invert(seq[0], /*kf_iteration=*/1);
  EXPECT_EQ(strat.last_event().path, InversePath::kCalculation);
}

TEST(InterleavedStrategyTest, ApproxZeroReusesSeedUnchanged) {
  InterleavedStrategy<double> strat(CalcMethod::kGauss,
                                    {0, 0, SeedPolicy::kLastCalculated});
  auto seq = drifting_sequence(3, 5, 0.01);
  auto first = strat.invert(seq[0], 0);
  auto second = strat.invert(seq[1], 1);
  kalmmind::testing::expect_matrix_near(first, second, 0.0,
                                        "approx=0 returns the seed");
}

TEST(InterleavedStrategyTest, MoreNewtonIterationsTrackDriftBetter) {
  auto seq = drifting_sequence(10, 8, 0.05);
  double errors[2];
  std::size_t idx = 0;
  for (std::size_t approx : {1u, 4u}) {
    InterleavedStrategy<double> strat(
        CalcMethod::kGauss,
        {0, approx, SeedPolicy::kPreviousIteration});
    double err = 0.0;
    for (std::size_t n = 0; n < seq.size(); ++n)
      err = inverse_error(seq[n], strat.invert(seq[n], n));
    errors[idx++] = err;  // final-iteration error
  }
  EXPECT_LT(errors[1], errors[0]);
}

TEST(InterleavedStrategyTest, PreviousIterationPolicyBeatsStaleCalculated) {
  // With calc_freq=0 and steady drift, seeding from the previous iteration
  // (eq. 4) must outperform the last-calculated seed (eq. 5), which goes
  // stale.
  auto seq = drifting_sequence(20, 8, 0.03);
  double final_err[2];
  for (int policy = 0; policy < 2; ++policy) {
    InterleavedStrategy<double> strat(
        CalcMethod::kGauss,
        {0, 2,
         policy ? SeedPolicy::kPreviousIteration
                : SeedPolicy::kLastCalculated});
    double err = 0.0;
    for (std::size_t n = 0; n < seq.size(); ++n)
      err = inverse_error(seq[n], strat.invert(seq[n], n));
    final_err[policy] = err;
  }
  EXPECT_LT(final_err[1], final_err[0]);
}

TEST(InterleavedStrategyTest, PoliciesIdenticalWhenCalcFreqIsTwo) {
  // With calc_freq=2 every approximation step immediately follows a
  // calculation, so both policies pick the same seed.
  auto seq = drifting_sequence(8, 6, 0.02);
  InterleavedStrategy<double> p0(CalcMethod::kGauss,
                                 {2, 2, SeedPolicy::kLastCalculated});
  InterleavedStrategy<double> p1(CalcMethod::kGauss,
                                 {2, 2, SeedPolicy::kPreviousIteration});
  for (std::size_t n = 0; n < seq.size(); ++n) {
    auto a = p0.invert(seq[n], n);
    auto b = p1.invert(seq[n], n);
    kalmmind::testing::expect_matrix_near(a, b, 0.0, "policy equivalence");
  }
}

TEST(InterleavedStrategyTest, ResetForcesRecalculation) {
  auto seq = drifting_sequence(4, 5, 0.01);
  InterleavedStrategy<double> strat(CalcMethod::kGauss,
                                    {0, 1, SeedPolicy::kLastCalculated});
  strat.invert(seq[0], 0);
  strat.invert(seq[1], 1);
  EXPECT_EQ(strat.last_event().path, InversePath::kApproximation);
  strat.reset();
  strat.invert(seq[2], 2);
  EXPECT_EQ(strat.last_event().path, InversePath::kCalculation);
}

TEST(InterleavedStrategyTest, NameEncodesConfiguration) {
  // The strategy's name is its StrategySpec text form.
  StrategySpec spec;
  spec.kind = StrategyKind::kInterleaved;
  spec.calc_method = CalcMethod::kCholesky;
  spec.calc_freq = 3;
  spec.approx = 4;
  spec.policy = SeedPolicy::kPreviousIteration;
  const auto name = spec.format();
  EXPECT_NE(name.find("cholesky"), std::string::npos);
  EXPECT_NE(name.find("calc_freq=3"), std::string::npos);
  EXPECT_NE(name.find("approx=4"), std::string::npos);
  InterleavedStrategy<double> strat(spec.calc_method, spec.interleave());
  EXPECT_EQ(strat.calc_method(), CalcMethod::kCholesky);
  EXPECT_EQ(strat.config().calc_freq, 3u);
  EXPECT_EQ(strat.config().approx, 4u);
}

TEST(LiteStrategyTest, SingleNewtonStepFromPreloadedSeed) {
  auto seq = drifting_sequence(6, 6, 0.01);
  auto exact0 = linalg::invert_lu(seq[0]);
  LiteStrategy<double> lite(exact0);
  double err = 0.0;
  for (std::size_t n = 0; n < seq.size(); ++n) {
    auto inv = lite.invert(seq[n], n);
    err = inverse_error(seq[n], inv);
    EXPECT_EQ(lite.last_event().newton_iterations, 1u);
  }
  EXPECT_LT(err, 1e-2) << "LITE tracks slow drift with one step/iteration";
}

TEST(LiteStrategyTest, ResetRestoresPreloadedSeed) {
  auto seq = drifting_sequence(3, 5, 0.05);
  auto exact0 = linalg::invert_lu(seq[0]);
  LiteStrategy<double> lite(exact0);
  auto first = lite.invert(seq[0], 0);
  lite.invert(seq[1], 1);
  lite.reset();
  auto again = lite.invert(seq[0], 0);
  kalmmind::testing::expect_matrix_near(first, again, 0.0);
}

TEST(ConstantInverseStrategyTest, ApproxZeroServesTheConstant) {
  auto seq = drifting_sequence(3, 5, 0.1);
  auto constant = linalg::invert_lu(seq[0]);
  ConstantInverseStrategy<double> strat(constant, 0);
  auto out = strat.invert(seq[2], 2);
  kalmmind::testing::expect_matrix_near(out, constant, 0.0);
  EXPECT_EQ(strat.last_event().path, InversePath::kNone);
}

TEST(ConstantInverseStrategyTest, NewtonRefinementImprovesTheConstant) {
  auto seq = drifting_sequence(5, 6, 0.05);
  auto constant = linalg::invert_lu(seq[0]);
  ConstantInverseStrategy<double> fixed(constant, 0);
  ConstantInverseStrategy<double> refined(constant, 3);
  const auto& target = seq[4];
  EXPECT_LT(inverse_error(target, refined.invert(target, 4)),
            inverse_error(target, fixed.invert(target, 4)));
  EXPECT_EQ(refined.last_event().path, InversePath::kApproximation);
}

// End-to-end: the interleaved filter on a real (small) model must approach
// the exact-inversion filter as approx grows.
TEST(InterleavedFilterTest, AccuracyImprovesWithApprox) {
  auto m = small_model(6);
  auto zs = simulate_measurements(m, 60);
  auto ref = run_reference(m, zs);

  double prev_err = 1e9;
  for (std::size_t approx : {1u, 3u, 5u}) {
    KalmanFilter<double> filter(
        m, std::make_unique<InterleavedStrategy<double>>(
               CalcMethod::kGauss,
               InterleaveConfig{0, approx, SeedPolicy::kPreviousIteration}));
    auto out = filter.run(zs);
    double err = 0.0;
    for (std::size_t n = 0; n < zs.size(); ++n)
      for (std::size_t j = 0; j < 2; ++j)
        err += std::pow(out.states[n][j] - ref.states[n][j], 2);
    EXPECT_LE(err, prev_err * 1.001) << "approx=" << approx;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-10);
}

}  // namespace
}  // namespace kalmmind::kalman
