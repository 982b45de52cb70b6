// The calculation and literature-approximation strategies: dispatch,
// inverse quality ordering, statefulness and telemetry.
#include <gtest/gtest.h>

#include "../test_util.hpp"
#include "kalman/approximation_strategies.hpp"
#include "kalman/calculation_strategies.hpp"
#include "kalman/strategy_spec.hpp"
#include "linalg/random.hpp"

namespace kalmmind::kalman {
namespace {

using kalmmind::testing::inverse_error;
using linalg::Matrix;
using linalg::random_spd;
using linalg::Rng;

TEST(CalculationStrategyTest, AllMethodsInvertSpd) {
  Rng rng(2);
  auto s = random_spd<double>(10, rng);
  for (CalcMethod method : {CalcMethod::kGauss, CalcMethod::kLu,
                            CalcMethod::kCholesky, CalcMethod::kQr}) {
    CalculationStrategy<double> strategy(method);
    auto inv = strategy.invert(s, 0);
    EXPECT_LT(inverse_error(s, inv), 1e-7) << to_string(method);
    EXPECT_EQ(strategy.last_event().path, InversePath::kCalculation);
  }
}

TEST(CalculationStrategyTest, NamesAreStable) {
  // A calculation unit's name is its method token, which is also the text
  // form of the matching StrategySpec kind.
  EXPECT_STREQ(to_string(CalcMethod::kGauss), "gauss");
  EXPECT_STREQ(to_string(CalcMethod::kCholesky), "cholesky");
  EXPECT_STREQ(to_string(CalcMethod::kQr), "qr");
  EXPECT_STREQ(to_string(CalcMethod::kLu), "lu");
  for (CalcMethod method : {CalcMethod::kGauss, CalcMethod::kLu,
                            CalcMethod::kCholesky, CalcMethod::kQr}) {
    StrategySpec spec;
    spec.kind = kind_for(method);
    EXPECT_EQ(spec.format(), to_string(method));
  }
}

TEST(NewtonClassicStrategyTest, MoreIterationsImproveInverse) {
  Rng rng(3);
  auto s = random_spd<double>(12, rng, 2.0);
  NewtonClassicStrategy<double> coarse(4);
  NewtonClassicStrategy<double> fine(24);
  const double e_coarse = inverse_error(s, coarse.invert(s, 0));
  const double e_fine = inverse_error(s, fine.invert(s, 0));
  EXPECT_LT(e_fine, e_coarse);
  EXPECT_LT(e_fine, 1e-6);
  EXPECT_EQ(fine.last_event().path, InversePath::kApproximation);
  EXPECT_EQ(fine.last_event().newton_iterations, 24u);
}

TEST(TaylorStrategyTest, FirstCallAnchorsExactly) {
  Rng rng(5);
  auto s = random_spd<double>(8, rng);
  TaylorStrategy<double> taylor(2);
  auto inv = taylor.invert(s, 0);
  EXPECT_LT(inverse_error(s, inv), 1e-7);
  EXPECT_EQ(taylor.last_event().path, InversePath::kCalculation);
}

TEST(TaylorStrategyTest, TracksSlowlyDriftingMatrix) {
  Rng rng(7);
  auto s0 = random_spd<double>(8, rng, 2.0);
  TaylorStrategy<double> taylor(2);
  taylor.invert(s0, 0);
  // Drift the matrix slightly; the first-order expansion must stay close.
  auto s1 = s0;
  for (std::size_t i = 0; i < 8; ++i) s1(i, i) += 0.01;
  auto inv = taylor.invert(s1, 1);
  EXPECT_EQ(taylor.last_event().path, InversePath::kApproximation);
  EXPECT_LT(inverse_error(s1, inv), 1e-2);
}

TEST(TaylorStrategyTest, HigherOrderTracksBigDriftBetter) {
  Rng rng(9);
  auto s0 = random_spd<double>(8, rng, 2.0);
  auto s1 = s0;
  for (std::size_t i = 0; i < 8; ++i) s1(i, i) += 0.3;

  TaylorStrategy<double> low(2), high(4);
  low.invert(s0, 0);
  high.invert(s0, 0);
  EXPECT_LT(inverse_error(s1, high.invert(s1, 1)),
            inverse_error(s1, low.invert(s1, 1)));
}

TEST(TaylorStrategyTest, ErrorGrowsWithDriftFromAnchor) {
  Rng rng(11);
  auto s0 = random_spd<double>(8, rng, 2.0);
  TaylorStrategy<double> taylor(2);
  taylor.invert(s0, 0);
  auto small_drift = s0;
  auto large_drift = s0;
  for (std::size_t i = 0; i < 8; ++i) {
    small_drift(i, i) += 0.01;
    large_drift(i, i) += 0.5;
  }
  EXPECT_LT(inverse_error(small_drift, taylor.invert(small_drift, 1)),
            inverse_error(large_drift, taylor.invert(large_drift, 2)));
}

TEST(TaylorStrategyTest, ResetDropsAnchor) {
  Rng rng(13);
  auto s = random_spd<double>(6, rng);
  TaylorStrategy<double> taylor(2);
  taylor.invert(s, 0);
  taylor.reset();
  taylor.invert(s, 0);
  EXPECT_EQ(taylor.last_event().path, InversePath::kCalculation);
}

TEST(IfkfStrategyTest, ExactWhenRIsActuallyDiagonal) {
  // If the true noise is uncorrelated, diagonalizing R changes nothing and
  // the division-free iteration converges to the exact inverse.
  Rng rng(17);
  auto signal = random_spd<double>(8, rng, 0.0);
  Matrix<double> r(8, 8);
  for (std::size_t i = 0; i < 8; ++i) r(i, i) = 5.0;
  auto s = signal;
  s += r;
  IfkfStrategy<double> ifkf(r, 16);
  EXPECT_LT(inverse_error(s, ifkf.invert(s, 0)), 1e-8);
}

TEST(IfkfStrategyTest, MismatchGrowsWithCorrelation) {
  // Correlated R: the assumed inverse is systematically wrong.
  Rng rng(19);
  auto signal = random_spd<double>(8, rng, 0.0);
  Matrix<double> r(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      const double dist = double(i > j ? i - j : j - i);
      r(i, j) = 4.0 * std::exp(-dist / 4.0);
    }
  }
  auto s = signal;
  s += r;
  IfkfStrategy<double> ifkf(r, 16);
  const double err = inverse_error(s, ifkf.invert(s, 0));
  EXPECT_GT(err, 0.1) << "correlation blindness must cost accuracy";
  EXPECT_TRUE(std::isfinite(err));
}

TEST(IfkfStrategyTest, RejectsWrongRShape) {
  Rng rng(23);
  auto s = random_spd<double>(6, rng);
  IfkfStrategy<double> ifkf(Matrix<double>(4, 4, 1.0));
  EXPECT_THROW(ifkf.invert(s, 0), std::invalid_argument);
}

TEST(IfkfStrategyTest, DefaultConstructedUsesPureS) {
  Rng rng(29);
  auto s = random_spd<double>(6, rng, 4.0);
  IfkfStrategy<double> ifkf;
  auto inv = ifkf.invert(s, 0);
  EXPECT_LT(inverse_error(s, inv), 1e-6)
      << "without R the strategy just inverts S iteratively";
}

}  // namespace
}  // namespace kalmmind::kalman
