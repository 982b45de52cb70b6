// Steady-state KF: Riccati fixed point, constant-gain filter behavior.
#include "kalman/sskf.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "../test_util.hpp"
#include "kalman/calculation_strategies.hpp"
#include "kalman/filter.hpp"
#include "kalman/gain_schedule.hpp"
#include "kalman_test_util.hpp"
#include "neural/dataset.hpp"

namespace kalmmind::kalman {
namespace {

using kalmmind::testing::expect_matrix_near;
using kalmmind::testing::simulate_measurements;
using kalmmind::testing::small_model;

TEST(SteadyStateTest, GainIsAFixedPointOfTheRecursion) {
  auto m = small_model(5);
  auto ss = solve_steady_state(m);
  EXPECT_GT(ss.iterations, 1u);

  // Recompute one covariance/gain step starting from the converged P_pred:
  // the gain must not move.
  Matrix<double> hp, s;
  linalg::multiply_into(hp, m.h, ss.p_pred);
  linalg::multiply_bt_into(s, hp, m.h);
  s += m.r;
  expect_matrix_near(s, ss.s, 1e-8, "S at the fixed point");
  Matrix<double> pht;
  linalg::multiply_bt_into(pht, ss.p_pred, m.h);
  Matrix<double> k;
  linalg::multiply_into(k, pht, linalg::invert_lu(s));
  expect_matrix_near(k, ss.k, 1e-7, "K at the fixed point");
}

TEST(SteadyStateTest, SInverseIsExact) {
  auto m = small_model(4);
  auto ss = solve_steady_state(m);
  EXPECT_LT(linalg::inverse_residual(ss.s, ss.s_inv), 1e-9);
}

TEST(SteadyStateTest, MatchesLongFilterRun) {
  auto m = small_model(6);
  auto zs = simulate_measurements(m, 300);
  KalmanFilter<double> filter(
      m, std::make_unique<CalculationStrategy<double>>(CalcMethod::kLu));
  for (const auto& z : zs) filter.step(z);

  auto ss = solve_steady_state(m);
  // Converged posterior covariance equals (I - K H) P_pred.
  Matrix<double> kh;
  linalg::multiply_into(kh, ss.k, m.h);
  Matrix<double> p_post;
  linalg::multiply_into(p_post, linalg::identity_minus(kh), ss.p_pred);
  expect_matrix_near(filter.covariance(), p_post, 1e-9,
                     "filter P converges to the Riccati solution");
}

TEST(SteadyStateTest, GainEqualsTheLuScheduleEntryBitForBit) {
  // The Riccati solver and the gain schedule run one covariance recursion:
  // with the same model and an LU inverse, the converged gain is exactly
  // the schedule's K at the converging iteration.
  neural::DatasetSpec spec;
  spec.encoding.channels = 40;
  spec.train_steps = 400;
  spec.seed = 99;
  FilterConfig<double> cfg;
  cfg.model = neural::build_dataset(spec).model;
  cfg.strategy.kind = StrategyKind::kLu;
  ASSERT_EQ(cfg.model.x_dim(), 6u);

  const SteadyState<double> ss = solve_steady_state(cfg.model);
  GainSchedule schedule(cfg);
  const auto entry = schedule.at(ss.iterations - 1);
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->k.same_shape(ss.k));
  EXPECT_EQ(std::memcmp(entry->k.data(), ss.k.data(),
                        ss.k.size() * sizeof(double)),
            0)
      << "after " << ss.iterations << " iterations";
}

TEST(SteadyStateTest, ThrowsWithoutConvergenceBudget) {
  auto m = small_model();
  EXPECT_THROW(solve_steady_state(m, 1e-15, 2), std::runtime_error);
}

TEST(ConstantGainFilterTest, RejectsBadGainShape) {
  auto m = small_model(4);
  EXPECT_THROW(ConstantGainFilter<double>(m, Matrix<double>(3, 4)),
               std::invalid_argument);
}

TEST(ConstantGainFilterTest, RejectsWrongMeasurementSize) {
  auto m = small_model(4);
  auto ss = solve_steady_state(m);
  ConstantGainFilter<double> filter(m, ss.k);
  EXPECT_THROW(filter.step(Vector<double>(3)), std::invalid_argument);
}

TEST(ConstantGainFilterTest, AgreesWithFullFilterAfterConvergence) {
  // Once the full filter's gain has converged, both filters apply the same
  // update; starting them from the same state they stay together.
  auto m = small_model(5);
  auto zs = simulate_measurements(m, 400);
  KalmanFilter<double> full(
      m, std::make_unique<CalculationStrategy<double>>(CalcMethod::kLu));
  auto ss = solve_steady_state(m);
  ConstantGainFilter<double> sskf(m, ss.k);

  double max_gap = 0.0;
  for (std::size_t n = 0; n < zs.size(); ++n) {
    const auto& xf = full.step(zs[n]);
    const auto& xs = sskf.step(zs[n]);
    if (n > 350) {  // compare only after both reach steady state
      for (std::size_t j = 0; j < 2; ++j)
        max_gap = std::max(max_gap, std::fabs(xf[j] - xs[j]));
    }
  }
  EXPECT_LT(max_gap, 1e-3);
}

TEST(ConstantGainFilterTest, TransientDiffersFromFullFilter) {
  // ...but during the transient the SSKF is visibly worse — the accuracy
  // cost the paper's Table III shows.
  auto m = small_model(5);
  auto zs = simulate_measurements(m, 10);
  KalmanFilter<double> full(
      m, std::make_unique<CalculationStrategy<double>>(CalcMethod::kLu));
  auto ss = solve_steady_state(m);
  ConstantGainFilter<double> sskf(m, ss.k);
  double gap = 0.0;
  for (const auto& z : zs) {
    const auto& xf = full.step(z);
    const auto& xs = sskf.step(z);
    gap = std::max(gap, std::fabs(xf[0] - xs[0]));
  }
  EXPECT_GT(gap, 1e-6);
}

TEST(ConstantGainFilterTest, RunIsReproducibleAndEventsAreNone) {
  auto m = small_model(4);
  auto zs = simulate_measurements(m, 20);
  auto ss = solve_steady_state(m);
  ConstantGainFilter<double> sskf(m, ss.k);
  auto out1 = sskf.run(zs);
  auto out2 = sskf.run(zs);
  ASSERT_EQ(out1.states.size(), 20u);
  for (std::size_t n = 0; n < 20; ++n)
    EXPECT_TRUE(out1.states[n] == out2.states[n]);
  for (const auto& ev : out1.events) EXPECT_EQ(ev.path, InversePath::kNone);
}

}  // namespace
}  // namespace kalmmind::kalman
