// GainRecursion state transfer: a recursion that imports another's exported
// state (same model, same StrategySpec) continues it bit for bit — for every
// strategy kind, both interleave seed policies, a hardened policy and a
// pending forced calculation.  This is what lets a session snapshot resume
// without replaying its gain schedule (serve/snapshot.hpp).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>

#include "kalman/factory.hpp"
#include "kalman/recursion.hpp"
#include "kalman/riccati.hpp"
#include "kalman/strategy_spec.hpp"
#include "kalman_test_util.hpp"

namespace kalmmind::kalman {
namespace {

bool bit_equal(const Matrix<double>& a, const Matrix<double>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

StrategyMatrices<double> matrices_for(const StrategySpec& spec,
                                      const KalmanModel<double>& model) {
  StrategyMatrices<double> data;
  if (spec.kind == StrategyKind::kLite || spec.kind == StrategyKind::kSskf)
    data.preloaded_inverse = solve_steady_state(model).s_inv;
  if (spec.kind == StrategyKind::kIfkf) data.r = model.r;
  return data;
}

GainRecursion<double> make_recursion(const StrategySpec& spec,
                                     const KalmanModel<double>& model) {
  return GainRecursion<double>(
      model, make_inverse_strategy<double>(spec, matrices_for(spec, model)));
}

// Step `from` and a fresh recursion that imported its state in lockstep:
// every later K, P and inversion path must match bit for bit.
void expect_continues_bit_for_bit(GainRecursion<double>& from,
                                  const StrategySpec& spec,
                                  const KalmanModel<double>& model,
                                  std::size_t steps, const std::string& what) {
  RecursionState<double> state;
  from.export_state(state);
  EXPECT_EQ(state.n, from.iteration()) << what;
  GainRecursion<double> to = make_recursion(spec, model);
  to.import_state(state);
  ASSERT_EQ(to.iteration(), from.iteration()) << what;
  for (std::size_t i = 0; i < steps; ++i) {
    const InverseEvent a = from.step(model);
    const InverseEvent b = to.step(model);
    ASSERT_EQ(a.path, b.path) << what << " step " << i;
    ASSERT_EQ(a.newton_iterations, b.newton_iterations)
        << what << " step " << i;
    ASSERT_TRUE(bit_equal(from.k(), to.k())) << what << " K at step " << i;
    ASSERT_TRUE(bit_equal(from.p(), to.p())) << what << " P at step " << i;
  }
}

StrategySpec interleaved(std::size_t calc_freq, SeedPolicy policy) {
  StrategySpec spec;
  spec.kind = StrategyKind::kInterleaved;
  spec.calc_freq = calc_freq;
  spec.approx = 2;
  spec.policy = policy;
  return spec;
}

TEST(RecursionStateTest, EveryStrategyKindRoundTrips) {
  const auto model = testing::small_model(5);
  for (std::size_t k = 0; k < kStrategyKindCount; ++k) {
    StrategySpec spec;
    spec.kind = StrategyKind(k);
    if (spec.kind == StrategyKind::kInterleaved) {
      spec = interleaved(3, SeedPolicy::kPreviousIteration);
    }
    if (spec.kind == StrategyKind::kSskf) spec.approx = 2;
    // Cut before the first step (fresh state) and mid-run.
    for (const std::size_t cut : {0u, 7u}) {
      GainRecursion<double> from = make_recursion(spec, model);
      for (std::size_t i = 0; i < cut; ++i) from.step(model);
      expect_continues_bit_for_bit(
          from, spec, model, 12,
          std::string(to_string(spec.kind)) + " cut " + std::to_string(cut));
    }
  }
}

TEST(RecursionStateTest, BothSeedPoliciesRoundTripMidInterleave) {
  const auto model = testing::small_model(6);
  for (const SeedPolicy policy :
       {SeedPolicy::kLastCalculated, SeedPolicy::kPreviousIteration}) {
    const StrategySpec spec = interleaved(4, policy);
    // Cuts right after a calculation, and between two approximations.
    for (const std::size_t cut : {1u, 5u, 6u, 10u}) {
      GainRecursion<double> from = make_recursion(spec, model);
      for (std::size_t i = 0; i < cut; ++i) from.step(model);
      RecursionState<double> state;
      from.export_state(state);
      EXPECT_TRUE(state.strategy.seed_ready);
      EXPECT_EQ(state.strategy.seed.rows(), model.z_dim());
      expect_continues_bit_for_bit(from, spec, model, 13,
                                   "policy " + std::to_string(int(policy)) +
                                       " cut " + std::to_string(cut));
    }
  }
}

TEST(RecursionStateTest, HardenedPolicyRoundTrips) {
  const auto model = testing::small_model(6);
  const StrategySpec spec = interleaved(5, SeedPolicy::kPreviousIteration);
  GainRecursion<double> hardened = make_recursion(spec, model);
  GainRecursion<double> control = make_recursion(spec, model);
  for (std::size_t i = 0; i < 7; ++i) {
    hardened.step(model);
    control.step(model);
  }
  ASSERT_TRUE(hardened.strategy().harden_seed_policy());
  RecursionState<double> state;
  hardened.export_state(state);
  EXPECT_TRUE(state.strategy.hardened);

  // Hardening changes the seed the next approximation reads, so the
  // trajectory leaves the unhardened one — and the import must follow it.
  GainRecursion<double> probe = make_recursion(spec, model);
  probe.import_state(state);
  probe.step(model);
  control.step(model);
  EXPECT_FALSE(bit_equal(probe.k(), control.k()));

  expect_continues_bit_for_bit(hardened, spec, model, 12, "hardened");
}

TEST(RecursionStateTest, PendingForcedCalculationRoundTrips) {
  const auto model = testing::small_model(6);
  const StrategySpec spec = interleaved(0, SeedPolicy::kLastCalculated);
  GainRecursion<double> from = make_recursion(spec, model);
  for (std::size_t i = 0; i < 6; ++i) from.step(model);
  ASSERT_TRUE(from.strategy().request_calculation());
  RecursionState<double> state;
  from.export_state(state);
  EXPECT_TRUE(state.strategy.force_calculation);

  GainRecursion<double> to = make_recursion(spec, model);
  to.import_state(state);
  EXPECT_EQ(to.step(model).path, InversePath::kCalculation);
  EXPECT_EQ(from.step(model).path, InversePath::kCalculation);
  ASSERT_TRUE(bit_equal(from.k(), to.k()));
  expect_continues_bit_for_bit(from, spec, model, 10, "after forced calc");
}

TEST(RecursionStateTest, ImportRejectsMisshapenState) {
  const auto model = testing::small_model(4);
  const StrategySpec spec = interleaved(3, SeedPolicy::kPreviousIteration);
  GainRecursion<double> from = make_recursion(spec, model);
  for (std::size_t i = 0; i < 3; ++i) from.step(model);
  RecursionState<double> good;
  from.export_state(good);

  GainRecursion<double> to = make_recursion(spec, model);
  RecursionState<double> bad_p = good;
  bad_p.p = Matrix<double>::identity(3);
  EXPECT_THROW(to.import_state(bad_p), std::invalid_argument);
  RecursionState<double> bad_seed = good;
  bad_seed.strategy.seed = Matrix<double>::identity(5);
  EXPECT_THROW(to.import_state(bad_seed), std::invalid_argument);
  EXPECT_EQ(to.iteration(), 0u);  // unchanged by a rejected import
}

}  // namespace
}  // namespace kalmmind::kalman
