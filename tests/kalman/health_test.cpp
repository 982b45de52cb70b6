// Numerical health monitor + recovery ladder (kalman/health.hpp): every
// fault class must be *detected within the step that produced it* and
// recovered without a single NaN reaching the caller, with the action
// counted both in HealthStats and the kalmmind.kf.recoveries_total.*
// telemetry counters.  Re-convergence is checked against the float64
// reference (kalman/reference.hpp) on the clean tail of each stream.
#include "kalman/health.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "kalman/interleaved.hpp"
#include "kalman/reference.hpp"
#include "fixedpoint/fixed.hpp"
#include "telemetry/telemetry.hpp"
#include "kalman_test_util.hpp"
#if defined(KALMMIND_FAULTS)
#include "testing/fault_injection.hpp"
#endif

namespace kalmmind::kalman {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Counter assertions are skipped when telemetry is compiled out (the
// KALMMIND_TELEMETRY=OFF CI job): every counter then reads a constant 0.
std::uint64_t recovery_counter(const std::string& action) {
  return telemetry::MetricsRegistry::global()
      .counter("kalmmind.kf.recoveries_total." + action)
      .value();
}

std::uint64_t faults_counter() {
  return telemetry::MetricsRegistry::global()
      .counter("kalmmind.kf.faults_detected_total")
      .value();
}

FilterOptions health_on() {
  FilterOptions opts;
  opts.health.enabled = true;
  return opts;
}

void expect_finite(const Vector<double>& x, std::size_t step) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_TRUE(std::isfinite(x[i])) << "step " << step << " dim " << i;
  }
}

TEST(KalmanHealthTest, ConfigRejectsNonsenseThresholds) {
  HealthConfig bad;
  bad.enabled = true;
  bad.max_state_abs = 0.0;
  EXPECT_FALSE(bad.check().ok());

  bad = HealthConfig{};
  bad.enabled = true;
  bad.newton_residual_limit = 0.0;
  EXPECT_FALSE(bad.check().ok());

  bad = HealthConfig{};
  bad.enabled = true;
  bad.innovation_gate_sigma = -1.0;
  EXPECT_FALSE(bad.check().ok());

  bad = HealthConfig{};
  bad.enabled = true;
  bad.deescalate_after = 0;
  EXPECT_FALSE(bad.check().ok());

  // Disabled configs are not validated field-by-field: the monitor is off.
  bad.enabled = false;
  EXPECT_TRUE(bad.check().ok());

  // The filter constructor goes through the same check().
  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.max_state_abs = -1.0;
  const auto model = testing::small_model(4);
  EXPECT_THROW(
      KalmanFilter<double>(
          model, make_inverse_strategy<double>(StrategySpec::parse("gauss")),
          opts),
      std::invalid_argument);
}

TEST(KalmanHealthTest, CleanStreamIsBitIdenticalWithMonitoringOn) {
  // The clean path must be observation-only: enabling health (gate off)
  // cannot perturb a single bit of the decode.
  const auto model = testing::small_model(5);
  const auto zs = testing::simulate_measurements(model, 60);

  const StrategySpec spec = StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  KalmanFilter<double> plain(
      model, make_inverse_strategy<double>(spec));
  KalmanFilter<double> monitored(
      model, make_inverse_strategy<double>(spec),
      health_on());

  for (std::size_t n = 0; n < zs.size(); ++n) {
    const Vector<double>& a = plain.step(zs[n]);
    const Vector<double>& b = monitored.step(zs[n]);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "step " << n << " dim " << i;
    }
  }
  EXPECT_EQ(monitored.health().faulty_steps, 0u);
  EXPECT_EQ(monitored.health().escalation_level, 0u);
}

TEST(KalmanHealthTest, ProbeResidualAcceptsGoodAndFlagsBadInverse) {
  HealthConfig cfg;
  cfg.enabled = true;
  NumericalHealthMonitor<double> monitor(cfg);
  monitor.begin_step();

  const Matrix<double> s = Matrix<double>::identity(4) * 2.0;
  const Matrix<double> good = Matrix<double>::identity(4) * 0.5;
  EXPECT_TRUE(monitor.approx_residual_ok(s, good));
  EXPECT_FALSE(monitor.stats().has(HealthFault::kResidualGrowth));

  // An inverse two orders of magnitude off blows the probe way past the
  // default limit of 1.0.
  const Matrix<double> bad = Matrix<double>::identity(4) * 100.0;
  EXPECT_FALSE(monitor.approx_residual_ok(s, bad));
  EXPECT_TRUE(monitor.stats().has(HealthFault::kResidualGrowth));
}

TEST(KalmanHealthTest, BadNewtonSeedIsRepairedWithinTheSameStep) {
  // calc_freq=0 calculates only at iteration 0.  A huge P0 makes S_0 (and
  // its inverse, the eq. (5) seed) wildly out of scale with S_1, so the
  // iteration-1 approximation lands far outside the eq. (3) basin.  The
  // probe must catch it and re-run the calculation path before the gain is
  // formed — the output stays reference-grade instead of diverging.
  auto model = testing::small_model(4);
  model.p0 = Matrix<double>::identity(2) * 1e6;
  model.validate();
  const auto zs = testing::simulate_measurements(model, 4);

  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.newton_residual_limit = 0.5;
  // The plain (non-Joseph) update on a 1e6-scale P rounds asymmetrically;
  // that separate fault class is not under test here.
  opts.health.covariance_symmetry_tol = 1e-3;
  auto strategy = std::make_unique<InterleavedStrategy<double>>(
      CalcMethod::kGauss, InterleaveConfig{0, 1, SeedPolicy::kLastCalculated});
  KalmanFilter<double> filter(model, std::move(strategy), opts);

  filter.step(zs[0]);
  EXPECT_EQ(filter.last_inverse_event().path, InversePath::kCalculation);
  EXPECT_EQ(filter.health().total(RecoveryAction::kForceCalculation), 0u);

  const std::uint64_t forced_before = recovery_counter("force_calculation");
  filter.step(zs[1]);
  // The repair re-ran the exact inversion within step 1...
  EXPECT_EQ(filter.last_inverse_event().path, InversePath::kCalculation);
  EXPECT_TRUE(filter.health().has(HealthFault::kResidualGrowth));
  EXPECT_GE(filter.health().total(RecoveryAction::kForceCalculation), 1u);
  if constexpr (telemetry::kCompiledIn) {
    EXPECT_GE(recovery_counter("force_calculation"), forced_before + 1);
  }
  expect_finite(filter.state(), 1);

  // ...so the decode matches the per-step reference closely.
  KalmanFilter<double> reference = make_reference_filter(model);
  reference.step(zs[0]);
  const Vector<double>& ref = reference.step(zs[1]);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(filter.state()[i], ref[i], 1e-5) << "dim " << i;
  }
}

TEST(KalmanHealthTest, LadderClimbsEveryRungOnAnInterleavedStrategy) {
  const auto model = testing::small_model(3, 5);
  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.max_state_abs = 1e3;

  auto strategy = std::make_unique<InterleavedStrategy<double>>(
      CalcMethod::kGauss,
      InterleaveConfig{4, 2, SeedPolicy::kPreviousIteration});
  InterleavedStrategy<double>* strat = strategy.get();
  KalmanFilter<double> filter(model, std::move(strategy), opts);

  const std::uint64_t before_force = recovery_counter("force_calculation");
  const std::uint64_t before_reseed = recovery_counter("reseed_policy0");
  const std::uint64_t before_reset = recovery_counter("covariance_reset");
  const std::uint64_t before_sskf = recovery_counter("sskf_fallback");
  const std::uint64_t before_faults = faults_counter();

  Vector<double> rail(3);
  for (std::size_t i = 0; i < rail.size(); ++i) rail[i] = 1e12;

  // Step 1: the railed measurement explodes the update -> rung 1.
  expect_finite(filter.step(rail), 0);
  EXPECT_TRUE(filter.health().has(HealthFault::kStateExploded));
  EXPECT_EQ(filter.health().escalation_level, 1u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kForceCalculation), 1u);

  // Step 2: still railed -> rung 2 pins the seed policy to last-calculated.
  expect_finite(filter.step(rail), 1);
  EXPECT_EQ(filter.health().escalation_level, 2u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kReseedPolicy0), 1u);
  EXPECT_EQ(strat->config().policy, SeedPolicy::kLastCalculated);

  // Step 3: rung 3 resets the covariance and the strategy.
  expect_finite(filter.step(rail), 2);
  EXPECT_EQ(filter.health().escalation_level, 3u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kCovarianceReset), 1u);

  // Step 4: rung 4 engages the steady-state constant-gain fallback.
  expect_finite(filter.step(rail), 3);
  EXPECT_EQ(filter.health().escalation_level, 4u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kSskfFallback), 1u);
  EXPECT_TRUE(filter.health().fallback_active);

  // Step 5: fallback path; the railed innovation is still contained.
  expect_finite(filter.step(rail), 4);
  EXPECT_EQ(filter.last_inverse_event().path, InversePath::kNone);
  EXPECT_TRUE(filter.health().fallback_active);
  EXPECT_EQ(filter.health().faulty_steps, 5u);

  if constexpr (telemetry::kCompiledIn) {
    EXPECT_EQ(recovery_counter("force_calculation"), before_force + 1);
    EXPECT_EQ(recovery_counter("reseed_policy0"), before_reseed + 1);
    EXPECT_EQ(recovery_counter("covariance_reset"), before_reset + 1);
    EXPECT_EQ(recovery_counter("sskf_fallback"), before_sskf + 1);
    EXPECT_GT(faults_counter(), before_faults);
  }

  // The fallback is sticky until an explicit reset.
  filter.reset();
  EXPECT_FALSE(filter.health().fallback_active);
  EXPECT_EQ(filter.health().escalation_level, 0u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kSskfFallback), 0u);
}

TEST(KalmanHealthTest, LadderSkipsRungsAConstantStrategyCannotHonor) {
  // A preloaded constant-inverse strategy has nothing to force or reseed
  // (request_calculation/harden_seed_policy both refuse): the ladder must
  // jump straight to the covariance reset and then the SSKF fallback.
  const auto model = testing::small_model(4);
  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.max_state_abs = 1e3;
  StrategyMatrices<double> preloaded;
  preloaded.preloaded_inverse = solve_steady_state(model).s_inv;
  KalmanFilter<double> filter(
      model,
      make_inverse_strategy<double>(StrategySpec::parse("sskf"), preloaded),
      opts);

  Vector<double> rail(4);
  for (std::size_t i = 0; i < rail.size(); ++i) rail[i] = 1e12;

  expect_finite(filter.step(rail), 0);
  EXPECT_EQ(filter.health().escalation_level, 3u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kForceCalculation), 0u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kReseedPolicy0), 0u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kCovarianceReset), 1u);

  expect_finite(filter.step(rail), 1);
  EXPECT_EQ(filter.health().escalation_level, 4u);
  EXPECT_TRUE(filter.health().fallback_active);
}

TEST(KalmanHealthTest, LadderDeescalatesAfterConsecutiveHealthySteps) {
  const auto model = testing::small_model(4);
  const auto zs = testing::simulate_measurements(model, 12);
  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.max_state_abs = 1e3;
  opts.health.deescalate_after = 4;

  const StrategySpec spec = StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(spec), opts);

  Vector<double> rail(4);
  for (std::size_t i = 0; i < rail.size(); ++i) rail[i] = 1e12;
  filter.step(rail);
  EXPECT_EQ(filter.health().escalation_level, 1u);

  for (std::size_t n = 0; n < 3; ++n) filter.step(zs[n]);
  EXPECT_EQ(filter.health().escalation_level, 1u);  // 3 healthy < 4
  filter.step(zs[3]);
  EXPECT_EQ(filter.health().escalation_level, 0u);  // 4th healthy step
  for (std::size_t n = 4; n < zs.size(); ++n) expect_finite(filter.step(zs[n]), n);
}

TEST(KalmanHealthTest, RepairedProbeFailureIsCountedButDoesNotClimb) {
  // A probe limit no approximation meets: every approximation step fails
  // the Newton probe and is repaired by a forced calculation in the same
  // step.  That fault is counted but climbs no rung, so only the three
  // saturated bins 12-14 climb: rungs 1, 2, 3 — never the SSKF fallback.
  const auto model = testing::small_model(6);
  auto zs = testing::simulate_measurements(model, 20, 3);
  for (std::size_t n = 12; n < 15; ++n) {
    for (std::size_t i = 0; i < zs[n].size(); ++i) zs[n][i] = 1e7;
  }
  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.newton_residual_limit = 1e-12;
  opts.health.max_state_abs = 50.0;
  opts.health.deescalate_after = 1;
  const StrategySpec spec = StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=4,approx=2,policy=1)");
  KalmanFilter<double> filter(model, make_inverse_strategy<double>(spec),
                              opts);

  std::size_t probe_failures = 0;
  for (std::size_t n = 0; n < 12; ++n) {
    expect_finite(filter.step(zs[n]), n);
    const bool failed = filter.health().has(HealthFault::kResidualGrowth);
    // calc_freq=4: every bin off the calculation cadence approximates.
    EXPECT_EQ(failed, n % 4 != 0) << "bin " << n;
    probe_failures += failed;
    EXPECT_EQ(filter.health().escalation_level, 0u) << "bin " << n;
  }
  EXPECT_TRUE(filter.health().has(HealthFault::kResidualGrowth));  // bin 11
  EXPECT_EQ(filter.health().faulty_steps, probe_failures);
  // One forced calculation per probe failure: the repair itself, and no
  // rung-1 climb forcing a second one on the next bin.
  EXPECT_EQ(filter.health().total(RecoveryAction::kForceCalculation),
            probe_failures);

  for (std::size_t n = 12; n < 15; ++n) {
    expect_finite(filter.step(zs[n]), n);
    EXPECT_TRUE(filter.health().has(HealthFault::kStateExploded))
        << "bin " << n;
    EXPECT_EQ(filter.health().escalation_level, n - 11) << "bin " << n;
  }
  EXPECT_EQ(filter.health().total(RecoveryAction::kCovarianceReset), 1u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kSskfFallback), 0u);
  EXPECT_FALSE(filter.health().fallback_active);
}

#if defined(KALMMIND_FAULTS)

TEST(KalmanHealthTest, NanSpikeSkipsMeasurementAndReconverges) {
  const auto model = testing::small_model(4);
  const auto clean = testing::simulate_measurements(model, 60);
  auto faulty = clean;

  testing::FaultInjector injector(42);
  injector.schedule({/*step=*/30, testing::FaultKind::kNanSpike,
                     /*index=*/2});

  FilterOptions opts;
  opts.health.enabled = true;
  const StrategySpec spec = StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(spec), opts);

  const std::uint64_t skips_before = recovery_counter("skip_measurement");
  for (std::size_t n = 0; n < faulty.size(); ++n) {
    injector.corrupt(faulty[n], n);
    const Vector<double>& x = filter.step(faulty[n]);
    expect_finite(x, n);
    if (n == 30) {
      // Detected within the faulty step itself: predict-only recovery.
      EXPECT_TRUE(filter.health().has(HealthFault::kMeasurementNonFinite));
      EXPECT_EQ(filter.last_inverse_event().path, InversePath::kNone);
    }
  }
  EXPECT_EQ(filter.health().total(RecoveryAction::kSkipMeasurement), 1u);
  EXPECT_EQ(filter.health().faulty_steps, 1u);
  EXPECT_EQ(filter.health().escalation_level, 0u);
  if constexpr (telemetry::kCompiledIn) {
    EXPECT_EQ(recovery_counter("skip_measurement"), skips_before + 1);
  }

  // 30 clean steps later the decode has re-converged onto the reference
  // trajectory (which never saw the fault).
  const auto ref = run_reference(model, clean);
  const Vector<double>& x = filter.state();
  for (std::size_t i = 0; i < x.size(); ++i) {
    // The position state is a random walk (F_00 = 1), so the one-skipped-
    // update transient decays slowly; 30 clean steps bring it to O(1e-3).
    EXPECT_NEAR(x[i], ref.states.back()[i], 2e-2) << "dim " << i;
  }
}

// Measurements from a trajectory parked far from the origin, so a dropped
// (zeroed) channel produces an innovation tens of sigma wide.
std::vector<Vector<double>> offset_measurements(const KalmanModel<double>& m,
                                                std::size_t steps,
                                                std::uint64_t seed) {
  linalg::Rng rng(seed);
  std::normal_distribution<double> white(0.0, 1.0);
  Vector<double> x = m.x0;
  x[0] = 50.0;
  std::vector<Vector<double>> zs;
  zs.reserve(steps);
  for (std::size_t n = 0; n < steps; ++n) {
    Vector<double> fx;
    linalg::multiply_into(fx, m.f, x);
    for (std::size_t i = 0; i < x.size(); ++i)
      x[i] = fx[i] + 0.03 * white(rng);
    Vector<double> z;
    linalg::multiply_into(z, m.h, x);
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += 0.3 * white(rng);
    zs.push_back(std::move(z));
  }
  return zs;
}

TEST(KalmanHealthTest, InnovationGateContainsDropoutAndSaturation) {
  // Deterministic observation rows: channels 0/1 read +/- the position
  // (~50), channels 2/3 mix in the velocity.
  auto model = testing::small_model(4);
  model.h = Matrix<double>(4, 2, {1.0, 0.0, -1.0, 0.0, 0.5, 1.0, -0.5, 1.0});
  // A wide prior keeps the gate open during acquisition (the trajectory
  // starts ~50 away from x0): the bound is sigma * sqrt(S_ii) and S starts
  // at ~H P0 H^t.  As P converges the gate tightens onto the innovation
  // noise floor, which is what makes the dropout detectable at all.
  model.p0 = Matrix<double>::identity(2) * 400.0;
  model.validate();
  const auto clean = offset_measurements(model, 70, 11);
  auto faulty = clean;

  testing::FaultInjector injector(7);
  // Two dead electrodes at step 30, a railed amplifier at step 40.
  injector.schedule({30, testing::FaultKind::kChannelDropout, /*index=*/0,
                     /*bit=*/62, /*magnitude=*/0.0, /*count=*/2});
  injector.schedule({40, testing::FaultKind::kSaturation, /*index=*/3,
                     /*bit=*/62, /*magnitude=*/1e6});

  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.innovation_gate_sigma = 8.0;
  const StrategySpec spec = StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(spec), opts);

  const std::uint64_t gates_before = recovery_counter("gate_channels");
  for (std::size_t n = 0; n < faulty.size(); ++n) {
    injector.corrupt(faulty[n], n);
    expect_finite(filter.step(faulty[n]), n);
    if (n == 30 || n == 40) {
      EXPECT_TRUE(filter.health().has(HealthFault::kMeasurementOutlier))
          << "step " << n;
    }
  }
  EXPECT_EQ(filter.health().total(RecoveryAction::kGateChannels), 2u);
  EXPECT_EQ(filter.health().gated_channels, 3u);  // 2 dropout + 1 railed
  EXPECT_EQ(filter.health().faulty_steps, 2u);
  EXPECT_EQ(filter.health().escalation_level, 0u);  // gate != ladder
  if constexpr (telemetry::kCompiledIn) {
    EXPECT_EQ(recovery_counter("gate_channels"), gates_before + 2);
  }

  const auto ref = run_reference(model, clean);
  const Vector<double>& x = filter.state();
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref.states.back()[i], 0.1) << "dim " << i;
  }
}

TEST(KalmanHealthTest, FixedPointOverflowRecoversViaCovarianceReset) {
  using Fx = fixedpoint::Fx64;
  // Hand-quantized copy of the small position/velocity model with two
  // measurement channels (Q31.32 resolves all of these exactly enough).
  KalmanModel<Fx> model;
  model.f = Matrix<Fx>(2, 2, {Fx(1.0), Fx(0.1), Fx(0.0), Fx(0.95)});
  model.q = Matrix<Fx>(2, 2, {Fx(1e-3), Fx(0.0), Fx(0.0), Fx(1e-3)});
  model.h = Matrix<Fx>(2, 2, {Fx(1.0), Fx(0.2), Fx(-0.8), Fx(1.0)});
  model.r = Matrix<Fx>(2, 2, {Fx(2.0), Fx(0.0), Fx(0.0), Fx(2.0)});
  model.x0 = Vector<Fx>(2);
  model.p0 = Matrix<Fx>(2, 2, {Fx(0.5), Fx(0.0), Fx(0.0), Fx(0.5)});
  model.validate();

  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.max_state_abs = 1e3;
  opts.health.deescalate_after = 4;
  KalmanFilter<Fx> filter(
      model,
      std::make_unique<CalculationStrategy<Fx>>(CalcMethod::kGauss), opts);

  Vector<Fx> z(2);
  z[0] = Fx(1.0);
  z[1] = Fx(0.5);
  for (int n = 0; n < 10; ++n) filter.step(z);
  EXPECT_EQ(filter.health().faulty_steps, 0u);

  // A raw-word upset in the top magnitude bits: the measurement jumps by
  // ~2^29 and the update explodes past max_state_abs every step.  The
  // Gauss strategy honors the force/reseed rungs trivially (steps 1-2),
  // step 3 resets the covariance, and step 4 would be the SSKF rung — but
  // fixed-point filters have no Riccati solve, so the ladder pins at the
  // covariance reset instead.
  const std::uint64_t resets_before = recovery_counter("covariance_reset");
  Vector<Fx> corrupted = z;
  corrupted[0].corrupt_raw(std::int64_t{1} << 61);
  for (int n = 0; n < 4; ++n) {
    const Vector<Fx>& x = filter.step(corrupted);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_LE(std::abs(linalg::to_double(x[i])), 1e3)
          << "bad step " << n << " dim " << i;
    }
  }
  EXPECT_GE(filter.health().faulty_steps, 4u);
  EXPECT_EQ(filter.health().escalation_level, 3u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kCovarianceReset), 2u);
  EXPECT_EQ(filter.health().total(RecoveryAction::kSskfFallback), 0u);
  EXPECT_FALSE(filter.health().fallback_active);
  if constexpr (telemetry::kCompiledIn) {
    EXPECT_EQ(recovery_counter("covariance_reset"), resets_before + 2);
  }

  // Clean measurements de-escalate and the decode settles back down.
  for (int n = 0; n < 10; ++n) {
    const Vector<Fx>& x = filter.step(z);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(std::isfinite(linalg::to_double(x[i])));
    }
  }
  EXPECT_EQ(filter.health().escalation_level, 0u);
}

#endif  // KALMMIND_FAULTS

}  // namespace
}  // namespace kalmmind::kalman
