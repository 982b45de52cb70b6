// Deterministic fault injection against the SoC surfaces
// (testing/fault_injection.hpp, docs/robustness.md): PLM/main-memory bit
// flips and MMIO register upsets, each detected within one step and
// recovered.  The whole file compiles only under KALMMIND_FAULTS, the same
// gate kalmmind-lint rule R5 enforces in src/.
#if defined(KALMMIND_FAULTS)

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "kalman/reference.hpp"
#include "soc/memory.hpp"
#include "soc/registers.hpp"
#include "testing/fault_injection.hpp"
#include "../kalman/kalman_test_util.hpp"

namespace kalmmind::soc {
namespace {

using kalman::FilterOptions;
using kalman::RecoveryAction;
using linalg::Vector;
using testing::FaultEvent;
using testing::FaultInjector;
using testing::FaultKind;

TEST(SocFaultInjectionTest, SplitmixStreamIsSeedDeterministic) {
  FaultInjector a(1234);
  FaultInjector b(1234);
  FaultInjector c(5678);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t va = a.next_u64();
    EXPECT_EQ(va, b.next_u64());
    any_diff = any_diff || (va != c.next_u64());
  }
  EXPECT_TRUE(any_diff);

  FaultInjector d(99);
  for (int i = 0; i < 256; ++i) {
    const double u = d.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(d.next_index(7), 7u);
  }
  EXPECT_EQ(d.next_index(0), 0u);  // degenerate range stays in bounds
}

TEST(SocFaultInjectionTest, ScheduledPlanReplaysOnlyMatchingSteps) {
  FaultInjector injector(1);
  injector.schedule({3, FaultKind::kNanSpike, 1});
  injector.schedule({5, FaultKind::kChannelDropout, 0, 62, 1e6, 2});
  injector.schedule({5, FaultKind::kBitFlip, /*addr=*/40, /*bit=*/62});

  Vector<double> z(4);
  for (std::size_t i = 0; i < z.size(); ++i) z[i] = 1.0;

  EXPECT_EQ(injector.corrupt(z, 2), 0u);  // nothing scheduled here
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], 1.0);

  EXPECT_EQ(injector.corrupt(z, 3), 1u);
  EXPECT_TRUE(std::isnan(z[1]));
  EXPECT_EQ(z[0], 1.0);

  z[1] = 1.0;
  // The bit-flip event is not a measurement fault: corrupt() skips it and
  // events_at() hands it to the memory owner instead.
  EXPECT_EQ(injector.corrupt(z, 5), 1u);
  EXPECT_EQ(z[0], 0.0);
  EXPECT_EQ(z[1], 0.0);
  const auto flips = injector.events_at(5, FaultKind::kBitFlip);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0].index, 40u);
  EXPECT_EQ(flips[0].bit, 62u);
  EXPECT_TRUE(injector.events_at(5, FaultKind::kRegisterCorruption).empty());
}

TEST(SocFaultInjectionTest, FlipBitIsItsOwnInverse) {
  double word = 3.25;
  FaultInjector::flip_bit(word, 62);
  EXPECT_NE(word, 3.25);
  FaultInjector::flip_bit(word, 62);
  EXPECT_EQ(word, 3.25);
}

TEST(SocFaultInjectionTest, PlmBitFlipDetectedWithinOneStepAndRecovered) {
  // The serve path on silicon: each measurement bin travels main memory ->
  // PLM -> datapath.  An exponent-bit upset in the stored bin must be
  // caught by the filter-level health monitor on the very step that
  // consumes it, and the decode must re-converge on the clean tail.
  const auto model = testing::small_model(4);
  const auto clean = testing::simulate_measurements(model, 60);

  FaultInjector injector(2026);
  constexpr std::size_t kFaultStep = 20;
  constexpr std::size_t kBase = 128;  // bin n lives at kBase + n*z_dim
  const std::size_t z_dim = clean[0].size();
  // Flip the top exponent bit of a word with |v| < 2 (exponent MSB clear):
  // the upset then lands in the huge/non-finite range, the detectable
  // direction.  (|v| >= 2 would collapse toward zero — that containment
  // direction is covered by the dropout gating test in health_test.cpp.)
  std::size_t channel = 0;
  for (std::size_t i = 0; i < z_dim; ++i) {
    if (std::abs(clean[kFaultStep][i]) < std::abs(clean[kFaultStep][channel]))
      channel = i;
  }
  ASSERT_LT(std::abs(clean[kFaultStep][channel]), 2.0);
  injector.schedule({kFaultStep, FaultKind::kBitFlip,
                     kBase + kFaultStep * z_dim + channel, /*bit=*/62});

  MainMemory memory;
  FilterOptions opts;
  opts.health.enabled = true;
  opts.health.innovation_gate_sigma = 8.0;
  const auto spec = kalman::StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  kalman::KalmanFilter<double> filter(
      model, kalman::make_inverse_strategy<double>(spec), opts);

  for (std::size_t n = 0; n < clean.size(); ++n) {
    const std::size_t addr = kBase + n * clean[n].size();
    memory.write_block(addr, &clean[n][0], clean[n].size());
    for (const FaultEvent& e :
         injector.events_at(n, FaultKind::kBitFlip)) {
      memory.flip_word_bit(e.index, e.bit);
    }
    Vector<double> z(clean[n].size());
    memory.read_block(addr, &z[0], z.size());

    const std::size_t faulty_before = filter.health().faulty_steps;
    const Vector<double>& x = filter.step(z);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_TRUE(std::isfinite(x[i])) << "step " << n << " dim " << i;
    }
    if (n == kFaultStep) {
      // A top-exponent flip turns the word into either +/-Inf/NaN (caught
      // pre-update as a non-finite measurement) or an astronomically large
      // finite value (caught by the innovation gate) — both within this
      // step.
      EXPECT_EQ(filter.health().faulty_steps, faulty_before + 1);
      EXPECT_GE(filter.health().total(RecoveryAction::kSkipMeasurement) +
                    filter.health().total(RecoveryAction::kGateChannels),
                1u);
    } else {
      EXPECT_EQ(filter.health().faulty_steps, faulty_before);
    }
  }
  EXPECT_EQ(filter.health().escalation_level, 0u);

  const auto ref = kalman::run_reference(model, clean);
  for (std::size_t i = 0; i < filter.state().size(); ++i) {
    EXPECT_NEAR(filter.state()[i], ref.states.back()[i], 2e-2) << "dim " << i;
  }
}

TEST(SocFaultInjectionTest, RegisterUpsetDetectedByScrubAndRepaired) {
  // Driver-style shadow scrub: software keeps the intended configuration
  // and periodically compares the MMIO window against it.  An injected
  // upset must be visible on the first scrub and a rewrite must clear it.
  RegisterFile regs;
  const std::uint32_t shadow[] = {/*kXDim=*/2, /*kZDim=*/6, /*kChunks=*/1,
                                  /*kBatches=*/1, /*kApprox=*/2,
                                  /*kCalcFreq=*/3, /*kPolicy=*/1};
  const Reg config_regs[] = {Reg::kXDim,    Reg::kZDim,  Reg::kChunks,
                             Reg::kBatches, Reg::kApprox, Reg::kCalcFreq,
                             Reg::kPolicy};
  for (std::size_t i = 0; i < std::size(config_regs); ++i) {
    regs.write(config_regs[i], shadow[i]);
  }

  FaultInjector injector(77);
  injector.schedule({0, FaultKind::kRegisterCorruption,
                     static_cast<std::size_t>(Reg::kZDim), /*bit=*/0,
                     /*magnitude=*/0.0, /*count=*/1});
  for (const FaultEvent& e :
       injector.events_at(0, FaultKind::kRegisterCorruption)) {
    regs.corrupt_register(static_cast<Reg>(e.index), 0x0005u);
  }

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < std::size(config_regs); ++i) {
    if (regs.read(config_regs[i]) != shadow[i]) {
      ++mismatches;
      regs.write(config_regs[i], shadow[i]);  // repair from the shadow
    }
  }
  EXPECT_EQ(mismatches, 1u);
  EXPECT_EQ(regs.read(Reg::kZDim), 6u);  // scrub restored the value

  for (std::size_t i = 0; i < std::size(config_regs); ++i) {
    EXPECT_EQ(regs.read(config_regs[i]), shadow[i]);
  }
}

TEST(SocFaultInjectionTest, StatusRegisterUpsetBeatsWriteProtection) {
  // STATUS is read-only from the software side, but an SEU is a device-side
  // event: corrupt_register must reach it anyway, and reset() recovers.
  RegisterFile regs;
  regs.set_status(kStatusDone);
  EXPECT_THROW(regs.write(Reg::kStatus, kStatusIdle), std::invalid_argument);

  regs.corrupt_register(Reg::kStatus, 0x4u);
  EXPECT_EQ(regs.read(Reg::kStatus), kStatusDone ^ 0x4u);

  regs.reset();
  EXPECT_EQ(regs.read(Reg::kStatus), kStatusIdle);
}

}  // namespace
}  // namespace kalmmind::soc

#endif  // KALMMIND_FAULTS
