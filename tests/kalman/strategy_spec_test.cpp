// StrategySpec: the typed identity of an inverse-strategy choice.
// Round-trip through the text form, behavioral equality, and the
// fingerprint stability/sensitivity contract the gain-schedule cache
// (kalman/gain_schedule.hpp) keys on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "kalman/filter_config.hpp"
#include "kalman/strategy_spec.hpp"
#include "kalman_test_util.hpp"

namespace kalmmind {
namespace {

using kalman::SpecPrecision;
using kalman::StrategyKind;
using kalman::StrategySpec;

// One representative spec per kind, with every kind-relevant field moved
// off its default so the round-trip actually exercises the argument list.
std::vector<StrategySpec> representative_specs() {
  std::vector<StrategySpec> specs;
  for (std::size_t k = 0; k < kalman::kStrategyKindCount; ++k) {
    StrategySpec s;
    s.kind = StrategyKind(k);
    switch (s.kind) {
      case StrategyKind::kInterleaved:
        s.calc_method = kalman::CalcMethod::kCholesky;
        s.calc_freq = 4;
        s.approx = 2;
        s.policy = kalman::SeedPolicy::kPreviousIteration;
        break;
      case StrategyKind::kNewton:
        s.newton_iterations = 7;
        break;
      case StrategyKind::kTaylor:
        s.taylor_order = 3;
        break;
      case StrategyKind::kIfkf:
        s.ifkf_iterations = 20;
        break;
      case StrategyKind::kSskf:
        s.approx = 3;
        break;
      default:
        break;
    }
    specs.push_back(s);
  }
  return specs;
}

TEST(StrategySpecTest, ParseOfFormatRoundTripsEveryKindAndPrecision) {
  const SpecPrecision precisions[] = {SpecPrecision::kF64, SpecPrecision::kF32,
                                      SpecPrecision::kFx32,
                                      SpecPrecision::kFx64};
  for (StrategySpec s : representative_specs()) {
    for (const SpecPrecision p : precisions) {
      s.precision = p;
      SCOPED_TRACE(s.format());
      const StrategySpec back = StrategySpec::parse(s.format());
      EXPECT_EQ(back, s);
      EXPECT_EQ(back.fingerprint(), s.fingerprint());
      // format() is canonical: formatting the parse reproduces the text.
      EXPECT_EQ(back.format(), s.format());
    }
  }
}

TEST(StrategySpecTest, BareNamesParseToKindDefaults) {
  for (std::size_t k = 0; k < kalman::kStrategyKindCount; ++k) {
    const StrategyKind kind = StrategyKind(k);
    SCOPED_TRACE(to_string(kind));
    const StrategySpec parsed = StrategySpec::parse(to_string(kind));
    StrategySpec expect;
    expect.kind = kind;
    EXPECT_EQ(parsed, expect);
  }
}

TEST(StrategySpecTest, EqualityIsBehavioral) {
  // Leftover fields a kind never consumes must not break equality: a cache
  // key built from a CLI spec and one built programmatically should match.
  StrategySpec a, b;
  a.kind = b.kind = StrategyKind::kGauss;
  a.taylor_order = 9;
  b.newton_iterations = 17;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_EQ(a.normalized().format(), b.normalized().format());

  // ...but the fields the kind does consume must participate.
  a.kind = b.kind = StrategyKind::kTaylor;
  b.taylor_order = a.taylor_order;
  EXPECT_EQ(a, b);
  b.taylor_order = a.taylor_order + 1;
  EXPECT_NE(a, b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  // Precision is identity metadata for every kind: an f32 deployment never
  // shares a schedule with the f64 one.
  a.kind = b.kind = StrategyKind::kLu;
  b.taylor_order = a.taylor_order;
  b.precision = SpecPrecision::kF32;
  EXPECT_NE(a, b);
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(StrategySpecTest, TryParseRejectsMalformedText) {
  StrategySpec out;
  EXPECT_FALSE(StrategySpec::try_parse("definitely-not-a-strategy", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("newton(m=7", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("newton(m=seven)", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("newton(m)", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("gauss(banana=1)", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("interleaved(policy=2)", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("gauss@f16", &out).ok());
  // check() violations surface through parsing too.
  EXPECT_FALSE(StrategySpec::try_parse("taylor(order=0)", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("newton(m=0)", &out).ok());
}

TEST(StrategySpecTest, TryParseRejectsIntegerOverflow) {
  // SIZE_MAX itself is a valid size_t; anything larger is rejected, not
  // wrapped (2^64 + 4 would wrap to 4).
  static_assert(sizeof(std::size_t) == 8, "test assumes a 64-bit size_t");
  StrategySpec out;
  ASSERT_TRUE(StrategySpec::try_parse(
                  "interleaved(calc=gauss,calc_freq=18446744073709551615,"
                  "approx=1,policy=0)",
                  &out)
                  .ok());
  EXPECT_EQ(out.calc_freq, std::size_t(18446744073709551615ull));
  const Status wrapped = StrategySpec::try_parse(
      "interleaved(calc=gauss,calc_freq=18446744073709551620,approx=1,"
      "policy=0)",
      &out);
  EXPECT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.code(), StatusCode::kInvalid);
  EXPECT_FALSE(StrategySpec::try_parse("newton(m=99999999999999999999999)",
                                       &out)
                   .ok());
}

TEST(StrategySpecTest, ParseThrowsWithVocabularyInMessage) {
  try {
    StrategySpec::parse("definitely-not-a-strategy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("definitely-not-a-strategy"), std::string::npos);
    EXPECT_NE(what.find("gauss"), std::string::npos);
    EXPECT_NE(what.find("interleaved"), std::string::npos);
  }
}

// --- fingerprint stability & sensitivity ----------------------------------

TEST(FingerprintTest, EqualValuesHashEqual) {
  const kalman::KalmanModel<double> m1 = testing::small_model(4, 11);
  const kalman::KalmanModel<double> m2 = testing::small_model(4, 11);
  ASSERT_EQ(m1, m2);
  EXPECT_EQ(m1.fingerprint(), m2.fingerprint());

  kalman::FilterOptions o1, o2;
  EXPECT_EQ(o1.fingerprint(), o2.fingerprint());

  kalman::FilterConfigD c1, c2;
  c1.model = m1;
  c2.model = m2;
  ASSERT_EQ(c1, c2);
  EXPECT_EQ(c1.fingerprint(), c2.fingerprint());
}

TEST(FingerprintTest, ModelFingerprintSeesEveryMatrix) {
  const kalman::KalmanModel<double> base = testing::small_model(4);
  const std::uint64_t fp = base.fingerprint();

  auto perturbed = [&](auto&& mutate) {
    kalman::KalmanModel<double> m = base;
    mutate(m);
    return m.fingerprint();
  };
  EXPECT_NE(fp, perturbed([](auto& m) { m.f(0, 0) += 1e-12; }));
  EXPECT_NE(fp, perturbed([](auto& m) { m.q(1, 1) *= 2.0; }));
  EXPECT_NE(fp, perturbed([](auto& m) { m.h(0, 1) = -m.h(0, 1); }));
  EXPECT_NE(fp, perturbed([](auto& m) { m.r(0, 0) += 0.5; }));
  EXPECT_NE(fp, perturbed([](auto& m) { m.x0[0] = 42.0; }));
  EXPECT_NE(fp, perturbed([](auto& m) { m.p0(0, 0) *= 3.0; }));
}

TEST(FingerprintTest, OptionsAndHealthFieldsAreSensitive) {
  const kalman::FilterOptions base;
  const std::uint64_t fp = base.fingerprint();

  kalman::FilterOptions joseph = base;
  joseph.joseph_update = true;
  EXPECT_NE(fp, joseph.fingerprint());

  auto health_perturbed = [&](auto&& mutate) {
    kalman::FilterOptions o = base;
    mutate(o.health);
    return o.fingerprint();
  };
  EXPECT_NE(fp, health_perturbed([](auto& h) { h.enabled = true; }));
  EXPECT_NE(fp, health_perturbed([](auto& h) { h.max_state_abs = 1e6; }));
  EXPECT_NE(fp,
            health_perturbed([](auto& h) { h.covariance_symmetry_tol = 0.1; }));
  EXPECT_NE(fp,
            health_perturbed([](auto& h) { h.newton_residual_limit = 2.0; }));
  EXPECT_NE(fp,
            health_perturbed([](auto& h) { h.innovation_gate_sigma = 4.0; }));
  EXPECT_NE(fp, health_perturbed([](auto& h) { h.deescalate_after = 3; }));
}

TEST(FingerprintTest, FilterConfigSeesEveryComponent) {
  kalman::FilterConfigD base;
  base.model = testing::small_model(4);
  base.strategy.kind = StrategyKind::kInterleaved;
  base.strategy.calc_freq = 4;
  const std::uint64_t fp = base.fingerprint();

  kalman::FilterConfigD other = base;
  other.model = testing::small_model(4, /*seed=*/999);
  EXPECT_NE(fp, other.fingerprint());

  other = base;
  other.strategy.calc_freq = 8;
  EXPECT_NE(fp, other.fingerprint());

  other = base;
  other.options.joseph_update = true;
  EXPECT_NE(fp, other.fingerprint());

  other = base;
  other.strategy_data.preloaded_inverse =
      linalg::Matrix<double>::identity(base.model.z_dim());
  EXPECT_NE(fp, other.fingerprint());
}

}  // namespace
}  // namespace kalmmind
