// The strategy factory, keyed by StrategySpec: every kind constructs a
// working strategy, each spec selects the strategy it names, unknown names
// fail cleanly.
#include <gtest/gtest.h>

#include <stdexcept>

#include "kalman/factory.hpp"
#include "linalg/random.hpp"
#include "linalg/norms.hpp"
#include "linalg/ops.hpp"

namespace kalmmind {
namespace {

using kalman::InversePath;
using kalman::StrategyKind;
using kalman::StrategySpec;
using linalg::Matrix;

Matrix<double> spd(std::size_t n, std::uint64_t seed = 11) {
  linalg::Rng rng(seed);
  return linalg::random_spd<double>(n, rng, /*ridge=*/2.0);
}

std::vector<StrategyKind> every_kind() {
  std::vector<StrategyKind> kinds;
  for (std::size_t k = 0; k < kalman::kStrategyKindCount; ++k) {
    kinds.push_back(StrategyKind(k));
  }
  return kinds;
}

// The matrices a kind needs to construct (lite/sskf: a preloaded inverse).
kalman::StrategyMatrices<double> matrices_for(StrategyKind kind,
                                              const Matrix<double>& s) {
  kalman::StrategyMatrices<double> matrices;
  if (kind == StrategyKind::kLite || kind == StrategyKind::kSskf) {
    matrices.preloaded_inverse = linalg::invert_gauss(s);
  }
  return matrices;
}

TEST(ServeFactoryTest, EveryAdvertisedNameConstructsAndInverts) {
  const Matrix<double> s = spd(4);
  const Matrix<double> identity = Matrix<double>::identity(4);
  for (StrategyKind kind : every_kind()) {
    SCOPED_TRACE(kalman::to_string(kind));
    StrategySpec spec = StrategySpec::parse(kalman::to_string(kind));
    if (kind == StrategyKind::kSskf) spec.approx = 2;
    if (kind == StrategyKind::kNewton) {
      spec.newton_iterations = 40;  // converge from cold seed
    }
    auto strategy =
        kalman::make_inverse_strategy<double>(spec, matrices_for(kind, s));
    ASSERT_NE(strategy, nullptr);
    const Matrix<double> inv = strategy->invert(s, 0);
    Matrix<double> product;
    linalg::multiply_into(product, s, inv);
    product -= identity;
    // Every strategy at iteration 0 either computes the exact inverse or
    // (newton/ifkf) a convergent approximation — all should be close on a
    // well-conditioned 4x4.
    EXPECT_LT(linalg::frobenius_norm(product), 0.7);
  }
}

TEST(ServeFactoryTest, NamesRoundTripThroughIsKnown) {
  StrategySpec out;
  for (StrategyKind kind : every_kind()) {
    ASSERT_TRUE(StrategySpec::try_parse(kalman::to_string(kind), &out).ok())
        << kalman::to_string(kind);
    EXPECT_EQ(out.kind, kind);
  }
  EXPECT_FALSE(StrategySpec::try_parse("gauss-jordan", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("", &out).ok());
  EXPECT_FALSE(StrategySpec::try_parse("GAUSS", &out).ok());
}

TEST(ServeFactoryTest, FactoryNameSelectsTheExpectedStrategy) {
  const Matrix<double> s = spd(3);
  auto build = [&s](const char* text) {
    const StrategySpec spec = StrategySpec::parse(text);
    return kalman::make_inverse_strategy<double>(spec,
                                                 matrices_for(spec.kind, s));
  };
  // Calculation kinds run exactly the direct method they name.
  const auto expect_calculates = [&s](kalman::InverseStrategy<double>& strategy,
                                      const Matrix<double>& expected) {
    const Matrix<double> inv = strategy.invert(s, 0);
    EXPECT_EQ(strategy.last_event().path, InversePath::kCalculation);
    ASSERT_TRUE(inv.same_shape(expected));
    for (std::size_t i = 0; i < inv.size(); ++i) {
      EXPECT_EQ(inv.data()[i], expected.data()[i]);
    }
  };
  expect_calculates(*build("gauss"), linalg::invert_gauss(s));
  expect_calculates(*build("cholesky"), linalg::invert_cholesky(s));
  expect_calculates(*build("qr"), linalg::invert_qr(s));
  expect_calculates(*build("lu"), linalg::invert_lu(s));

  // Approximation kinds report their own iteration counts.
  const auto approx_iterations = [&s](kalman::InverseStrategy<double>& strategy,
                                      std::size_t n) {
    strategy.invert(s, n);
    EXPECT_EQ(strategy.last_event().path, InversePath::kApproximation);
    return strategy.last_event().newton_iterations;
  };
  EXPECT_EQ(approx_iterations(*build("newton(m=7)"), 0), 7u);
  EXPECT_EQ(approx_iterations(*build("ifkf"), 0), 12u);
  EXPECT_EQ(approx_iterations(*build("sskf(approx=2)"), 0), 2u);
  EXPECT_EQ(approx_iterations(*build("lite"), 0), 1u);

  auto taylor = build("taylor(order=3)");
  taylor->invert(s, 0);  // anchors S_0^-1 on the calculation path
  EXPECT_EQ(approx_iterations(*taylor, 1), 3u);

  auto interleaved =
      build("interleaved(calc=cholesky,calc_freq=4,approx=2,policy=0)");
  expect_calculates(*interleaved, linalg::invert_cholesky(s));
  EXPECT_EQ(approx_iterations(*interleaved, 1), 2u);
}

TEST(ServeFactoryTest, UnknownNameIsACleanError) {
  try {
    StrategySpec::parse("definitely-not-a-strategy");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("definitely-not-a-strategy"), std::string::npos);
    // The error should teach the caller the valid vocabulary.
    EXPECT_NE(what.find("gauss"), std::string::npos);
    EXPECT_NE(what.find("interleaved"), std::string::npos);
  }
}

TEST(ServeFactoryTest, TypedSpecBuildsEveryKind) {
  const Matrix<double> s = spd(4);
  const Matrix<double> identity = Matrix<double>::identity(4);
  for (StrategyKind kind : every_kind()) {
    SCOPED_TRACE(kalman::to_string(kind));
    StrategySpec spec;
    spec.kind = kind;
    if (kind == StrategyKind::kNewton) spec.newton_iterations = 40;
    auto strategy =
        kalman::make_inverse_strategy<double>(spec, matrices_for(kind, s));
    ASSERT_NE(strategy, nullptr);
    const Matrix<double> inv = strategy->invert(s, 0);
    Matrix<double> product;
    linalg::multiply_into(product, s, inv);
    product -= identity;
    EXPECT_LT(linalg::frobenius_norm(product), 0.7);
  }
}

TEST(ServeFactoryTest, FormatStringCarriesItsOwnParameters) {
  // A full format() string carries every parameter the factory needs.
  const Matrix<double> s = spd(3);
  auto newton = kalman::make_inverse_strategy<double>(
      StrategySpec::parse("newton(m=7)"));
  newton->invert(s, 0);
  EXPECT_EQ(newton->last_event().newton_iterations, 7u);

  auto interleaved = kalman::make_inverse_strategy<double>(StrategySpec::parse(
      "interleaved(calc=cholesky,calc_freq=4,approx=2,policy=0)"));
  for (std::size_t n = 0; n < 5; ++n) {
    interleaved->invert(s, n);
    EXPECT_EQ(interleaved->last_event().path,
              n % 4 == 0 ? InversePath::kCalculation
                         : InversePath::kApproximation)
        << "iteration " << n;
  }
}

TEST(ServeFactoryTest, TypedSpecRejectsMissingPreload) {
  StrategySpec lite;
  lite.kind = StrategyKind::kLite;
  EXPECT_THROW(kalman::make_inverse_strategy<double>(lite),
               std::invalid_argument);
  StrategySpec sskf;
  sskf.kind = StrategyKind::kSskf;
  EXPECT_THROW(kalman::make_inverse_strategy<double>(sskf),
               std::invalid_argument);
}

TEST(ServeFactoryTest, PreloadRequiringNamesRejectEmptyMatrix) {
  EXPECT_THROW(
      kalman::make_inverse_strategy<double>(StrategySpec::parse("lite")),
      std::invalid_argument);
  EXPECT_THROW(
      kalman::make_inverse_strategy<double>(StrategySpec::parse("sskf")),
      std::invalid_argument);
}

TEST(ServeFactoryTest, WorksForFloatToo) {
  linalg::Rng rng(5);
  const Matrix<float> s =
      linalg::random_spd<double>(3, rng, 2.0).cast<float>();
  auto strategy =
      kalman::make_inverse_strategy<float>(StrategySpec::parse("gauss"));
  const Matrix<float> inv = strategy->invert(s, 0);
  Matrix<float> product;
  linalg::multiply_into(product, s, inv);
  product -= Matrix<float>::identity(3);
  EXPECT_LT(linalg::frobenius_norm(product), 1e-3);
}

}  // namespace
}  // namespace kalmmind
