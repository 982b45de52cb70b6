// Locks in the allocation-free hot path: after the first step, a
// KalmanFilter (any approximation-path strategy) and a ConstantGainFilter
// perform ZERO heap allocations per step.  Ground truth is a global
// operator new/delete replacement counting every allocation in the binary
// — not the linalg::thread_buffer_allocations debug hook, which only sees
// the explicit Matrix/Vector sizing paths.
//
// Also checks that the reworked step stays within the documented tolerance
// of a naive replica of the pre-workspace algorithm (docs/performance.md:
// the symmetric sandwich mirrors the upper triangle, which perturbs the
// result at rounding level relative to computing both triangles).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "../test_util.hpp"
#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "kalman/sskf.hpp"
#include "kalman_test_util.hpp"
#include "linalg/gauss.hpp"

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

// Replace the global allocation functions for this whole test binary.  The
// counter is the only addition; storage still comes from malloc/free.
void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(align),
                                  sizeof(void*)),
                     size ? size : 1) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC pairs these deletes against the usual (non-malloc) operator new and
// warns; every new above IS malloc/posix_memalign-based, so free matches.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace kalmmind::kalman {
namespace {

using kalmmind::testing::expect_matrix_near;
using kalmmind::testing::expect_vector_near;
using kalmmind::testing::simulate_measurements;
using kalmmind::testing::small_model;
using linalg::Matrix;
using linalg::Vector;

std::uint64_t heap_allocations() {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

// Strategies whose steady-state iterations must be allocation-free: every
// approximation-path configuration plus the preloaded constant inverse.
std::vector<std::pair<StrategySpec, StrategyMatrices<double>>>
steady_state_strategies(const KalmanModel<double>& model) {
  const SteadyState<double> ss = solve_steady_state(model);
  const StrategyMatrices<double> none;
  const StrategyMatrices<double> ifkf{model.r, {}};
  const StrategyMatrices<double> preloaded{{}, ss.s_inv};
  return {
      {StrategySpec::parse("newton(m=3)"), none},
      {StrategySpec::parse("taylor(order=3)"), none},
      {StrategySpec::parse("ifkf(iters=6)"), ifkf},
      // calculate only at iteration 0
      {StrategySpec::parse("interleaved(calc=gauss,calc_freq=0,approx=2,"
                           "policy=0)"),
       none},
      {StrategySpec::parse("lite"), preloaded},
      {StrategySpec::parse("sskf(approx=1)"), preloaded},
  };
}

TEST(WorkspaceTest, StepIsAllocationFreeAfterWarmup) {
  const auto model = small_model(/*z_dim=*/6);
  const auto zs = simulate_measurements(model, 8);
  for (const auto& [spec, matrices] : steady_state_strategies(model)) {
    KalmanFilter<double> filter(model,
                                make_inverse_strategy<double>(spec, matrices));
    // Warm up: first steps size the workspace and strategy scratch (and
    // run any calculation-path iteration the schedule front-loads).
    filter.step(zs[0]);
    filter.step(zs[1]);
    const std::uint64_t before = heap_allocations();
    for (std::size_t n = 2; n < zs.size(); ++n) filter.step(zs[n]);
    EXPECT_EQ(heap_allocations() - before, 0u)
        << "strategy '" << spec.format() << "' allocated in steady state";
  }
}

// The arrival path — what step() runs once prepare_next() has computed the
// gain ahead of the bin — allocates nothing at all: not for calculation
// strategies (their allocations happen in the prepare), not with the
// health monitor on.
TEST(WorkspaceTest, ArrivalPathIsAllocationFree) {
  const auto model = small_model(/*z_dim=*/6);
  const auto zs = simulate_measurements(model, 10);
  auto strategies = steady_state_strategies(model);
  strategies.push_back({StrategySpec::parse("gauss"), {}});
  strategies.push_back(
      {StrategySpec::parse(
           "interleaved(calc=cholesky,calc_freq=2,approx=2,policy=1)"),
       {}});
  for (const bool health : {false, true}) {
    FilterOptions options;
    options.health.enabled = health;
    options.health.innovation_gate_sigma = 3.0;
    for (const auto& [spec, matrices] : strategies) {
      KalmanFilter<double> filter(
          model, make_inverse_strategy<double>(spec, matrices), options);
      filter.step(zs[0]);
      filter.step(zs[1]);
      for (std::size_t n = 2; n < zs.size(); ++n) {
        filter.prepare_next();
        const std::uint64_t before = heap_allocations();
        filter.step(zs[n]);
        EXPECT_EQ(heap_allocations() - before, 0u)
            << "strategy '" << spec.format() << "' health " << health
            << " allocated on the arrival path at bin " << n;
      }
    }
  }
}

TEST(WorkspaceTest, JosephUpdateStepIsAllocationFreeAfterWarmup) {
  const auto model = small_model(/*z_dim=*/5);
  const auto zs = simulate_measurements(model, 6);
  FilterOptions options;
  options.joseph_update = true;
  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(StrategySpec::parse("newton(m=2)")),
      options);
  filter.step(zs[0]);
  filter.step(zs[1]);
  const std::uint64_t before = heap_allocations();
  for (std::size_t n = 2; n < zs.size(); ++n) filter.step(zs[n]);
  EXPECT_EQ(heap_allocations() - before, 0u);
}

TEST(WorkspaceTest, ConstantGainStepIsAllocationFreeAfterWarmup) {
  const auto model = small_model(/*z_dim=*/4);
  const auto zs = simulate_measurements(model, 6);
  SteadyState<double> ss = solve_steady_state(model);
  ConstantGainFilter<double> filter(model, ss.k);
  filter.step(zs[0]);
  const std::uint64_t before = heap_allocations();
  for (std::size_t n = 1; n < zs.size(); ++n) filter.step(zs[n]);
  EXPECT_EQ(heap_allocations() - before, 0u);
}

TEST(WorkspaceTest, DebugHookSeesNoBufferGrowthInSteadyState) {
  const auto model = small_model(/*z_dim=*/6);
  const auto zs = simulate_measurements(model, 6);
  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(StrategySpec::parse(
                 "interleaved(calc=gauss,calc_freq=0,approx=2,policy=0)")));
  filter.step(zs[0]);
  filter.step(zs[1]);
  const std::uint64_t before = linalg::thread_buffer_allocations();
  for (std::size_t n = 2; n < zs.size(); ++n) filter.step(zs[n]);
  EXPECT_EQ(linalg::thread_buffer_allocations(), before);
}

TEST(WorkspaceTest, WorkspaceBytesPositiveAndStableAcrossSteps) {
  const auto model = small_model(/*z_dim=*/6);
  const auto zs = simulate_measurements(model, 4);
  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(StrategySpec::parse("gauss")));
  const std::size_t at_construction = filter.workspace_bytes();
  EXPECT_GT(at_construction, 0u);
  for (const auto& z : zs) filter.step(z);
  EXPECT_EQ(filter.workspace_bytes(), at_construction)
      << "workspace grew after construction-time reserve";
}

// The reworked step (symmetric sandwich + pht-from-hp transpose) must stay
// within the tolerance documented in docs/performance.md of the
// pre-workspace algorithm, replicated here with the naive kernels and
// per-call temporaries.
TEST(WorkspaceTest, StepMatchesNaiveReplicaWithinDocumentedTolerance) {
  const auto model = small_model(/*z_dim=*/6);
  const auto zs = simulate_measurements(model, 50);

  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(StrategySpec::parse("gauss")));

  Vector<double> x = model.x0;
  Matrix<double> p = model.p0;
  for (const auto& z : zs) {
    // Old-style step: both covariance triangles computed densely.
    Matrix<double> fp, p_pred;
    linalg::naive::multiply_into(fp, model.f, p);
    linalg::naive::multiply_bt_into(p_pred, fp, model.f);
    p_pred += model.q;
    Matrix<double> hp, s;
    linalg::naive::multiply_into(hp, model.h, p_pred);
    linalg::naive::multiply_bt_into(s, hp, model.h);
    s += model.r;
    Matrix<double> s_inv = linalg::invert_gauss(s);
    Matrix<double> pht, k;
    linalg::naive::multiply_bt_into(pht, p_pred, model.h);
    linalg::naive::multiply_into(k, pht, s_inv);
    Vector<double> hx, x_pred;
    linalg::multiply_into(x_pred, model.f, x);
    linalg::multiply_into(hx, model.h, x_pred);
    Vector<double> innovation = z;
    innovation -= hx;
    Vector<double> correction;
    linalg::multiply_into(correction, k, innovation);
    x = x_pred;
    x += correction;
    Matrix<double> kh;
    linalg::naive::multiply_into(kh, k, model.h);
    Matrix<double> i_minus_kh = linalg::identity_minus(kh);
    Matrix<double> p_new;
    linalg::naive::multiply_into(p_new, i_minus_kh, p_pred);
    p = p_new;

    const Vector<double>& got = filter.step(z);
    expect_vector_near(got, x, 1e-10, "state vs pre-change reference");
  }
  expect_matrix_near(filter.covariance(), p, 1e-10,
                     "covariance vs pre-change reference");
}

TEST(WorkspaceTest, StepAllocationsCounterStaysFlatInSteadyState) {
  if constexpr (!telemetry::kCompiledIn) GTEST_SKIP();
  const auto model = small_model(/*z_dim=*/6);
  const auto zs = simulate_measurements(model, 6);
  KalmanFilter<double> filter(
      model, make_inverse_strategy<double>(StrategySpec::parse("newton(m=2)")));
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(true);
  auto& counter = telemetry::MetricsRegistry::global().counter(
      "kalmmind.kf.step_allocations_total");
  filter.step(zs[0]);
  filter.step(zs[1]);
  const std::uint64_t before = counter.value();
  for (std::size_t n = 2; n < zs.size(); ++n) filter.step(zs[n]);
  EXPECT_EQ(counter.value(), before);

  auto& gauge = telemetry::MetricsRegistry::global().gauge(
      "kalmmind.kf.workspace_bytes");
  EXPECT_GE(gauge.value(), double(filter.workspace_bytes()));
  telemetry::set_enabled(was_enabled);
}

}  // namespace
}  // namespace kalmmind::kalman
