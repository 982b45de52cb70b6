// Kernel-level microbenchmarks (google-benchmark): wall-clock cost of the
// matrix kernels and inversion methods at the paper's three measurement
// dimensions (z = 46, 52, 164).  These sanity-check the relative costs the
// HLS latency model assumes (Newton step ~ 2 matmuls; Gauss ~ 2n^3; QR the
// most expensive calculation).
//
// BM_FilterStepTelemetry{On,Off} bound the telemetry overhead on the
// instrumented KalmanFilter::step path: On runs with the metric counters
// live (tracing stays off, its opt-in default), Off flips the process-wide
// telemetry::set_enabled kill switch.  With KALMMIND_TELEMETRY=OFF both
// variants compile to the uninstrumented filter (docs/observability.md).
//
// The SIMD-dispatch tier series (BM_CovProductSyrkTier/<tier>,
// BM_BatchedGemmX6Tier/<tier>) are registered at runtime, one per tier
// usable on the host, so BENCH_kernels.json carries each tier as its own
// series and scripts/bench_perf.sh can floor the vector tiers against the
// scalar (PR4 blocked) baseline.  The custom context keys record the build
// type and the dispatch resolution the numbers were taken under.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <utility>

#include "fixedpoint/fixed.hpp"
#include "kalman/factory.hpp"
#include "kalman/filter.hpp"
#include "linalg/linalg.hpp"
#include "linalg/simd/simd.hpp"
#include "telemetry/telemetry.hpp"

using namespace kalmmind::linalg;
using kalmmind::fixedpoint::Fx32;

namespace {

template <typename T>
Matrix<T> bench_spd(std::size_t n) {
  Rng rng(42);
  return random_spd<double>(n, rng, 2.0).template cast<T>();
}

void BM_MatMulFloat(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(1);
  auto a = random_matrix<float>(n, n, rng);
  auto b = random_matrix<float>(n, n, rng);
  Matrix<float> c;
  for (auto _ : state) {
    multiply_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatMulFloat)->Arg(46)->Arg(52)->Arg(164);

// The unblocked reference kernel — the "before" row of BENCH_kernels.json.
void BM_MatMulFloatNaive(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(1);
  auto a = random_matrix<float>(n, n, rng);
  auto b = random_matrix<float>(n, n, rng);
  Matrix<float> c;
  for (auto _ : state) {
    naive::multiply_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatMulFloatNaive)->Arg(46)->Arg(52)->Arg(164);

void BM_MatMulFx32(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  Rng rng(1);
  auto a = random_matrix<Fx32>(n, n, rng);
  auto b = random_matrix<Fx32>(n, n, rng);
  Matrix<Fx32> c;
  for (auto _ : state) {
    c.fill(Fx32(0));
    multiply_into(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatMulFx32)->Arg(52)->Arg(164);

void BM_InvertGauss(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  auto s = bench_spd<float>(n);
  for (auto _ : state) {
    auto inv = invert_gauss(s);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_InvertGauss)->Arg(46)->Arg(52)->Arg(164);

void BM_InvertCholesky(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  auto s = bench_spd<float>(n);
  for (auto _ : state) {
    auto inv = invert_cholesky(s);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_InvertCholesky)->Arg(46)->Arg(52)->Arg(164);

void BM_InvertQr(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  auto s = bench_spd<float>(n);
  for (auto _ : state) {
    auto inv = invert_qr(s);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_InvertQr)->Arg(46)->Arg(52)->Arg(164);

void BM_InvertLuDouble(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  auto s = bench_spd<double>(n);
  for (auto _ : state) {
    auto inv = invert_lu(s);
    benchmark::DoNotOptimize(inv.data());
  }
}
BENCHMARK(BM_InvertLuDouble)->Arg(164);

// The z x z innovation-covariance product S = (H P') H^t at the paper's
// measurement dimensions: full dense product (the pre-SYRK kernel) vs. the
// symmetric upper-triangle + mirror kernel.  x_dim = 6 decoded kinematic
// states, so the shared dimension is tiny and the output is the big term.
void bench_cov_product(benchmark::State& state, bool symmetric) {
  const std::size_t z_dim = std::size_t(state.range(0));
  const std::size_t x_dim = 6;
  Rng rng(3);
  auto p_pred = random_spd<double>(x_dim, rng, 1.0).cast<float>();
  auto h = random_matrix<float>(z_dim, x_dim, rng);
  Matrix<float> hp, s;
  multiply_into(hp, h, p_pred);
  for (auto _ : state) {
    if (symmetric) {
      multiply_bt_symmetric_into(s, hp, h);
    } else {
      naive::multiply_bt_into(s, hp, h);
    }
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * z_dim * z_dim *
                          x_dim);
}

void BM_CovProductFull(benchmark::State& state) {
  bench_cov_product(state, /*symmetric=*/false);
}
BENCHMARK(BM_CovProductFull)->Arg(46)->Arg(52)->Arg(164);

void BM_CovProductSyrk(benchmark::State& state) {
  bench_cov_product(state, /*symmetric=*/true);
}
BENCHMARK(BM_CovProductSyrk)->Arg(46)->Arg(52)->Arg(164);

void BM_NewtonStep(benchmark::State& state) {
  const std::size_t n = std::size_t(state.range(0));
  auto s = bench_spd<float>(n);
  auto v = invert_gauss(s);
  Matrix<float> scratch, out(n, n);
  for (auto _ : state) {
    newton_step_into(out, v, s, scratch);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_NewtonStep)->Arg(46)->Arg(52)->Arg(164);

// ---- telemetry overhead on the instrumented filter step ----

kalmmind::kalman::KalmanModel<double> bench_model(std::size_t x_dim,
                                                  std::size_t z_dim) {
  Rng rng(7);
  kalmmind::kalman::KalmanModel<double> m;
  m.f = Matrix<double>::identity(x_dim);
  m.q = random_spd<double>(x_dim, rng, 1.0);
  m.h = random_matrix<double>(z_dim, x_dim, rng, -0.1, 0.1);
  m.r = random_spd<double>(z_dim, rng, 2.0);
  m.x0 = Vector<double>(x_dim);
  m.p0 = random_spd<double>(x_dim, rng, 1.0);
  return m;
}

void bench_filter_step(benchmark::State& state, bool telemetry_on) {
  const std::size_t z_dim = std::size_t(state.range(0));
  const auto model = bench_model(6, z_dim);
  Rng rng(11);
  const auto z = random_vector<double>(z_dim, rng);
  kalmmind::kalman::KalmanFilter<double> filter(
      model, kalmmind::kalman::make_inverse_strategy<double>(
                 kalmmind::kalman::StrategySpec::parse("gauss")));
  kalmmind::telemetry::set_enabled(telemetry_on);
  for (auto _ : state) {
    const auto& x = filter.step(z);
    benchmark::DoNotOptimize(x.data());
  }
  kalmmind::telemetry::set_enabled(true);
}

void BM_FilterStepTelemetryOn(benchmark::State& state) {
  bench_filter_step(state, /*telemetry_on=*/true);
}
BENCHMARK(BM_FilterStepTelemetryOn)->Arg(46)->Arg(164);

void BM_FilterStepTelemetryOff(benchmark::State& state) {
  bench_filter_step(state, /*telemetry_on=*/false);
}
BENCHMARK(BM_FilterStepTelemetryOff)->Arg(46)->Arg(164);

// ---- health-monitor overhead on the clean path ----

// The robustness budget (docs/robustness.md): with every step healthy, the
// monitor may cost at most ~2% over the unmonitored step.  The interleaved
// strategy is used on purpose — its approximation steps pay the most
// expensive clean-path check, the two-matvec Newton residual probe.
void bench_filter_step_health(benchmark::State& state, bool health_on) {
  const std::size_t z_dim = std::size_t(state.range(0));
  const auto model = bench_model(6, z_dim);
  Rng rng(11);
  const auto z = random_vector<double>(z_dim, rng);
  kalmmind::kalman::FilterOptions opts;
  opts.health.enabled = health_on;
  const auto spec = kalmmind::kalman::StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  kalmmind::kalman::KalmanFilter<double> filter(
      model, kalmmind::kalman::make_inverse_strategy<double>(spec), opts);
  for (auto _ : state) {
    const auto& x = filter.step(z);
    benchmark::DoNotOptimize(x.data());
  }
}

void BM_FilterStepHealthOn(benchmark::State& state) {
  bench_filter_step_health(state, /*health_on=*/true);
}
BENCHMARK(BM_FilterStepHealthOn)->Arg(46)->Arg(164);

void BM_FilterStepHealthOff(benchmark::State& state) {
  bench_filter_step_health(state, /*health_on=*/false);
}
BENCHMARK(BM_FilterStepHealthOff)->Arg(46)->Arg(164);

// ---- the arrival path: a step whose gain was prepared ahead ----

// What a serving bin pays once the worker precomputed its gain in idle
// time (KalmanFilter::prepare_next, docs/serving.md): only the arrival
// path — x' = F x, the gated correction, the post-step health checks and
// the O(1) commit of the prepared P and seed — is timed; the prepare runs
// untimed before each bin.  Compare with BM_FilterStepHealthOn, the same
// filter and strategy computing the whole step on arrival.
void BM_FilterArrivalPath(benchmark::State& state) {
  const std::size_t z_dim = std::size_t(state.range(0));
  const auto model = bench_model(6, z_dim);
  Rng rng(11);
  const auto z = random_vector<double>(z_dim, rng);
  kalmmind::kalman::FilterOptions opts;
  opts.health.enabled = true;
  const auto spec = kalmmind::kalman::StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  kalmmind::kalman::KalmanFilter<double> filter(
      model, kalmmind::kalman::make_inverse_strategy<double>(spec), opts);
  for (auto _ : state) {
    filter.prepare_next();
    const auto t0 = std::chrono::steady_clock::now();
    const auto& x = filter.step(z);
    benchmark::DoNotOptimize(x.data());
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
}
BENCHMARK(BM_FilterArrivalPath)
    ->Arg(46)
    ->Arg(164)
    ->UseManualTime()
    ->Iterations(2000);  // each one also runs an untimed prepare

// ---- flight-recorder overhead on the clean path ----

// The observability budget (docs/observability.md): the recorder may cost
// at most ~2% over an identical step with the recorder runtime-disabled.
// Health is on (the instrumented layer the recorder journals from), the
// step runs under a ScopedFlightSession like a serve worker would, and on
// a clean stream the recorder's only cost is the enabled() gates — events
// fire on faults, not on healthy steps.
void bench_filter_step_recorder(benchmark::State& state, bool recorder_on) {
  const std::size_t z_dim = std::size_t(state.range(0));
  const auto model = bench_model(6, z_dim);
  Rng rng(11);
  const auto z = random_vector<double>(z_dim, rng);
  kalmmind::kalman::FilterOptions opts;
  opts.health.enabled = true;
  const auto spec = kalmmind::kalman::StrategySpec::parse(
      "interleaved(calc=gauss,calc_freq=3,approx=2,policy=1)");
  kalmmind::kalman::KalmanFilter<double> filter(
      model, kalmmind::kalman::make_inverse_strategy<double>(spec), opts);
  auto& blackbox = kalmmind::telemetry::FlightRecorder::global();
  blackbox.set_enabled(recorder_on);
  std::uint64_t step = 0;
  for (auto _ : state) {
    kalmmind::telemetry::ScopedFlightSession flight(1, step++);
    const auto& x = filter.step(z);
    benchmark::DoNotOptimize(x.data());
  }
  blackbox.set_enabled(true);
  blackbox.clear();
}

void BM_FilterStepRecorderOn(benchmark::State& state) {
  bench_filter_step_recorder(state, /*recorder_on=*/true);
}
BENCHMARK(BM_FilterStepRecorderOn)->Arg(46)->Arg(164);

void BM_FilterStepRecorderOff(benchmark::State& state) {
  bench_filter_step_recorder(state, /*recorder_on=*/false);
}
BENCHMARK(BM_FilterStepRecorderOff)->Arg(46)->Arg(164);

// ---- workspace step vs. the pre-workspace per-call-temporaries step ----

// The filter hot path as it was before the workspace rework: naive kernels,
// every temporary allocated inside the call, both covariance triangles
// computed.  Kept as a benchmark-local replica so BENCH_kernels.json keeps
// an honest "before" row.
void naive_alloc_step(const kalmmind::kalman::KalmanModel<double>& m,
                      Vector<double>& x, Matrix<double>& p,
                      const Vector<double>& z) {
  Matrix<double> fp, p_pred;
  naive::multiply_into(fp, m.f, p);
  naive::multiply_bt_into(p_pred, fp, m.f);
  p_pred += m.q;
  Matrix<double> hp, s;
  naive::multiply_into(hp, m.h, p_pred);
  naive::multiply_bt_into(s, hp, m.h);
  s += m.r;
  Matrix<double> s_inv = invert_gauss(s);
  Matrix<double> pht, k;
  naive::multiply_bt_into(pht, p_pred, m.h);
  naive::multiply_into(k, pht, s_inv);
  Vector<double> x_pred, hx;
  multiply_into(x_pred, m.f, x);
  multiply_into(hx, m.h, x_pred);
  Vector<double> innovation = z;
  innovation -= hx;
  Vector<double> correction;
  multiply_into(correction, k, innovation);
  x = x_pred;
  x += correction;
  Matrix<double> kh;
  naive::multiply_into(kh, k, m.h);
  Matrix<double> i_minus_kh = identity_minus(kh);
  Matrix<double> p_new;
  naive::multiply_into(p_new, i_minus_kh, p_pred);
  p = std::move(p_new);
}

void BM_FilterStepNaiveAlloc(benchmark::State& state) {
  const std::size_t z_dim = std::size_t(state.range(0));
  const auto model = bench_model(6, z_dim);
  Rng rng(11);
  const auto z = random_vector<double>(z_dim, rng);
  auto x = model.x0;
  auto p = model.p0;
  for (auto _ : state) {
    naive_alloc_step(model, x, p, z);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FilterStepNaiveAlloc)->Arg(46)->Arg(164);

// The same model/strategy through the workspace filter (gauss inversion,
// blocked + SYRK kernels, zero steady-state allocations).
void BM_FilterStepWorkspace(benchmark::State& state) {
  const std::size_t z_dim = std::size_t(state.range(0));
  const auto model = bench_model(6, z_dim);
  Rng rng(11);
  const auto z = random_vector<double>(z_dim, rng);
  kalmmind::kalman::KalmanFilter<double> filter(
      model, kalmmind::kalman::make_inverse_strategy<double>(
                 kalmmind::kalman::StrategySpec::parse("gauss")));
  for (auto _ : state) {
    const auto& x = filter.step(z);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_FilterStepWorkspace)->Arg(46)->Arg(164);

// ---- runtime-dispatched SIMD tier series ----

namespace simd = kalmmind::linalg::simd;

// Forces a tier for one benchmark's duration and restores the previous
// one, so the tier series cannot leak into later benchmarks.
struct TierGuard {
  explicit TierGuard(simd::Tier t) : prev(simd::active_tier()) {
    simd::set_dispatch_tier(t);
  }
  ~TierGuard() { simd::set_dispatch_tier(prev); }
  simd::Tier prev;
};

// The z x z innovation-covariance SYRK through the dispatch table with the
// tier pinned — the kernel the serving covariance path spends its time in.
void bench_syrk_tier(benchmark::State& state, simd::Tier tier) {
  TierGuard guard(tier);
  const std::size_t z_dim = std::size_t(state.range(0));
  const std::size_t x_dim = 6;
  Rng rng(3);
  auto p_pred = random_spd<double>(x_dim, rng, 1.0).cast<float>();
  auto h = random_matrix<float>(z_dim, x_dim, rng);
  Matrix<float> hp, s;
  multiply_into(hp, h, p_pred);
  for (auto _ : state) {
    multiply_bt_symmetric_into(s, hp, h);
    benchmark::DoNotOptimize(s.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * z_dim * z_dim *
                          x_dim);
}

// The batched x=6 small GEMM over an SoA session panel — the fused pass
// BatchGroup::run_cohort pays per cohort (docs/serving.md).  double, like
// the serving path.
void bench_batched_gemm_tier(benchmark::State& state, simd::Tier tier) {
  TierGuard guard(tier);
  const std::size_t m = std::size_t(state.range(0));  // fleet width
  const std::size_t x_dim = 6;
  Rng rng(5);
  auto f = random_matrix<double>(x_dim, x_dim, rng);
  auto panel = random_matrix<double>(x_dim, m, rng);
  Matrix<double> out;
  for (auto _ : state) {
    batched_multiply_into(out, f, panel);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()) * x_dim * x_dim *
                          m);
}

}  // namespace

int main(int argc, char** argv) {
  // Build-type stamp for scripts/bench_perf.sh: the checked-in baselines
  // must come from an optimized build (the library_build_type key reflects
  // how libbenchmark itself was built, not this binary).
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("kalmmind_build_type", "release");
#else
  benchmark::AddCustomContext("kalmmind_build_type", "debug");
#endif
  benchmark::AddCustomContext("kalmmind_simd_detected",
                              simd::tier_name(simd::detect()));
  benchmark::AddCustomContext("kalmmind_simd_active",
                              simd::tier_name(simd::active_tier()));
  for (const simd::Tier t : simd::available_tiers()) {
    benchmark::RegisterBenchmark(
        (std::string("BM_CovProductSyrkTier/") + simd::tier_name(t)).c_str(),
        [t](benchmark::State& s) { bench_syrk_tier(s, t); })
        ->Arg(46)
        ->Arg(164);
    benchmark::RegisterBenchmark(
        (std::string("BM_BatchedGemmX6Tier/") + simd::tier_name(t)).c_str(),
        [t](benchmark::State& s) { bench_batched_gemm_tier(s, t); })
        ->Arg(32)
        ->Arg(64);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
