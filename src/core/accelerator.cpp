#include "core/accelerator.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>

#include "fixedpoint/fixed.hpp"
#include "kalman/factory.hpp"
#include "kalman/recursion.hpp"

namespace kalmmind::core {

namespace {

using fixedpoint::Fx32;
using fixedpoint::Fx64;
using hls::ApproxUnit;
using hls::CalcUnit;
using hls::DatapathSpec;
using hls::NumericType;
using kalman::KalmanModel;
using linalg::Matrix;
using linalg::Vector;

// Series order of the Taylor datapath (design-time constant, Liu et al.):
// one first-order correction around the anchored S_0^-1.
constexpr std::size_t kTaylorOrder = 2;

kalman::CalcMethod to_calc_method(CalcUnit unit) {
  switch (unit) {
    case CalcUnit::kGauss:
      return kalman::CalcMethod::kGauss;
    case CalcUnit::kCholesky:
      return kalman::CalcMethod::kCholesky;
    case CalcUnit::kQr:
      return kalman::CalcMethod::kQr;
    default:
      throw std::invalid_argument("no direct CalcMethod for this CalcUnit");
  }
}

// Exact inverse of the first KF iteration's innovation covariance,
// S_0 = H (F P0 F^t + Q) H^t + R, in double: LITE's preloaded seed.  Taken
// from the filter's own recursion, so it is the S_0 the online filter
// computes.
Matrix<double> first_innovation_inverse(const KalmanModel<double>& model) {
  kalman::GainRecursion<double> recursion(
      model, std::make_unique<kalman::CalculationStrategy<double>>(
                 kalman::CalcMethod::kLu));
  recursion.predict(model);
  recursion.compute_s(model);
  recursion.invert();
  return recursion.s_inv();
}

template <typename T>
std::uint64_t read_saturations() {
  return 0;
}
template <>
std::uint64_t read_saturations<Fx32>() {
  return Fx32::stats().saturations;
}
template <>
std::uint64_t read_saturations<Fx64>() {
  return Fx64::stats().saturations;
}

template <typename T>
void reset_saturations() {}
template <>
void reset_saturations<Fx32>() {
  Fx32::stats().reset();
}
template <>
void reset_saturations<Fx64>() {
  Fx64::stats().reset();
}

}  // namespace

Accelerator::Accelerator(DatapathSpec spec, AcceleratorConfig config,
                         hls::HlsParams params)
    : spec_(spec), config_(config), params_(params) {
  config_.validate();
  resource_config_.max_x_dim = std::max<std::uint64_t>(config_.x_dim, 8);
  resource_config_.max_z_dim = std::max<std::uint64_t>(config_.z_dim, 16);
  resource_config_.chunk_capacity = std::max<std::uint64_t>(config_.chunks, 1);
  resource_config_.newton_mac_units = params_.newton_mac_units;
}

void Accelerator::set_config(AcceleratorConfig config) {
  config.validate();
  if (config.x_dim != config_.x_dim || config.z_dim != config_.z_dim) {
    // Dimensions can shrink at runtime but the PLMs were sized at design
    // time; re-sizing beyond them would be a different accelerator.
    if (config.x_dim > resource_config_.max_x_dim ||
        config.z_dim > resource_config_.max_z_dim) {
      throw std::invalid_argument(
          "Accelerator::set_config: dimensions exceed design-time PLM size");
    }
  }
  config_ = config;
}

hls::ResourceEstimate Accelerator::resources() const {
  return hls::estimate_resources(spec_, resource_config_);
}

AcceleratorRunResult Accelerator::run(
    const KalmanModel<double>& model,
    const std::vector<Vector<double>>& measurements) const {
  model.validate();
  if (model.x_dim() != config_.x_dim || model.z_dim() != config_.z_dim) {
    throw std::invalid_argument(
        "Accelerator::run: model dimensions do not match x_dim/z_dim "
        "registers");
  }
  if (measurements.size() != config_.total_iterations()) {
    throw std::invalid_argument(
        "Accelerator::run: need exactly chunks*batches measurements, got " +
        std::to_string(measurements.size()) + " for " +
        std::to_string(config_.total_iterations()));
  }
  switch (spec_.dtype) {
    case NumericType::kFloat32:
      return run_typed<float>(model, measurements);
    case NumericType::kFloat64:
      return run_typed<double>(model, measurements);
    case NumericType::kFx32:
      return run_typed<Fx32>(model, measurements);
    case NumericType::kFx64:
      return run_typed<Fx64>(model, measurements);
  }
  throw std::logic_error("Accelerator::run: unknown numeric type");
}

template <typename T>
AcceleratorRunResult Accelerator::run_typed(
    const KalmanModel<double>& model,
    const std::vector<Vector<double>>& measurements) const {
  // ---- Functional execution in the datapath's numeric format ----
  KalmanModel<T> typed_model = model.template cast<T>();
  std::vector<Vector<T>> typed_z;
  typed_z.reserve(measurements.size());
  for (const auto& z : measurements) typed_z.push_back(z.template cast<T>());

  reset_saturations<T>();
  kalman::FilterOutput<T> output;

  if (spec_.constant_gain) {
    // SSKF: gain precomputed offline in double, quantized into the PLM.
    kalman::SteadyState<double> ss = kalman::solve_steady_state(model);
    kalman::ConstantGainFilter<T> filter(typed_model,
                                         ss.k.template cast<T>());
    output = filter.run(typed_z);
  } else {
    // Map the datapath spec onto a typed StrategySpec (+ its matrix
    // inputs); the typed factory is the single place strategies are wired
    // up.
    kalman::StrategySpec strategy;
    kalman::StrategyMatrices<T> matrices;
    if (spec_.lite) {
      strategy.kind = kalman::StrategyKind::kLite;
      matrices.preloaded_inverse =
          first_innovation_inverse(model).template cast<T>();
    } else if (spec_.calc == CalcUnit::kConstant) {
      // SSKF/Newton: constant S^-1 from the converged innovation
      // covariance, optionally refined by `approx` Newton iterations.
      kalman::SteadyState<double> ss = kalman::solve_steady_state(model);
      strategy.kind = kalman::StrategyKind::kSskf;
      matrices.preloaded_inverse = ss.s_inv.template cast<T>();
      strategy.approx = spec_.approx == ApproxUnit::kNewton ? config_.approx : 0;
    } else if (spec_.approx == ApproxUnit::kNone) {
      strategy.kind = kalman::kind_for(to_calc_method(spec_.calc));
    } else if (spec_.calc == CalcUnit::kNone &&
               spec_.approx == ApproxUnit::kTaylor) {
      strategy.kind = kalman::StrategyKind::kTaylor;
      strategy.taylor_order = kTaylorOrder;
    } else if (spec_.approx == ApproxUnit::kNewton &&
               spec_.calc != CalcUnit::kNone) {
      strategy.kind = kalman::StrategyKind::kInterleaved;
      strategy.calc_method = to_calc_method(spec_.calc);
      const kalman::InterleaveConfig interleave = config_.interleave();
      strategy.calc_freq = interleave.calc_freq;
      strategy.approx = interleave.approx;
      strategy.policy = interleave.policy;
    } else {
      throw std::invalid_argument(
          "Accelerator: unsupported datapath combination " + spec_.name());
    }
    kalman::KalmanFilter<T> filter(
        std::move(typed_model),
        kalman::make_inverse_strategy<T>(strategy, matrices));
    output = filter.run(typed_z);
  }

  AcceleratorRunResult result;
  result.states = to_double_trajectory(output.states);
  result.events = std::move(output.events);
  result.fixed_point_saturations = read_saturations<T>();

  // ---- Latency model ----
  const hls::LatencyModel lat(params_);
  const std::uint64_t x = config_.x_dim;
  const std::uint64_t z = config_.z_dim;
  const int wb = hls::word_bytes(spec_.dtype);

  std::uint64_t compute = 0;
  for (const auto& ev : result.events) {
    compute += lat.common_cycles(x, z, spec_.constant_gain);
    switch (ev.path) {
      case kalman::InversePath::kCalculation:
        compute += lat.calc_cycles(
            spec_.calc == CalcUnit::kNone ? CalcUnit::kGauss : spec_.calc, z);
        break;
      case kalman::InversePath::kApproximation:
        if (spec_.approx == ApproxUnit::kTaylor) {
          compute += lat.taylor_cycles(z, kTaylorOrder);
        } else {
          compute += lat.newton_cycles(z, ev.newton_iterations);
        }
        break;
      case kalman::InversePath::kNone:
        // Constant inverse / constant gain: PLM read only.
        compute += spec_.constant_gain ? 0 : params_.loop_overhead_cycles;
        break;
    }
  }

  // DMA: model load once, then `batches` in/out transactions.
  std::uint64_t model_words;
  if (spec_.constant_gain) {
    model_words = x * x + x * z + x;  // F, K, x0
  } else {
    model_words = 2 * x * x + z * x + z * z + x + x * x;  // F,Q,H,R,x0,P0
  }
  if (spec_.lite || spec_.calc == CalcUnit::kConstant) {
    model_words += z * z;  // preloaded seed / constant inverse
  }
  const std::uint64_t model_load = lat.dma_cycles(model_words, wb);
  const std::uint64_t chunk_in = lat.dma_cycles(
      std::uint64_t(config_.chunks) * z, wb);
  const std::uint64_t out_words_per_iter =
      spec_.constant_gain ? x : x + x * x;  // x̂_n (and P_n if maintained)
  const std::uint64_t chunk_out = lat.dma_cycles(
      std::uint64_t(config_.chunks) * out_words_per_iter, wb);

  const std::uint64_t batches = config_.batches;
  result.latency.load_cycles = model_load + batches * chunk_in;
  result.latency.store_cycles = batches * chunk_out;
  result.latency.compute_cycles = compute;
  // Double-buffering overlaps all but the first chunk-in and last
  // chunk-out with compute.
  if (params_.double_buffering) {
    const std::uint64_t overlappable_dma =
        (batches - 1) * chunk_in + (batches - 1) * chunk_out;
    result.latency.total_cycles = params_.invocation_overhead_cycles +
                                  model_load + chunk_in +
                                  std::max(compute, overlappable_dma) +
                                  chunk_out;
  } else {
    // Serial load -> compute -> store for every chunk.
    result.latency.total_cycles = params_.invocation_overhead_cycles +
                                  model_load + compute +
                                  batches * (chunk_in + chunk_out);
  }

  result.seconds = params_.seconds(result.latency.total_cycles);
  result.resources = resources();
  const hls::PowerModel power{};
  // Integer datapaths toggle far less logic per MAC than float (no
  // exponent alignment / normalization), hence the lower activity factor.
  const bool is_fixed = spec_.dtype == NumericType::kFx32 ||
                        spec_.dtype == NumericType::kFx64;
  result.power_w = power.average_power_w(result.resources,
                                         is_fixed ? 0.65 : 1.0);
  result.energy_j = result.power_w * result.seconds;
  return result;
}

// ---- Factories ----

namespace {
Accelerator make(CalcUnit calc, ApproxUnit approx, NumericType dtype,
                 bool constant_gain, bool lite, AcceleratorConfig config) {
  DatapathSpec spec;
  spec.calc = calc;
  spec.approx = approx;
  spec.dtype = dtype;
  spec.constant_gain = constant_gain;
  spec.lite = lite;
  return Accelerator(spec, config);
}
}  // namespace

Accelerator make_gauss_newton(AcceleratorConfig config, NumericType dtype) {
  return make(CalcUnit::kGauss, ApproxUnit::kNewton, dtype, false, false,
              config);
}
Accelerator make_cholesky_newton(AcceleratorConfig config) {
  return make(CalcUnit::kCholesky, ApproxUnit::kNewton,
              NumericType::kFloat32, false, false, config);
}
Accelerator make_qr_newton(AcceleratorConfig config) {
  return make(CalcUnit::kQr, ApproxUnit::kNewton, NumericType::kFloat32,
              false, false, config);
}
Accelerator make_lite(AcceleratorConfig config, NumericType dtype) {
  DatapathSpec spec;
  spec.calc = CalcUnit::kNone;
  spec.approx = ApproxUnit::kNewton;
  spec.dtype = dtype;
  spec.lite = true;
  return Accelerator(spec, config);
}
Accelerator make_sskf(AcceleratorConfig config) {
  DatapathSpec spec;
  spec.calc = CalcUnit::kNone;
  spec.approx = ApproxUnit::kNone;
  spec.dtype = NumericType::kFloat32;
  spec.constant_gain = true;
  return Accelerator(spec, config);
}
Accelerator make_sskf_newton(AcceleratorConfig config) {
  return make(CalcUnit::kConstant, ApproxUnit::kNewton,
              NumericType::kFloat32, false, false, config);
}
Accelerator make_taylor(AcceleratorConfig config) {
  return make(CalcUnit::kNone, ApproxUnit::kTaylor, NumericType::kFloat32,
              false, false, config);
}
Accelerator make_gauss_only(AcceleratorConfig config) {
  return make(CalcUnit::kGauss, ApproxUnit::kNone, NumericType::kFloat32,
              false, false, config);
}

}  // namespace kalmmind::core
