// Typed identity for an inverse-strategy choice.
//
// StrategySpec is the one identity of a strategy choice: the factory
// (kalman/factory.hpp) builds from it, and two sessions ask "are we
// running the same datapath?" by comparing it.  It is comparable,
// fingerprintable, and round-trippable through a compact text form:
//
//   gauss | lu | cholesky | qr | lite | ifkf(iters=12)
//   newton(m=2) | taylor(order=2) | sskf(approx=0)
//   interleaved(calc=gauss,calc_freq=4,approx=2,policy=1)
//
// with an optional "@f32" / "@fx32" / "@fx64" precision suffix (the
// templated factory does not enforce precision — it is identity metadata
// naming the scalar type the spec is meant to run at, so an f32 and an
// f64 deployment of the same datapath never share a gain schedule).
//
// Equality and fingerprint() look only at the fields the kind actually
// consumes (plus precision), so e.g. two "gauss" specs with different
// leftover taylor_order values still compare equal — identity is
// behavioral, which is exactly what a cache key wants.
//
// Matrix-valued inputs (the preloaded inverse for lite/sskf, the true R
// for ifkf) live in StrategyMatrices<T>, beside the spec rather than in
// it: they are data, not configuration, and they are scalar-typed.
#pragma once

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>

#include "common/fingerprint.hpp"
#include "common/status.hpp"
#include "kalman/calculation_strategies.hpp"
#include "kalman/interleaved.hpp"
#include "linalg/matrix.hpp"

namespace kalmmind::kalman {

// One entry per factory name, in the factory's stable order.
enum class StrategyKind {
  kGauss = 0,
  kLu,
  kCholesky,
  kQr,
  kNewton,
  kTaylor,
  kIfkf,
  kInterleaved,
  kLite,
  kSskf,
};

inline constexpr std::size_t kStrategyKindCount = 10;

// Scalar type a spec is meant to run at.  Identity metadata only: the
// factory is templated on T and does not check it.
enum class SpecPrecision { kF64 = 0, kF32, kFx32, kFx64 };

inline const char* to_string(StrategyKind k) {
  switch (k) {
    case StrategyKind::kGauss: return "gauss";
    case StrategyKind::kLu: return "lu";
    case StrategyKind::kCholesky: return "cholesky";
    case StrategyKind::kQr: return "qr";
    case StrategyKind::kNewton: return "newton";
    case StrategyKind::kTaylor: return "taylor";
    case StrategyKind::kIfkf: return "ifkf";
    case StrategyKind::kInterleaved: return "interleaved";
    case StrategyKind::kLite: return "lite";
    case StrategyKind::kSskf: return "sskf";
  }
  return "?";
}

inline const char* to_string(SpecPrecision p) {
  switch (p) {
    case SpecPrecision::kF64: return "f64";
    case SpecPrecision::kF32: return "f32";
    case SpecPrecision::kFx32: return "fx32";
    case SpecPrecision::kFx64: return "fx64";
  }
  return "?";
}

// The direct-method kinds mirror CalcMethod one-for-one; this is the
// mapping callers use to lift a calculation unit into a full spec.
inline StrategyKind kind_for(CalcMethod m) {
  switch (m) {
    case CalcMethod::kGauss: return StrategyKind::kGauss;
    case CalcMethod::kLu: return StrategyKind::kLu;
    case CalcMethod::kCholesky: return StrategyKind::kCholesky;
    case CalcMethod::kQr: return StrategyKind::kQr;
  }
  return StrategyKind::kGauss;
}

// Matrix-valued strategy inputs, scalar-typed and kept out of the
// identity struct.  Participates in the filter-config fingerprint (a
// different preloaded S^-1 is a different filter).
template <typename T>
struct StrategyMatrices {
  // "ifkf": the true observation-noise covariance to diagonalize
  // (optional; empty uses the filter-provided S unchanged).
  Matrix<T> r;
  // "lite": the preloaded first Newton seed.  "sskf": the constant S^-1.
  Matrix<T> preloaded_inverse;

  bool operator==(const StrategyMatrices&) const = default;

  std::uint64_t fingerprint() const {
    FingerprintHasher h;
    h.mix(r);
    h.mix(preloaded_inverse);
    return h.value();
  }
};

struct StrategySpec {
  StrategyKind kind = StrategyKind::kGauss;

  // "interleaved": which direct method runs on calculation iterations.
  CalcMethod calc_method = CalcMethod::kGauss;
  // "interleaved": calculate at n % calc_freq == 0 (0 => iteration 0 only).
  std::size_t calc_freq = 0;
  // "interleaved" and "sskf": Newton refinements per approximation step.
  std::size_t approx = 1;
  // "interleaved": Newton seed selection (register semantics: 0 = eq. 5
  // last-calculated, 1 = eq. 4 previous-iteration).
  SeedPolicy policy = SeedPolicy::kLastCalculated;
  // "newton": internal Newton-Raphson iterations per KF step.
  std::size_t newton_iterations = 2;
  // "taylor": series order (1 returns the anchor inverse unchanged).
  std::size_t taylor_order = 2;
  // "ifkf": division-free iterations after band truncation.
  std::size_t ifkf_iterations = 12;
  // Scalar type this spec is meant to run at (identity metadata).
  SpecPrecision precision = SpecPrecision::kF64;

  // The interleave sub-config the factory hands to InterleavedStrategy.
  InterleaveConfig interleave() const { return {calc_freq, approx, policy}; }

  // Spec with every kind-irrelevant field reset to its default — the
  // canonical representative of this spec's equality class.
  StrategySpec normalized() const {
    StrategySpec n;
    n.kind = kind;
    n.precision = precision;
    switch (kind) {
      case StrategyKind::kInterleaved:
        n.calc_method = calc_method;
        n.calc_freq = calc_freq;
        n.approx = approx;
        n.policy = policy;
        break;
      case StrategyKind::kNewton:
        n.newton_iterations = newton_iterations;
        break;
      case StrategyKind::kTaylor:
        n.taylor_order = taylor_order;
        break;
      case StrategyKind::kIfkf:
        n.ifkf_iterations = ifkf_iterations;
        break;
      case StrategyKind::kSskf:
        n.approx = approx;
        break;
      default:
        break;
    }
    return n;
  }

  // Every field, in declaration order (the fingerprint's mixing order).
  auto fields() const {
    return std::tie(kind, calc_method, calc_freq, approx, policy,
                    newton_iterations, taylor_order, ifkf_iterations,
                    precision);
  }

  // Behavioral equality and hash: both see normalized(), so only the
  // fields this kind consumes (plus precision) participate.
  bool operator==(const StrategySpec& o) const {
    return normalized().fields() == o.normalized().fields();
  }

  std::uint64_t fingerprint() const {
    FingerprintHasher h;
    std::apply([&h](const auto&... field) { (h.mix(field), ...); },
               normalized().fields());
    return h.value();
  }

  // Canonical text form (see the header comment).  parse(format(s)) == s
  // for every spec, since format() prints exactly the fields operator==
  // compares.
  std::string format() const;

  [[nodiscard]] Status check() const noexcept {
    if (kind == StrategyKind::kTaylor && taylor_order == 0) {
      return Status::Invalid("StrategySpec: taylor_order must be >= 1");
    }
    if (kind == StrategyKind::kNewton && newton_iterations == 0) {
      return Status::Invalid("StrategySpec: newton_iterations must be >= 1");
    }
    return Status::Ok();
  }

  // Parse the canonical text form (or a bare factory name, which yields
  // the kind's defaults).  try_parse reports failure through a Status so
  // flag/RPC plumbing stays exception-free (Status carries literals, so
  // the message names the rule, not the offending token); parse throws
  // std::invalid_argument with a richer message that quotes the input and
  // the known vocabulary.
  [[nodiscard]] static Status try_parse(std::string_view text,
                                        StrategySpec* out) noexcept;
  static StrategySpec parse(std::string_view text);
};

// --- implementation -------------------------------------------------------

namespace detail {

inline bool parse_calc_token(std::string_view t, CalcMethod* out) {
  for (CalcMethod m : {CalcMethod::kGauss, CalcMethod::kLu,
                       CalcMethod::kCholesky, CalcMethod::kQr}) {
    if (t == to_string(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

// Digits only, and no value above SIZE_MAX (rejected, never wrapped).
inline bool parse_spec_size(std::string_view t, std::size_t* out) {
  if (t.empty()) return false;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t v = 0;
  for (char c : t) {
    if (c < '0' || c > '9') return false;
    const std::size_t digit = std::size_t(c - '0');
    if (v > (kMax - digit) / 10) return false;
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

}  // namespace detail

inline std::string StrategySpec::format() const {
  std::string out = to_string(kind);
  switch (kind) {
    case StrategyKind::kNewton:
      out += "(m=" + std::to_string(newton_iterations) + ")";
      break;
    case StrategyKind::kTaylor:
      out += "(order=" + std::to_string(taylor_order) + ")";
      break;
    case StrategyKind::kIfkf:
      out += "(iters=" + std::to_string(ifkf_iterations) + ")";
      break;
    case StrategyKind::kSskf:
      out += "(approx=" + std::to_string(approx) + ")";
      break;
    case StrategyKind::kInterleaved:
      out += "(calc=" + std::string(to_string(calc_method)) +
             ",calc_freq=" + std::to_string(calc_freq) +
             ",approx=" + std::to_string(approx) +
             ",policy=" + std::to_string(int(policy)) + ")";
      break;
    default:
      break;
  }
  if (precision != SpecPrecision::kF64) {
    out += "@" + std::string(to_string(precision));
  }
  return out;
}

[[nodiscard]] inline Status StrategySpec::try_parse(std::string_view text,
                                                    StrategySpec* out) noexcept {
  StrategySpec spec;
  std::string_view rest = text;

  // Optional "@precision" suffix.
  if (auto at = rest.rfind('@'); at != std::string_view::npos) {
    const std::string_view prec = rest.substr(at + 1);
    if (prec == "f64") spec.precision = SpecPrecision::kF64;
    else if (prec == "f32") spec.precision = SpecPrecision::kF32;
    else if (prec == "fx32") spec.precision = SpecPrecision::kFx32;
    else if (prec == "fx64") spec.precision = SpecPrecision::kFx64;
    else {
      return Status::Invalid(
          "StrategySpec: unknown precision suffix (f64|f32|fx32|fx64)");
    }
    rest = rest.substr(0, at);
  }

  // Split "name" or "name(args)".
  std::string_view name = rest;
  std::string_view argstr;
  if (auto open = rest.find('('); open != std::string_view::npos) {
    if (rest.empty() || rest.back() != ')') {
      return Status::Invalid("StrategySpec: unbalanced '(' in spec text");
    }
    name = rest.substr(0, open);
    argstr = rest.substr(open + 1, rest.size() - open - 2);
  }

  bool known = false;
  for (std::size_t k = 0; k < kStrategyKindCount; ++k) {
    if (name == to_string(StrategyKind(k))) {
      spec.kind = StrategyKind(k);
      known = true;
      break;
    }
  }
  if (!known) {
    return Status::Invalid("StrategySpec: unknown strategy name");
  }

  // key=value pairs, comma-separated.
  while (!argstr.empty()) {
    const auto comma = argstr.find(',');
    const std::string_view pair = argstr.substr(0, comma);
    argstr = comma == std::string_view::npos ? std::string_view{}
                                             : argstr.substr(comma + 1);
    const auto eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::Invalid(
          "StrategySpec: arguments must be comma-separated key=value pairs");
    }
    const std::string_view key = pair.substr(0, eq);
    const std::string_view value = pair.substr(eq + 1);
    std::size_t n = 0;
    if (key == "calc") {
      if (!detail::parse_calc_token(value, &spec.calc_method)) {
        return Status::Invalid(
            "StrategySpec: calc must be gauss|lu|cholesky|qr");
      }
      continue;
    }
    if (!detail::parse_spec_size(value, &n)) {
      return Status::Invalid(
          "StrategySpec: argument needs a non-negative integer value that "
          "fits in size_t");
    }
    if (key == "calc_freq") spec.calc_freq = n;
    else if (key == "approx") spec.approx = n;
    else if (key == "policy") {
      if (n > 1) {
        return Status::Invalid(
            "StrategySpec: policy must be 0 (last-calculated) or 1 "
            "(previous-iteration)");
      }
      spec.policy = SeedPolicy(n);
    } else if (key == "m") spec.newton_iterations = n;
    else if (key == "order") spec.taylor_order = n;
    else if (key == "iters") spec.ifkf_iterations = n;
    else {
      return Status::Invalid("StrategySpec: unknown argument key");
    }
  }

  if (Status s = spec.check(); !s.ok()) return s;
  *out = spec;
  return Status::Ok();
}

inline StrategySpec StrategySpec::parse(std::string_view text) {
  StrategySpec spec;
  if (Status s = try_parse(text, &spec); !s.ok()) {
    std::string vocabulary;
    for (std::size_t k = 0; k < kStrategyKindCount; ++k) {
      vocabulary += vocabulary.empty() ? "" : "|";
      vocabulary += to_string(StrategyKind(k));
    }
    throw std::invalid_argument(std::string(s.message()) + ": '" +
                                std::string(text) +
                                "' (known: " + vocabulary + ")");
  }
  return spec;
}

}  // namespace kalmmind::kalman
