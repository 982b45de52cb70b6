// The stateless *calculation* strategies (path A): Gauss-Jordan, LU,
// Cholesky and QR.  Each call computes the inverse directly.
#pragma once

#include "common/realtime.hpp"
#include "kalman/strategy.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/gauss.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"

namespace kalmmind::kalman {

// Which direct method a calculation path uses.
enum class CalcMethod { kGauss, kLu, kCholesky, kQr };

inline const char* to_string(CalcMethod m) {
  switch (m) {
    case CalcMethod::kGauss:
      return "gauss";
    case CalcMethod::kLu:
      return "lu";
    case CalcMethod::kCholesky:
      return "cholesky";
    case CalcMethod::kQr:
      return "qr";
  }
  return "?";
}

template <typename T>
Matrix<T> calculate_inverse(CalcMethod method, const Matrix<T>& s) {
  switch (method) {
    case CalcMethod::kGauss:
      return linalg::invert_gauss(s);
    case CalcMethod::kLu:
      return linalg::invert_lu(s);
    case CalcMethod::kCholesky:
      return linalg::invert_cholesky(s);
    case CalcMethod::kQr:
      return linalg::invert_qr(s);
  }
  throw std::invalid_argument("calculate_inverse: unknown method");
}

template <typename T>
class CalculationStrategy final : public InverseStrategy<T> {
 public:
  explicit CalculationStrategy(CalcMethod method) : method_(method) {}

  // Direct solvers pivot/factorize internally, so calculation iterations
  // still allocate; the allocation-free guarantee covers the approximation
  // path, which is what runs every steady-state step (docs/performance.md).
  void invert_into(Matrix<T>& out, const Matrix<T>& s,
                   std::size_t /*kf_iteration*/) KALMMIND_REALTIME override {
    // kalmmind-lint: allow(RT1,RT3) path A allocates and throws by documented design: direct solvers pivot/factorize internally, and eq. (2) budgets calculation iterations as the non-realtime tier
    out = calculate_inverse(method_, s);
  }

  InverseEvent last_event() const override {
    return {InversePath::kCalculation, 0};
  }

  void reset() override {}

  // Every step already runs the calculation path.
  bool request_calculation() override { return true; }

  CalcMethod method() const { return method_; }

 private:
  CalcMethod method_;
};

}  // namespace kalmmind::kalman
