// Newton-Raphson (Schulz) iterative matrix inverse — eq. (2) of the paper:
//
//     V_{i+1} = V_i * (2I - A * V_i)
//
// plus the classic data-independent seed V0 = A^t / (||A||_1 ||A||_inf)
// (Ben-Israel 1965), which always satisfies the eq. (3) convergence
// condition ||I - A V0||_2 < 1 for nonsingular A.
//
// The KalmMind seed *policies* (eqs. 4/5) live in the filter layer
// (kalman/interleaved.hpp); this header only provides the raw iteration.
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "linalg/ops.hpp"

namespace kalmmind::linalg {

// One Newton step: returns V * (2I - A*V).  `scratch` avoids reallocating
// the z x z temporary on every internal iteration of the accelerator model.
template <typename T>
void newton_step_into(Matrix<T>& out, const Matrix<T>& v, const Matrix<T>& a,
                      Matrix<T>& scratch) {
  two_i_minus_product_into(scratch, a, v);  // scratch = 2I - A*V
  multiply_into(out, v, scratch);           // out = V * scratch
}

template <typename T>
Matrix<T> newton_step(const Matrix<T>& v, const Matrix<T>& a) {
  Matrix<T> scratch, out;
  newton_step_into(out, v, a, scratch);
  return out;
}

// Per-caller scratch for newton_invert_into.  Own one next to the strategy
// that runs Newton iterations and every call after the first is
// allocation-free (the z x z buffers are reused across steps).
template <typename T>
struct NewtonWorkspace {
  Matrix<T> v;        // current iterate
  Matrix<T> next;     // next iterate (ping-pong partner)
  Matrix<T> scratch;  // 2I - A*V temporary
};

// Run `iters` Newton iterations from seed `v0`, writing the final iterate
// to `out`.  All temporaries live in `ws`.
template <typename T>
void newton_invert_into(Matrix<T>& out, const Matrix<T>& a,
                        const Matrix<T>& v0, std::size_t iters,
                        NewtonWorkspace<T>& ws) {
  if (!a.is_square() || !v0.same_shape(a)) {
    // kalmmind-lint: allow(RT3) dimension gate on caller-owned buffers; aborts before any iteration touches the output
    throw std::invalid_argument("newton_invert: dimension mismatch");
  }
  if (iters == 0) {
    out = v0;  // copy-assign reuses out's buffer when shapes match
    return;
  }
  ws.v = v0;
  for (std::size_t i = 0; i + 1 < iters; ++i) {
    newton_step_into(ws.next, ws.v, a, ws.scratch);
    std::swap(ws.v, ws.next);
  }
  newton_step_into(out, ws.v, a, ws.scratch);
}

// Run `iters` Newton iterations from seed `v0`.
template <typename T>
Matrix<T> newton_invert(const Matrix<T>& a, Matrix<T> v0, std::size_t iters) {
  if (!a.is_square() || !v0.same_shape(a)) {
    throw std::invalid_argument("newton_invert: dimension mismatch");
  }
  Matrix<T> scratch;
  Matrix<T> next;
  for (std::size_t i = 0; i < iters; ++i) {
    newton_step_into(next, v0, a, scratch);
    std::swap(v0, next);
  }
  return v0;
}

// The classic seed: V0 = A^t / (||A||_1 * ||A||_inf). Guarantees
// ||I - A V0||_2 < 1 for any nonsingular A, at the cost of slow initial
// convergence — this is the "Newton" column of Table I.
template <typename T>
Matrix<T> newton_classic_seed(const Matrix<T>& a) {
  const double scale = one_norm(a) * inf_norm(a);
  if (scale == 0.0) {
    throw std::invalid_argument("newton_classic_seed: zero matrix");
  }
  Matrix<T> v0 = a.transposed();
  const T inv_scale = from_double<T>(1.0 / scale);
  v0 *= inv_scale;
  return v0;
}

template <typename T>
Matrix<T> newton_invert_classic(const Matrix<T>& a, std::size_t iters) {
  return newton_invert(a, newton_classic_seed(a), iters);
}

// Newton iterations needed (from seed v0) until the Frobenius residual
// ||I - A V||_F drops below `tol`, capped at `max_iters`.  Used by tests to
// characterize quadratic convergence and by the DSE to pick sensible
// `approx` sweep bounds.
template <typename T>
std::size_t newton_iterations_to_converge(const Matrix<T>& a,
                                          const Matrix<T>& v0, double tol,
                                          std::size_t max_iters = 64) {
  Matrix<T> v = v0;
  Matrix<T> scratch, next(a.rows(), a.cols());
  for (std::size_t i = 0; i < max_iters; ++i) {
    if (inverse_residual(a, v) < tol) return i;
    newton_step_into(next, v, a, scratch);
    std::swap(v, next);
  }
  return max_iters;
}

}  // namespace kalmmind::linalg
