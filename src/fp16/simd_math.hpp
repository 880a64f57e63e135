/**
 * @file
 * The one exp primitive of the kernel substrate, with the max and
 * tanh built around it. Every softmax, LS/IR epilogue and GELU in
 * src/kernels/ goes through these span calls; only the reference
 * math in src/core/ still calls libm.
 *
 * exp(z) is evaluated the same way on every backend:
 *
 *  - n = round(z * log2e), rounded to nearest-even by adding and
 *    subtracting 1.5 * 2^23;
 *  - r = (z - n * ln2_hi) - n * ln2_lo (two-constant Cody-Waite);
 *  - p = degree-6 Horner polynomial in r (minimax on [-ln2/2, ln2/2],
 *    constant term exactly 1, so exp(0) == 1);
 *  - 2^n applied by adding n to p's exponent field.
 *
 * Multiplies and adds are separate IEEE operations (never FMA), and
 * the scalar path runs the same operations in the same order as the
 * AVX2 path, so both produce the same bits for every input. Against
 * std::exp the result is within 1 ulp wherever std::exp's result is
 * a normal float. Special values:
 *
 *  - z < -87.33654 (including -inf) gives +0: the results libm
 *    returns as subnormals (below FLT_MIN = 1.18e-38) are flushed;
 *  - z > 88.72283 (overflow, including +inf) gives +inf;
 *  - NaN gives the same NaN; +0 and -0 give 1.
 *
 * Sums use a fixed lane order: element j is added to lane j % 8 and
 * the eight lanes are combined by one tree,
 * ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)). The scalar path
 * emulates the lanes. Every exp result is >= +0, so appending masked
 * elements (whose exp is +0) never changes a lane's sum: a row of n
 * elements and the same row followed by a -inf tail give the same
 * sum for any n % 8. That is what keeps a decode step bit-identical
 * to the causal prefill row of the same context.
 */

#ifndef SOFTREC_FP16_SIMD_MATH_HPP
#define SOFTREC_FP16_SIMD_MATH_HPP

#include <cstdint>

#include "fp16/half.hpp"

namespace softrec {

/**
 * out[i] = exp(x[i] - shift) for i in [0, n); returns the sum of the
 * outputs in the fixed lane order above. x and out may alias.
 *
 * A shift of -inf is the fully masked safe-softmax row (every x is
 * -inf): the outputs are +0 and the sum is 0, not the NaN that
 * -inf - -inf would give.
 */
float expSpan(SimdBackend backend, const float *x, float shift,
              float *out, int64_t n);

/**
 * Largest of x[0, n), -inf for n == 0. Each step keeps
 * `m < x ? x : m`, so NaN elements are skipped; lanes and their
 * combining tree are the same as expSpan's, so the result (down to
 * the sign of a zero maximum) does not depend on the backend.
 */
float maxSpan(SimdBackend backend, const float *x, int64_t n);

/**
 * out[i] = tanh(x[i]) = 1 - 2 / (exp(2 x[i]) + 1), on the same exp.
 * Absolute error below 1e-6 against std::tanh. x and out may alias.
 */
void tanhSpan(SimdBackend backend, const float *x, float *out,
              int64_t n);

} // namespace softrec

#endif // SOFTREC_FP16_SIMD_MATH_HPP
