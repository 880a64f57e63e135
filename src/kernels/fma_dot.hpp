/**
 * @file
 * The dot-product primitives of the kernel library. Every dot product
 * in src/kernels/ (GEMM tiles, decode and streaming attention, and
 * fused MHA) goes through these calls, and every
 * one of them follows one accumulation rule:
 *
 *     c = fma(a, b, c), k-ascending per output element, from c = +0
 *
 * (an accumulating call continues the caller's chains instead of
 * starting at +0). Each product is added with one rounding, the way a
 * tensor core's fp16 MMA accumulates in fp32. Each backend has its
 * own body: the F16cAvx2 backend runs AVX2+FMA bodies; the Avx512
 * backend runs an AVX-512 body of the GEMM tile and the AVX2 bodies
 * of fmaDotRows and fmaAccumRows; the portable bodies use std::fma.
 * On x86-64 the portable bodies also have a copy
 * compiled for the FMA ISA, which the Scalar backend runs on a CPU
 * with FMA, so no body makes a libm call per element on an FMA host;
 * elsewhere they call libm's correctly rounded fmaf. Every body gives
 * the same bits.
 *
 * Where both operands are widened fp16 values the rule gives exactly
 * the bits of a plain `c += a * b` loop. An fp16 value has an 11-bit
 * significand, so a product of two has at most 22 significant bits,
 * and its magnitude (2^-48 to 65504^2) lies well inside fp32's normal
 * range: a * b is exact in fp32, and fma(a, b, c) rounds once, at
 * exactly the place where c + a * b rounds. The projections, Baseline
 * QK^T and P.V, and decode over an fp16 KV cache have only such
 * products. Products with an fp32 operand do round differently from
 * a mul+add: SDF's GS-scaled P.V (A = X'.r'), the streaming kernels'
 * and fused MHA's fp32 p.V, and decode over an int8 KV cache
 * (dequantized rows are fp32).
 */

#ifndef SOFTREC_KERNELS_FMA_DOT_HPP
#define SOFTREC_KERNELS_FMA_DOT_HPP

#include <cstdint>

#include "fp16/half.hpp"

namespace softrec {

/**
 * GEMM tile: acc[mh, ldn] += A[mh, depth] . panel[depth, ldn]. Row i
 * of a_rows (stride lda) reads columns [0, min(k_depth, diag + i +
 * 1)): a causal-A caller passes its first row's global index as diag,
 * anyone else k_depth, which gives every row the full depth. panel is
 * row-major [k_depth][ldn]. A caller that splits the depth into
 * column ranges of wider A rows (lda > k_depth) and calls once per
 * range, ascending, continues the same chains. The AVX2 body keeps 4
 * rows x 16 columns of accumulators in YMM registers (4 x 8 and one
 * row at the edges) and handles the last ldn % 8 columns itself. The
 * AVX-512 body keeps 6 rows x 64 columns in ZMM registers per 64
 * columns and 8 x 16 for the remaining 16-column vectors, masks the
 * last vector over the ldn % 16 columns left, runs the rows left
 * below a whole block as one shorter block, and walks the depth in
 * slices of 16 KiB of panel so the slice stays in L1.
 */
void fmaGemmTile(SimdBackend backend, const float *a_rows, int64_t lda,
                 const float *panel, float *acc, int64_t mh,
                 int64_t k_depth, int64_t diag, int64_t ldn);

/**
 * Scores against `count` rows: out[r] = sum over d in [0, n) of
 * q[d] * rows[r * ld + d], one d-ascending fma chain from +0 per r.
 * The AVX2 body runs eight rows per vector (one row per lane), so a
 * decode step scores eight cached positions at once; the last
 * count % 8 rows take the one-row chain, with the same bits. fp16
 * rows are widened (exactly) inside the call.
 */
template <typename Row> // float or Half
void fmaDotRows(SimdBackend backend, const float *q, const Row *rows,
                int64_t ld, int64_t count, int64_t n, float *out);

/**
 * Weighted row sum: acc[d] = fma(p[r], rows[r * ld + d], acc[d]) for
 * r ascending over [0, count), every d in [0, n): the P.V of one
 * attention row, continuing the chains already in acc. fp16 rows are
 * widened (exactly) inside the call.
 */
template <typename Row> // float or Half
void fmaAccumRows(SimdBackend backend, const float *p, const Row *rows,
                  int64_t ld, int64_t count, int64_t n, float *acc);

} // namespace softrec

#endif // SOFTREC_KERNELS_FMA_DOT_HPP
