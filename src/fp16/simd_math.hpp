/**
 * @file
 * The one exp primitive of the kernel substrate, with the max and
 * tanh built around it. Every softmax, LS/IR epilogue and GELU in
 * src/kernels/ goes through these calls; only the reference math in
 * src/core/ still calls libm. Each backend has one body that sweeps a
 * tile of row segments: localSoftmaxTile is the whole of it (max, exp
 * and fp16 store per segment), expSpan and maxSpan are its one-row,
 * one-segment cases. Scalar runs one element at a time, F16cAvx2 8
 * lanes, and Avx512 16 lanes through a zmm twin of the AVX2 sweep,
 * plus, for T = 16 tiles, a 16-row body that reduces the rows of each
 * 16 x 16 block with one shuffle tree.
 *
 * The per-element passes of the serving layer live here too, built
 * on the same exp: GeLU (geluSpan), Baseline's row softmax
 * (softmaxRow), the GEMM epilogue (epilogueTile), the fused residual
 * Add & LayerNorm (residualLayerNormRows), and SDF's IR
 * (reconstructionFactors) and GS widening (halfToFloatScaled). Scalar and
 * F16cAvx2 run them as loops over the span calls and batch
 * conversions; Avx512 runs each as one 16-lane body with the same
 * IEEE operations per element in the same order, so every backend
 * gives the same bits.
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
 * AVX2 and AVX-512 paths, so all produce the same bits for every
 * input. This is the opposite of the dot-product rule
 * (kernels/fma_dot.hpp) on purpose: there both operands are fp16,
 * every product is exact in fp32, and an fma rounds where a mul+add
 * does; here the operands (z, r, p) are fp32 values whose products
 * are not exact, so an fma would change the bits of every exp. Against
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
 * emulates the lanes; a 16-lane body adds a vector's lower eight
 * lanes, then its upper eight, to the same eight, or (at T = 16)
 * combines each row's lanes l and l + 8, then the eight, in that order
 * in a tree over 16 rows. Every exp
 * result is >= +0, so appending masked elements (whose exp is +0)
 * never changes a lane's sum: a row of n
 * elements and the same row followed by a -inf tail give the same
 * sum for any n % 8. That is what keeps a decode step bit-identical
 * to the causal prefill row of the same context. A NaN sum is only
 * NaN: which input NaN's payload it carries is not fixed, since the
 * compiler may swap the operands of an add.
 */

#ifndef SOFTREC_FP16_SIMD_MATH_HPP
#define SOFTREC_FP16_SIMD_MATH_HPP

#include <cstdint>

#include "fp16/half.hpp"

namespace softrec {

/**
 * One tile of the Local Softmax (LS) sub-layer: rows x width fp32
 * scores, cut into sub-vectors (segments) of subVector columns each
 * (the last one ragged when subVector does not divide width).
 */
struct LsTile
{
    /**
     * Scores, row stride ld, as the QK^T mainloop leaves them: the LS
     * first multiplies each by scale (when it is not 1) left of the
     * causal mask and makes it -inf right of it, with epilogueTile's
     * bits. x may be overwritten with those values.
     */
    float *x = nullptr;
    int64_t rows = 0;
    int64_t width = 0;
    int64_t ld = 0;
    float scale = 1.0f;
    /** Causal mask, as EpilogueTile's: row i keeps [0, diagonal + i + 1). */
    bool causal = false;
    int64_t diagonal = 0;
    int64_t subVector = 0;     //!< segment width T, > 0
    Half *xPrime = nullptr;    //!< X' out, row stride xPrimeLd
    int64_t xPrimeLd = 0;
    /** m' out, one per segment: row r's segment s at r * mdLd + s. */
    float *localMax = nullptr;
    float *localSum = nullptr; //!< d' out, laid out like localMax
    int64_t mdLd = 0;
};

/**
 * The fused LS of one tile: one max pass and one exp pass over the
 * tile, each segment's exps narrowed to fp16 as they are made. With
 * seg a segment of the scaled and masked scores, for each row and
 * segment it stores
 *
 *   m' = maxSpan(seg), d' = expSpan(seg, m', X'), X' narrowed to fp16,
 *
 * with exactly the bits of those calls followed by floatToHalf, under
 * every backend:
 *
 *  - lane order restarts at every segment: the segment's element j
 *    goes to lane j % 8 of both the max and the sum;
 *  - a fully masked segment (every element -inf, or NaN) has
 *    m' = -inf, d' = +0 and X' = +0, the masked safe-softmax case;
 *  - the fp16 store rounds to nearest-even like Half::fromFloat and,
 *    like it, stores every NaN (an x of NaN, or +inf - +inf when the
 *    segment holds +inf) as the canonical quiet NaN sign | 0x7e00;
 *    d' is then NaN, with the payload rule of the sums above.
 *
 * Avx512 folds the scale and the mask into the loads of its T = 16
 * blocks; every other body runs epilogueTile over x first. X' must not
 * overlap x.
 */
void localSoftmaxTile(SimdBackend backend, const LsTile &tile);

/** The max and the normalizer of one softmaxRow or IR row. */
struct RowSoftmaxStats
{
    float max = 0.0f; //!< maxSpan of the widened row, or of its m'
    float sum = 0.0f; //!< the normalizer d
};

/**
 * The Intermediate Reduction (IR) of rows x segments m'/d' pairs, one
 * row per LS row: row r's segment s sits at r * ld + s in localMax,
 * localSum and recon.
 */
struct IrRows
{
    const float *localMax = nullptr; //!< m'
    const float *localSum = nullptr; //!< d'
    float *recon = nullptr;          //!< r' out
    int64_t rows = 0;
    int64_t segments = 0;
    int64_t ld = 0;
};

/**
 * The IR of `rows`: per row, with m' and d' its segments',
 *
 *   m = maxSpan(m'), e = expSpan(m', m), d = (((+0 + e_0 d'_0) +
 *   e_1 d'_1) + ...), r' = e / d, or +0 everywhere unless d > 0,
 *
 * each product and add a separate IEEE operation, the sum one
 * segment-ascending chain. stats[r] gets row r's m and d. Scalar and
 * F16cAvx2 run the span calls and the chain per row; Avx512 runs 16
 * rows at a time, one row per lane of the chain and of the divides.
 * The bits are the same on every backend (a NaN d is only NaN: its
 * payload is not fixed).
 */
void reconstructionFactors(SimdBackend backend, const IrRows &rows,
                           RowSoftmaxStats *stats);

/**
 * The Global Scaling (GS) of one fp16 row as it is widened:
 * dst[j] = float(src[j]) * scales[j / group] for j in [0, n), one
 * exact widening and one multiply per element, for any group > 0 and
 * n (the last group may be ragged). The bits are the same on every
 * backend: VCVTPH2PS quiets a signalling NaN that the scalar widening
 * keeps, but the multiply quiets it either way. (A NaN scale times a
 * NaN element is NaN with either payload.) src and dst do not overlap.
 */
void halfToFloatScaled(SimdBackend backend, const Half *src, float *dst,
                       int64_t n, const float *scales, int64_t group);

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

/**
 * GeLU (tanh approximation) over a span:
 * out[i] = 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3))), with the
 * tanh of tanhSpan. Every element runs the same IEEE operations in the
 * same order on every backend (Avx512 16 lanes at a time, the others
 * through tanhSpan in chunks), so the bits do not depend on it; x and
 * out may alias. The fused GEMM epilogue (epilogueTile) and
 * biasActRun both run it, so fused and unfused GeLU agree bit for bit.
 */
void geluSpan(SimdBackend backend, const float *x, float *out,
              int64_t n);

/**
 * Safe softmax of one fp16 row: with x the widened row, m =
 * maxSpan(x) and d = expSpan(x, m), out[j] = fp16(exp(x[j] - m) / d),
 * or +0 everywhere when d is not > 0 (a fully masked row, or one
 * holding a NaN or +inf, whose d is NaN). The bits are those of
 * halfToFloat, maxSpan, expSpan, the division and floatToHalf in turn,
 * on every backend; Avx512 widens and takes the max in one pass and
 * divides and narrows in another, around the exp sweep. `staging`
 * holds n floats; in and out may alias.
 */
RowSoftmaxStats softmaxRow(SimdBackend backend, const Half *in,
                           float *staging, Half *out, int64_t n);

/**
 * The element-wise epilogue of one fp32 GEMM output tile, or of one
 * decode score row: rows x width values at acc (row stride ld). Per
 * element, in this order: multiply by scale (when it is not 1) on the
 * live columns; store -inf past them (causal only); add the bias; GeLU;
 * narrow to fp16 into out. Without out the fp32 results stay in acc,
 * for a fused LS to read.
 */
struct EpilogueTile
{
    float *acc = nullptr;
    int64_t rows = 0;
    int64_t width = 0;
    int64_t ld = 0;
    float scale = 1.0f;
    /**
     * Causal mask: row i keeps columns [0, diagonal + i + 1) and the
     * rest become -inf; diagonal is the tile's first row minus its
     * first column.
     */
    bool causal = false;
    int64_t diagonal = 0;
    const float *bias = nullptr; //!< width floats, or none
    bool gelu = false;
    Half *out = nullptr; //!< fp16 out, row stride outLd; null keeps fp32
    int64_t outLd = 0;
};

/**
 * Runs the epilogue of `tile`: per row scale, mask and bias loops,
 * geluSpan and floatToHalf under Scalar and F16cAvx2; one 16-lane pass
 * per row under Avx512, which narrows with VCVTPS2PH and narrows a
 * vector holding a NaN again on the scalar path, as floatToHalf does.
 * The bits are the same on every backend.
 */
void epilogueTile(SimdBackend backend, const EpilogueTile &tile);

/**
 * Rows of the fused residual Add & LayerNorm: out = LayerNorm(a + b)
 * with fp32 statistics, where the sum is rounded to fp16 first, as a
 * residual add that stores its result would. All three are rows x
 * width halves with row stride width; out overlaps neither input.
 */
struct AddNormRows
{
    const Half *a = nullptr;
    const Half *b = nullptr;
    Half *out = nullptr;
    int64_t rows = 0;
    int64_t width = 0;
    const float *gamma = nullptr; //!< width floats
    const float *beta = nullptr;  //!< width floats
    float epsilon = 1e-5f;
};

/**
 * The fused residual Add & LayerNorm of `rows`. Per row, with s the
 * fp16-rounded sums widened: mean = (((+0 + s0) + s1) + ...) / width,
 * var likewise over (s - mean)^2, and out = fp16(((s - mean) *
 * (1 / sqrt(var + epsilon))) * gamma + beta), each a separate IEEE
 * operation in that order, the sums one sequential chain. Scalar and
 * F16cAvx2 run the row loops; Avx512 holds 16 rows in the lanes of
 * transposed 16 x 16 blocks, so each row keeps its sequential chain,
 * and redoes on the row loop any row whose statistics are not finite
 * or whose output holds a NaN. The bits are the same on every
 * backend. The rounded sums are held in out until the normalized row
 * overwrites them, so no staging is needed.
 */
void residualLayerNormRows(SimdBackend backend, const AddNormRows &rows);

} // namespace softrec

#endif // SOFTREC_FP16_SIMD_MATH_HPP
