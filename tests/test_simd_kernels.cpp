/**
 * @file
 * Tests of the vectorized kernel substrate: the batch fp16<->fp32
 * conversions must be bit-for-bit identical between the scalar and
 * SIMD backends (including NaN payloads, infinities, subnormals, and
 * rounding boundaries), the packed-panel GEMM must match the naive
 * reference at ragged shapes and produce the same bits under every
 * available backend (every epilogue, the GS prologue, signed zeros,
 * the k-block continuation, every leftover row and column block of
 * the AVX2 and AVX-512 tiles, and the fully-masked causal tiles whose
 * mainloop is skipped), the fused LS
 * epilogue must give a triple loop's bits followed by the per-segment
 * LS sequence, causal attention's diagonal stop (causal-A GEMM,
 * causal row softmax) must give the full computation's bits on every
 * backend, the exp primitive and its max/tanh companions must give
 * the same bits under every backend while keeping their documented
 * accuracy, special values and lane-order sum, the LS tile primitive
 * must give the bits of maxSpan, expSpan and floatToHalf per segment,
 * the row softmax and GeLU must give the scalar bits on every backend
 * (masked, zero-maximum and non-finite rows, special values),
 * and kernels built on the substrate must stay deterministic across
 * thread counts.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "fp16/half.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/fma_dot.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

/** Runs `body` under `backend`, restoring the previous backend. */
template <typename Fn>
void
withBackend(SimdBackend backend, Fn &&body)
{
    const SimdBackend prev = setSimdBackend(backend);
    body();
    setSimdBackend(prev);
}

/**
 * Adversarial fp32 inputs for floatToHalf: every special-case branch
 * of Half::fromFloat plus the RNE rounding boundaries.
 */
std::vector<float>
edgeFloats()
{
    const auto bits = [](uint32_t u) {
        float f;
        static_assert(sizeof(f) == sizeof(u));
        __builtin_memcpy(&f, &u, sizeof(f));
        return f;
    };
    return {
        0.0f, -0.0f, 1.0f, -1.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        bits(0x7f800001u), // signalling NaN, minimal payload
        bits(0xffc12345u), // quiet NaN with payload bits
        65504.0f,          // max finite half
        65519.0f,          // rounds down to 65504
        65520.0f,          // rounds up: overflow to +inf
        -65520.0f,
        6.103515625e-05f,  // min normal half (2^-14)
        5.960464477539063e-08f, // min subnormal half (2^-24)
        2.9802322387695312e-08f, // 2^-25: underflow boundary
        bits(0x33000001u), // just above 2^-25: smallest non-zero
        1.0009765625f,     // 1 + 2^-10: exactly representable
        1.00048828125f,    // 1 + 2^-11: RNE tie, rounds to even
        1.0014648437f,     // between steps: rounds to nearest
        3.14159265f, -2.71828182f, 1e-3f, -1e6f,
    };
}

TEST(BatchConvert, HalfToFloatAllBitPatternsMatchScalar)
{
    // Every binary16 bit pattern through both backends, including all
    // NaN payloads (the SIMD path must redo NaN chunks scalar).
    const int64_t n = 0x10000;
    std::vector<Half> src(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        src[size_t(i)] = Half::fromBits(uint16_t(i));
    std::vector<float> want(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    halfToFloatScalar(src.data(), want.data(), n);
    withBackend(detectedSimdBackend(), [&] {
        halfToFloat(src.data(), got.data(), n);
    });
    for (int64_t i = 0; i < n; ++i) {
        uint32_t wb, gb;
        __builtin_memcpy(&wb, &want[size_t(i)], 4);
        __builtin_memcpy(&gb, &got[size_t(i)], 4);
        ASSERT_EQ(wb, gb) << "half bits=" << i;
    }
}

TEST(BatchConvert, FloatToHalfEdgeCasesMatchScalar)
{
    // Edge values in every lane position so each special case lands
    // in both aligned chunks and the scalar tail.
    const std::vector<float> edges = edgeFloats();
    std::vector<float> src;
    for (size_t rot = 0; rot < 8; ++rot)
        for (size_t i = 0; i < edges.size(); ++i)
            src.push_back(edges[(i + rot) % edges.size()]);
    const int64_t n = int64_t(src.size());
    std::vector<Half> want(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    floatToHalfScalar(src.data(), want.data(), n);
    withBackend(detectedSimdBackend(), [&] {
        floatToHalf(src.data(), got.data(), n);
    });
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(want[size_t(i)].bits(), got[size_t(i)].bits())
            << "src=" << src[size_t(i)] << " i=" << i;
}

TEST(BatchConvert, RandomRoundTripMatchesScalarAtOddLengths)
{
    // Lengths 0..33 cover the vector body, the partial tail, and the
    // all-tail cases on both 8-wide (x86) and 4-wide (NEON) paths.
    Rng rng(11);
    for (int64_t n = 0; n <= 33; ++n) {
        std::vector<float> src(static_cast<size_t>(n));
        for (float &v : src)
            v = float(rng.normal(0.0, 100.0));
        std::vector<Half> hw(size_t(n) + 1), hg(size_t(n) + 1);
        std::vector<float> fw(size_t(n) + 1), fg(size_t(n) + 1);
        floatToHalfScalar(src.data(), hw.data(), n);
        halfToFloatScalar(hw.data(), fw.data(), n);
        withBackend(detectedSimdBackend(), [&] {
            floatToHalf(src.data(), hg.data(), n);
            halfToFloat(hg.data(), fg.data(), n);
        });
        for (int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(hw[size_t(i)].bits(), hg[size_t(i)].bits())
                << "n=" << n << " i=" << i;
            ASSERT_EQ(fw[size_t(i)], fg[size_t(i)])
                << "n=" << n << " i=" << i;
        }
    }
}

TEST(SimdBackendApi, SetAndRestore)
{
    // The initial backend depends on SOFTREC_SIMD (off forces Scalar,
    // auto/unset detects), so only assert it is one of the two.
    const SimdBackend detected = detectedSimdBackend();
    const std::vector<SimdBackend> available = availableSimdBackends();
    ASSERT_FALSE(available.empty());
    EXPECT_EQ(available.front(), SimdBackend::Scalar);
    EXPECT_EQ(available.back(), detected);
    const SimdBackend initial = simdBackend();
    EXPECT_TRUE(initial == detected || initial == SimdBackend::Scalar);
    EXPECT_EQ(setSimdBackend(SimdBackend::Scalar), initial);
    EXPECT_EQ(simdBackend(), SimdBackend::Scalar);
    EXPECT_EQ(setSimdBackend(detected), SimdBackend::Scalar);
    EXPECT_EQ(simdBackend(), detected);
    // Every available backend can be pinned: on an AVX-512 host that
    // includes F16cAvx2, so its GEMM tile stays testable there.
    for (const SimdBackend backend : available) {
        EXPECT_EQ(setSimdBackend(backend), detected);
        EXPECT_EQ(simdBackend(), backend);
        EXPECT_STRNE(simdBackendName(backend), "");
        setSimdBackend(detected);
    }
    if (detected == SimdBackend::Avx512) {
        EXPECT_NE(std::find(available.begin(), available.end(),
                            SimdBackend::F16cAvx2),
                  available.end());
        EXPECT_STREQ(simdBackendName(detected), "f16c-avx512");
    }
    setSimdBackend(initial);
    EXPECT_EQ(simdBackend(), initial);
}

// --- Packed-panel GEMM against the naive reference -----------------

/** Naive fp32 reference: C = op(A, B) with the same epilogue. */
Tensor<float>
referenceGemm(const GemmDesc &desc, const GemmOperands &ops)
{
    Tensor<float> out(Shape({desc.m, desc.n}));
    for (int64_t i = 0; i < desc.m; ++i) {
        for (int64_t j = 0; j < desc.n; ++j) {
            float acc = 0.0f;
            for (int64_t kk = 0; kk < desc.k; ++kk) {
                float a = float(ops.a->at(i, kk));
                if (desc.prologue.globalScale) {
                    a *= ops.gsFactors->at(
                        i, kk / desc.prologue.gsSubVector);
                }
                const float b = ops.transposeB
                    ? float(ops.b->at(j, kk))
                    : float(ops.b->at(kk, j));
                acc += a * b;
            }
            if (desc.epilogue.scale != 1.0)
                acc *= float(desc.epilogue.scale);
            if (desc.epilogue.bias)
                acc += ops.bias->at(j);
            out.at(i, j) = acc;
        }
    }
    return out;
}

TEST(PackedGemm, RaggedShapesMatchReferenceUnderBothBackends)
{
    // Shapes chosen so m, n, and k are all ragged against the tiles:
    // partial panels, partial strips, and partial K steps.
    const struct { int64_t m, n, k; bool transpose_b; } cases[] = {
        {1, 1, 1, false},   {7, 5, 3, false},  {33, 17, 21, false},
        {16, 8, 4, false},  {19, 23, 9, true}, {33, 17, 21, true},
    };
    int seed = 100;
    for (const auto &tc : cases) {
        for (const SimdBackend backend : availableSimdBackends()) {
            Rng rng(uint64_t(seed++));
            GemmDesc desc;
            desc.m = tc.m;
            desc.n = tc.n;
            desc.k = tc.k;
            desc.tiling.tileM = 16;
            desc.tiling.tileN = 8;
            desc.tiling.tileK = 4;
            Tensor<Half> a(Shape({tc.m, tc.k}));
            Tensor<Half> b(tc.transpose_b ? Shape({tc.n, tc.k})
                                          : Shape({tc.k, tc.n}));
            fillNormal(a, rng, 0.0, 0.5);
            fillNormal(b, rng, 0.0, 0.5);
            GemmOperands ops;
            ops.a = &a;
            ops.b = &b;
            ops.transposeB = tc.transpose_b;
            Tensor<Half> c(Shape({tc.m, tc.n}));
            withBackend(backend, [&] {
                gemmRun(ExecContext(), desc, ops, c);
            });
            EXPECT_LT(maxAbsDiff(toFloat(c), referenceGemm(desc, ops)),
                      0.02)
                << "m=" << tc.m << " n=" << tc.n << " k=" << tc.k
                << " transposed=" << tc.transpose_b
                << " backend=" << simdBackendName(backend);
        }
    }
}

TEST(PackedGemm, FusedLsEpilogueMatchesUnfused)
{
    // The LS epilogue reuses the packed panels and converted rows;
    // its m'/d' must match running LS over the unfused scores.
    Rng rng(42);
    GemmDesc plain;
    plain.m = 29;
    plain.n = 24;
    plain.k = 16;
    plain.tiling.tileM = 16;
    plain.tiling.tileN = 8;
    plain.tiling.tileK = 4;
    plain.epilogue.scale = 0.25;
    Tensor<Half> a(Shape({plain.m, plain.k}));
    Tensor<Half> b(Shape({plain.n, plain.k}));
    fillNormal(a, rng, 0.0, 0.5);
    fillNormal(b, rng, 0.0, 0.5);
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    ops.transposeB = true;

    GemmDesc fused = plain;
    fused.epilogue.localSoftmax = true;
    const int64_t nsv = (plain.n + plain.tiling.tileN - 1) /
                        plain.tiling.tileN;
    Tensor<Half> scores(Shape({plain.m, plain.n}));
    Tensor<Half> x_prime(Shape({plain.m, plain.n}));
    Tensor<float> local_max(Shape({plain.m, nsv}));
    Tensor<float> local_sum(Shape({plain.m, nsv}));
    LsOutputs ls;
    ls.localMax = &local_max;
    ls.localSum = &local_sum;
    gemmRun(ExecContext(), plain, ops, scores);
    gemmRun(ExecContext(), fused, ops, x_prime, &ls);

    SoftmaxShape sm;
    sm.rows = plain.m;
    sm.cols = plain.n;
    sm.subVector = plain.tiling.tileN;
    Tensor<Half> want_x(Shape({plain.m, plain.n}));
    Tensor<float> want_max(Shape({plain.m, nsv}));
    Tensor<float> want_sum(Shape({plain.m, nsv}));
    lsRun(ExecContext(), sm, scores, want_x, want_max, want_sum);
    EXPECT_LT(maxAbsDiff(toFloat(x_prime), toFloat(want_x)), 0.02);
    EXPECT_LT(maxAbsDiff(local_max, want_max), 0.02);
    EXPECT_LT(maxAbsDiff(local_sum, want_sum), 0.02);
}

// --- Scalar and SIMD GEMM kernels are bit-identical -----------------

/** The bits of a float. */
uint32_t
bitsOf(float f)
{
    uint32_t u;
    __builtin_memcpy(&u, &f, sizeof(u));
    return u;
}

/** Output (and LS m'/d') bits of one GEMM run under `backend`. */
std::vector<uint32_t>
gemmBits(SimdBackend backend, const GemmDesc &desc,
         const GemmOperands &ops)
{
    Tensor<Half> c(Shape({desc.m, desc.n}));
    const int64_t nsv = (desc.n + desc.lsWidth() - 1) / desc.lsWidth();
    Tensor<float> local_max(Shape({desc.m, nsv}));
    Tensor<float> local_sum(Shape({desc.m, nsv}));
    LsOutputs ls;
    ls.localMax = &local_max;
    ls.localSum = &local_sum;
    withBackend(backend, [&] {
        gemmRun(ExecContext(), desc, ops, c,
                desc.epilogue.localSoftmax ? &ls : nullptr);
    });
    std::vector<uint32_t> bits;
    for (int64_t i = 0; i < c.numel(); ++i)
        bits.push_back(c.data()[i].bits());
    if (desc.epilogue.localSoftmax) {
        for (const Tensor<float> *t : {&local_max, &local_sum}) {
            for (int64_t i = 0; i < t->numel(); ++i) {
                uint32_t u;
                __builtin_memcpy(&u, &t->data()[i], 4);
                bits.push_back(u);
            }
        }
    }
    return bits;
}

TEST(PackedGemm, FusedLsEpilogueBitExactAgainstTripleLoop)
{
    // The fused LS epilogue must store the bits of: an fp32 triple
    // loop in k-ascending order (the micro-kernel's contract), the
    // scale, the causal mask, then maxSpan, expSpan and floatToHalf
    // per tileN-wide row segment. m and n are ragged against every
    // tile; the causal cases include diagonal and fully masked tiles.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    int seed = 1100;
    for (const int64_t tile_n : {8, 16, 24, 64}) {
        for (const bool causal : {false, true}) {
            Rng rng(uint64_t(seed++));
            GemmDesc desc;
            desc.m = causal ? 70 : 45;
            desc.n = 70;
            desc.k = 24;
            desc.tiling.tileM = 16;
            desc.tiling.tileN = tile_n;
            desc.epilogue.scale = 0.125;
            desc.epilogue.causalMask = causal;
            desc.epilogue.localSoftmax = true;
            Tensor<Half> q(Shape({desc.m, desc.k}));
            Tensor<Half> k(Shape({desc.n, desc.k}));
            fillNormal(q, rng, 0.0, 2.0);
            fillNormal(k, rng, 0.0, 2.0);
            GemmOperands ops;
            ops.a = &q;
            ops.b = &k;
            ops.transposeB = true;
            const int64_t nsv = (desc.n + tile_n - 1) / tile_n;
            for (const SimdBackend backend : availableSimdBackends()) {
                std::vector<uint32_t> want;
                std::vector<uint32_t> want_md(size_t(2 * desc.m * nsv));
                withBackend(backend, [&] {
                    std::vector<Half> x(size_t(desc.n));
                    for (int64_t i = 0; i < desc.m; ++i) {
                        std::vector<float> row(size_t(desc.n));
                        for (int64_t j = 0; j < desc.n; ++j) {
                            float acc = 0.0f;
                            for (int64_t kk = 0; kk < desc.k; ++kk) {
                                acc += float(q.at(i, kk)) *
                                       float(k.at(j, kk));
                            }
                            row[size_t(j)] = causal && j > i
                                ? -kInf
                                : acc * float(desc.epilogue.scale);
                        }
                        for (int64_t tn = 0; tn < nsv; ++tn) {
                            const int64_t j0 = tn * tile_n;
                            const int64_t w = std::min(tile_n,
                                                       desc.n - j0);
                            float *seg = &row[size_t(j0)];
                            const float m = maxSpan(backend, seg, w);
                            const float d =
                                expSpan(backend, seg, m, seg, w);
                            floatToHalf(seg, &x[size_t(j0)], w);
                            want_md[size_t(i * nsv + tn)] = bitsOf(m);
                            want_md[size_t((desc.m + i) * nsv + tn)] =
                                bitsOf(d);
                        }
                        for (const Half h : x)
                            want.push_back(h.bits());
                    }
                });
                want.insert(want.end(), want_md.begin(), want_md.end());
                EXPECT_EQ(gemmBits(backend, desc, ops), want)
                    << "tileN=" << tile_n << " causal=" << causal << " "
                    << simdBackendName(backend);
            }
        }
    }
}

TEST(PackedGemm, WideLsTilesMatchOneSegmentPerTile)
{
    // A fused-LS QK^T whose n-tile holds several T-wide segments must
    // store the X', m' and d' bits of tileN = T, causal or not, on
    // every backend: the segments of a tile are indexed by column, the
    // fully masked causal tiles fill every segment they hold, and the
    // ragged last tile (150 = 2 x 64 + 22) ends in a ragged segment.
    int seed = 1300;
    for (const auto &[tile_n, sub] :
         {std::pair<int64_t, int64_t>{64, 16}, {48, 16}, {128, 64}}) {
        for (const bool causal : {false, true}) {
            Rng rng(uint64_t(seed++));
            GemmDesc narrow;
            narrow.m = 70;
            narrow.n = 150;
            narrow.k = 24;
            narrow.tiling.tileM = 16;
            narrow.tiling.tileN = sub;
            narrow.epilogue.scale = 0.125;
            narrow.epilogue.causalMask = causal;
            narrow.epilogue.localSoftmax = true;
            GemmDesc wide = narrow;
            wide.tiling.tileN = tile_n;
            wide.epilogue.lsSubVector = sub;
            Tensor<Half> q(Shape({narrow.m, narrow.k}));
            Tensor<Half> k(Shape({narrow.n, narrow.k}));
            fillNormal(q, rng, 0.0, 2.0);
            fillNormal(k, rng, 0.0, 2.0);
            GemmOperands ops;
            ops.a = &q;
            ops.b = &k;
            ops.transposeB = true;
            for (const SimdBackend backend : availableSimdBackends()) {
                EXPECT_EQ(gemmBits(backend, wide, ops),
                          gemmBits(backend, narrow, ops))
                    << "tileN=" << tile_n << " T=" << sub
                    << " causal=" << causal << " "
                    << simdBackendName(backend);
            }
        }
    }
}

TEST(PackedGemm, ScalarAndSimdKernelsBitIdentical)
{
    // The AVX2 tile blocks 4 rows x 16 columns in registers, the
    // AVX-512 tile 6 x 64 and 8 x 16 with a masked last vector. With
    // 16-row strips the last strip holds m % 16 rows: 1 to 7 and 16
    // leave every remainder of 4-, 6- and 8-row blocks. The tile
    // widths cover whole and ragged 8-, 16- and 64-column blocks, and
    // n spans at least two tiles of the widest, so every leftover path
    // of every backend meets the scalar reference.
    enum Epilogue { kPlain, kScale, kCausal, kScaleCausal, kBias, kGelu,
                    kLs, kGs, kCausalA };
    int seed = 300;
    for (const int64_t m : {4, 21, 38, 55, 18, 35, 49}) {
        for (const int64_t tile_n :
             {8, 16, 24, 32, 48, 64, 80, 100, 128}) {
            for (const bool transpose_b : {false, true}) {
                for (const Epilogue epi :
                     {kPlain, kScale, kCausal, kScaleCausal, kBias, kGelu,
                      kLs, kGs, kCausalA}) {
                    Rng rng(uint64_t(seed++));
                    GemmDesc desc;
                    desc.m = m;
                    desc.n = 260;
                    desc.k = epi == kCausalA ? 60 : 19;
                    desc.tiling.tileM = 16;
                    desc.tiling.tileN = tile_n;
                    desc.epilogue.scale =
                        epi == kScale || epi == kScaleCausal || epi == kLs
                            ? 0.125
                            : 1.0;
                    desc.epilogue.causalMask =
                        epi == kCausal || epi == kScaleCausal || epi == kLs;
                    desc.epilogue.bias = epi == kBias || epi == kGelu;
                    desc.epilogue.gelu = epi == kGelu;
                    desc.epilogue.localSoftmax = epi == kLs;
                    desc.prologue.globalScale = epi == kGs;
                    desc.prologue.gsSubVector = 8;
                    desc.prologue.causalA = epi == kCausalA;
                    Tensor<Half> a(Shape({m, desc.k}));
                    Tensor<Half> b(transpose_b
                                       ? Shape({desc.n, desc.k})
                                       : Shape({desc.k, desc.n}));
                    fillNormal(a, rng, 0.0, 1.0);
                    fillNormal(b, rng, 0.0, 1.0);
                    if (epi == kCausalA) {
                        for (int64_t i = 0; i < m; ++i)
                            for (int64_t j = i + 1; j < desc.k; ++j)
                                a.at(i, j) = Half();
                    }
                    Tensor<float> bias(Shape({desc.n}));
                    fillNormal(bias, rng, 0.0, 0.5);
                    Tensor<float> gs(Shape({m, (desc.k + 7) / 8}));
                    fillNormal(gs, rng, 1.0, 0.25);
                    GemmOperands ops;
                    ops.a = &a;
                    ops.b = &b;
                    ops.transposeB = transpose_b;
                    ops.bias = &bias;
                    ops.gsFactors = &gs;
                    const std::vector<uint32_t> want =
                        gemmBits(SimdBackend::Scalar, desc, ops);
                    for (const SimdBackend backend :
                         availableSimdBackends()) {
                        EXPECT_EQ(gemmBits(backend, desc, ops), want)
                            << "m=" << m << " tileN=" << tile_n
                            << " transposed=" << transpose_b
                            << " epilogue=" << int(epi) << " "
                            << simdBackendName(backend);
                    }
                }
            }
        }
    }

    // The k-block continuation: A rows wider than the depth (lda >
    // k_depth), one call per column range, ascending, as a block-sparse
    // P.V strip runs them; every element stays one chain.
    const int64_t kb = 7, blocks = 3, lda = blocks * kb + 2;
    for (const int64_t ldn : {16, 40, 64, 100}) {
        for (const int64_t mh : {5, 7, 14, 16}) {
            Rng rng(uint64_t(seed++));
            std::vector<float> a(size_t(mh * lda));
            std::vector<float> panel(size_t(blocks * kb * ldn));
            for (float &v : a)
                v = float(Half(float(rng.normal(0.0, 1.0))));
            for (float &v : panel)
                v = float(Half(float(rng.normal(0.0, 1.0))));
            const auto run = [&](SimdBackend backend) {
                std::vector<float> acc(size_t(mh * ldn), 0.0f);
                for (int64_t blk = 0; blk < blocks; ++blk)
                    fmaGemmTile(backend, a.data() + blk * kb, lda,
                                panel.data() + blk * kb * ldn, acc.data(),
                                mh, kb, kb, ldn);
                std::vector<uint32_t> bits(acc.size());
                __builtin_memcpy(bits.data(), acc.data(),
                                 acc.size() * sizeof(float));
                return bits;
            };
            const std::vector<uint32_t> want = run(SimdBackend::Scalar);
            for (const SimdBackend backend : availableSimdBackends())
                EXPECT_EQ(run(backend), want)
                    << "k blocks: ldn=" << ldn << " rows=" << mh << " "
                    << simdBackendName(backend);
        }
    }
}

TEST(PackedGemm, ZeroRowTimesNegativeBStoresPositiveZero)
{
    // Each accumulator starts at +0.0f and adds every product, so an
    // all-zero A row gives +0 + (-0) + ... = +0. A kernel seeded
    // with its first product would store -0 instead. The tile widths
    // run every register block: 16-column, 64-column and a masked
    // tail, with 7 rows leaving a leftover row block.
    for (const int64_t tile_n : {16, 64, 72}) {
        GemmDesc desc;
        desc.m = 7;
        desc.n = 144;
        desc.k = 5;
        desc.tiling.tileM = 16;
        desc.tiling.tileN = tile_n;
        Tensor<Half> a(Shape({desc.m, desc.k})); // all +0
        Tensor<Half> b(Shape({desc.k, desc.n}));
        for (int64_t i = 0; i < b.numel(); ++i)
            b.data()[i] = Half(-1.5f);
        GemmOperands ops;
        ops.a = &a;
        ops.b = &b;
        for (const SimdBackend backend : availableSimdBackends()) {
            for (const uint32_t bits : gemmBits(backend, desc, ops))
                ASSERT_EQ(bits, 0u) << simdBackendName(backend)
                                    << " tileN=" << tile_n;
        }
    }
}

TEST(PackedGemm, FullyMaskedCausalTilesMatchMaskingAfterwards)
{
    // 41x41 causal scores in 16-row strips and 8-column tiles: strip
    // 0 has fully masked tiles from column 16 on, every strip has
    // partly masked diagonal tiles and unmasked tiles, and the last
    // strip's last row (40) is the only unmasked row of tile n0 = 40,
    // the edge of the skip condition. The masked GEMM must equal the
    // unmasked one with -inf written over j > i afterwards, also
    // when a K row is NaN.
    const int64_t L = 41;
    const int64_t tile_n = 8;
    const int64_t nsv = (L + tile_n - 1) / tile_n;
    for (const bool nan_row : {false, true}) {
        for (const SimdBackend backend : availableSimdBackends()) {
            Rng rng(71);
            GemmDesc plain;
            plain.m = L;
            plain.n = L;
            plain.k = 16;
            plain.tiling.tileM = 16;
            plain.tiling.tileN = tile_n;
            plain.epilogue.scale = 0.25;
            Tensor<Half> q(Shape({L, plain.k}));
            Tensor<Half> k(Shape({L, plain.k}));
            fillNormal(q, rng, 0.0, 1.0);
            fillNormal(k, rng, 0.0, 1.0);
            if (nan_row) {
                // Column 35: fully masked for strips 0-1, partly
                // masked in strip 2, unmasked for rows 35-40.
                for (int64_t kk = 0; kk < plain.k; ++kk)
                    k.at(35, kk) = Half::fromBits(0x7e00);
            }
            GemmOperands ops;
            ops.a = &q;
            ops.b = &k;
            ops.transposeB = true;
            GemmDesc causal = plain;
            causal.epilogue.causalMask = true;
            GemmDesc causal_ls = causal;
            causal_ls.epilogue.localSoftmax = true;

            Tensor<Half> want(Shape({L, L})), got(Shape({L, L}));
            Tensor<Half> x_prime(Shape({L, L}));
            Tensor<float> lmax(Shape({L, nsv}));
            Tensor<float> lsum(Shape({L, nsv}));
            LsOutputs ls{&lmax, &lsum};
            // The NaN reaches unmasked scores too, which the checked
            // build's LS invariant rejects, so LS runs without it.
            withBackend(backend, [&] {
                gemmRun(ExecContext(), plain, ops, want);
                gemmRun(ExecContext(), causal, ops, got);
                if (!nan_row)
                    gemmRun(ExecContext(), causal_ls, ops, x_prime, &ls);
            });
            for (int64_t i = 0; i < L; ++i) {
                for (int64_t j = 0; j < L; ++j) {
                    const uint16_t expect = j > i
                        ? Half::infinity().bits() | 0x8000u
                        : want.at(i, j).bits();
                    ASSERT_EQ(got.at(i, j).bits(), expect)
                        << "i=" << i << " j=" << j << " nan="
                        << nan_row << " " << simdBackendName(backend);
                }
                // LS over a fully masked sub-vector: m' = -inf,
                // d' = 0, and X' is exactly zero.
                for (int64_t tn = 0; tn < nsv && !nan_row; ++tn) {
                    const int64_t j0 = tn * tile_n;
                    if (j0 <= i)
                        continue;
                    EXPECT_EQ(lmax.at(i, tn),
                              -std::numeric_limits<float>::infinity());
                    EXPECT_EQ(lsum.at(i, tn), 0.0f);
                    for (int64_t j = j0; j < std::min(L, j0 + tile_n);
                         ++j)
                        ASSERT_EQ(x_prime.at(i, j).bits(), 0u);
                }
            }
        }
    }
}

// --- Causal attention stops at the diagonal, bit for bit -----------

/** Every element's bits, row-major. */
std::vector<uint16_t>
halfBits(const Tensor<Half> &t)
{
    std::vector<uint16_t> bits;
    for (int64_t i = 0; i < t.numel(); ++i)
        bits.push_back(t.data()[i].bits());
    return bits;
}

TEST(PackedGemm, CausalAStopsAtDiagonalBitIdentical)
{
    // A is lower-triangular (+0 past the diagonal, its diagonal
    // nonzero), as causal probabilities and X' are. The diagonal stop
    // must leave every bit of the plain and the GS-prologue GEMM
    // unchanged: m is ragged against both strip heights, k runs both
    // shorter and longer than m, and the 40 columns leave a 16-column
    // register block plus a leftover under tileN = 16.
    const struct { int64_t m, k; } shapes[] = {{83, 83}, {37, 50},
                                               {83, 70}};
    int seed = 900;
    for (const auto &shape : shapes) {
        for (const int64_t tile_m : {16, 64}) {
            for (const int64_t tile_n : {16, 64}) {
                for (const bool gs_prologue : {false, true}) {
                    Rng rng(uint64_t(seed++));
                    GemmDesc plain;
                    plain.m = shape.m;
                    plain.n = 40;
                    plain.k = shape.k;
                    plain.tiling.tileM = tile_m;
                    plain.tiling.tileN = tile_n;
                    plain.prologue.globalScale = gs_prologue;
                    plain.prologue.gsSubVector = 16;
                    Tensor<Half> a(Shape({plain.m, plain.k}));
                    Tensor<Half> b(Shape({plain.k, plain.n}));
                    fillNormal(a, rng, 0.0, 1.0);
                    fillNormal(b, rng, 0.0, 1.0);
                    for (int64_t i = 0; i < plain.m; ++i)
                        for (int64_t j = i + 1; j < plain.k; ++j)
                            a.at(i, j) = Half();
                    Tensor<float> gs(
                        Shape({plain.m, (plain.k + 15) / 16}));
                    fillNormal(gs, rng, 1.0, 0.25);
                    GemmOperands ops;
                    ops.a = &a;
                    ops.b = &b;
                    ops.gsFactors = &gs;
                    GemmDesc causal = plain;
                    causal.prologue.causalA = true;
                    for (const SimdBackend backend : availableSimdBackends()) {
                        EXPECT_EQ(gemmBits(backend, causal, ops),
                                  gemmBits(backend, plain, ops))
                            << "m=" << shape.m << " k=" << shape.k
                            << " tileM=" << tile_m
                            << " tileN=" << tile_n
                            << " gs=" << gs_prologue << " "
                            << simdBackendName(backend);
                    }
                }
            }
        }
    }
}

// --- One accumulation rule: c = fma(a, b, c), k-ascending from +0 ---

TEST(FmaRule, Fp16OperandsGiveTheBitsOfAMulAddTripleLoop)
{
    // A product of two fp16 values is exact in fp32, so the fma chain
    // of every GEMM whose operands are both fp16 equals a plain
    // `c + a * b` loop bit for bit: here a bias + GeLU projection and
    // a causal P.V. tileN = 13 leaves columns past the last 8-wide
    // vector, which the AVX2 tile runs with scalar fma.
    int seed = 1300;
    for (const int64_t tile_n : {8, 13, 16, 64}) {
        for (const bool causal_pv : {false, true}) {
            Rng rng(uint64_t(seed++));
            GemmDesc desc;
            desc.m = causal_pv ? 45 : 37;
            desc.n = causal_pv ? 24 : 70;
            desc.k = causal_pv ? desc.m : 40;
            desc.tiling.tileM = 16;
            desc.tiling.tileN = tile_n;
            desc.prologue.causalA = causal_pv;
            desc.epilogue.bias = !causal_pv;
            desc.epilogue.gelu = !causal_pv;
            Tensor<Half> a(Shape({desc.m, desc.k}));
            Tensor<Half> b(Shape({desc.k, desc.n}));
            Tensor<float> bias(Shape({desc.n}));
            fillNormal(b, rng, 0.0, 1.0);
            fillNormal(bias, rng, 0.0, 0.5);
            if (causal_pv) {
                // Probabilities: in [0, 1) up to the diagonal, +0 past it.
                for (int64_t i = 0; i < desc.m; ++i)
                    for (int64_t j = 0; j < desc.k; ++j)
                        a.at(i, j) = Half(j <= i ? float(rng.uniform())
                                                 : 0.0f);
            } else {
                fillNormal(a, rng, 0.0, 1.0);
            }
            GemmOperands ops;
            ops.a = &a;
            ops.b = &b;
            ops.bias = &bias;
            for (const SimdBackend backend : availableSimdBackends()) {
                std::vector<uint32_t> want;
                withBackend(backend, [&] {
                    std::vector<float> row(size_t(desc.n));
                    std::vector<Half> out(size_t(desc.n));
                    for (int64_t i = 0; i < desc.m; ++i) {
                        const int64_t depth =
                            causal_pv ? i + 1 : desc.k;
                        for (int64_t j = 0; j < desc.n; ++j) {
                            float acc = 0.0f;
                            for (int64_t kk = 0; kk < depth; ++kk)
                                acc += float(a.at(i, kk)) *
                                       float(b.at(kk, j));
                            row[size_t(j)] = acc;
                        }
                        if (!causal_pv) {
                            for (int64_t j = 0; j < desc.n; ++j)
                                row[size_t(j)] += bias.at(j);
                            geluSpan(backend, row.data(), row.data(),
                                     desc.n);
                        }
                        floatToHalf(row.data(), out.data(), desc.n);
                        for (const Half h : out)
                            want.push_back(h.bits());
                    }
                });
                EXPECT_EQ(gemmBits(backend, desc, ops), want)
                    << "tileN=" << tile_n << " causalPV=" << causal_pv
                    << " " << simdBackendName(backend);
            }
        }
    }
}

TEST(FmaRule, GsPrologueGemmIsAnFmaChain)
{
    // With the GS prologue, A = X'.r' is fp32 and its products with B
    // are not exact: the GEMM must give the bits of a std::fma chain,
    // and a mul+add loop must differ. Pairs of equal A columns meet
    // opposite B rows, so each pair leaves exactly the rounding error
    // of its product in an fma chain and nothing in a mul+add one.
    int seed = 1400;
    for (const int64_t tile_n : {8, 13, 64}) {
        Rng rng(uint64_t(seed++));
        GemmDesc desc;
        desc.m = 21;
        desc.n = 30;
        desc.k = 32;
        desc.tiling.tileM = 16;
        desc.tiling.tileN = tile_n;
        desc.prologue.globalScale = true;
        desc.prologue.gsSubVector = 8;
        Tensor<Half> a(Shape({desc.m, desc.k}));
        Tensor<Half> b(Shape({desc.k, desc.n}));
        fillNormal(a, rng, 0.0, 30.0);
        fillNormal(b, rng, 0.0, 30.0);
        for (int64_t kk = 0; kk + 1 < desc.k; kk += 2) {
            for (int64_t i = 0; i < desc.m; ++i)
                a.at(i, kk + 1) = a.at(i, kk);
            for (int64_t j = 0; j < desc.n; ++j)
                b.at(kk + 1, j) = -b.at(kk, j);
        }
        Tensor<float> gs(Shape({desc.m, desc.k / 8}));
        fillNormal(gs, rng, 1.0, 0.25);
        GemmOperands ops;
        ops.a = &a;
        ops.b = &b;
        ops.gsFactors = &gs;

        std::vector<uint32_t> want_fma, want_mul_add;
        for (const bool fused : {true, false}) {
            std::vector<float> row(size_t(desc.n));
            std::vector<Half> out(size_t(desc.n));
            for (int64_t i = 0; i < desc.m; ++i) {
                for (int64_t j = 0; j < desc.n; ++j) {
                    float acc = 0.0f;
                    for (int64_t kk = 0; kk < desc.k; ++kk) {
                        const float x =
                            float(a.at(i, kk)) * gs.at(i, kk / 8);
                        const float y = float(b.at(kk, j));
                        if (fused) {
                            acc = std::fma(x, y, acc);
                        } else {
                            // volatile keeps the product rounded on its
                            // own wherever the compiler may contract.
                            volatile float product = x * y;
                            acc += product;
                        }
                    }
                    row[size_t(j)] = acc;
                }
                floatToHalfScalar(row.data(), out.data(), desc.n);
                for (const Half h : out)
                    (fused ? want_fma : want_mul_add).push_back(h.bits());
            }
        }
        for (const SimdBackend backend : availableSimdBackends()) {
            EXPECT_EQ(gemmBits(backend, desc, ops), want_fma)
                << "tileN=" << tile_n << " " << simdBackendName(backend);
        }
        int64_t differ = 0;
        for (size_t e = 0; e < want_fma.size(); ++e)
            differ += want_fma[e] != want_mul_add[e];
        EXPECT_GE(differ, 1) << "tileN=" << tile_n;
    }
}

TEST(FmaRule, DotRowsAndAccumRowsAreOneChainPerElement)
{
    // fmaDotRows runs eight rows per vector and the rest one by one;
    // fmaAccumRows runs 64-, 8- and 1-column blocks. At every count
    // and width both must give one std::fma chain per element, on
    // every backend and for fp32 and fp16 rows alike, and
    // fmaAccumRows must continue the chains in acc.
    Rng rng(1500);
    for (const int64_t n : {1, 7, 8, 9, 23, 64, 65, 72, 130}) {
        const int64_t ld = n + 3;
        for (const int64_t count : {0, 1, 7, 8, 9, 16, 19}) {
            std::vector<float> q(static_cast<size_t>(n));
            std::vector<float> p(static_cast<size_t>(count));
            std::vector<float> rows(size_t(std::max<int64_t>(count, 1) *
                                           ld));
            std::vector<float> acc0(static_cast<size_t>(n));
            for (float &x : q)
                x = float(rng.normal(0.0, 1.0));
            for (float &x : p)
                x = float(rng.uniform());
            std::vector<Half> rows_h(rows.size());
            for (size_t e = 0; e < rows.size(); ++e) {
                rows_h[e] = Half(float(rng.normal(0.0, 1.0)));
                rows[e] = float(rows_h[e]);
            }
            for (float &x : acc0)
                x = float(rng.normal(0.0, 1.0));
            std::vector<uint32_t> want_dot, want_acc;
            for (int64_t r = 0; r < count; ++r) {
                float s = 0.0f;
                for (int64_t d = 0; d < n; ++d)
                    s = std::fma(q[size_t(d)], rows[size_t(r * ld + d)], s);
                want_dot.push_back(bitsOf(s));
            }
            for (int64_t d = 0; d < n; ++d) {
                float c = acc0[size_t(d)];
                for (int64_t r = 0; r < count; ++r)
                    c = std::fma(p[size_t(r)], rows[size_t(r * ld + d)], c);
                want_acc.push_back(bitsOf(c));
            }
            for (const SimdBackend backend : availableSimdBackends()) {
                for (const bool fp16_rows : {false, true}) {
                    std::vector<float> out(static_cast<size_t>(count));
                    std::vector<float> acc = acc0;
                    if (fp16_rows) {
                        fmaDotRows(backend, q.data(), rows_h.data(), ld,
                                   count, n, out.data());
                        fmaAccumRows(backend, p.data(), rows_h.data(), ld,
                                     count, n, acc.data());
                    } else {
                        fmaDotRows(backend, q.data(), rows.data(), ld,
                                   count, n, out.data());
                        fmaAccumRows(backend, p.data(), rows.data(), ld,
                                     count, n, acc.data());
                    }
                    std::vector<uint32_t> got_dot, got_acc;
                    for (const float x : out)
                        got_dot.push_back(bitsOf(x));
                    for (const float x : acc)
                        got_acc.push_back(bitsOf(x));
                    EXPECT_EQ(got_dot, want_dot)
                        << "n=" << n << " count=" << count
                        << " fp16=" << fp16_rows << " "
                        << simdBackendName(backend);
                    EXPECT_EQ(got_acc, want_acc)
                        << "n=" << n << " count=" << count
                        << " fp16=" << fp16_rows << " "
                        << simdBackendName(backend);
                }
            }
        }
    }
}

TEST(FmaRule, AvxBackendImpliesFma)
{
    // The AVX2 and AVX-512 bodies issue FMA instructions, so a backend
    // that runs them is only ever detected on a CPU that has FMA, and
    // the AVX-512 tile only on one with AVX-512F.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    if (simdHasAvx2(detectedSimdBackend())) {
        EXPECT_TRUE(__builtin_cpu_supports("fma"));
    }
    EXPECT_EQ(detectedSimdBackend() == SimdBackend::Avx512,
              simdHasAvx2(detectedSimdBackend()) &&
                  __builtin_cpu_supports("avx512f"));
#endif
    SUCCEED();
}

TEST(PackedGemm, FullyMaskedLsTilesStoreTheMaskedSegmentBits)
{
    // A fully masked tile skips its LS epilogue and stores m', d' and
    // X' directly. Those must be the bits maxSpan/expSpan give for an
    // all -inf segment with a -inf shift, on every backend.
    const float neg_inf = -std::numeric_limits<float>::infinity();
    const int64_t L = 83;
    for (const int64_t tile : {16, 64}) {
        for (const SimdBackend backend : availableSimdBackends()) {
            Rng rng(uint64_t(31 + tile));
            GemmDesc desc;
            desc.m = L;
            desc.n = L;
            desc.k = 16;
            desc.tiling.tileM = tile;
            desc.tiling.tileN = tile;
            desc.epilogue.scale = 0.25;
            desc.epilogue.causalMask = true;
            desc.epilogue.localSoftmax = true;
            Tensor<Half> q(Shape({L, desc.k}));
            Tensor<Half> k(Shape({L, desc.k}));
            fillNormal(q, rng, 0.0, 1.0);
            fillNormal(k, rng, 0.0, 1.0);
            GemmOperands ops;
            ops.a = &q;
            ops.b = &k;
            ops.transposeB = true;
            const int64_t nsv = (L + tile - 1) / tile;
            Tensor<Half> x_prime(Shape({L, L}));
            Tensor<float> lmax(Shape({L, nsv})), lsum(Shape({L, nsv}));
            LsOutputs ls{&lmax, &lsum};
            int64_t masked_tiles = 0;
            withBackend(backend, [&] {
                gemmRun(ExecContext(), desc, ops, x_prime, &ls);
                for (int64_t i = 0; i < L; ++i) {
                    const int64_t strip_end =
                        std::min(L, (i / tile + 1) * tile);
                    for (int64_t tn = 0; tn < nsv; ++tn) {
                        const int64_t j0 = tn * tile;
                        if (j0 < strip_end)
                            continue; // some row of the strip is live
                        ++masked_tiles;
                        const int64_t w = std::min(tile, L - j0);
                        std::vector<float> seg(size_t(w), neg_inf);
                        const float m = maxSpan(backend, seg.data(), w);
                        const float d = expSpan(backend, seg.data(), m,
                                                seg.data(), w);
                        std::vector<Half> x(static_cast<size_t>(w));
                        floatToHalf(seg.data(), x.data(), w);
                        ASSERT_EQ(bitsOf(lmax.at(i, tn)), bitsOf(m));
                        ASSERT_EQ(bitsOf(lsum.at(i, tn)), bitsOf(d));
                        for (int64_t j = 0; j < w; ++j)
                            ASSERT_EQ(x_prime.at(i, j0 + j).bits(),
                                      x[size_t(j)].bits())
                                << "i=" << i << " j=" << j0 + j;
                    }
                }
            });
            EXPECT_GT(masked_tiles, 0) << "tile=" << tile;
        }
    }
}

TEST(RowSoftmax, CausalRowsStopAtDiagonalBitIdentical)
{
    // Rows 0-33 cover every live length 1-34 (all of them mod 8);
    // L = 2055 adds long rows with a ragged lane tail. The causal
    // kernel must give the full-row kernel's bits on a -inf tail, and
    // the same bits again when the tail holds arbitrary finite
    // values, which it therefore never reads.
    const float neg_inf = -std::numeric_limits<float>::infinity();
    for (const int64_t L : {34, 2055}) {
        Rng rng(static_cast<uint64_t>(L));
        Tensor<Half> masked(Shape({L, L}));
        fillNormal(masked, rng, 0.0, 3.0);
        Tensor<Half> junk = masked;
        for (int64_t i = 0; i < L; ++i)
            for (int64_t j = i + 1; j < L; ++j)
                masked.at(i, j) = Half(neg_inf);
        SoftmaxShape full;
        full.rows = L;
        full.cols = L;
        SoftmaxShape causal = full;
        causal.causal = true;
        for (const SimdBackend backend : availableSimdBackends()) {
            Tensor<Half> want(Shape({L, L}));
            Tensor<Half> got(Shape({L, L}));
            Tensor<Half> got_junk(Shape({L, L}));
            withBackend(backend, [&] {
                rowSoftmaxRun(ExecContext(), full, masked, want);
                rowSoftmaxRun(ExecContext(), causal, masked, got);
                rowSoftmaxRun(ExecContext(), causal, junk, got_junk);
            });
            EXPECT_EQ(halfBits(got), halfBits(want))
                << "L=" << L << " " << simdBackendName(backend);
            EXPECT_EQ(halfBits(got_junk), halfBits(want))
                << "L=" << L << " " << simdBackendName(backend);
        }
    }
}

TEST(RowSoftmax, EveryBackendGivesTheScalarBits)
{
    // Widths around the 8- and 16-lane blocks and a long row. Rows 1-6
    // are fully masked, zero-maximum (+0 alone, then -0 and +0 mixed),
    // and hold a -inf, a NaN or a +inf among finite scores. Every row
    // runs through softmaxRow; the finite ones (NaN and +inf inputs
    // trip the checked build's input check) also run rowSoftmaxRun,
    // whole and as causal strips whose first row sits past 0.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    for (const int64_t cols : {1, 15, 16, 17, 129, 2048}) {
        const int64_t rows = 9;
        Rng rng(static_cast<uint64_t>(cols));
        Tensor<Half> in(Shape({rows, cols}));
        fillNormal(in, rng, 0.0, 3.0);
        for (int64_t j = 0; j < cols; ++j) {
            in.at(1, j) = Half(-kInf);
            in.at(2, j) = Half(j % 3 == 0 ? 0.0f : -float(j % 3));
            in.at(3, j) =
                Half(j % 2 == 0 ? -0.0f : (j % 4 == 1 ? 0.0f : -2.0f));
        }
        in.at(4, 0) = Half(-kInf);
        Tensor<Half> finite = in;
        in.at(5, cols / 2) = Half(std::numeric_limits<float>::quiet_NaN());
        in.at(6, cols - 1) = Half(kInf);
        std::vector<float> staging(static_cast<size_t>(cols));
        const auto rowBits = [&](SimdBackend backend) {
            Tensor<Half> out(in.shape());
            for (int64_t r = 0; r < rows; ++r)
                softmaxRow(backend, in.rowPtr(r), staging.data(),
                           out.rowPtr(r), cols);
            return halfBits(out);
        };
        const std::vector<uint16_t> want_rows = rowBits(SimdBackend::Scalar);
        for (const SimdBackend backend : availableSimdBackends())
            EXPECT_EQ(rowBits(backend), want_rows)
                << "cols=" << cols << " " << simdBackendName(backend);
        for (const int64_t first_row : {int64_t(-1), int64_t(0), int64_t(5),
                                        cols / 2}) {
            SoftmaxShape desc;
            desc.rows = rows;
            desc.cols = cols;
            desc.causal = first_row >= 0;
            desc.firstRow = std::max<int64_t>(first_row, 0);
            Tensor<Half> want(in.shape());
            withBackend(SimdBackend::Scalar, [&] {
                rowSoftmaxRun(ExecContext(), desc, finite, want);
            });
            for (const SimdBackend backend : availableSimdBackends()) {
                Tensor<Half> got(in.shape());
                withBackend(backend, [&] {
                    rowSoftmaxRun(ExecContext(), desc, finite, got);
                });
                EXPECT_EQ(halfBits(got), halfBits(want))
                    << "cols=" << cols << " firstRow=" << first_row << " "
                    << simdBackendName(backend);
            }
        }
    }
}

TEST(CausalAttention, RowsIgnoreNonFiniteValueRowsPastThem)
{
    // Causal prefill row i reads V rows [0, i] only, as decode does:
    // setting every V row past i to +inf leaves rows <= i bit for bit
    // unchanged under each strategy and backend (the full P.V would
    // have turned them into +0 * inf = NaN). Rows i sit inside and at
    // the ends of the 16-row strips.
    SdaConfig config;
    config.seqLen = 45;
    config.dHead = 16;
    config.causalMask = true;
    config.subVector = 16;
    config.attnTiling.tileM = 16;
    config.attnTiling.tileN = 16;
    AttentionInputs inputs = makeAttentionInputs(config);
    Rng rng(5);
    fillNormal(inputs.q, rng, 0.0, 1.0);
    fillNormal(inputs.k, rng, 0.0, 1.0);
    fillNormal(inputs.v, rng, 0.0, 1.0);
    for (const Strategy strategy :
         {Strategy::Baseline, Strategy::Decomposed, Strategy::Fused}) {
        for (const SimdBackend backend : availableSimdBackends()) {
            withBackend(backend, [&] {
                const Tensor<Half> want =
                    runAttention(ExecContext(), config, inputs, strategy);
                for (const int64_t i : {0, 5, 15, 16, 30, 44}) {
                    AttentionInputs poisoned = inputs;
                    for (int64_t j = i + 1; j < config.seqLen; ++j)
                        for (int64_t d = 0; d < config.dHead; ++d)
                            poisoned.v.at(j, d) = Half::infinity();
                    const Tensor<Half> got = runAttention(
                        ExecContext(), config, poisoned, strategy);
                    for (int64_t r = 0; r <= i; ++r)
                        for (int64_t d = 0; d < config.dHead; ++d)
                            ASSERT_EQ(got.at(r, d).bits(),
                                      want.at(r, d).bits())
                                << "i=" << i << " row=" << r
                                << " strategy=" << int(strategy) << " "
                                << simdBackendName(backend);
                }
            });
        }
    }
}

// --- The exp primitive: Scalar and SIMD are bit-identical -----------

float
floatOf(uint32_t u)
{
    float f;
    __builtin_memcpy(&f, &u, sizeof(f));
    return f;
}

/** Every float in [-90, 90] at a bit-pattern stride, both signs. */
std::vector<float>
denseExpSweep()
{
    std::vector<float> xs;
    for (uint32_t u = 0; u <= bitsOf(90.0f); u += 509) {
        xs.push_back(floatOf(u));
        xs.push_back(-floatOf(u));
    }
    // The flush and overflow thresholds, float by float.
    for (const float edge : {-87.33654f, 88.72283f}) {
        for (int step = -64; step <= 64; ++step)
            xs.push_back(floatOf(bitsOf(edge) + uint32_t(step)));
    }
    return xs;
}

/** expSpan's outputs followed by its returned sum, as bits. */
std::vector<uint32_t>
expSpanBits(SimdBackend backend, const float *x, float shift,
            int64_t n)
{
    std::vector<float> out(size_t(n) + 1, 0.0f);
    out[size_t(n)] = expSpan(backend, x, shift, out.data(), n);
    std::vector<uint32_t> bits;
    for (const float f : out)
        bits.push_back(bitsOf(f));
    return bits;
}

TEST(ExpPrimitive, ScalarAndSimdBitIdenticalOverDenseSweep)
{
    const std::vector<float> xs = denseExpSweep();
    ASSERT_GT(xs.size(), 2000000u);
    // Shift 0 reaches the overflow outputs (and an infinite sum); the
    // larger shifts keep the sum finite, so its lane order counts.
    for (const float shift : {0.0f, 45.5f, 90.0f}) {
        EXPECT_EQ(expSpanBits(SimdBackend::Scalar, xs.data(), shift,
                              int64_t(xs.size())),
                  expSpanBits(detectedSimdBackend(), xs.data(), shift,
                              int64_t(xs.size())))
            << "shift=" << shift;
    }
}

TEST(ExpPrimitive, ScalarAndSimdBitIdenticalAtEveryLength)
{
    // Lengths 0-33 run every tail shape of the 8-wide path, at every
    // offset into the input, with specials mixed in.
    Rng rng(61);
    std::vector<float> x(64);
    for (float &v : x)
        v = float(rng.normal(0.0, 4.0));
    x[5] = -std::numeric_limits<float>::infinity();
    x[12] = 0.0f;
    x[13] = -0.0f;
    x[21] = 120.0f;
    for (int64_t offset = 0; offset < 8; ++offset) {
        for (int64_t n = 0; n <= 33; ++n) {
            EXPECT_EQ(expSpanBits(SimdBackend::Scalar, &x[size_t(offset)],
                                  1.5f, n),
                      expSpanBits(detectedSimdBackend(),
                                  &x[size_t(offset)], 1.5f, n))
                << "offset=" << offset << " n=" << n;
        }
    }
}

TEST(ExpPrimitive, WithinOneUlpOfLibmOnNormalResults)
{
    const std::vector<float> xs = denseExpSweep();
    std::vector<float> out(xs.size());
    for (const SimdBackend backend : availableSimdBackends()) {
        expSpan(backend, xs.data(), 0.0f, out.data(),
                int64_t(xs.size()));
        int64_t checked = 0;
        for (size_t i = 0; i < xs.size(); ++i) {
            const float want = std::exp(xs[i]);
            if (!std::isnormal(want))
                continue;
            ++checked;
            const int64_t ulp =
                int64_t(bitsOf(out[i])) - int64_t(bitsOf(want));
            ASSERT_LE(std::abs(ulp), 1)
                << "x=" << xs[i] << " got " << out[i] << " want "
                << want << " (" << simdBackendName(backend) << ")";
        }
        EXPECT_GT(checked, 1000000);
    }
}

TEST(ExpPrimitive, SpecialValues)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float nan = floatOf(0x7fc01234u);
    const std::vector<float> in = {-kInf, nan, 0.0f, -0.0f, 88.8f,
                                   kInf, -87.34f, -1000.0f,
                                   88.72283f};
    for (const SimdBackend backend : availableSimdBackends()) {
        std::vector<float> out(in.size());
        expSpan(backend, in.data(), 0.0f, out.data(),
                int64_t(in.size()));
        EXPECT_EQ(bitsOf(out[0]), 0u) << "-inf -> +0";
        EXPECT_EQ(bitsOf(out[1]), bitsOf(nan)) << "NaN -> same NaN";
        EXPECT_EQ(out[2], 1.0f) << "+0 -> 1";
        EXPECT_EQ(out[3], 1.0f) << "-0 -> 1";
        EXPECT_EQ(out[4], kInf) << "overflow -> +inf";
        EXPECT_EQ(out[5], kInf) << "+inf -> +inf";
        EXPECT_EQ(bitsOf(out[6]), 0u) << "subnormal result -> +0";
        EXPECT_EQ(bitsOf(out[7]), 0u) << "underflow -> +0";
        EXPECT_TRUE(std::isfinite(out[8])) << "largest finite exp";
        // A -inf shift is a fully masked row: +0 everywhere, sum 0.
        const std::vector<float> masked(11, -kInf);
        std::vector<float> zeros(masked.size(), 1.0f);
        EXPECT_EQ(expSpan(backend, masked.data(), -kInf, zeros.data(),
                          int64_t(masked.size())),
                  0.0f);
        for (const float z : zeros)
            EXPECT_EQ(bitsOf(z), 0u);
    }
}

TEST(ExpPrimitive, AppendedMaskedElementsLeaveSumAndMaxUnchanged)
{
    // Decode sums a row of `context` scores; the causal prefill row
    // of the same context carries a -inf tail. Their exp is +0, so
    // the sum (and the max) must keep every bit for any tail length.
    Rng rng(67);
    std::vector<float> row(80, -std::numeric_limits<float>::infinity());
    for (size_t j = 0; j < 40; ++j)
        row[j] = float(rng.normal(0.0, 3.0));
    std::vector<float> out(row.size());
    for (const SimdBackend backend : availableSimdBackends()) {
        for (int64_t n = 1; n <= 33; ++n) {
            const float max_n = maxSpan(backend, row.data(), n);
            const float sum_n =
                expSpan(backend, row.data(), max_n, out.data(), n);
            for (int64_t tail = 1; n + tail <= 80; ++tail) {
                std::vector<float> longer(row.begin(), row.begin() + n);
                longer.resize(size_t(n + tail),
                              -std::numeric_limits<float>::infinity());
                const float max_l =
                    maxSpan(backend, longer.data(), n + tail);
                ASSERT_EQ(bitsOf(max_l), bitsOf(max_n))
                    << "n=" << n << " tail=" << tail;
                ASSERT_EQ(bitsOf(expSpan(backend, longer.data(), max_l,
                                         longer.data(), n + tail)),
                          bitsOf(sum_n))
                    << "n=" << n << " tail=" << tail << " ("
                    << simdBackendName(backend) << ")";
            }
        }
    }
}

TEST(ExpPrimitive, MaxAndTanhScalarAndSimdBitIdentical)
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    Rng rng(71);
    std::vector<float> x(64);
    for (float &v : x)
        v = float(rng.normal(0.0, 6.0));
    x[3] = std::numeric_limits<float>::quiet_NaN();
    x[9] = -0.0f;
    x[10] = 0.0f;
    x[17] = -kInf;
    x[26] = kInf;
    std::vector<float> zeros = {-0.0f, 0.0f, -0.0f, 0.0f, 0.0f,
                                -0.0f, -0.0f, 0.0f, -0.0f};
    for (int64_t offset = 0; offset < 8; ++offset) {
        for (int64_t n = 0; n <= 33; ++n) {
            const float *xs = &x[size_t(offset)];
            EXPECT_EQ(bitsOf(maxSpan(SimdBackend::Scalar, xs, n)),
                      bitsOf(maxSpan(detectedSimdBackend(), xs, n)))
                << "offset=" << offset << " n=" << n;
            std::vector<float> a(static_cast<size_t>(n));
            std::vector<float> b(static_cast<size_t>(n));
            tanhSpan(SimdBackend::Scalar, xs, a.data(), n);
            tanhSpan(detectedSimdBackend(), xs, b.data(), n);
            for (int64_t i = 0; i < n; ++i) {
                ASSERT_EQ(bitsOf(a[size_t(i)]), bitsOf(b[size_t(i)]))
                    << "offset=" << offset << " n=" << n << " i=" << i;
            }
        }
    }
    // Signed-zero maxima: the lane tree decides, the same way on both.
    for (int64_t n = 1; n <= int64_t(zeros.size()); ++n) {
        EXPECT_EQ(bitsOf(maxSpan(SimdBackend::Scalar, zeros.data(), n)),
                  bitsOf(maxSpan(detectedSimdBackend(), zeros.data(), n)))
            << "n=" << n;
    }
    EXPECT_EQ(maxSpan(detectedSimdBackend(), x.data(), 0), -kInf);
}

TEST(ExpPrimitive, TanhAndGeluAccuracy)
{
    std::vector<float> x;
    for (float v = -12.0f; v <= 12.0f; v += 0.001f)
        x.push_back(v);
    std::vector<float> t(x.size()), g(x.size());
    tanhSpan(detectedSimdBackend(), x.data(), t.data(),
             int64_t(x.size()));
    geluSpan(detectedSimdBackend(), x.data(), g.data(),
             int64_t(x.size()));
    for (size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(t[i], std::tanh(x[i]), 1e-6) << "x=" << x[i];
        // The span is the fused GeLU; geluApprox is its one-element
        // form and must give the same bits.
        ASSERT_EQ(bitsOf(g[i]), bitsOf(geluApprox(x[i])))
            << "x=" << x[i];
    }
}

TEST(ExpPrimitive, GeluSpecialValuesScalarAndSimdBitIdentical)
{
    // Zeros, infinities, NaNs (a payload and a signalling one), the
    // largest and the subnormal floats, arguments whose tanh saturates
    // or whose cube overflows. Every offset and length 0-40 puts each
    // value in every lane and in the ragged tail. The fused epilogue
    // (bias, GeLU, fp16 store) over the same values must store the
    // same halves too, NaN lanes included.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const std::vector<float> specials = {
        0.0f, -0.0f, kInf, -kInf, std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(), floatOf(0xffc12345u),
        floatOf(0x7f800001u), std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(), floatOf(0x00000001u),
        floatOf(0x80400000u), 1e-30f, -1e-30f, 1.0f, -1.0f, 5.0f, -5.0f,
        9.0f, -9.0f, 10.5f, -10.5f, 50.0f, -50.0f, 1e6f, -1e6f, 2e12f,
        -2e12f, 65504.0f, -65504.0f, 3.0e-3f, -0.7978845f};
    std::vector<float> x;
    for (int rep = 0; rep < 3; ++rep)
        x.insert(x.end(), specials.begin(), specials.end());
    const auto bits = [](const std::vector<float> &v) {
        std::vector<uint32_t> out;
        for (const float f : v)
            out.push_back(bitsOf(f));
        return out;
    };
    for (int64_t offset = 0; offset < 16; ++offset) {
        for (int64_t n = 0; n <= 40; ++n) {
            std::vector<float> want(static_cast<size_t>(n));
            std::vector<float> got(static_cast<size_t>(n));
            const float *xs = &x[size_t(offset)];
            geluSpan(SimdBackend::Scalar, xs, want.data(), n);
            for (const SimdBackend backend : availableSimdBackends()) {
                geluSpan(backend, xs, got.data(), n);
                ASSERT_EQ(bits(got), bits(want))
                    << "offset=" << offset << " n=" << n << " "
                    << simdBackendName(backend);
            }
        }
    }
    const int64_t rows = 3, width = int64_t(specials.size()) - 1;
    std::vector<float> bias(size_t(width), 0.0f);
    bias[4] = 1.0f;
    const auto run = [&](SimdBackend backend) {
        std::vector<float> acc(x.begin(), x.begin() + rows * (width + 1));
        std::vector<Half> out(size_t(rows * width));
        EpilogueTile tile;
        tile.acc = acc.data();
        tile.rows = rows;
        tile.width = width;
        tile.ld = width + 1;
        tile.bias = bias.data();
        tile.gelu = true;
        tile.out = out.data();
        tile.outLd = width;
        epilogueTile(backend, tile);
        std::vector<uint16_t> halves;
        for (const Half h : out)
            halves.push_back(h.bits());
        return halves;
    };
    const std::vector<uint16_t> want = run(SimdBackend::Scalar);
    for (const SimdBackend backend : availableSimdBackends())
        EXPECT_EQ(run(backend), want) << simdBackendName(backend);
}

// --- The LS tile primitive: one pass per segment, bit for bit --------

/** The causal mask and scale an LS tile applies as it reads. */
struct LsFold
{
    float scale = 1.0f;
    bool causal = false;
    int64_t diagonal = 0;
};

/**
 * Runs localSoftmaxTile on rows x width scores (row stride ld) cut
 * into sub-vectors of `sub`, under `fold`'s scale and mask, and the
 * sequence it replaces: the scale (when it is not 1) on the columns
 * left of the mask and -inf right of it, as epilogueTile writes them,
 * then maxSpan, expSpan and floatToHalf on a copy of each segment, on
 * the scalar path, whose bits every backend must give. X', m' and d'
 * (and the untouched padding around them) must have the same bits,
 * except that a NaN d' need only be NaN on both sides: the payload a
 * NaN sum carries is not part of the contract.
 */
void
expectLsTileMatchesSegments(SimdBackend backend,
                            const std::vector<float> &scores,
                            int64_t rows, int64_t width, int64_t ld,
                            int64_t sub, const LsFold &fold = {})
{
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const int64_t nsv = (width + sub - 1) / sub;
    const int64_t x_ld = width + 5;
    const int64_t md_ld = nsv + 2;
    const size_t x_size = size_t(rows * x_ld);
    const size_t md_size = size_t(rows * md_ld);
    std::vector<Half> got_x(x_size, Half(7.0f)), want_x = got_x;
    std::vector<float> got_m(md_size, 3.0f), want_m = got_m;
    std::vector<float> got_d(md_size, 5.0f), want_d = got_d;
    // The LS may overwrite its scores with the scaled, masked ones.
    std::vector<float> tile_scores = scores;
    LsTile tile;
    tile.x = tile_scores.data();
    tile.rows = rows;
    tile.width = width;
    tile.ld = ld;
    tile.scale = fold.scale;
    tile.causal = fold.causal;
    tile.diagonal = fold.diagonal;
    tile.subVector = sub;
    tile.xPrime = got_x.data();
    tile.xPrimeLd = x_ld;
    tile.localMax = got_m.data();
    tile.localSum = got_d.data();
    tile.mdLd = md_ld;
    withBackend(backend, [&] {
        localSoftmaxTile(backend, tile);
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t sv = 0; sv < nsv; ++sv) {
                const int64_t j0 = sv * sub;
                const int64_t w = std::min(sub, width - j0);
                const float *src = &scores[size_t(r * ld + j0)];
                std::vector<float> seg(src, src + w);
                const int64_t live =
                    fold.causal ? fold.diagonal + r + 1 - j0 : w;
                for (int64_t j = 0; j < w; ++j) {
                    if (j >= live)
                        seg[size_t(j)] = -kInf;
                    else if (fold.scale != 1.0f)
                        seg[size_t(j)] *= fold.scale;
                }
                const float m = maxSpan(SimdBackend::Scalar, seg.data(), w);
                const float d = expSpan(SimdBackend::Scalar, seg.data(), m,
                                        seg.data(), w);
                floatToHalf(seg.data(), &want_x[size_t(r * x_ld + j0)],
                            w);
                want_m[size_t(r * md_ld + sv)] = m;
                want_d[size_t(r * md_ld + sv)] = d;
            }
        }
    });
    const auto half_bits = [](const std::vector<Half> &v) {
        std::vector<uint16_t> bits;
        for (const Half h : v)
            bits.push_back(h.bits());
        return bits;
    };
    const auto float_bits = [](const std::vector<float> &v) {
        std::vector<uint32_t> bits;
        for (const float f : v)
            bits.push_back(bitsOf(f));
        return bits;
    };
    const auto sum_bits = [&](const std::vector<float> &v) {
        std::vector<uint32_t> bits = float_bits(v);
        for (size_t i = 0; i < v.size(); ++i) {
            if (std::isnan(v[i]))
                bits[i] = 0x7fc00000u;
        }
        return bits;
    };
    ASSERT_EQ(half_bits(got_x), half_bits(want_x))
        << "X' rows=" << rows << " width=" << width << " sub=" << sub
        << " " << simdBackendName(backend);
    ASSERT_EQ(float_bits(got_m), float_bits(want_m))
        << "m' rows=" << rows << " width=" << width << " sub=" << sub
        << " " << simdBackendName(backend);
    ASSERT_EQ(sum_bits(got_d), sum_bits(want_d))
        << "d' rows=" << rows << " width=" << width << " sub=" << sub
        << " " << simdBackendName(backend);
}

TEST(LsTilePrimitive, MatchesPerSegmentSequenceAtEveryShape)
{
    // Widths 1-70 against segments of 8-64 leave ragged last segments
    // of every length mod 8; 1-17 rows (stride wider than the width)
    // cover a whole and a partial 16-row strip. Every third row has a
    // -inf tail, as a causal diagonal tile does, and some segments
    // are fully masked.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    Rng rng(73);
    for (const int64_t sub : {8, 16, 24, 64}) {
        for (int64_t width = 1; width <= 70; ++width) {
            for (int64_t rows = 1; rows <= 17; rows += (width % 4) + 1) {
                const int64_t ld = width + 3;
                std::vector<float> scores(size_t(rows * ld));
                for (float &v : scores)
                    v = float(rng.normal(0.0, 3.0));
                for (int64_t r = 0; r < rows; ++r) {
                    float *row = &scores[size_t(r * ld)];
                    if (r % 3 == 1) {
                        for (int64_t j = (r * 7) % width; j < width; ++j)
                            row[j] = -kInf;
                    }
                    if (r % 5 == 2) {
                        for (int64_t j = 0; j < std::min(sub, width); ++j)
                            row[j] = -kInf;
                    }
                }
                for (const SimdBackend backend : availableSimdBackends()) {
                    expectLsTileMatchesSegments(backend, scores, rows,
                                                width, ld, sub);
                }
            }
        }
    }
    // The wide tiles a fused-LS QK^T runs on a CPU: 16 rows of several
    // T-wide segments (T = 16 at widths 32-80, whose whole 16 x 16
    // blocks take the AVX-512 transposed body, and T = 64 at 128),
    // then the ragged strips of 1-15 rows below a whole block. Some
    // rows have a fully masked segment inside the live tile, others a
    // causal -inf tail.
    const std::pair<int64_t, int64_t> wide[] = {
        {16, 32}, {16, 48}, {16, 64}, {16, 80}, {64, 128}};
    for (const auto &[sub, width] : wide) {
        const int64_t nsv = width / sub;
        for (int64_t rows = 1; rows <= 16; ++rows) {
            const int64_t ld = rows % 2 == 0 ? width : width + 16;
            std::vector<float> scores(size_t(rows * ld));
            for (float &v : scores)
                v = float(rng.normal(0.0, 3.0));
            for (int64_t r = 0; r < rows; ++r) {
                float *row = &scores[size_t(r * ld)];
                if (r % 3 == 0) {
                    const int64_t j0 = ((r / 3) % nsv) * sub;
                    std::fill(row + j0, row + j0 + sub, -kInf);
                }
                if (r % 4 == 1)
                    std::fill(row + (r * 11) % width, row + width, -kInf);
            }
            for (const SimdBackend backend : availableSimdBackends()) {
                expectLsTileMatchesSegments(backend, scores, rows, width,
                                            ld, sub);
            }
        }
    }
}

TEST(LsTilePrimitive, ScaleAndCausalMaskFoldIntoTheTile)
{
    // The QK^T tiles of a fused LS: 16-row blocks of T = 16 segments
    // (which the AVX-512 body scales and masks as it loads them), a
    // ragged last segment and ragged rows (which run the epilogue
    // first), under a scale, a causal mask whose diagonal crosses the
    // tile at every offset, and both. Specials ride in the scores: a
    // NaN, +-inf and +-0, and a row that is all -inf.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    Rng rng(79);
    const std::pair<int64_t, int64_t> shapes[] = {
        {16, 64}, {32, 48}, {16, 70}, {21, 64}, {7, 16}};
    for (const auto &[rows, width] : shapes) {
        const int64_t ld = width + 4;
        std::vector<float> scores(size_t(rows * ld));
        for (float &v : scores)
            v = float(rng.normal(0.0, 3.0));
        scores[size_t(3 * ld + 5)] = std::nanf("");
        scores[size_t(4 * ld + 17)] = kInf;
        scores[size_t(5 * ld + 2)] = -kInf;
        scores[size_t(6 * ld + 1)] = -0.0f;
        std::fill(&scores[size_t(2 * ld)], &scores[size_t(2 * ld + width)],
                  -kInf);
        for (const float scale : {1.0f, 0.125f}) {
            for (const int64_t diagonal :
                 {int64_t(-rows), int64_t(-3), int64_t(0), int64_t(9),
                  width - 1, width + 5}) {
                for (const bool causal : {false, true}) {
                    if (!causal && diagonal != 0)
                        continue;
                    const LsFold fold{scale, causal, diagonal};
                    for (const SimdBackend backend :
                         availableSimdBackends()) {
                        SCOPED_TRACE(testing::Message()
                                     << "scale " << scale << " causal "
                                     << causal << " diagonal " << diagonal);
                        expectLsTileMatchesSegments(backend, scores, rows,
                                                    width, ld, 16, fold);
                    }
                }
            }
        }
    }
}

TEST(LsTilePrimitive, SignedZeroMaximaAndSpecialScores)
{
    // Row 0: segments whose max is -0 or +0 (the lane tree picks the
    // zero's sign). Row 1: a +inf score, so +inf - +inf is a NaN exp
    // beside +0 ones. Row 2: NaN scores beside finite ones; a segment
    // of NaN only has max -inf and is fully masked. Row 3: all -inf.
    // Every NaN exp must narrow to Half::fromFloat's canonical NaN.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float nan = floatOf(0x7fc01234u);
    const float neg_nan = floatOf(0xffa00001u);
    // The four rows are repeated down a 16-row tile, shifted by row,
    // so the whole 16 x 16 blocks of T = 16 see them too.
    const int64_t width = 45;
    for (const int64_t sub : {8, 16, 24, 64}) {
        for (const int64_t rows : {4, 16}) {
            std::vector<float> scores(size_t(rows * width), -kInf);
            for (int64_t r0 = 0; r0 < rows; r0 += 4) {
                float *zeros = &scores[size_t(r0 * width)];
                float *inf_row = &scores[size_t((r0 + 1) * width)];
                float *nan_row = &scores[size_t((r0 + 2) * width)];
                for (int64_t j = 0; j < width; ++j) {
                    const int64_t c = j + r0;
                    zeros[j] = (c * 5) % 3 == 0 ? -0.0f
                               : (c % 7 == 3)   ? 0.0f
                                                : -kInf;
                    inf_row[j] = float(c % 9) - 4.0f;
                    nan_row[j] = j < 16 ? nan : float(c % 5);
                }
                inf_row[3 + r0] = kInf;
                inf_row[29] = kInf;
                nan_row[20] = neg_nan;
                nan_row[33 - r0] = nan;
            }
            for (const SimdBackend backend : availableSimdBackends()) {
                expectLsTileMatchesSegments(backend, scores, rows, width,
                                            width, sub);
            }
        }
    }
    // The NaN rule itself, on one 8-wide segment holding +inf.
    std::vector<float> seg = {1.0f, kInf, 2.0f, -kInf,
                              0.5f, kInf, 3.0f, 4.0f};
    for (const SimdBackend backend : availableSimdBackends()) {
        std::vector<Half> x(seg.size());
        float m = 0.0f, d = 0.0f;
        LsTile tile;
        tile.x = seg.data();
        tile.rows = 1;
        tile.width = int64_t(seg.size());
        tile.ld = tile.width;
        tile.subVector = tile.width;
        tile.xPrime = x.data();
        tile.xPrimeLd = tile.width;
        tile.localMax = &m;
        tile.localSum = &d;
        tile.mdLd = 1;
        localSoftmaxTile(backend, tile);
        EXPECT_EQ(m, kInf);
        EXPECT_TRUE(std::isnan(d));
        for (size_t j = 0; j < seg.size(); ++j) {
            // +inf - +inf is NaN; Half::fromFloat keeps only its sign.
            const uint16_t want = seg[j] == kInf ? 0x7e00 : 0x0000;
            EXPECT_EQ(x[j].bits() & 0x7fff, want)
                << "j=" << j << " " << simdBackendName(backend);
        }
    }
}

TEST(ExpPrimitive, ZeroMaximaKeepTheLaneOrderSign)
{
    // The 16-lane max chains of the AVX-512 sweep take a zero max
    // again in the eight-lane order. A -0 and a +0 in one lane, in
    // either order and at any distance, pick the sign the scalar path
    // picks, at every span length.
    for (int64_t n = 1; n <= 80; ++n) {
        for (int64_t first = 0; first < std::min<int64_t>(n, 24); ++first) {
            for (int64_t gap : {8, 16, 24, 40}) {
                for (const bool neg_first : {false, true}) {
                    std::vector<float> x(size_t(n), -1.0f);
                    x[size_t(first)] = neg_first ? -0.0f : 0.0f;
                    if (first + gap < n)
                        x[size_t(first + gap)] = neg_first ? 0.0f : -0.0f;
                    const float want =
                        maxSpan(SimdBackend::Scalar, x.data(), n);
                    for (const SimdBackend backend :
                         availableSimdBackends()) {
                        ASSERT_EQ(bitsOf(maxSpan(backend, x.data(), n)),
                                  bitsOf(want))
                            << "n=" << n << " first=" << first
                            << " gap=" << gap << " "
                            << simdBackendName(backend);
                    }
                }
            }
        }
    }
}

// --- Determinism across thread counts ------------------------------

/** Run fn under a context of `threads` and return its output. */
template <typename Fn>
Tensor<Half>
runWith(int threads, Fn &&fn)
{
    if (threads == 1)
        return fn(ExecContext());
    ThreadPool pool(threads);
    ExecContext ctx;
    ctx.pool = &pool;
    return fn(ctx);
}

TEST(PackedGemm, BitIdenticalAcrossThreadCounts)
{
    Rng rng(7);
    GemmDesc desc;
    desc.m = 61;
    desc.n = 37;
    desc.k = 29;
    desc.tiling.tileM = 16;
    desc.tiling.tileN = 8;
    desc.tiling.tileK = 4;
    Tensor<Half> a(Shape({desc.m, desc.k}));
    Tensor<Half> b(Shape({desc.k, desc.n}));
    fillNormal(a, rng, 0.0, 0.5);
    fillNormal(b, rng, 0.0, 0.5);
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    const auto run = [&](const ExecContext &ctx) {
        Tensor<Half> c(Shape({desc.m, desc.n}));
        gemmRun(ctx, desc, ops, c);
        return c;
    };
    const Tensor<Half> serial = runWith(1, run);
    for (int threads : {3, 7}) {
        const Tensor<Half> threaded = runWith(threads, run);
        for (int64_t i = 0; i < serial.numel(); ++i)
            ASSERT_EQ(serial.data()[i].bits(),
                      threaded.data()[i].bits())
                << "threads=" << threads << " elem=" << i;
    }
}

TEST(RowSoftmax, BitIdenticalAcrossThreadCountsAndBackends)
{
    Rng rng(13);
    SoftmaxShape desc;
    desc.rows = 37;
    desc.cols = 129; // ragged against the 8-wide conversion chunks
    Tensor<Half> in(Shape({desc.rows, desc.cols}));
    fillNormal(in, rng, 0.0, 2.0);
    const auto run = [&](const ExecContext &ctx) {
        Tensor<Half> out(Shape({desc.rows, desc.cols}));
        rowSoftmaxRun(ctx, desc, in, out);
        return out;
    };
    for (const SimdBackend backend : availableSimdBackends()) {
        withBackend(backend, [&] {
            const Tensor<Half> serial = runWith(1, run);
            for (int threads : {3, 7}) {
                const Tensor<Half> threaded = runWith(threads, run);
                for (int64_t i = 0; i < serial.numel(); ++i)
                    ASSERT_EQ(serial.data()[i].bits(),
                              threaded.data()[i].bits())
                        << "backend=" << simdBackendName(backend)
                        << " threads=" << threads << " elem=" << i;
            }
        });
    }
}

// SDF's GS and IR primitives, once per ExecMatrix case: the case's
// backend against Scalar, bit for bit, and the fused heads that run
// them on the case's thread count against a serial Scalar run.
using SdfPrimitives = ExecMatrix;

TEST_P(SdfPrimitives, WidenAndScaleGivesTheScalarBits)
{
    // Every group width GS takes, depths that are not whole vectors,
    // and the specials: NaNs (quiet, signalling, negative), +-inf, +-0
    // and fp16 subnormals in X', with scales of +0 and a float
    // subnormal among the ordinary ones.
    const SimdBackend backend = GetParam().simd;
    Rng rng(83);
    const uint16_t specials[] = {0x7e00, 0x7d00, 0xfe01, 0x7c00, 0xfc00,
                                 0x8000, 0x0000, 0x0001, 0x83ff};
    for (const int64_t group : {8, 16, 64}) {
        for (const int64_t n : {1, 7, 15, 17, 33, 64, 100, 129, 300}) {
            std::vector<Half> src(static_cast<size_t>(n));
            for (Half &h : src)
                h = Half(float(rng.normal(0.0, 2.0)));
            for (int64_t j = 3; j < n; j += 11)
                src[size_t(j)] = Half::fromBits(specials[size_t(j / 11) % 9]);
            std::vector<float> scales(size_t((n + group - 1) / group));
            for (size_t g = 0; g < scales.size(); ++g)
                scales[g] = float(rng.uniform(0.01, 1.0));
            scales[0] = 0.0f;
            if (scales.size() > 1)
                scales[1] = 1e-40f;
            std::vector<float> want(static_cast<size_t>(n));
            std::vector<float> got(static_cast<size_t>(n) + 1, 7.0f);
            halfToFloatScaled(SimdBackend::Scalar, src.data(), want.data(),
                              n, scales.data(), group);
            halfToFloatScaled(backend, src.data(), got.data(), n,
                              scales.data(), group);
            for (int64_t j = 0; j < n; ++j) {
                ASSERT_EQ(bitsOf(got[size_t(j)]), bitsOf(want[size_t(j)]))
                    << "group " << group << " n " << n << " j " << j;
                const float plain =
                    src[size_t(j)].toFloat() * scales[size_t(j / group)];
                ASSERT_EQ(bitsOf(want[size_t(j)]), bitsOf(plain));
            }
            EXPECT_EQ(got[size_t(n)], 7.0f) << "wrote past n";
        }
    }
}

TEST_P(SdfPrimitives, ReconstructionFactorsGiveTheScalarBits)
{
    // Row and segment counts that are not multiples of 16; rows that
    // are fully masked (m' = -inf, d' = +0), have one live segment, a
    // zero maximum of either sign, or a NaN m' or d'.
    constexpr float kInf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const SimdBackend backend = GetParam().simd;
    Rng rng(89);
    for (const int64_t rows : {1, 5, 16, 17, 37}) {
        for (const int64_t segments : {1, 7, 16, 33, 128, 130}) {
            const int64_t ld = segments + 3;
            std::vector<float> m(size_t(rows * ld)), d(size_t(rows * ld));
            for (float &v : m)
                v = float(rng.normal(0.0, 3.0));
            for (float &v : d)
                v = float(rng.uniform(1.0, 16.0));
            for (int64_t r = 0; r < rows; ++r) {
                float *mr = &m[size_t(r * ld)];
                float *dr = &d[size_t(r * ld)];
                switch (r % 7) {
                  case 1: // fully masked
                    std::fill(mr, mr + segments, -kInf);
                    std::fill(dr, dr + segments, 0.0f);
                    break;
                  case 2: // one live segment
                    std::fill(mr, mr + segments, -kInf);
                    std::fill(dr, dr + segments, 0.0f);
                    mr[(r * 5) % segments] = 1.5f;
                    dr[(r * 5) % segments] = 3.0f;
                    break;
                  case 3: // zero maxima of both signs
                    for (int64_t s = 0; s < segments; ++s)
                        mr[s] = s % 2 == 0 ? -0.0f : -float(s);
                    mr[segments / 2] = 0.0f;
                    break;
                  case 4:
                    for (int64_t s = 0; s < segments; ++s)
                        mr[s] = s % 3 == 0 ? -0.0f : -1.0f;
                    break;
                  case 5:
                    mr[(r * 3) % segments] = nan;
                    break;
                  case 6:
                    dr[(r * 3) % segments] = nan;
                    dr[(r * 7) % segments] = -0.0f;
                    break;
                }
            }
            IrRows block;
            block.localMax = m.data();
            block.localSum = d.data();
            block.rows = rows;
            block.segments = segments;
            block.ld = ld;
            std::vector<float> want(size_t(rows * ld), 7.0f), got = want;
            std::vector<RowSoftmaxStats> want_stats(static_cast<size_t>(rows));
            std::vector<RowSoftmaxStats> got_stats(static_cast<size_t>(rows));
            block.recon = want.data();
            reconstructionFactors(SimdBackend::Scalar, block,
                                  want_stats.data());
            block.recon = got.data();
            reconstructionFactors(backend, block, got_stats.data());
            for (int64_t r = 0; r < rows; ++r) {
                SCOPED_TRACE(testing::Message() << "rows " << rows
                                                << " segments " << segments
                                                << " row " << r);
                for (int64_t s = 0; s < ld; ++s)
                    ASSERT_EQ(bitsOf(got[size_t(r * ld + s)]),
                              bitsOf(want[size_t(r * ld + s)]))
                        << "segment " << s;
                const RowSoftmaxStats &g = got_stats[size_t(r)];
                const RowSoftmaxStats &w = want_stats[size_t(r)];
                EXPECT_EQ(bitsOf(g.max), bitsOf(w.max));
                if (std::isnan(w.sum))
                    EXPECT_TRUE(std::isnan(g.sum));
                else
                    EXPECT_EQ(bitsOf(g.sum), bitsOf(w.sum));
            }
        }
    }
}

TEST_P(SdfPrimitives, FusedHeadsGiveTheSerialScalarBits)
{
    // Fused heads whose P.V runs the GS prologue on every kind of
    // strip: dense rows, causal rows of ragged depth, and a
    // block-sparse head's strips of packed k blocks.
    BigBirdParams params;
    params.blockSize = 16;
    params.windowBlocks = 1;
    params.globalBlocks = 1;
    params.randomBlocks = 1;
    const BsrLayout layout = bigBirdPattern(160, params);
    for (int kind = 0; kind < 3; ++kind) {
        SdaConfig config;
        config.seqLen = kind == 2 ? 160 : 300;
        config.dHead = 32;
        config.subVector = 16;
        config.causalMask = kind == 1;
        config.layout = kind == 2 ? &layout : nullptr;
        config.attnTiling = GemmTiling{16, 16, 16, 256, 128};
        AttentionInputs inputs = makeAttentionInputs(config);
        Rng rng(97 + uint64_t(kind));
        fillNormal(inputs.q, rng, 0.0, 1.0);
        fillNormal(inputs.k, rng, 0.0, 1.0);
        fillNormal(inputs.v, rng, 0.0, 1.0);
        Tensor<Half> want;
        withBackend(SimdBackend::Scalar, [&] {
            want = runAttention(ExecContext(), config, inputs,
                                Strategy::Fused);
        });
        const Tensor<Half> got =
            runAttention(ctx(), config, inputs, Strategy::Fused);
        ASSERT_EQ(got.shape(), want.shape());
        for (int64_t i = 0; i < got.numel(); ++i)
            ASSERT_EQ(got.data()[i].bits(), want.data()[i].bits())
                << "kind " << kind << " element " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Exec, SdfPrimitives,
                         testing::ValuesIn(execCases()), execCaseName);

} // namespace
} // namespace softrec
