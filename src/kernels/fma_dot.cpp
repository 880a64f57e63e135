/**
 * @file
 * Dot-product primitives: one portable and one AVX2+FMA body each, and
 * an AVX-512 body of the GEMM tile. The file is built with
 * -ffp-contract=off, so the only fused operations in it are the
 * explicit std::fma, _mm256_fmadd_ps and _mm512_fmadd_ps calls.
 */

#include "kernels/fma_dot.hpp"

#include <algorithm>
#include <cmath>

#include "fp16/simd_platform.hpp"
#include "kernels/kernel_common.hpp"

namespace softrec {

namespace {

/**
 * Portable GEMM tile, four output rows sharing each panel-row sweep.
 * The accumulators live in memory (acc); each element is one
 * k-ascending fma chain whatever the blocking.
 */
inline __attribute__((always_inline)) void
gemmTileScalar(const float *SOFTREC_RESTRICT a_rows, int64_t lda,
               const float *SOFTREC_RESTRICT panel,
               float *SOFTREC_RESTRICT acc, int64_t mh, int64_t k_depth,
               int64_t diag, int64_t ldn)
{
    int64_t i = 0;
    for (; i + 4 <= mh; i += 4) {
        const float *a0 = a_rows + (i + 0) * lda;
        const float *a1 = a_rows + (i + 1) * lda;
        const float *a2 = a_rows + (i + 2) * lda;
        const float *a3 = a_rows + (i + 3) * lda;
        float *c0 = acc + (i + 0) * ldn;
        float *c1 = acc + (i + 1) * ldn;
        float *c2 = acc + (i + 2) * ldn;
        float *c3 = acc + (i + 3) * ldn;
        const int64_t d0 = std::min(k_depth, diag + i + 1);
        const int64_t d3 = std::min(k_depth, diag + i + 4);
        int64_t kk = 0;
        for (; kk < d0; ++kk) {
            const float *b = panel + kk * ldn;
            const float v0 = a0[kk], v1 = a1[kk];
            const float v2 = a2[kk], v3 = a3[kk];
            for (int64_t j = 0; j < ldn; ++j) {
                c0[j] = std::fma(v0, b[j], c0[j]);
                c1[j] = std::fma(v1, b[j], c1[j]);
                c2[j] = std::fma(v2, b[j], c2[j]);
                c3[j] = std::fma(v3, b[j], c3[j]);
            }
        }
        // Causal A: rows i + 1..i + 3 read up to three columns more;
        // row i + r reads column kk once kk <= diag + i + r.
        for (; kk < d3; ++kk) {
            const float *b = panel + kk * ldn;
            for (int64_t r = kk - diag - i; r < 4; ++r) {
                const float v = a_rows[(i + r) * lda + kk];
                float *cr = acc + (i + r) * ldn;
                for (int64_t j = 0; j < ldn; ++j)
                    cr[j] = std::fma(v, b[j], cr[j]);
            }
        }
    }
    for (; i < mh; ++i) {
        const float *ar = a_rows + i * lda;
        float *cr = acc + i * ldn;
        const int64_t depth = std::min(k_depth, diag + i + 1);
        for (int64_t kk = 0; kk < depth; ++kk) {
            const float *b = panel + kk * ldn;
            const float v = ar[kk];
            for (int64_t j = 0; j < ldn; ++j)
                cr[j] = std::fma(v, b[j], cr[j]);
        }
    }
}

template <typename Row>
inline __attribute__((always_inline)) void
dotRowsScalar(const float *SOFTREC_RESTRICT q,
              const Row *SOFTREC_RESTRICT rows, int64_t ld,
              int64_t count, int64_t n, float *SOFTREC_RESTRICT out)
{
    for (int64_t r = 0; r < count; ++r) {
        const Row *row = rows + r * ld;
        float s = 0.0f;
        for (int64_t d = 0; d < n; ++d)
            s = std::fma(q[d], float(row[d]), s);
        out[r] = s;
    }
}

template <typename Row>
inline __attribute__((always_inline)) void
accumRowsScalar(const float *SOFTREC_RESTRICT p,
                const Row *SOFTREC_RESTRICT rows, int64_t ld,
                int64_t count, int64_t n, float *SOFTREC_RESTRICT acc)
{
    for (int64_t r = 0; r < count; ++r) {
        const float pr = p[r];
        const Row *row = rows + r * ld;
        for (int64_t d = 0; d < n; ++d)
            acc[d] = std::fma(pr, float(row[d]), acc[d]);
    }
}

#if defined(SOFTREC_SIMD_X86)

// The portable bodies again, compiled for the FMA ISA, where std::fma
// is one instruction instead of a libm call. The Scalar backend runs
// them on a CPU with FMA; the bits are std::fma's either way. The FMA
// ISA implies AVX, so each clears the upper YMM state on exit.

__attribute__((target("fma"))) void
gemmTileFmaIsa(const float *a_rows, int64_t lda, const float *panel,
               float *acc, int64_t mh, int64_t k_depth, int64_t diag,
               int64_t ldn)
{
    gemmTileScalar(a_rows, lda, panel, acc, mh, k_depth, diag, ldn);
    _mm256_zeroupper();
}

template <typename Row>
__attribute__((target("fma"))) void
dotRowsFmaIsa(const float *q, const Row *rows, int64_t ld, int64_t count,
              int64_t n, float *out)
{
    dotRowsScalar(q, rows, ld, count, n, out);
    _mm256_zeroupper();
}

template <typename Row>
__attribute__((target("fma"))) void
accumRowsFmaIsa(const float *p, const Row *rows, int64_t ld,
                int64_t count, int64_t n, float *acc)
{
    accumRowsScalar(p, rows, ld, count, n, acc);
    _mm256_zeroupper();
}

/** Whether this CPU runs FMA instructions. */
bool
hostHasFma()
{
    static const bool has_fma = __builtin_cpu_supports("fma") != 0;
    return has_fma;
}

// The AVX2 bodies below are inlined into the AVX2+FMA entry points,
// which clear the upper YMM state before returning (see the note in
// halfToFloatF16c, src/fp16/half.cpp). Their constant loops are fully
// unrolled, so the accumulator arrays live in registers. fp16 rows
// are widened with F16C as they are loaded.

/**
 * One kRows x (8 * kVecs) block of GEMM accumulators at rows
 * [i, i + kRows), columns [j, j + 8 * kVecs). The block runs the depth
 * of its first row with every row, then at most kRows - 1 steps with
 * the rows that read further (causal A).
 */
template <int kRows, int kVecs>
inline __attribute__((always_inline, target("avx2,fma"))) void
gemmBlockAvx2(const float *SOFTREC_RESTRICT a_rows, int64_t lda,
              const float *SOFTREC_RESTRICT panel,
              float *SOFTREC_RESTRICT acc, int64_t i, int64_t k_depth,
              int64_t diag, int64_t ldn, int64_t j)
{
    const float *a[kRows];
    int64_t depth[kRows];
    __m256 c[kRows][kVecs];
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
        a[r] = a_rows + (i + r) * lda;
        depth[r] = std::min(k_depth, diag + i + r + 1);
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v)
            c[r][v] = _mm256_loadu_ps(acc + (i + r) * ldn + j + 8 * v);
    }
    const float *b = panel + j;
    int64_t kk = 0;
    for (; kk < depth[0]; ++kk, b += ldn) {
        __m256 bv[kVecs];
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v)
            bv[v] = _mm256_loadu_ps(b + 8 * v);
#pragma GCC unroll 4
        for (int r = 0; r < kRows; ++r) {
            const __m256 x = _mm256_broadcast_ss(a[r] + kk);
#pragma GCC unroll 2
            for (int v = 0; v < kVecs; ++v)
                c[r][v] = _mm256_fmadd_ps(x, bv[v], c[r][v]);
        }
    }
    for (; kk < depth[kRows - 1]; ++kk, b += ldn) {
        __m256 bv[kVecs];
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v)
            bv[v] = _mm256_loadu_ps(b + 8 * v);
#pragma GCC unroll 4
        for (int r = 1; r < kRows; ++r) {
            if (kk >= depth[r])
                continue;
            const __m256 x = _mm256_broadcast_ss(a[r] + kk);
#pragma GCC unroll 2
            for (int v = 0; v < kVecs; ++v)
                c[r][v] = _mm256_fmadd_ps(x, bv[v], c[r][v]);
        }
    }
#pragma GCC unroll 4
    for (int r = 0; r < kRows; ++r) {
#pragma GCC unroll 2
        for (int v = 0; v < kVecs; ++v)
            _mm256_storeu_ps(acc + (i + r) * ldn + j + 8 * v, c[r][v]);
    }
}

/**
 * AVX2 GEMM tile: 4 x 16 blocks (eight YMM accumulators, two panel
 * vectors and one broadcast A element per row each k step), a 4 x 8
 * block for a remaining 8 columns, the same one row at a time for the
 * mh % 4 leftover rows, and scalar fma for the last ldn % 8 columns.
 */
__attribute__((target("avx2,fma"))) void
gemmTileAvx2(const float *SOFTREC_RESTRICT a_rows, int64_t lda,
             const float *SOFTREC_RESTRICT panel,
             float *SOFTREC_RESTRICT acc, int64_t mh, int64_t k_depth,
             int64_t diag, int64_t ldn)
{
    const int64_t n16 = ldn - ldn % 16;
    const int64_t n8 = ldn - ldn % 8;
    int64_t i = 0;
    for (; i + 4 <= mh; i += 4) {
        for (int64_t j = 0; j < n16; j += 16)
            gemmBlockAvx2<4, 2>(a_rows, lda, panel, acc, i, k_depth,
                                diag, ldn, j);
        if (n16 < n8)
            gemmBlockAvx2<4, 1>(a_rows, lda, panel, acc, i, k_depth,
                                diag, ldn, n16);
    }
    for (; i < mh; ++i) {
        for (int64_t j = 0; j < n16; j += 16)
            gemmBlockAvx2<1, 2>(a_rows, lda, panel, acc, i, k_depth,
                                diag, ldn, j);
        if (n16 < n8)
            gemmBlockAvx2<1, 1>(a_rows, lda, panel, acc, i, k_depth,
                                diag, ldn, n16);
    }
    if (n8 < ldn) {
        for (i = 0; i < mh; ++i) {
            const float *ar = a_rows + i * lda;
            float *cr = acc + i * ldn;
            const int64_t depth = std::min(k_depth, diag + i + 1);
            for (int64_t kk = 0; kk < depth; ++kk) {
                const float *b = panel + kk * ldn;
                for (int64_t j = n8; j < ldn; ++j)
                    cr[j] = std::fma(ar[kk], b[j], cr[j]);
            }
        }
    }
    _mm256_zeroupper();
}

// The AVX-512 GEMM tile below keeps its accumulators in ZMM registers
// and runs the same per-element chains as the AVX2 tile, 16 lanes wide.
// Its entry point clears the upper register state before returning,
// like the AVX2 ones.

/**
 * kVecs ZMM vectors of row-major floats at p; with kMasked the last
 * one covers only the lanes set in `tail` (masked-off lanes load +0
 * and are never stored, so they read and write nothing past them).
 */
template <int kVecs, bool kMasked>
inline __attribute__((always_inline, target("avx512f,avx2,fma"))) void
loadZmm(const float *p, __mmask16 tail, __m512 *v)
{
#pragma GCC unroll 4
    for (int e = 0; e < kVecs; ++e)
        v[e] = kMasked && e == kVecs - 1
            ? _mm512_maskz_loadu_ps(tail, p + 16 * e)
            : _mm512_loadu_ps(p + 16 * e);
}

template <int kVecs, bool kMasked>
inline __attribute__((always_inline, target("avx512f,avx2,fma"))) void
storeZmm(float *p, __mmask16 tail, const __m512 *v)
{
#pragma GCC unroll 4
    for (int e = 0; e < kVecs; ++e) {
        if (kMasked && e == kVecs - 1)
            _mm512_mask_storeu_ps(p + 16 * e, tail, v[e]);
        else
            _mm512_storeu_ps(p + 16 * e, v[e]);
    }
}

/** The operands of one AVX-512 tile call, shared by its blocks. */
struct ZmmTile
{
    const float *a_rows;
    int64_t lda;
    const float *panel;
    float *acc;
    int64_t diag;
    int64_t ldn;
};

/**
 * Steps [k0, k1) of one kRows x (16 * kVecs) block of GEMM
 * accumulators at rows [i, i + kRows), columns [j, j + 16 * kVecs),
 * the last vector masked to `tail` under kMasked. Row r stops at
 * min(k1, diag + i + r + 1) (causal A): the steps of the first row
 * run with every row, then at most kRows - 1 with the rows that read
 * further. The accumulators are loaded and stored around the steps,
 * so ascending calls continue the same chains.
 */
template <int kRows, int kVecs, bool kMasked>
inline __attribute__((always_inline, target("avx512f,avx2,fma"))) void
gemmBlockAvx512(const ZmmTile &t, int64_t i, int64_t j, int64_t k0,
                int64_t k1, __mmask16 tail)
{
    const float *a[kRows];
    int64_t depth[kRows];
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r) {
        a[r] = t.a_rows + (i + r) * t.lda;
        depth[r] = std::min(k1, t.diag + i + r + 1);
    }
    if (depth[kRows - 1] <= k0)
        return;
    __m512 c[kRows][kVecs];
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r)
        loadZmm<kVecs, kMasked>(t.acc + (i + r) * t.ldn + j, tail, c[r]);
    const float *b = t.panel + k0 * t.ldn + j;
    int64_t kk = k0;
    for (; kk < depth[0]; ++kk, b += t.ldn) {
        __m512 bv[kVecs];
        loadZmm<kVecs, kMasked>(b, tail, bv);
#pragma GCC unroll 8
        for (int r = 0; r < kRows; ++r) {
            const __m512 x = _mm512_set1_ps(a[r][kk]);
#pragma GCC unroll 4
            for (int v = 0; v < kVecs; ++v)
                c[r][v] = _mm512_fmadd_ps(x, bv[v], c[r][v]);
        }
    }
    for (; kk < depth[kRows - 1]; ++kk, b += t.ldn) {
        __m512 bv[kVecs];
        loadZmm<kVecs, kMasked>(b, tail, bv);
#pragma GCC unroll 8
        for (int r = 1; r < kRows; ++r) {
            if (kk >= depth[r])
                continue;
            const __m512 x = _mm512_set1_ps(a[r][kk]);
#pragma GCC unroll 4
            for (int v = 0; v < kVecs; ++v)
                c[r][v] = _mm512_fmadd_ps(x, bv[v], c[r][v]);
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < kRows; ++r)
        storeZmm<kVecs, kMasked>(t.acc + (i + r) * t.ldn + j, tail, c[r]);
}

/** The last `rows` (1..kRows) rows from row i as one block. */
template <int kRows, int kVecs, bool kMasked>
inline __attribute__((always_inline, target("avx512f,avx2,fma"))) void
gemmLeftoverAvx512(const ZmmTile &t, int64_t rows, int64_t i, int64_t j,
                   int64_t k0, int64_t k1, __mmask16 tail)
{
    if constexpr (kRows > 1) {
        if (rows < kRows) {
            gemmLeftoverAvx512<kRows - 1, kVecs, kMasked>(t, rows, i, j,
                                                          k0, k1, tail);
            return;
        }
    }
    gemmBlockAvx512<kRows, kVecs, kMasked>(t, i, j, k0, k1, tail);
}

/**
 * Columns [j, j + 16 * kVecs) of every row: kRows rows at a time,
 * then one block of the mh % kRows left, over depth chunks whose
 * panel slice (kChunk rows) stays in L1 while every row block reads it.
 */
template <int kRows, int kVecs, bool kMasked>
inline __attribute__((always_inline, target("avx512f,avx2,fma"))) void
gemmColumnsAvx512(const ZmmTile &t, int64_t mh, int64_t k_depth,
                  int64_t j, __mmask16 tail)
{
    constexpr int64_t kChunk = 4096 / (16 * kVecs);
    for (int64_t k0 = 0; k0 < k_depth; k0 += kChunk) {
        const int64_t k1 = std::min(k_depth, k0 + kChunk);
        int64_t i = 0;
        for (; i + kRows <= mh; i += kRows)
            gemmBlockAvx512<kRows, kVecs, kMasked>(t, i, j, k0, k1, tail);
        if (i < mh)
            gemmLeftoverAvx512<kRows - 1, kVecs, kMasked>(t, mh - i, i, j,
                                                          k0, k1, tail);
    }
}

/**
 * AVX-512 GEMM tile: 6 x 64 blocks (24 ZMM accumulators, four panel
 * vectors and one broadcast A element per row each k step), then
 * 8 x 16 blocks for the remaining whole 16-column vectors, then one
 * masked 8 x 16 block for the last ldn % 16 columns; the mh % 6 or
 * mh % 8 leftover rows run as one shorter block.
 */
__attribute__((target("avx512f,avx2,fma"))) void
gemmTileAvx512(const float *SOFTREC_RESTRICT a_rows, int64_t lda,
               const float *SOFTREC_RESTRICT panel,
               float *SOFTREC_RESTRICT acc, int64_t mh, int64_t k_depth,
               int64_t diag, int64_t ldn)
{
    const ZmmTile t{a_rows, lda, panel, acc, diag, ldn};
    const int64_t n64 = ldn - ldn % 64;
    const int64_t n16 = ldn - ldn % 16;
    const __mmask16 all = 0xffff;
    for (int64_t j = 0; j < n64; j += 64)
        gemmColumnsAvx512<6, 4, false>(t, mh, k_depth, j, all);
    for (int64_t j = n64; j < n16; j += 16)
        gemmColumnsAvx512<8, 1, false>(t, mh, k_depth, j, all);
    if (n16 < ldn)
        gemmColumnsAvx512<8, 1, true>(t, mh, k_depth, n16,
                                      __mmask16((1u << (ldn - n16)) - 1));
    _mm256_zeroupper();
}

/** Eight fp32 row elements, read as they are or widened from fp16. */
inline __attribute__((always_inline, target("avx2,fma,f16c"))) __m256
load8(const float *p)
{
    return _mm256_loadu_ps(p);
}

inline __attribute__((always_inline, target("avx2,fma,f16c"))) __m256
load8(const Half *p)
{
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
}

/**
 * AVX2 scores: eight rows per vector, one row per lane. Each 8 x 8
 * block of the rows is transposed in registers, so vector t holds
 * element d + t of all eight rows and lane r runs row r's d-ascending
 * chain; the last n % 8 elements are gathered lane by lane.
 */
template <typename Row>
__attribute__((target("avx2,fma,f16c"))) void
dotRowsAvx2(const float *SOFTREC_RESTRICT q,
            const Row *SOFTREC_RESTRICT rows, int64_t ld, int64_t count,
            int64_t n, float *SOFTREC_RESTRICT out)
{
    int64_t r = 0;
    for (; r + 8 <= count; r += 8) {
        const Row *b = rows + r * ld;
        __m256 s = _mm256_setzero_ps();
        int64_t d = 0;
        for (; d + 8 <= n; d += 8) {
            const __m256 r0 = load8(b + 0 * ld + d);
            const __m256 r1 = load8(b + 1 * ld + d);
            const __m256 r2 = load8(b + 2 * ld + d);
            const __m256 r3 = load8(b + 3 * ld + d);
            const __m256 r4 = load8(b + 4 * ld + d);
            const __m256 r5 = load8(b + 5 * ld + d);
            const __m256 r6 = load8(b + 6 * ld + d);
            const __m256 r7 = load8(b + 7 * ld + d);
            const __m256 u0 = _mm256_unpacklo_ps(r0, r1);
            const __m256 u1 = _mm256_unpackhi_ps(r0, r1);
            const __m256 u2 = _mm256_unpacklo_ps(r2, r3);
            const __m256 u3 = _mm256_unpackhi_ps(r2, r3);
            const __m256 u4 = _mm256_unpacklo_ps(r4, r5);
            const __m256 u5 = _mm256_unpackhi_ps(r4, r5);
            const __m256 u6 = _mm256_unpacklo_ps(r6, r7);
            const __m256 u7 = _mm256_unpackhi_ps(r6, r7);
            const __m256 v0 = _mm256_shuffle_ps(u0, u2, 0x44);
            const __m256 v1 = _mm256_shuffle_ps(u0, u2, 0xee);
            const __m256 v2 = _mm256_shuffle_ps(u1, u3, 0x44);
            const __m256 v3 = _mm256_shuffle_ps(u1, u3, 0xee);
            const __m256 v4 = _mm256_shuffle_ps(u4, u6, 0x44);
            const __m256 v5 = _mm256_shuffle_ps(u4, u6, 0xee);
            const __m256 v6 = _mm256_shuffle_ps(u5, u7, 0x44);
            const __m256 v7 = _mm256_shuffle_ps(u5, u7, 0xee);
            const __m256 t[8] = {
                _mm256_permute2f128_ps(v0, v4, 0x20),
                _mm256_permute2f128_ps(v1, v5, 0x20),
                _mm256_permute2f128_ps(v2, v6, 0x20),
                _mm256_permute2f128_ps(v3, v7, 0x20),
                _mm256_permute2f128_ps(v0, v4, 0x31),
                _mm256_permute2f128_ps(v1, v5, 0x31),
                _mm256_permute2f128_ps(v2, v6, 0x31),
                _mm256_permute2f128_ps(v3, v7, 0x31),
            };
#pragma GCC unroll 8
            for (int e = 0; e < 8; ++e)
                s = _mm256_fmadd_ps(_mm256_broadcast_ss(q + d + e), t[e],
                                    s);
        }
        for (; d < n; ++d) {
            const __m256 col = _mm256_setr_ps(
                float(b[0 * ld + d]), float(b[1 * ld + d]),
                float(b[2 * ld + d]), float(b[3 * ld + d]),
                float(b[4 * ld + d]), float(b[5 * ld + d]),
                float(b[6 * ld + d]), float(b[7 * ld + d]));
            s = _mm256_fmadd_ps(_mm256_broadcast_ss(q + d), col, s);
        }
        _mm256_storeu_ps(out + r, s);
    }
    for (; r < count; ++r) {
        const Row *row = rows + r * ld;
        float s = 0.0f;
        for (int64_t d = 0; d < n; ++d)
            s = std::fma(q[d], float(row[d]), s);
        out[r] = s;
    }
    _mm256_zeroupper();
}

/** kVecs vectors of acc at column d stay in registers across all rows. */
template <int kVecs, typename Row>
inline __attribute__((always_inline, target("avx2,fma,f16c"))) void
accumBlockAvx2(const float *SOFTREC_RESTRICT p,
               const Row *SOFTREC_RESTRICT rows, int64_t ld,
               int64_t count, int64_t d, float *SOFTREC_RESTRICT acc)
{
    __m256 c[kVecs];
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v)
        c[v] = _mm256_loadu_ps(acc + d + 8 * v);
    const Row *b = rows + d;
    for (int64_t r = 0; r < count; ++r, b += ld) {
        const __m256 x = _mm256_broadcast_ss(p + r);
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v)
            c[v] = _mm256_fmadd_ps(x, load8(b + 8 * v), c[v]);
    }
#pragma GCC unroll 8
    for (int v = 0; v < kVecs; ++v)
        _mm256_storeu_ps(acc + d + 8 * v, c[v]);
}

/**
 * AVX2 weighted row sum: 64 columns of acc (eight independent chains)
 * per sweep over the rows, then 8 at a time, then scalar fma for the
 * last n % 8 columns.
 */
template <typename Row>
__attribute__((target("avx2,fma,f16c"))) void
accumRowsAvx2(const float *SOFTREC_RESTRICT p,
              const Row *SOFTREC_RESTRICT rows, int64_t ld,
              int64_t count, int64_t n, float *SOFTREC_RESTRICT acc)
{
    int64_t d = 0;
    for (; d + 64 <= n; d += 64)
        accumBlockAvx2<8>(p, rows, ld, count, d, acc);
    for (; d + 8 <= n; d += 8)
        accumBlockAvx2<1>(p, rows, ld, count, d, acc);
    for (; d < n; ++d) {
        float c = acc[d];
        for (int64_t r = 0; r < count; ++r)
            c = std::fma(p[r], float(rows[r * ld + d]), c);
        acc[d] = c;
    }
    _mm256_zeroupper();
}

#endif // SOFTREC_SIMD_X86

} // namespace

void
fmaGemmTile([[maybe_unused]] SimdBackend backend, const float *a_rows,
            int64_t lda, const float *panel, float *acc, int64_t mh,
            int64_t k_depth, int64_t diag, int64_t ldn)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        gemmTileAvx512(a_rows, lda, panel, acc, mh, k_depth, diag, ldn);
        return;
    }
    if (simdHasAvx2(backend)) {
        gemmTileAvx2(a_rows, lda, panel, acc, mh, k_depth, diag, ldn);
        return;
    }
    if (hostHasFma()) {
        gemmTileFmaIsa(a_rows, lda, panel, acc, mh, k_depth, diag, ldn);
        return;
    }
#endif
    gemmTileScalar(a_rows, lda, panel, acc, mh, k_depth, diag, ldn);
}

template <typename Row>
void
fmaDotRows([[maybe_unused]] SimdBackend backend, const float *q,
           const Row *rows, int64_t ld, int64_t count, int64_t n,
           float *out)
{
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend)) {
        dotRowsAvx2(q, rows, ld, count, n, out);
        return;
    }
    if (hostHasFma()) {
        dotRowsFmaIsa(q, rows, ld, count, n, out);
        return;
    }
#endif
    dotRowsScalar(q, rows, ld, count, n, out);
}

template <typename Row>
void
fmaAccumRows([[maybe_unused]] SimdBackend backend, const float *p,
             const Row *rows, int64_t ld, int64_t count, int64_t n,
             float *acc)
{
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend)) {
        accumRowsAvx2(p, rows, ld, count, n, acc);
        return;
    }
    if (hostHasFma()) {
        accumRowsFmaIsa(p, rows, ld, count, n, acc);
        return;
    }
#endif
    accumRowsScalar(p, rows, ld, count, n, acc);
}

template void fmaDotRows(SimdBackend, const float *, const float *,
                         int64_t, int64_t, int64_t, float *);
template void fmaDotRows(SimdBackend, const float *, const Half *,
                         int64_t, int64_t, int64_t, float *);
template void fmaAccumRows(SimdBackend, const float *, const float *,
                           int64_t, int64_t, int64_t, float *);
template void fmaAccumRows(SimdBackend, const float *, const Half *,
                           int64_t, int64_t, int64_t, float *);

} // namespace softrec
