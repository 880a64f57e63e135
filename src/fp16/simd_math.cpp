/**
 * @file
 * Scalar and AVX2 paths of the exp primitive (see simd_math.hpp for
 * the contract). Each path is one sweep body over a tile of row
 * segments, which localSoftmaxTile, expSpan and maxSpan all call. The
 * two paths share every constant and run the same IEEE operations in
 * the same order; the scalar path keeps eight lane accumulators so
 * its sums and maxima combine exactly like the AVX2 registers. NEON
 * uses the scalar path.
 */

#include "fp16/simd_math.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/logging.hpp"
#include "fp16/simd_platform.hpp"

namespace softrec {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

constexpr float kLog2e = 1.44269504088896341f;
// Adding then subtracting 1.5 * 2^23 rounds |t| < 2^22 to the nearest
// integer, ties to even, with plain float adds on every backend.
constexpr float kRoundMagic = 12582912.0f;
// ln2 = kLn2Hi + kLn2Lo; kLn2Hi has 9 significant bits, so n * kLn2Hi
// is exact for every |n| <= 128.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// Minimax fit of (exp(r) - 1 - r) / r^2 on [-ln2/2, ln2/2]; with the
// two leading coefficients exactly 1 the relative error of the
// polynomial is 3.1e-9, far below half an ulp.
constexpr float kC2 = 0x1.fffffcp-2f;
constexpr float kC3 = 0x1.555492p-3f;
constexpr float kC4 = 0x1.5558f2p-5f;
constexpr float kC5 = 0x1.1239d4p-7f;
constexpr float kC6 = 0x1.6a244cp-10f;
// kExpMin is the smallest float whose exp is a normal float (just above
// ln(FLT_MIN) = -87.336545); below it std::exp is subnormal or 0 and
// the result is flushed to +0. kExpMax is the largest float whose exp
// is finite; above it the result is +inf.
constexpr float kExpMin = -87.33654022216796875f;
constexpr float kExpMax = 88.72283172607421875f;

constexpr int kLanes = 8;

uint32_t
floatBits(float value)
{
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

float
bitsToFloat(uint32_t bits)
{
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/** The lane step of maxSpan: keeps m unless x is larger (NaN skipped). */
inline float
laneMax(float m, float x)
{
    return m < x ? x : m;
}

/** exp(z), one element of the scalar path. */
inline float
expScalar(float z)
{
    if (z != z)
        return z;
    if (z < kExpMin)
        return 0.0f;
    if (z > kExpMax)
        return kInf;
    const float t = z * kLog2e;
    const float nf = (t + kRoundMagic) - kRoundMagic;
    const float r = (z - nf * kLn2Hi) - nf * kLn2Lo;
    float p = kC6;
    p = p * r + kC5;
    p = p * r + kC4;
    p = p * r + kC3;
    p = p * r + kC2;
    p = p * r + 1.0f;
    p = p * r + 1.0f;
    // n is in [-126, 128] here; adding it to the exponent field keeps
    // the result normal (p >= 1 whenever n == -126, p < 1 whenever
    // n == 128).
    return bitsToFloat(floatBits(p) + (uint32_t(int32_t(nf)) << 23));
}

/**
 * What one sweep computes per segment. Max: the segment's max, stored
 * to localMax. Exp: exp(x - shift) for the given shift, stored fp32
 * to out (row stride xPrimeLd), and the lane-order sum to localSum.
 * Ls: both, with the segment's own max as the shift and the exps
 * narrowed to fp16 into xPrime. A -inf shift is the fully masked
 * segment: +0 outputs and a +0 sum. Each mode is its own template
 * instance, and a span (Max, Exp) is one row and one segment, so
 * expSpan and maxSpan keep the cost of a plain loop.
 */
enum class Sweep { Max, Exp, Ls };

/** One row of n elements as a single segment (Max and Exp sweeps). */
inline void
setSpan(LsTile &t, const float *x, int64_t n)
{
    t.x = x;
    t.rows = 1;
    t.width = n;
    t.ld = n;
    t.subVector = n;
    t.xPrimeLd = n;
    t.mdLd = 1;
}

template <Sweep kMode>
void
sweepScalar(const LsTile &t, float given_shift, float *out)
{
    // A span (Max, Exp) is one row and one segment.
    constexpr bool kSpan = kMode != Sweep::Ls;
    const int64_t rows = kSpan ? 1 : t.rows;
    const int64_t seg = kSpan ? t.width : t.subVector;
    if constexpr (kMode != Sweep::Exp) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                const int64_t w = std::min(seg, t.width - j0);
                const float *x = t.x + r * t.ld + j0;
                float lane[kLanes];
                for (float &l : lane)
                    l = -kInf;
                for (int64_t i = 0; i < w; ++i)
                    lane[i % kLanes] = laneMax(lane[i % kLanes], x[i]);
                const float a0 = laneMax(lane[0], lane[4]);
                const float a1 = laneMax(lane[1], lane[5]);
                const float a2 = laneMax(lane[2], lane[6]);
                const float a3 = laneMax(lane[3], lane[7]);
                t.localMax[r * t.mdLd + sv] =
                    laneMax(laneMax(a0, a2), laneMax(a1, a3));
            }
        }
    }
    if constexpr (kMode != Sweep::Max) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                const int64_t w = std::min(seg, t.width - j0);
                const float *x = t.x + r * t.ld + j0;
                const int64_t o = r * t.xPrimeLd + j0;
                const float shift = kMode == Sweep::Exp
                    ? given_shift
                    : t.localMax[r * t.mdLd + sv];
                float lane[kLanes] = {};
                if (shift != -kInf) {
                    for (int64_t i = 0; i < w; ++i) {
                        const float e = expScalar(x[i] - shift);
                        if constexpr (kMode == Sweep::Ls)
                            t.xPrime[o + i] = Half(e);
                        else
                            out[o + i] = e;
                        lane[i % kLanes] += e;
                    }
                } else if constexpr (kMode == Sweep::Ls) {
                    std::fill(t.xPrime + o, t.xPrime + o + w, Half());
                } else {
                    std::fill(out + o, out + o + w, 0.0f);
                }
                const float a0 = lane[0] + lane[4];
                const float a1 = lane[1] + lane[5];
                const float a2 = lane[2] + lane[6];
                const float a3 = lane[3] + lane[7];
                t.localSum[r * t.mdLd + sv] = (a0 + a2) + (a1 + a3);
            }
        }
    }
}

#if defined(SOFTREC_SIMD_X86)

// The sweep body is the whole AVX2 path: the max, the polynomial, its
// range selects, the masked tail and the fp16 store are written once,
// here. It is inlined into the three entry points below, which is
// what lets a span sweep keep its arguments and result in registers;
// every one of them keeps its 256-bit work inside and clears the
// upper YMM state before returning, so no target("avx2") helper
// returns a vector. _mm256_max_ps(a, b) is `a > b ? a : b`, i.e.
// laneMax(b, a).
template <Sweep kMode>
inline __attribute__((always_inline, target("avx2,f16c"))) void
sweepAvx2(const LsTile &t, float given_shift, float *out)
{
    constexpr bool kSpan = kMode != Sweep::Ls;
    const int64_t rows = kSpan ? 1 : t.rows;
    const int64_t seg = kSpan ? t.width : t.subVector;
    const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    // Pass 1 stores every segment's max, pass 2 sweeps the exps: no
    // segment's exp then waits right behind its own max reduction, so
    // the segments of a tile overlap instead of running one by one.
    if constexpr (kMode != Sweep::Exp) {
        const __m256 neg_inf = _mm256_set1_ps(-kInf);
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                const int64_t w = std::min(seg, t.width - j0);
                const float *x = t.x + r * t.ld + j0;
                __m256 lanes = neg_inf;
                int64_t i = 0;
                for (; i + kLanes <= w; i += kLanes)
                    lanes = _mm256_max_ps(_mm256_loadu_ps(x + i), lanes);
                if (i < w) {
                    const __m256i mask = _mm256_cmpgt_epi32(
                        _mm256_set1_epi32(int(w - i)), lane_index);
                    const __m256 v = _mm256_blendv_ps(
                        neg_inf, _mm256_maskload_ps(x + i, mask),
                        _mm256_castsi256_ps(mask));
                    lanes = _mm256_max_ps(v, lanes);
                }
                const __m128 a =
                    _mm_max_ps(_mm256_extractf128_ps(lanes, 1),
                               _mm256_castps256_ps128(lanes));
                const __m128 b = _mm_max_ps(_mm_movehl_ps(a, a), a);
                t.localMax[r * t.mdLd + sv] = _mm_cvtss_f32(_mm_max_ss(
                    _mm_shuffle_ps(b, b, _MM_SHUFFLE(1, 1, 1, 1)), b));
            }
        }
    }
    if constexpr (kMode != Sweep::Max) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                const int64_t w = std::min(seg, t.width - j0);
                const float *x = t.x + r * t.ld + j0;
                const int64_t o = r * t.xPrimeLd + j0;
                const float shift = kMode == Sweep::Exp
                    ? given_shift
                    : t.localMax[r * t.mdLd + sv];
                if (shift == -kInf) {
                    if constexpr (kMode == Sweep::Ls)
                        std::fill(t.xPrime + o, t.xPrime + o + w, Half());
                    else
                        std::fill(out + o, out + o + w, 0.0f);
                    t.localSum[r * t.mdLd + sv] = 0.0f;
                    continue;
                }
                const __m256 vshift = _mm256_set1_ps(shift);
                __m256 lanes = _mm256_setzero_ps();
                for (int64_t i = 0; i < w; i += kLanes) {
                    // A ragged tail loads and stores only its live
                    // lanes; the dead lanes are zeroed before the lane
                    // sum, which leaves every lane's bits as the
                    // scalar path's.
                    const int64_t live = w - i < kLanes ? w - i : kLanes;
                    const __m256i mask = _mm256_cmpgt_epi32(
                        _mm256_set1_epi32(int(live)), lane_index);
                    const __m256 z = _mm256_sub_ps(
                        live == kLanes ? _mm256_loadu_ps(x + i)
                                       : _mm256_maskload_ps(x + i, mask),
                        vshift);
                    const __m256 tz =
                        _mm256_mul_ps(z, _mm256_set1_ps(kLog2e));
                    const __m256 magic = _mm256_set1_ps(kRoundMagic);
                    const __m256 nf =
                        _mm256_sub_ps(_mm256_add_ps(tz, magic), magic);
                    const __m256 rz = _mm256_sub_ps(
                        _mm256_sub_ps(
                            z, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Hi))),
                        _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Lo)));
                    __m256 p = _mm256_set1_ps(kC6);
                    p = _mm256_add_ps(_mm256_mul_ps(p, rz),
                                      _mm256_set1_ps(kC5));
                    p = _mm256_add_ps(_mm256_mul_ps(p, rz),
                                      _mm256_set1_ps(kC4));
                    p = _mm256_add_ps(_mm256_mul_ps(p, rz),
                                      _mm256_set1_ps(kC3));
                    p = _mm256_add_ps(_mm256_mul_ps(p, rz),
                                      _mm256_set1_ps(kC2));
                    p = _mm256_add_ps(_mm256_mul_ps(p, rz),
                                      _mm256_set1_ps(1.0f));
                    p = _mm256_add_ps(_mm256_mul_ps(p, rz),
                                      _mm256_set1_ps(1.0f));
                    __m256 e = _mm256_castsi256_ps(_mm256_add_epi32(
                        _mm256_castps_si256(p),
                        _mm256_slli_epi32(_mm256_cvtps_epi32(nf), 23)));
                    // The scalar path's early returns, as selects;
                    // out-of-range lanes computed garbage above and
                    // are replaced here.
                    e = _mm256_blendv_ps(
                        e, _mm256_setzero_ps(),
                        _mm256_cmp_ps(z, _mm256_set1_ps(kExpMin),
                                      _CMP_LT_OQ));
                    e = _mm256_blendv_ps(
                        e, _mm256_set1_ps(kInf),
                        _mm256_cmp_ps(z, _mm256_set1_ps(kExpMax),
                                      _CMP_GT_OQ));
                    e = _mm256_blendv_ps(
                        e, z, _mm256_cmp_ps(z, z, _CMP_UNORD_Q));
                    if (live < kLanes)
                        e = _mm256_and_ps(e, _mm256_castsi256_ps(mask));
                    if constexpr (kMode == Sweep::Exp) {
                        if (live == kLanes)
                            _mm256_storeu_ps(out + o + i, e);
                        else
                            _mm256_maskstore_ps(out + o + i, mask, e);
                    } else {
                        const __m128i h = _mm256_cvtps_ph(
                            e, _MM_FROUND_TO_NEAREST_INT |
                                   _MM_FROUND_NO_EXC);
                        // Half is a trivially-copyable wire format;
                        // the void cast mutes -Wclass-memaccess.
                        void *dst = static_cast<void *>(t.xPrime + o + i);
                        if (live == kLanes)
                            std::memcpy(dst, &h, sizeof(h));
                        else
                            std::memcpy(dst, &h,
                                        size_t(live) * sizeof(Half));
                    }
                    lanes = _mm256_add_ps(lanes, e);
                }
                const __m128 a = _mm_add_ps(_mm256_castps256_ps128(lanes),
                                            _mm256_extractf128_ps(lanes, 1));
                const __m128 b = _mm_add_ps(a, _mm_movehl_ps(a, a));
                const float sum = _mm_cvtss_f32(_mm_add_ss(
                    b, _mm_shuffle_ps(b, b, _MM_SHUFFLE(1, 1, 1, 1))));
                t.localSum[r * t.mdLd + sv] = sum;
                // The sum is NaN exactly when some exp is. VCVTPS2PH
                // keeps NaN payloads where Half::fromFloat
                // canonicalizes them, so such a segment narrows again
                // on the scalar path, whose exps have the same bits.
                if constexpr (kMode == Sweep::Ls) {
                    if (sum != sum) {
                        for (int64_t i = 0; i < w; ++i)
                            t.xPrime[o + i] =
                                Half(expScalar(x[i] - shift));
                    }
                }
            }
        }
    }
    _mm256_zeroupper();
}

__attribute__((target("avx2,f16c"))) void
localSoftmaxTileAvx2(const LsTile &t)
{
    sweepAvx2<Sweep::Ls>(t, 0.0f, nullptr);
    _mm256_zeroupper();
}

__attribute__((target("avx2,f16c"))) float
expSpanAvx2(const float *x, float shift, float *out, int64_t n)
{
    float sum = 0.0f;
    LsTile t;
    setSpan(t, x, n);
    t.localSum = &sum;
    sweepAvx2<Sweep::Exp>(t, shift, out);
    _mm256_zeroupper();
    return sum;
}

__attribute__((target("avx2,f16c"))) float
maxSpanAvx2(const float *x, int64_t n)
{
    float max = -kInf;
    LsTile t;
    setSpan(t, x, n);
    t.localMax = &max;
    sweepAvx2<Sweep::Max>(t, 0.0f, nullptr);
    _mm256_zeroupper();
    return max;
}

#endif // SOFTREC_SIMD_X86

} // namespace

void
localSoftmaxTile(SimdBackend backend, const LsTile &tile)
{
    SOFTREC_ASSERT(tile.subVector > 0 && tile.xPrime && tile.localMax &&
                   tile.localSum,
                   "LS tile needs a positive sub-vector width and "
                   "X', m' and d' outputs");
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend)) {
        localSoftmaxTileAvx2(tile);
        return;
    }
#endif
    (void)backend;
    sweepScalar<Sweep::Ls>(tile, 0.0f, nullptr);
}

float
expSpan(SimdBackend backend, const float *x, float shift, float *out,
        int64_t n)
{
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend))
        return expSpanAvx2(x, shift, out, n);
#endif
    (void)backend;
    float sum = 0.0f;
    LsTile t;
    setSpan(t, x, n);
    t.localSum = &sum;
    sweepScalar<Sweep::Exp>(t, shift, out);
    return sum;
}

float
maxSpan(SimdBackend backend, const float *x, int64_t n)
{
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend))
        return maxSpanAvx2(x, n);
#endif
    (void)backend;
    float max = -kInf;
    LsTile t;
    setSpan(t, x, n);
    t.localMax = &max;
    sweepScalar<Sweep::Max>(t, 0.0f, nullptr);
    return max;
}

void
tanhSpan(SimdBackend backend, const float *x, float *out, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        out[i] = x[i] + x[i];
    expSpan(backend, out, 0.0f, out, n);
    for (int64_t i = 0; i < n; ++i)
        out[i] = 1.0f - 2.0f / (out[i] + 1.0f);
}

} // namespace softrec
