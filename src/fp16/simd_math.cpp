/**
 * @file
 * Scalar and AVX2 paths of the exp primitive (see simd_math.hpp for
 * the contract). The two paths share every constant and run the same
 * IEEE operations in the same order; the scalar path keeps eight lane
 * accumulators so its sums and maxima combine exactly like the AVX2
 * registers. NEON uses the scalar path.
 */

#include "fp16/simd_math.hpp"

#include <cstring>
#include <limits>

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

float
expSpanScalar(const float *x, float shift, float *out, int64_t n)
{
    float lane[kLanes] = {};
    for (int64_t i = 0; i < n; ++i) {
        const float e = expScalar(x[i] - shift);
        out[i] = e;
        lane[i % kLanes] += e;
    }
    const float a0 = lane[0] + lane[4], a1 = lane[1] + lane[5];
    const float a2 = lane[2] + lane[6], a3 = lane[3] + lane[7];
    return (a0 + a2) + (a1 + a3);
}

float
maxSpanScalar(const float *x, int64_t n)
{
    float lane[kLanes];
    for (float &l : lane)
        l = -kInf;
    for (int64_t i = 0; i < n; ++i)
        lane[i % kLanes] = laneMax(lane[i % kLanes], x[i]);
    const float a0 = laneMax(lane[0], lane[4]);
    const float a1 = laneMax(lane[1], lane[5]);
    const float a2 = laneMax(lane[2], lane[6]);
    const float a3 = laneMax(lane[3], lane[7]);
    return laneMax(laneMax(a0, a2), laneMax(a1, a3));
}

#if defined(SOFTREC_SIMD_X86)

// The two functions below are the whole AVX2 path. Each keeps its
// 256-bit work inside its own body and clears the upper YMM state
// before returning, so no target("avx2") helper returns a vector.
// _mm256_max_ps(a, b) is `a > b ? a : b`, i.e. laneMax(b, a).

__attribute__((target("avx2"))) float
expSpanAvx2(const float *x, float shift, float *out, int64_t n)
{
    const __m256 vshift = _mm256_set1_ps(shift);
    const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    __m256 lanes = _mm256_setzero_ps();
    for (int64_t i = 0; i < n; i += kLanes) {
        // A ragged tail loads and stores only its live lanes; the
        // dead lanes are zeroed before the lane sum, which leaves
        // every lane's bits as the scalar path's.
        const int64_t live = n - i < kLanes ? n - i : kLanes;
        const __m256i mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(int(live)), lane_index);
        const __m256 z = _mm256_sub_ps(
            live == kLanes ? _mm256_loadu_ps(x + i)
                           : _mm256_maskload_ps(x + i, mask),
            vshift);
        const __m256 t = _mm256_mul_ps(z, _mm256_set1_ps(kLog2e));
        const __m256 magic = _mm256_set1_ps(kRoundMagic);
        const __m256 nf = _mm256_sub_ps(_mm256_add_ps(t, magic), magic);
        const __m256 r = _mm256_sub_ps(
            _mm256_sub_ps(z, _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Hi))),
            _mm256_mul_ps(nf, _mm256_set1_ps(kLn2Lo)));
        __m256 p = _mm256_set1_ps(kC6);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC5));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC4));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kC2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
        __m256 e = _mm256_castsi256_ps(_mm256_add_epi32(
            _mm256_castps_si256(p),
            _mm256_slli_epi32(_mm256_cvtps_epi32(nf), 23)));
        // The scalar path's early returns, as selects; out-of-range
        // lanes computed garbage above and are replaced here.
        e = _mm256_blendv_ps(
            e, _mm256_setzero_ps(),
            _mm256_cmp_ps(z, _mm256_set1_ps(kExpMin), _CMP_LT_OQ));
        e = _mm256_blendv_ps(
            e, _mm256_set1_ps(kInf),
            _mm256_cmp_ps(z, _mm256_set1_ps(kExpMax), _CMP_GT_OQ));
        e = _mm256_blendv_ps(e, z, _mm256_cmp_ps(z, z, _CMP_UNORD_Q));
        if (live == kLanes) {
            _mm256_storeu_ps(out + i, e);
        } else {
            e = _mm256_and_ps(e, _mm256_castsi256_ps(mask));
            _mm256_maskstore_ps(out + i, mask, e);
        }
        lanes = _mm256_add_ps(lanes, e);
    }
    const __m128 a = _mm_add_ps(_mm256_castps256_ps128(lanes),
                                _mm256_extractf128_ps(lanes, 1));
    _mm256_zeroupper();
    const __m128 b = _mm_add_ps(a, _mm_movehl_ps(a, a));
    return _mm_cvtss_f32(
        _mm_add_ss(b, _mm_shuffle_ps(b, b, _MM_SHUFFLE(1, 1, 1, 1))));
}

__attribute__((target("avx2"))) float
maxSpanAvx2(const float *x, int64_t n)
{
    const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256 neg_inf = _mm256_set1_ps(-kInf);
    __m256 lanes = neg_inf;
    int64_t i = 0;
    for (; i + kLanes <= n; i += kLanes)
        lanes = _mm256_max_ps(_mm256_loadu_ps(x + i), lanes);
    if (i < n) {
        const __m256i mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(int(n - i)), lane_index);
        const __m256 v = _mm256_blendv_ps(
            neg_inf, _mm256_maskload_ps(x + i, mask),
            _mm256_castsi256_ps(mask));
        lanes = _mm256_max_ps(v, lanes);
    }
    const __m128 a = _mm_max_ps(_mm256_extractf128_ps(lanes, 1),
                                _mm256_castps256_ps128(lanes));
    _mm256_zeroupper();
    const __m128 b = _mm_max_ps(_mm_movehl_ps(a, a), a);
    return _mm_cvtss_f32(
        _mm_max_ss(_mm_shuffle_ps(b, b, _MM_SHUFFLE(1, 1, 1, 1)), b));
}

#endif // SOFTREC_SIMD_X86

} // namespace

float
expSpan(SimdBackend backend, const float *x, float shift, float *out,
        int64_t n)
{
    if (shift == -kInf) {
        for (int64_t i = 0; i < n; ++i)
            out[i] = 0.0f;
        return 0.0f;
    }
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::F16cAvx2)
        return expSpanAvx2(x, shift, out, n);
#endif
    (void)backend;
    return expSpanScalar(x, shift, out, n);
}

float
maxSpan(SimdBackend backend, const float *x, int64_t n)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::F16cAvx2)
        return maxSpanAvx2(x, n);
#endif
    (void)backend;
    return maxSpanScalar(x, n);
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
