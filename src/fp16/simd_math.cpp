/**
 * @file
 * Scalar, AVX2 and AVX-512 paths of the exp primitive (see
 * simd_math.hpp for the contract). Each path is one sweep body over a
 * tile of row segments, which localSoftmaxTile, expSpan and maxSpan
 * all call; the AVX-512 path, the zmm twin of the AVX2 sweep, also has
 * a 16-row body for T = 16 tiles, which reduces the rows of each
 * 16 x 16 block with one shuffle tree. The paths share every
 * constant and run the same IEEE operations in the same order; the
 * scalar path keeps eight lane accumulators, and the 16-lane AVX-512
 * bodies keep the same eight-lane order, so sums and maxima combine
 * exactly like the AVX2 registers. NEON uses the scalar path. The
 * serving layer's element-wise passes (GeLU, row softmax, the GEMM
 * epilogue, residual Add & LayerNorm, SDF's IR and GS widening) follow:
 * row loops for Scalar and F16cAvx2, one 16-lane body each for Avx512.
 */

#include "fp16/simd_math.hpp"

#include <algorithm>
#include <cmath>
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

/**
 * One row of n elements as a single segment (Max and Exp sweeps); the
 * sweeps take the row itself as their x argument. The dispatchers,
 * which carry no target attribute, build these tiles and hand them to
 * the SIMD bodies: GCC places such a struct in ASan's fake stack frame
 * (detect_stack_use_after_return) yet zeroes it with stores aligned to
 * the SIMD body's realigned frame, which that frame does not have.
 */
inline void
setSpan(LsTile &t, int64_t n)
{
    t.rows = 1;
    t.width = n;
    t.ld = n;
    t.subVector = n;
    t.xPrimeLd = n;
    t.mdLd = 1;
}

/** The max of x[0, w) in the eight-lane order, one lane at a time. */
float
segmentMaxScalar(const float *x, int64_t w)
{
    float lane[kLanes];
    for (float &l : lane)
        l = -kInf;
    for (int64_t i = 0; i < w; ++i)
        lane[i % kLanes] = laneMax(lane[i % kLanes], x[i]);
    const float a0 = laneMax(lane[0], lane[4]);
    const float a1 = laneMax(lane[1], lane[5]);
    const float a2 = laneMax(lane[2], lane[6]);
    const float a3 = laneMax(lane[3], lane[7]);
    return laneMax(laneMax(a0, a2), laneMax(a1, a3));
}

template <Sweep kMode>
void
sweepScalar(const LsTile &t, const float *x0, float given_shift, float *out)
{
    // A span (Max, Exp) is one row and one segment.
    constexpr bool kSpan = kMode != Sweep::Ls;
    const int64_t rows = kSpan ? 1 : t.rows;
    const int64_t seg = kSpan ? t.width : t.subVector;
    if constexpr (kMode != Sweep::Exp) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                t.localMax[r * t.mdLd + sv] = segmentMaxScalar(
                    x0 + r * t.ld + j0, std::min(seg, t.width - j0));
            }
        }
    }
    if constexpr (kMode != Sweep::Max) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                const int64_t w = std::min(seg, t.width - j0);
                const float *x = x0 + r * t.ld + j0;
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

constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCubic = 0.044715f;

// The row bodies of the Scalar and F16cAvx2 paths (and of NEON): the
// span primitives and batch conversions in turn, one loop per step.
// The AVX-512 bodies below give their bits, and fall back on them for
// the rows whose NaNs they do not reproduce.

void
geluChunks(SimdBackend backend, const float *x, float *out, int64_t n)
{
    // tanh's argument is staged per chunk, so x and out may alias.
    constexpr int64_t kChunk = 64;
    float inner[kChunk];
    for (int64_t i0 = 0; i0 < n; i0 += kChunk) {
        const int64_t w = std::min(kChunk, n - i0);
        for (int64_t i = 0; i < w; ++i) {
            const float v = x[i0 + i];
            inner[i] = kSqrt2OverPi * (v + kGeluCubic * v * v * v);
        }
        tanhSpan(backend, inner, inner, w);
        for (int64_t i = 0; i < w; ++i)
            out[i0 + i] = 0.5f * x[i0 + i] * (1.0f + inner[i]);
    }
}

RowSoftmaxStats
softmaxRowSpans(SimdBackend backend, const Half *in, float *row,
                Half *out, int64_t n)
{
    halfToFloat(in, row, n);
    RowSoftmaxStats stats;
    stats.max = maxSpan(backend, row, n);
    stats.sum = expSpan(backend, row, stats.max, row, n);
    for (int64_t j = 0; j < n; ++j)
        row[j] = stats.sum > 0.0f ? row[j] / stats.sum : 0.0f;
    floatToHalf(row, out, n);
    return stats;
}

/** The IR of row r: the span calls, the chain and the divides. */
RowSoftmaxStats
irRow(SimdBackend backend, const IrRows &t, int64_t r)
{
    const float *m_local = t.localMax + r * t.ld;
    const float *d_local = t.localSum + r * t.ld;
    float *recon = t.recon + r * t.ld;
    // r' starts as exp(m' - m); a fully masked segment (m' = -inf,
    // d' = 0) gets exp = +0 and contributes nothing to d.
    RowSoftmaxStats stats;
    stats.max = maxSpan(backend, m_local, t.segments);
    expSpan(backend, m_local, stats.max, recon, t.segments);
    for (int64_t s = 0; s < t.segments; ++s)
        stats.sum += recon[s] * d_local[s];
    for (int64_t s = 0; s < t.segments; ++s)
        recon[s] = stats.sum > 0.0f ? recon[s] / stats.sum : 0.0f;
    return stats;
}

void
halfToFloatScaledScalar(const Half *src, float *dst, int64_t n,
                        const float *scales, int64_t group)
{
    for (int64_t k0 = 0, g = 0; k0 < n; k0 += group, ++g) {
        const int64_t k1 = std::min(n, k0 + group);
        for (int64_t k = k0; k < k1; ++k)
            dst[k] = src[k].toFloat() * scales[g];
    }
}

/**
 * The scale and mask of an LS tile, over x in place by epilogueTile:
 * the bodies that do not fold them into their loads run this first.
 */
void
lsEpilogue(SimdBackend backend, const LsTile &t)
{
    if (t.scale == 1.0f && !t.causal)
        return;
    EpilogueTile epilogue;
    epilogue.acc = t.x;
    epilogue.rows = t.rows;
    epilogue.width = t.width;
    epilogue.ld = t.ld;
    epilogue.scale = t.scale;
    epilogue.causal = t.causal;
    epilogue.diagonal = t.diagonal;
    epilogueTile(backend, epilogue);
}

/** Columns [0, live) of row i of t are not masked. */
int64_t
liveColumns(const EpilogueTile &t, int64_t i)
{
    return t.causal ? std::clamp<int64_t>(t.diagonal + i + 1, 0, t.width)
                    : t.width;
}

void
epilogueRows(SimdBackend backend, const EpilogueTile &t)
{
    for (int64_t i = 0; i < t.rows; ++i) {
        float *row = t.acc + i * t.ld;
        const int64_t live = liveColumns(t, i);
        if (t.scale != 1.0f) {
            for (int64_t j = 0; j < live; ++j)
                row[j] *= t.scale;
        }
        for (int64_t j = live; j < t.width; ++j)
            row[j] = -kInf;
        if (t.bias != nullptr) {
            for (int64_t j = 0; j < t.width; ++j)
                row[j] += t.bias[j];
        }
        if (t.gelu)
            geluChunks(backend, row, row, t.width);
        if (t.out != nullptr)
            floatToHalf(row, t.out + i * t.outLd, t.width);
    }
}

/**
 * Row i of t: the residual sum, stored rounded to fp16 in out, then
 * its LayerNorm over those stored sums, in 64-column chunks (the
 * chains run across them unchanged).
 */
void
addNormRow(const AddNormRows &t, int64_t i)
{
    constexpr int64_t kChunk = 64;
    float s[kChunk], addend[kChunk];
    const int64_t w = t.width;
    Half *out = t.out + i * w;
    float mean = 0.0f;
    for (int64_t j0 = 0; j0 < w; j0 += kChunk) {
        const int64_t n = std::min(kChunk, w - j0);
        halfToFloat(t.a + i * w + j0, s, n);
        halfToFloat(t.b + i * w + j0, addend, n);
        for (int64_t j = 0; j < n; ++j)
            s[j] += addend[j];
        floatToHalf(s, out + j0, n);
        halfToFloat(out + j0, s, n);
        for (int64_t j = 0; j < n; ++j)
            mean += s[j];
    }
    mean /= float(w);
    float var = 0.0f;
    for (int64_t j0 = 0; j0 < w; j0 += kChunk) {
        const int64_t n = std::min(kChunk, w - j0);
        halfToFloat(out + j0, s, n);
        for (int64_t j = 0; j < n; ++j) {
            const float d = s[j] - mean;
            var += d * d;
        }
    }
    var /= float(w);
    const float inv_std = 1.0f / std::sqrt(var + t.epsilon);
    for (int64_t j0 = 0; j0 < w; j0 += kChunk) {
        const int64_t n = std::min(kChunk, w - j0);
        halfToFloat(out + j0, s, n);
        for (int64_t j = 0; j < n; ++j) {
            const float norm = (s[j] - mean) * inv_std;
            s[j] = norm * t.gamma[j0 + j] + t.beta[j0 + j];
        }
        floatToHalf(s, out + j0, n);
    }
}

#if defined(SOFTREC_SIMD_X86)

/** laneMax over eight lanes by the fixed tree of the scalar path. */
inline __attribute__((always_inline, target("avx2,f16c"))) float
maxLanes8(__m256 lanes)
{
    const __m128 a = _mm_max_ps(_mm256_extractf128_ps(lanes, 1),
                                _mm256_castps256_ps128(lanes));
    const __m128 b = _mm_max_ps(_mm_movehl_ps(a, a), a);
    return _mm_cvtss_f32(
        _mm_max_ss(_mm_shuffle_ps(b, b, _MM_SHUFFLE(1, 1, 1, 1)), b));
}

/** The sum of eight lanes by the fixed tree of the scalar path. */
inline __attribute__((always_inline, target("avx2,f16c"))) float
sumLanes8(__m256 lanes)
{
    const __m128 a = _mm_add_ps(_mm256_castps256_ps128(lanes),
                                _mm256_extractf128_ps(lanes, 1));
    const __m128 b = _mm_add_ps(a, _mm_movehl_ps(a, a));
    return _mm_cvtss_f32(
        _mm_add_ss(b, _mm_shuffle_ps(b, b, _MM_SHUFFLE(1, 1, 1, 1))));
}

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
sweepAvx2(const LsTile &t, const float *x0, float given_shift, float *out)
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
                const float *x = x0 + r * t.ld + j0;
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
                t.localMax[r * t.mdLd + sv] = maxLanes8(lanes);
            }
        }
    }
    if constexpr (kMode != Sweep::Max) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                const int64_t w = std::min(seg, t.width - j0);
                const float *x = x0 + r * t.ld + j0;
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
                const float sum = sumLanes8(lanes);
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
    sweepAvx2<Sweep::Ls>(t, t.x, 0.0f, nullptr);
    _mm256_zeroupper();
}

__attribute__((target("avx2,f16c"))) void
expSpanAvx2(const LsTile &span, const float *x, float shift, float *out)
{
    sweepAvx2<Sweep::Exp>(span, x, shift, out);
    _mm256_zeroupper();
}

__attribute__((target("avx2,f16c"))) void
maxSpanAvx2(const LsTile &span, const float *x)
{
    sweepAvx2<Sweep::Max>(span, x, 0.0f, nullptr);
    _mm256_zeroupper();
}

__attribute__((target("avx2,f16c"))) void
halfToFloatScaledAvx2(const Half *src, float *dst, int64_t n,
                      const float *scales, int64_t group)
{
    for (int64_t k0 = 0, g = 0; k0 < n; k0 += group, ++g) {
        const int64_t k1 = std::min(n, k0 + group);
        const __m256 scale = _mm256_set1_ps(scales[g]);
        int64_t k = k0;
        for (; k + kLanes <= k1; k += kLanes) {
            __m128i h;
            std::memcpy(&h, static_cast<const void *>(src + k), sizeof(h));
            _mm256_storeu_ps(dst + k, _mm256_mul_ps(_mm256_cvtph_ps(h), scale));
        }
        for (; k < k1; ++k)
            dst[k] = src[k].toFloat() * scales[g];
    }
    _mm256_zeroupper();
}

// GCC 12's unmasked AVX-512 intrinsics pass _mm512_undefined_ps() as
// the merge source of an all-ones mask, which -Wmaybe-uninitialized
// and -Wuninitialized report once they are inlined here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

// The AVX-512 path runs the same exp 16 lanes wide and keeps the
// eight-lane order of every max and sum. It has two bodies: the
// 16 x 16 LS block (lsBlock16), which a T = 16 tile runs over its whole
// 16-row blocks of whole segments, and sweepAvx512, the zmm twin of
// sweepAvx2, for every other tile shape and for the spans. Like the
// AVX2 entry points, each entry point clears the upper register state
// before returning.

/**
 * exp of 16 lanes with expScalar's bits. The operations up to p are
 * expScalar's; 2^n is applied by VSCALEFPS, which for every z in
 * [kExpMin, kExpMax] gives the exact, normal result that adding n to
 * p's exponent gives. Its zero mask is expScalar's z < kExpMin select.
 * A NaN z needs no select: every NaN made from it carries its payload
 * (z is a quiet NaN, the result of a subtract), so the result is z
 * itself. A last select makes z > kExpMax +inf.
 */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m512
expZmm(__m512 z)
{
    const __m512 magic = _mm512_set1_ps(kRoundMagic);
    const __m512 nf = _mm512_sub_ps(
        _mm512_add_ps(_mm512_mul_ps(z, _mm512_set1_ps(kLog2e)), magic),
        magic);
    const __m512 rz = _mm512_sub_ps(
        _mm512_sub_ps(z, _mm512_mul_ps(nf, _mm512_set1_ps(kLn2Hi))),
        _mm512_mul_ps(nf, _mm512_set1_ps(kLn2Lo)));
    __m512 p = _mm512_set1_ps(kC6);
    p = _mm512_add_ps(_mm512_mul_ps(p, rz), _mm512_set1_ps(kC5));
    p = _mm512_add_ps(_mm512_mul_ps(p, rz), _mm512_set1_ps(kC4));
    p = _mm512_add_ps(_mm512_mul_ps(p, rz), _mm512_set1_ps(kC3));
    p = _mm512_add_ps(_mm512_mul_ps(p, rz), _mm512_set1_ps(kC2));
    p = _mm512_add_ps(_mm512_mul_ps(p, rz), _mm512_set1_ps(1.0f));
    p = _mm512_add_ps(_mm512_mul_ps(p, rz), _mm512_set1_ps(1.0f));
    const __m512 e = _mm512_maskz_scalef_ps(
        _mm512_cmp_ps_mask(z, _mm512_set1_ps(kExpMin), _CMP_NLT_UQ), p, nf);
    return _mm512_mask_mov_ps(
        e, _mm512_cmp_ps_mask(z, _mm512_set1_ps(kExpMax), _CMP_GT_OQ),
        _mm512_set1_ps(kInf));
}

/** Lanes 8-15 of v. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m256
upperHalf(__m512 v)
{
    return _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
}

/** The first `live` (0..16) lanes. */
inline __mmask16
laneMask(int64_t live)
{
    return __mmask16((1u << live) - 1u);
}

/** Transposes 16 rows of 16 floats: lane c of v[r] moves to lane r of v[c]. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
transpose16(__m512 *v)
{
    __m512 t[16];
#pragma GCC unroll 8
    for (int i = 0; i < 16; i += 2) {
        t[i] = _mm512_unpacklo_ps(v[i], v[i + 1]);
        t[i + 1] = _mm512_unpackhi_ps(v[i], v[i + 1]);
    }
#pragma GCC unroll 4
    for (int i = 0; i < 16; i += 4) {
        v[i] = _mm512_shuffle_ps(t[i], t[i + 2], 0x44);
        v[i + 1] = _mm512_shuffle_ps(t[i], t[i + 2], 0xee);
        v[i + 2] = _mm512_shuffle_ps(t[i + 1], t[i + 3], 0x44);
        v[i + 3] = _mm512_shuffle_ps(t[i + 1], t[i + 3], 0xee);
    }
#pragma GCC unroll 4
    for (int i = 0; i < 4; ++i) {
        t[i] = _mm512_shuffle_f32x4(v[i], v[i + 4], 0x88);
        t[i + 4] = _mm512_shuffle_f32x4(v[i], v[i + 4], 0xdd);
        t[i + 8] = _mm512_shuffle_f32x4(v[i + 8], v[i + 12], 0x88);
        t[i + 12] = _mm512_shuffle_f32x4(v[i + 8], v[i + 12], 0xdd);
    }
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
        v[i] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0x88);
        v[i + 8] = _mm512_shuffle_f32x4(t[i], t[i + 8], 0xdd);
    }
}

// A lambda does not take its enclosing function's target, so the
// lambdas of the 16-row bodies name it themselves.
#define SOFTREC_ZMM_LAMBDA \
    __attribute__((always_inline, target("avx512f,avx2,f16c")))

/**
 * The tree that combines 16 rows of 16 lanes into one value per row,
 * in the eight-lane order: lane l is op(x_l, x_(l + 8)), and the lanes
 * combine as op(op(op(l0, l4), op(l2, l6)), op(op(l1, l5), op(l3, l7))),
 * where op(a, b) is laneMax(a, b) (max_ps(b, a)) or a + b. Two rows
 * share each vector after the first step, four after the second, and
 * so on, so the 16 rows take 30 shuffles where a transpose takes 64.
 * row(i) makes row i's vector; the rows are made in order 0..15 and
 * each pair is folded in as soon as it is made, so no more than a
 * handful of vectors are live. Lane i of the result is row i.
 */
template <bool kMax, typename Row>
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m512
reduceRows16(Row &&row)
{
    const auto op = [&](__m512 a, __m512 b) SOFTREC_ZMM_LAMBDA {
        return kMax ? _mm512_max_ps(b, a) : _mm512_add_ps(a, b);
    };
    __m512 quad[2];
#pragma GCC unroll 2
    for (int half = 0; half < 2; ++half) {
        __m512 pair[2];
#pragma GCC unroll 2
        for (int q = 0; q < 2; ++q) {
            __m512 two[2];
#pragma GCC unroll 2
            for (int k = 0; k < 2; ++k) {
                const __m512 a = row(8 * half + 4 * q + 2 * k);
                const __m512 b = row(8 * half + 4 * q + 2 * k + 1);
                // [a lanes 0-7 | b lanes 0-7] op [a 8-15 | b 8-15]:
                // row a's eight lanes, then row b's.
                two[k] = op(_mm512_shuffle_f32x4(a, b, 0x44),
                            _mm512_shuffle_f32x4(a, b, 0xee));
            }
            // Lanes l and l + 4 of each row: four rows of four lanes.
            pair[q] = op(_mm512_shuffle_f32x4(two[0], two[1], 0x88),
                         _mm512_shuffle_f32x4(two[0], two[1], 0xdd));
        }
        // (l0, l2) and (l1, l3) within each 128-bit row group.
        quad[half] = op(_mm512_shuffle_ps(pair[0], pair[1], 0x44),
                        _mm512_shuffle_ps(pair[0], pair[1], 0xee));
    }
    // Lane 4j + q now holds row 4q + j.
    const __m512 rows = op(_mm512_shuffle_ps(quad[0], quad[1], 0x88),
                           _mm512_shuffle_ps(quad[0], quad[1], 0xdd));
    return _mm512_permutexvar_ps(
        _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11,
                          15),
        rows);
}

/**
 * The LS of rows [r, r + 16) of the 16-wide segment sv, each row one
 * vector. The maxima and the sums are reduceRows16 trees; the exps run
 * a row at a time between them, from the row reloaded and its max
 * broadcast, and are narrowed and stored as they are made. Only the
 * exp's constants and a few tree vectors stay live, so nothing spills.
 */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
lsBlock16(const LsTile &t, int64_t r, int64_t sv)
{
    const int64_t j0 = sv * 16;
    const float *x = t.x + r * t.ld + j0;
    const __m512 neg_inf = _mm512_set1_ps(-kInf);
    // Columns [0, kept(i)) of row i escape the causal mask.
    const auto kept = [&](int i) {
        return t.causal ? std::clamp<int64_t>(t.diagonal + r + i + 1 - j0,
                                              0, 16)
                        : 16;
    };
    // Row i as the epilogue leaves it: scaled, then masked.
    const auto scores = [&](int i) SOFTREC_ZMM_LAMBDA {
        __m512 v = _mm512_loadu_ps(x + i * t.ld);
        if (t.scale != 1.0f)
            v = _mm512_mul_ps(v, _mm512_set1_ps(t.scale));
        if (t.causal)
            v = _mm512_mask_mov_ps(neg_inf, laneMask(kept(i)), v);
        return v;
    };
    // laneMax(-inf, x) = max_ps(x, -inf) starts each lane, and turns a
    // NaN into -inf, which later steps skip as they would the NaN.
    const __m512 max = reduceRows16<true>([&](int i) SOFTREC_ZMM_LAMBDA {
        return _mm512_max_ps(scores(i), neg_inf);
    });
    // m' and d' are columns of the row-major [rows, mdLd] outputs: one
    // scatter each. Each row's max is broadcast back from m', a load
    // where a lane permute would compete with the exps for a port.
    float *m_out = t.localMax + r * t.mdLd + sv;
    float *d_out = t.localSum + r * t.mdLd + sv;
    const __m512i md_rows = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14,
                          15),
        _mm512_set1_epi32(int(t.mdLd)));
    _mm512_i32scatter_ps(m_out, md_rows, max, 4);
    // A fully masked row (max -inf) gets +0 exps and a +0 sum. Lane
    // l's sum is e_l + e_(l + 8), which equals (+0 + e_l) + e_(l + 8)
    // since no exp is -0.
    const __mmask16 live = _mm512_cmp_ps_mask(max, neg_inf, _CMP_NEQ_OQ);
    const __m512 sum = reduceRows16<false>([&](int i) SOFTREC_ZMM_LAMBDA {
        const __m512 e = _mm512_maskz_mov_ps(
            __mmask16(-int((live >> i) & 1)),
            expZmm(_mm512_sub_ps(scores(i),
                                        _mm512_set1_ps(m_out[i * t.mdLd]))));
        const __m256i h = _mm512_cvtps_ph(
            e, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        // Half is a trivially-copyable wire format; the void cast
        // mutes -Wclass-memaccess.
        std::memcpy(static_cast<void *>(t.xPrime + (r + i) * t.xPrimeLd + j0),
                    &h, sizeof(h));
        return e;
    });
    _mm512_i32scatter_ps(d_out, md_rows, sum, 4);
    // A row's sum is NaN exactly when one of its exps is; it narrows
    // again on the scalar path (see sweepAvx2).
    for (__mmask16 nan = _mm512_cmp_ps_mask(sum, sum, _CMP_UNORD_Q);
         nan != 0; nan = __mmask16(nan & (nan - 1))) {
        const int i = __builtin_ctz(nan);
        Half *xp = t.xPrime + (r + i) * t.xPrimeLd + j0;
        for (int j = 0; j < 16; ++j) {
            float v = x[i * t.ld + j];
            if (t.scale != 1.0f)
                v *= t.scale;
            if (j >= kept(i))
                v = -kInf;
            xp[j] = Half(expScalar(v - m_out[i * t.mdLd]));
        }
    }
}

/**
 * The max of x[0, w) in two 16-lane chains: the max of floats that are
 * not NaN is the same value in any order, and only a zero max has two
 * bit patterns (+0 and -0), so a zero max is taken again in the
 * eight-lane order, which picks the sign.
 */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) float
segmentMaxAvx512(const float *x, int64_t w)
{
    const __m512 neg_inf = _mm512_set1_ps(-kInf);
    __m512 m0 = neg_inf, m1 = neg_inf;
    int64_t i = 0;
    for (; i + 32 <= w; i += 32) {
        m0 = _mm512_max_ps(_mm512_loadu_ps(x + i), m0);
        m1 = _mm512_max_ps(_mm512_loadu_ps(x + i + 16), m1);
    }
    if (i + 16 <= w) {
        m0 = _mm512_max_ps(_mm512_loadu_ps(x + i), m0);
        i += 16;
    }
    if (i < w) {
        m1 = _mm512_max_ps(
            _mm512_mask_loadu_ps(neg_inf, laneMask(w - i), x + i), m1);
    }
    m0 = _mm512_max_ps(m1, m0);
    const float max =
        maxLanes8(_mm256_max_ps(upperHalf(m0), _mm512_castps512_ps256(m0)));
    return max == 0.0f ? segmentMaxScalar(x, w) : max;
}

/**
 * sweepAvx2 with 16-lane vectors. The exps run 16 wide; each sum adds
 * a vector's lower eight lanes and then its upper eight to one 8-lane
 * accumulator, which is sweepAvx2's order. Each segment's max is
 * segmentMaxAvx512's.
 */
template <Sweep kMode>
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
sweepAvx512(const LsTile &t, const float *x0, float given_shift,
            float *out)
{
    constexpr bool kSpan = kMode != Sweep::Ls;
    const int64_t rows = kSpan ? 1 : t.rows;
    const int64_t seg = kSpan ? t.width : t.subVector;
    if constexpr (kMode != Sweep::Exp) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                t.localMax[r * t.mdLd + sv] = segmentMaxAvx512(
                    x0 + r * t.ld + j0, std::min(seg, t.width - j0));
            }
        }
    }
    if constexpr (kMode != Sweep::Max) {
        for (int64_t r = 0; r < rows; ++r) {
            for (int64_t j0 = 0, sv = 0; j0 < t.width; j0 += seg, ++sv) {
                const int64_t w = std::min(seg, t.width - j0);
                const float *x = x0 + r * t.ld + j0;
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
                const __m512 vshift = _mm512_set1_ps(shift);
                __m256 lanes = _mm256_setzero_ps();
                for (int64_t i = 0; i < w; i += 16) {
                    // A ragged tail loads and stores only its live
                    // lanes and zeroes the dead ones before the sum.
                    const int64_t live = w - i < 16 ? w - i : 16;
                    const __mmask16 mask = laneMask(live);
                    __m512 e = expZmm(_mm512_sub_ps(
                        live == 16 ? _mm512_loadu_ps(x + i)
                                   : _mm512_maskz_loadu_ps(mask, x + i),
                        vshift));
                    if (live < 16)
                        e = _mm512_maskz_mov_ps(mask, e);
                    if constexpr (kMode == Sweep::Exp) {
                        if (live == 16)
                            _mm512_storeu_ps(out + o + i, e);
                        else
                            _mm512_mask_storeu_ps(out + o + i, mask, e);
                    } else {
                        const __m256i h = _mm512_cvtps_ph(
                            e, _MM_FROUND_TO_NEAREST_INT |
                                   _MM_FROUND_NO_EXC);
                        std::memcpy(static_cast<void *>(t.xPrime + o + i),
                                    &h, size_t(live) * sizeof(Half));
                    }
                    lanes = _mm256_add_ps(
                        _mm256_add_ps(lanes, _mm512_castps512_ps256(e)),
                        upperHalf(e));
                }
                const float sum = sumLanes8(lanes);
                t.localSum[r * t.mdLd + sv] = sum;
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
}

/** The rows [r0, r0 + rows) and columns [j0, ..) of t, j0 a segment start. */
LsTile
subTile(const LsTile &t, int64_t r0, int64_t rows, int64_t j0)
{
    LsTile sub = t;
    sub.x += r0 * t.ld + j0;
    sub.rows = rows;
    sub.width -= j0;
    sub.diagonal += r0 - j0;
    sub.xPrime += r0 * t.xPrimeLd + j0;
    sub.localMax += r0 * t.mdLd + j0 / t.subVector;
    sub.localSum += r0 * t.mdLd + j0 / t.subVector;
    return sub;
}

__attribute__((target("avx512f,avx2,f16c"))) void
localSoftmaxTileAvx512(const LsTile &t)
{
    // At T = 16 the whole 16-row blocks of whole segments run
    // lsBlock16, which scales and masks as it loads; the sweep takes
    // the ragged last segment of those rows and every row below them,
    // after the epilogue pass over them.
    const int64_t rows16 = t.subVector == 16 ? t.rows - t.rows % 16 : 0;
    const int64_t width16 = t.width - t.width % 16;
    for (int64_t r = 0; r < rows16; r += 16) {
        for (int64_t sv = 0; sv < width16 / 16; ++sv)
            lsBlock16(t, r, sv);
    }
    const auto sweep = [](const LsTile &sub) SOFTREC_ZMM_LAMBDA {
        lsEpilogue(SimdBackend::Avx512, sub);
        sweepAvx512<Sweep::Ls>(sub, sub.x, 0.0f, nullptr);
    };
    if (rows16 > 0 && width16 < t.width)
        sweep(subTile(t, 0, rows16, width16));
    if (rows16 < t.rows)
        sweep(subTile(t, rows16, t.rows - rows16, 0));
    _mm256_zeroupper();
}

__attribute__((target("avx512f,avx2,f16c"))) void
expSpanAvx512(const LsTile &span, const float *x, float shift, float *out)
{
    sweepAvx512<Sweep::Exp>(span, x, shift, out);
    _mm256_zeroupper();
}

__attribute__((target("avx512f,avx2,f16c"))) float
maxSpanAvx512(const float *x, int64_t n)
{
    const float max = segmentMaxAvx512(x, n);
    _mm256_zeroupper();
    return max;
}

/** 16 halves at src, widened. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m512
widen16(const Half *src)
{
    __m256i h;
    std::memcpy(&h, static_cast<const void *>(src), sizeof(h));
    return _mm512_cvtph_ps(h);
}

/** The first n (1..16) halves at src widened, the other lanes +0. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m512
widenFirst(const Half *src, int64_t n)
{
    if (n == 16)
        return widen16(src);
    __m256i h = _mm256_setzero_si256();
    std::memcpy(&h, static_cast<const void *>(src), size_t(n) * sizeof(Half));
    return _mm512_cvtph_ps(h);
}

/** Stores the first n (1..16) halves of h at dst. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
storeFirst(Half *dst, __m256i h, int64_t n)
{
    // Half is a trivially-copyable wire format; the void cast mutes
    // -Wclass-memaccess. A whole vector is one fixed-size store.
    if (n == 16)
        std::memcpy(static_cast<void *>(dst), &h, sizeof(h));
    else
        std::memcpy(static_cast<void *>(dst), &h, size_t(n) * sizeof(Half));
}

/**
 * Narrows v and stores its first n (1..16) lanes at dst. VCVTPS2PH
 * keeps NaN payloads that Half::fromFloat canonicalizes, so lanes
 * holding a NaN are narrowed again on the scalar path, as floatToHalf
 * does; every other value narrows to the same bits either way.
 */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
narrowFirst(Half *dst, __m512 v, int64_t n)
{
    storeFirst(
        dst, _mm512_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC),
        n);
    if ((_mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q) & laneMask(n)) != 0) {
        alignas(64) float lanes[16];
        _mm512_store_ps(lanes, v);
        floatToHalfScalar(lanes, dst, n);
    }
}

/** geluChunks of 16 lanes: the same operations, lane by lane. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m512
geluZmm(__m512 x)
{
    const __m512 cubic = _mm512_mul_ps(
        _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(kGeluCubic), x), x), x);
    const __m512 inner =
        _mm512_mul_ps(_mm512_set1_ps(kSqrt2OverPi), _mm512_add_ps(x, cubic));
    // tanhSpan: exp(2y - 0), as expSpan with a zero shift, then
    // 1 - 2 / (e + 1).
    const __m512 e = expZmm(
        _mm512_sub_ps(_mm512_add_ps(inner, inner), _mm512_setzero_ps()));
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 tanh = _mm512_sub_ps(
        one, _mm512_div_ps(_mm512_set1_ps(2.0f), _mm512_add_ps(e, one)));
    return _mm512_mul_ps(_mm512_mul_ps(_mm512_set1_ps(0.5f), x),
                         _mm512_add_ps(one, tanh));
}

__attribute__((target("avx512f,avx2,f16c"))) void
geluSpanAvx512(const float *x, float *out, int64_t n)
{
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
        _mm512_storeu_ps(out + i, geluZmm(_mm512_loadu_ps(x + i)));
    if (i < n) {
        const __mmask16 mask = laneMask(n - i);
        _mm512_mask_storeu_ps(out + i, mask,
                              geluZmm(_mm512_maskz_loadu_ps(mask, x + i)));
    }
    _mm256_zeroupper();
}

/**
 * softmaxRowSpans in three passes: widen and take the max (two 16-lane
 * chains, as sweepAvx512 takes it, a zero max again in the eight-lane
 * order), the exp sweep, then divide and narrow. Every output is a
 * finite value in [0, 1], so the narrowing needs no NaN redo.
 */
__attribute__((target("avx512f,avx2,f16c"))) RowSoftmaxStats
softmaxRowAvx512(const LsTile &span, const Half *in, float *row, Half *out,
                 int64_t n)
{
    const __m512 neg_inf = _mm512_set1_ps(-kInf);
    __m512 m0 = neg_inf, m1 = neg_inf;
    int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m512 x0 = widen16(in + i);
        const __m512 x1 = widen16(in + i + 16);
        _mm512_storeu_ps(row + i, x0);
        _mm512_storeu_ps(row + i + 16, x1);
        m0 = _mm512_max_ps(x0, m0);
        m1 = _mm512_max_ps(x1, m1);
    }
    for (; i < n; i += 16) {
        const int64_t live = std::min<int64_t>(16, n - i);
        const __mmask16 mask = laneMask(live);
        const __m512 x = widenFirst(in + i, live);
        _mm512_mask_storeu_ps(row + i, mask, x);
        m0 = _mm512_max_ps(_mm512_mask_mov_ps(neg_inf, mask, x), m0);
    }
    m0 = _mm512_max_ps(m1, m0);
    RowSoftmaxStats stats;
    stats.max =
        maxLanes8(_mm256_max_ps(upperHalf(m0), _mm512_castps512_ps256(m0)));
    if (stats.max == 0.0f)
        stats.max = segmentMaxScalar(row, n);
    sweepAvx512<Sweep::Exp>(span, row, stats.max, row);
    stats.sum = *span.localSum;
    if (stats.sum > 0.0f) {
        const __m512 d = _mm512_set1_ps(stats.sum);
        for (i = 0; i < n; i += 16) {
            // The exp sweep has just stored the row; a whole vector
            // loads unmasked, which can take its data from that store.
            const int64_t live = std::min<int64_t>(16, n - i);
            const __m512 e =
                live == 16 ? _mm512_loadu_ps(row + i)
                           : _mm512_maskz_loadu_ps(laneMask(live), row + i);
            storeFirst(out + i,
                       _mm512_cvtps_ph(_mm512_div_ps(e, d),
                                       _MM_FROUND_TO_NEAREST_INT |
                                           _MM_FROUND_NO_EXC),
                       live);
        }
    } else {
        std::fill(out, out + n, Half());
    }
    _mm256_zeroupper();
    return stats;
}

/**
 * The epilogue of columns [j, j + n) of one tile row: kWhole is a
 * whole vector left of the causal mask (n = 16, every lane kept);
 * otherwise only the `kept` lanes escape the mask.
 */
template <bool kGelu, bool kWhole>
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
epilogueVector(const EpilogueTile &t, float *row, Half *out, int64_t j,
               int64_t n, __mmask16 kept)
{
    const __mmask16 mask = laneMask(n);
    // A masked load cannot take its data from a store still in flight
    // (the GEMM tile has just written acc), so whole vectors load
    // unmasked.
    __m512 v = kWhole ? _mm512_loadu_ps(row + j)
                      : _mm512_maskz_loadu_ps(mask, row + j);
    if (t.scale != 1.0f) {
        const __m512 scale = _mm512_set1_ps(t.scale);
        v = kWhole ? _mm512_mul_ps(v, scale)
                   : _mm512_mask_mul_ps(v, kept, v, scale);
    }
    if (!kWhole && t.causal)
        v = _mm512_mask_mov_ps(_mm512_set1_ps(-kInf), kept, v);
    if (t.bias != nullptr) {
        v = _mm512_add_ps(v, kWhole ? _mm512_loadu_ps(t.bias + j)
                                    : _mm512_maskz_loadu_ps(mask, t.bias + j));
    }
    if (kGelu)
        v = geluZmm(v);
    if (out != nullptr)
        narrowFirst(out + j, v, kWhole ? 16 : n);
    else if (kWhole)
        _mm512_storeu_ps(row + j, v);
    else
        _mm512_mask_storeu_ps(row + j, mask, v);
}

/**
 * epilogueRows in one pass per row: each 16-column vector is loaded
 * once, runs every configured step and is stored as fp16 (or back to
 * acc). A row's vectors left of the causal mask take the unmasked
 * body; only the one the mask cuts and those past it pay for masks.
 * GeLU is a template flag, so the other epilogues keep their loop
 * free of its registers and constants.
 */
template <bool kGelu>
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
epilogueRowsAvx512(const EpilogueTile &t)
{
    for (int64_t i = 0; i < t.rows; ++i) {
        float *row = t.acc + i * t.ld;
        Half *out = t.out != nullptr ? t.out + i * t.outLd : nullptr;
        const int64_t live = liveColumns(t, i);
        int64_t j = 0;
        for (; j + 16 <= live; j += 16)
            epilogueVector<kGelu, true>(t, row, out, j, 16, 0xffff);
        for (; j < t.width; j += 16) {
            const int64_t n = std::min<int64_t>(16, t.width - j);
            epilogueVector<kGelu, false>(
                t, row, out, j, n,
                laneMask(std::clamp<int64_t>(live - j, 0, n)));
        }
    }
}

__attribute__((target("avx512f,avx2,f16c"))) void
epilogueAvx512(const EpilogueTile &tile)
{
    // A local copy: the stores cannot alias it, so its fields stay in
    // registers.
    const EpilogueTile t = tile;
    if (t.gelu)
        epilogueRowsAvx512<true>(t);
    else
        epilogueRowsAvx512<false>(t);
    _mm256_zeroupper();
}

/** The 16 lanes of v[0, n) added one after another onto acc. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m512
addColumns(__m512 acc, const __m512 *v, int64_t n)
{
    if (n == 16) {
#pragma GCC unroll 16
        for (int c = 0; c < 16; ++c)
            acc = _mm512_add_ps(acc, v[c]);
        return acc;
    }
    for (int64_t c = 0; c < n; ++c)
        acc = _mm512_add_ps(acc, v[c]);
    return acc;
}

/** acc + (v[c] - mean)^2 for c in [0, n), one after another. */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) __m512
addSquares(__m512 acc, const __m512 *v, __m512 mean, int64_t n)
{
    if (n == 16) {
#pragma GCC unroll 16
        for (int c = 0; c < 16; ++c) {
            const __m512 d = _mm512_sub_ps(v[c], mean);
            acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
        }
        return acc;
    }
    for (int64_t c = 0; c < n; ++c) {
        const __m512 d = _mm512_sub_ps(v[c], mean);
        acc = _mm512_add_ps(acc, _mm512_mul_ps(d, d));
    }
    return acc;
}

/**
 * irRow for rows [r0, r0 + nr), nr <= 16. Each row's max is
 * segmentMaxAvx512's; its exps are made and stored a row at a time, 16
 * segments wide, together with their products with d'. Those products
 * are transposed 16 x 16, so lane i runs row i's chain segment by
 * segment, all 16 chains at once. The divides run a row at a time,
 * 16 segments wide.
 */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
irBlock16(const IrRows &t, int64_t r0, int64_t nr, RowSoftmaxStats *stats)
{
    const int64_t n = t.segments;
    const float neg_inf = -kInf;
    alignas(64) float maxima[16];
    for (int64_t i = 0; i < nr; ++i)
        maxima[i] = segmentMaxAvx512(t.localMax + (r0 + i) * t.ld, n);
    __m512 d = _mm512_setzero_ps();
    __m512 products[16];
    for (int64_t c0 = 0; c0 < n; c0 += 16) {
        const int64_t w = std::min<int64_t>(16, n - c0);
        const __mmask16 mask = laneMask(w);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            if (i >= nr) {
                products[i] = _mm512_setzero_ps();
                continue;
            }
            const int64_t at = (r0 + i) * t.ld + c0;
            // expSpan's fully masked row: +0 exps.
            __m512 e = _mm512_setzero_ps();
            if (maxima[i] != neg_inf) {
                e = expZmm(
                    _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, t.localMax + at),
                                  _mm512_set1_ps(maxima[i])));
            }
            _mm512_mask_storeu_ps(t.recon + at, mask, e);
            products[i] = _mm512_mul_ps(
                e, _mm512_maskz_loadu_ps(mask, t.localSum + at));
        }
        transpose16(products);
        d = addColumns(d, products, w);
    }
    alignas(64) float sums[16];
    _mm512_store_ps(sums, d);
    for (int64_t i = 0; i < nr; ++i) {
        stats[i].max = maxima[i];
        stats[i].sum = sums[i];
        float *recon = t.recon + (r0 + i) * t.ld;
        if (!(sums[i] > 0.0f)) {
            std::fill(recon, recon + n, 0.0f);
            continue;
        }
        const __m512 di = _mm512_set1_ps(sums[i]);
        for (int64_t c0 = 0; c0 < n; c0 += 16) {
            const __mmask16 mask = laneMask(std::min<int64_t>(16, n - c0));
            _mm512_mask_storeu_ps(
                recon + c0, mask,
                _mm512_div_ps(_mm512_maskz_loadu_ps(mask, recon + c0), di));
        }
    }
}

__attribute__((target("avx512f,avx2,f16c"))) void
reconstructionFactorsAvx512(const IrRows &t, RowSoftmaxStats *stats)
{
    for (int64_t r0 = 0; r0 < t.rows; r0 += 16)
        irBlock16(t, r0, std::min<int64_t>(16, t.rows - r0), stats + r0);
    _mm256_zeroupper();
}

__attribute__((target("avx512f,avx2,f16c"))) void
halfToFloatScaledAvx512(const Half *src, float *dst, int64_t n,
                        const float *scales, int64_t group)
{
    for (int64_t k0 = 0, g = 0; k0 < n; k0 += group, ++g) {
        const int64_t k1 = std::min(n, k0 + group);
        const __m512 scale = _mm512_set1_ps(scales[g]);
        int64_t k = k0;
        for (; k + 16 <= k1; k += 16)
            _mm512_storeu_ps(dst + k, _mm512_mul_ps(widen16(src + k), scale));
        if (k < k1) {
            _mm512_mask_storeu_ps(
                dst + k, laneMask(k1 - k),
                _mm512_mul_ps(widenFirst(src + k, k1 - k), scale));
        }
    }
    _mm256_zeroupper();
}

/**
 * addNormRow for rows [r0, r0 + nr), nr <= 16, one row per lane. The
 * first pass stores each fp16-rounded sum to out, which holds them
 * until the last pass overwrites them; the first two passes transpose
 * each 16 x 16 block so that lane i runs row i's mean and variance
 * chains column by column, in the row loop's order.
 */
inline __attribute__((always_inline, target("avx512f,avx2,f16c"))) void
addNormBlock16(const AddNormRows &t, int64_t r0, int64_t nr)
{
    const int64_t w = t.width;
    const __m512 zero = _mm512_setzero_ps();
    __m512 v[16];
    __m512 mean = zero;
    for (int64_t c0 = 0; c0 < w; c0 += 16) {
        const int64_t n = std::min<int64_t>(16, w - c0);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i) {
            if (i >= nr) {
                v[i] = zero;
                continue;
            }
            const int64_t at = (r0 + i) * w + c0;
            const __m256i h = _mm512_cvtps_ph(
                _mm512_add_ps(widenFirst(t.a + at, n),
                              widenFirst(t.b + at, n)),
                _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
            storeFirst(t.out + at, h, n);
            v[i] = _mm512_cvtph_ps(h);
        }
        transpose16(v);
        mean = addColumns(mean, v, n);
    }
    const __m512 width = _mm512_set1_ps(float(w));
    mean = _mm512_div_ps(mean, width);
    __m512 var = zero;
    for (int64_t c0 = 0; c0 < w; c0 += 16) {
        const int64_t n = std::min<int64_t>(16, w - c0);
#pragma GCC unroll 16
        for (int i = 0; i < 16; ++i)
            v[i] = i < nr ? widenFirst(t.out + (r0 + i) * w + c0, n) : zero;
        transpose16(v);
        var = addSquares(var, v, mean, n);
    }
    var = _mm512_div_ps(var, width);
    alignas(64) float means[16], vars[16], invs[16];
    _mm512_store_ps(means, mean);
    _mm512_store_ps(vars, var);
    _mm512_store_ps(
        invs, _mm512_div_ps(_mm512_set1_ps(1.0f),
                            _mm512_sqrt_ps(_mm512_add_ps(
                                var, _mm512_set1_ps(t.epsilon)))));
    for (int64_t i = 0; i < nr; ++i) {
        const int64_t r = r0 + i;
        // A non-finite sum makes the mean or the variance non-finite;
        // such rows, and rows whose output holds a NaN, run the row
        // loop, whose NaNs and fp16 sums are the reference.
        bool redo = !std::isfinite(means[i]) || !std::isfinite(vars[i]);
        const __m512 m = _mm512_set1_ps(means[i]);
        const __m512 inv = _mm512_set1_ps(invs[i]);
        for (int64_t c0 = 0; c0 < w && !redo; c0 += 16) {
            const int64_t n = std::min<int64_t>(16, w - c0);
            const __mmask16 mask = laneMask(n);
            Half *out = t.out + r * w + c0;
            const __m512 norm =
                _mm512_mul_ps(_mm512_sub_ps(widenFirst(out, n), m), inv);
            const __m512 y = _mm512_add_ps(
                _mm512_mul_ps(norm, _mm512_maskz_loadu_ps(mask, t.gamma + c0)),
                _mm512_maskz_loadu_ps(mask, t.beta + c0));
            redo = (_mm512_cmp_ps_mask(y, y, _CMP_UNORD_Q) & mask) != 0;
            storeFirst(out,
                       _mm512_cvtps_ph(y, _MM_FROUND_TO_NEAREST_INT |
                                              _MM_FROUND_NO_EXC),
                       n);
        }
        if (redo)
            addNormRow(t, r);
    }
}

__attribute__((target("avx512f,avx2,f16c"))) void
residualLayerNormAvx512(const AddNormRows &t)
{
    for (int64_t r0 = 0; r0 < t.rows; r0 += 16)
        addNormBlock16(t, r0, std::min<int64_t>(16, t.rows - r0));
    _mm256_zeroupper();
}

#pragma GCC diagnostic pop

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
    if (backend == SimdBackend::Avx512) {
        localSoftmaxTileAvx512(tile);
        return;
    }
    if (simdHasAvx2(backend)) {
        lsEpilogue(backend, tile);
        localSoftmaxTileAvx2(tile);
        return;
    }
#endif
    lsEpilogue(backend, tile);
    sweepScalar<Sweep::Ls>(tile, tile.x, 0.0f, nullptr);
}

float
expSpan(SimdBackend backend, const float *x, float shift, float *out,
        int64_t n)
{
    float sum = 0.0f;
    LsTile span;
    setSpan(span, n);
    span.localSum = &sum;
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        expSpanAvx512(span, x, shift, out);
        return sum;
    }
    if (simdHasAvx2(backend)) {
        expSpanAvx2(span, x, shift, out);
        return sum;
    }
#endif
    (void)backend;
    sweepScalar<Sweep::Exp>(span, x, shift, out);
    return sum;
}

float
maxSpan(SimdBackend backend, const float *x, int64_t n)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512)
        return maxSpanAvx512(x, n);
#endif
    float max = -kInf;
    LsTile span;
    setSpan(span, n);
    span.localMax = &max;
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend)) {
        maxSpanAvx2(span, x);
        return max;
    }
#endif
    (void)backend;
    sweepScalar<Sweep::Max>(span, x, 0.0f, nullptr);
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

void
geluSpan(SimdBackend backend, const float *x, float *out, int64_t n)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        geluSpanAvx512(x, out, n);
        return;
    }
#endif
    geluChunks(backend, x, out, n);
}

RowSoftmaxStats
softmaxRow(SimdBackend backend, const Half *in, float *staging, Half *out,
           int64_t n)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        float sum = 0.0f;
        LsTile span;
        setSpan(span, n);
        span.localSum = &sum;
        return softmaxRowAvx512(span, in, staging, out, n);
    }
#endif
    return softmaxRowSpans(backend, in, staging, out, n);
}

void
epilogueTile(SimdBackend backend, const EpilogueTile &tile)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        epilogueAvx512(tile);
        return;
    }
#endif
    epilogueRows(backend, tile);
}

void
reconstructionFactors(SimdBackend backend, const IrRows &rows,
                      RowSoftmaxStats *stats)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        reconstructionFactorsAvx512(rows, stats);
        return;
    }
#endif
    for (int64_t r = 0; r < rows.rows; ++r)
        stats[r] = irRow(backend, rows, r);
}

void
halfToFloatScaled(SimdBackend backend, const Half *src, float *dst,
                  int64_t n, const float *scales, int64_t group)
{
    SOFTREC_ASSERT(group > 0, "GS group width %lld must be positive",
                   (long long)group);
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        halfToFloatScaledAvx512(src, dst, n, scales, group);
        return;
    }
    if (simdHasAvx2(backend)) {
        halfToFloatScaledAvx2(src, dst, n, scales, group);
        return;
    }
#endif
    (void)backend;
    halfToFloatScaledScalar(src, dst, n, scales, group);
}

void
residualLayerNormRows(SimdBackend backend, const AddNormRows &rows)
{
#if defined(SOFTREC_SIMD_X86)
    if (backend == SimdBackend::Avx512) {
        residualLayerNormAvx512(rows);
        return;
    }
#endif
    (void)backend;
    for (int64_t i = 0; i < rows.rows; ++i)
        addNormRow(rows, i);
}

} // namespace softrec
