/**
 * @file
 * Bit-exact binary16 <-> binary32 conversions: the scalar reference
 * pair plus batch span conversions with runtime-dispatched SIMD paths
 * (x86-64 F16C, AArch64 NEON). Every SIMD path must produce the same
 * bits as the scalar path for every input — NaN chunks are redone
 * scalar because hardware converters quiet/preserve NaN payloads
 * differently from the software canonicalization below.
 */

#include "fp16/half.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "fp16/simd_platform.hpp"

namespace softrec {

namespace {

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

} // namespace

uint16_t
Half::fromFloat(float value)
{
    const uint32_t f = floatBits(value);
    const uint32_t sign = (f >> 16) & 0x8000u;
    const uint32_t abs = f & 0x7fffffffu;

    if (abs >= 0x7f800000u) {
        // Inf or NaN; keep a quiet-NaN payload bit for NaNs.
        const uint32_t mantissa = abs > 0x7f800000u ? 0x0200u : 0;
        return uint16_t(sign | 0x7c00u | mantissa);
    }
    if (abs >= 0x477ff000u) {
        // Rounds to a value >= 2^16: overflow to infinity.
        return uint16_t(sign | 0x7c00u);
    }
    if (abs < 0x33000001u) {
        // Rounds to less than half the smallest subnormal: zero.
        return uint16_t(sign);
    }

    int32_t exp = int32_t(abs >> 23) - 127;
    uint32_t mantissa = (abs & 0x007fffffu) | 0x00800000u;

    uint32_t half_bits;
    if (exp < -14) {
        // Subnormal half: shift the mantissa so the exponent is -14.
        const int shift = 13 + (-14 - exp);
        const uint32_t rounded = mantissa >> shift;
        const uint32_t remainder = mantissa & ((1u << shift) - 1);
        const uint32_t halfway = 1u << (shift - 1);
        half_bits = rounded;
        if (remainder > halfway ||
            (remainder == halfway && (rounded & 1u))) {
            ++half_bits;
        }
    } else {
        // Normal half.
        const uint32_t rounded = mantissa >> 13;
        const uint32_t remainder = mantissa & 0x1fffu;
        uint32_t frac = rounded & 0x3ffu;
        uint32_t bexp = uint32_t(exp + 15);
        if (remainder > 0x1000u ||
            (remainder == 0x1000u && (rounded & 1u))) {
            ++frac;
            if (frac == 0x400u) {
                frac = 0;
                ++bexp;
            }
        }
        if (bexp >= 31)
            return uint16_t(sign | 0x7c00u);
        half_bits = (bexp << 10) | frac;
    }
    return uint16_t(sign | half_bits);
}

float
Half::toFloat(uint16_t bits)
{
    const uint32_t sign = uint32_t(bits & 0x8000u) << 16;
    const uint32_t exp = (bits >> 10) & 0x1fu;
    const uint32_t frac = bits & 0x3ffu;

    if (exp == 0x1fu) {
        // Inf / NaN.
        return bitsToFloat(sign | 0x7f800000u | (frac << 13));
    }
    if (exp == 0) {
        if (frac == 0)
            return bitsToFloat(sign);
        // Subnormal: normalize into float.
        int e = -1;
        uint32_t m = frac;
        do {
            ++e;
            m <<= 1;
        } while ((m & 0x400u) == 0);
        const uint32_t fexp = uint32_t(127 - 15 - e);
        const uint32_t ffrac = (m & 0x3ffu) << 13;
        return bitsToFloat(sign | (fexp << 23) | ffrac);
    }
    const uint32_t fexp = exp + (127 - 15);
    return bitsToFloat(sign | (fexp << 23) | (frac << 13));
}

bool
Half::isInf() const
{
    return (bits_ & 0x7fffu) == 0x7c00u;
}

bool
Half::isNan() const
{
    return (bits_ & 0x7c00u) == 0x7c00u && (bits_ & 0x3ffu) != 0;
}

bool
Half::isZero() const
{
    return (bits_ & 0x7fffu) == 0;
}

void
halfToFloatScalar(const Half *src, float *dst, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = src[i].toFloat();
}

void
floatToHalfScalar(const float *src, Half *dst, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        dst[i] = Half(src[i]);
}

namespace {

#if defined(SOFTREC_SIMD_X86)

__attribute__((target("avx2,f16c"))) void
halfToFloatF16c(const Half *src, float *dst, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m128i h;
        std::memcpy(&h, src + i, sizeof(h));
        // VCVTPH2PS quiets signalling NaNs; the software conversion
        // keeps the payload verbatim (frac << 13). Redo chunks with a
        // NaN lane scalar so SIMD == scalar bit-for-bit.
        const __m128i abs = _mm_and_si128(h, _mm_set1_epi16(0x7fff));
        const int nan_lanes = _mm_movemask_epi8(
            _mm_cmpgt_epi16(abs, _mm_set1_epi16(0x7c00)));
        _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(h));
        if (nan_lanes != 0)
            halfToFloatScalar(src + i, dst + i, 8);
    }
    // GCC does not always insert VZEROUPPER on the tail-call exit of
    // target("avx2") functions; without it the dirty YMM upper state
    // imposes false-dependency stalls on every SSE instruction the
    // caller runs next (e.g. the kernels' baseline-ISA epilogues).
    _mm256_zeroupper();
    halfToFloatScalar(src + i, dst + i, n - i);
}

__attribute__((target("avx2,f16c"))) void
floatToHalfF16c(const float *src, Half *dst, int64_t n)
{
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 f = _mm256_loadu_ps(src + i);
        // VCVTPS2PH preserves NaN payload bits; Half::fromFloat
        // canonicalizes every NaN to sign|0x7e00. Redo NaN chunks
        // scalar to keep the two paths bit-identical.
        const int nan_lanes = _mm256_movemask_ps(
            _mm256_cmp_ps(f, f, _CMP_UNORD_Q));
        const __m128i h = _mm256_cvtps_ph(
            f, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
        // Half is a trivially-copyable wire format; the void cast
        // mutes -Wclass-memaccess for its user-provided constructor.
        std::memcpy(static_cast<void *>(dst + i), &h, sizeof(h));
        if (nan_lanes != 0)
            floatToHalfScalar(src + i, dst + i, 8);
    }
    _mm256_zeroupper(); // see halfToFloatF16c
    floatToHalfScalar(src + i, dst + i, n - i);
}

#endif // SOFTREC_SIMD_X86

#if defined(SOFTREC_SIMD_NEON)

void
halfToFloatNeon(const Half *src, float *dst, int64_t n)
{
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        uint16x4_t h;
        std::memcpy(&h, src + i, sizeof(h));
        // FCVTL quiets signalling NaNs; same scalar redo as x86.
        const uint16x4_t abs = vand_u16(h, vdup_n_u16(0x7fff));
        const uint16x4_t nan = vcgt_u16(abs, vdup_n_u16(0x7c00));
        vst1q_f32(dst + i, vcvt_f32_f16(vreinterpret_f16_u16(h)));
        if (vget_lane_u64(vreinterpret_u64_u16(nan), 0) != 0)
            halfToFloatScalar(src + i, dst + i, 4);
    }
    halfToFloatScalar(src + i, dst + i, n - i);
}

void
floatToHalfNeon(const float *src, Half *dst, int64_t n)
{
    int64_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t f = vld1q_f32(src + i);
        // Ordered-with-self is false only for NaN lanes.
        const uint32x4_t ordered = vceqq_f32(f, f);
        const uint16x4_t h =
            vreinterpret_u16_f16(vcvt_f16_f32(f));
        std::memcpy(static_cast<void *>(dst + i), &h, sizeof(h));
        if (vminvq_u32(ordered) == 0)
            floatToHalfScalar(src + i, dst + i, 4);
    }
    floatToHalfScalar(src + i, dst + i, n - i);
}

#endif // SOFTREC_SIMD_NEON

SimdBackend
detectBackend()
{
#if defined(SOFTREC_SIMD_X86)
    // The AVX2 kernels accumulate with FMA; a CPU without it runs the
    // Scalar backend, which gives the same bits.
    if (__builtin_cpu_supports("avx2") &&
        __builtin_cpu_supports("f16c") &&
        __builtin_cpu_supports("fma")) {
        return __builtin_cpu_supports("avx512f") ? SimdBackend::Avx512
                                                 : SimdBackend::F16cAvx2;
    }
#elif defined(SOFTREC_SIMD_NEON)
    return SimdBackend::Neon;
#endif
    return SimdBackend::Scalar;
}

SimdBackend
backendFromEnv()
{
    const char *env = std::getenv("SOFTREC_SIMD");
    if (env == nullptr || env[0] == '\0' ||
        std::strcmp(env, "auto") == 0) {
        return detectBackend();
    }
    if (std::strcmp(env, "off") == 0)
        return SimdBackend::Scalar;
    warn("SOFTREC_SIMD='%s' ignored (expected auto or off)", env);
    return detectBackend();
}

std::atomic<SimdBackend> &
backendSlot()
{
    static std::atomic<SimdBackend> slot{backendFromEnv()};
    return slot;
}

} // namespace

const char *
simdBackendName(SimdBackend backend)
{
    switch (backend) {
      case SimdBackend::Scalar:
        return "scalar";
      case SimdBackend::F16cAvx2:
        return "f16c-avx2";
      case SimdBackend::Avx512:
        return "f16c-avx512";
      case SimdBackend::Neon:
        return "neon";
    }
    panic("unknown SimdBackend");
}

SimdBackend
detectedSimdBackend()
{
    return detectBackend();
}

std::vector<SimdBackend>
availableSimdBackends()
{
    // Avx512 runs every F16cAvx2 body but the GEMM tile, so a host
    // that detects it runs F16cAvx2 as well.
    std::vector<SimdBackend> backends{SimdBackend::Scalar};
    const SimdBackend detected = detectBackend();
    if (detected == SimdBackend::Avx512)
        backends.push_back(SimdBackend::F16cAvx2);
    if (detected != SimdBackend::Scalar)
        backends.push_back(detected);
    return backends;
}

SimdBackend
simdBackend()
{
    return backendSlot().load(std::memory_order_relaxed);
}

SimdBackend
setSimdBackend(SimdBackend backend)
{
    const std::vector<SimdBackend> available = availableSimdBackends();
    SOFTREC_ASSERT(std::find(available.begin(), available.end(), backend) !=
                       available.end(),
                   "backend '%s' is not available on this machine",
                   simdBackendName(backend));
    return backendSlot().exchange(backend);
}

void
halfToFloat(const Half *src, float *dst, int64_t n)
{
    [[maybe_unused]] const SimdBackend backend = simdBackend();
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend)) {
        halfToFloatF16c(src, dst, n);
        return;
    }
#endif
#if defined(SOFTREC_SIMD_NEON)
    if (backend == SimdBackend::Neon) {
        halfToFloatNeon(src, dst, n);
        return;
    }
#endif
    halfToFloatScalar(src, dst, n);
}

void
floatToHalf(const float *src, Half *dst, int64_t n)
{
    [[maybe_unused]] const SimdBackend backend = simdBackend();
#if defined(SOFTREC_SIMD_X86)
    if (simdHasAvx2(backend)) {
        floatToHalfF16c(src, dst, n);
        return;
    }
#endif
#if defined(SOFTREC_SIMD_NEON)
    if (backend == SimdBackend::Neon) {
        floatToHalfNeon(src, dst, n);
        return;
    }
#endif
    floatToHalfScalar(src, dst, n);
}

} // namespace softrec
