/**
 * @file
 * Software IEEE-754 binary16 ("half") type.
 *
 * The paper's evaluation runs entirely in FP16 storage with FP32
 * accumulation inside kernels (cuBLAS/CUTLASS convention). This type
 * reproduces the storage format exactly: float -> half conversion uses
 * round-to-nearest-even, subnormals are preserved, overflow saturates to
 * infinity. Arithmetic is performed by converting through float, which
 * matches GPU behaviour for the element-wise use SoftRec makes of it.
 */

#ifndef SOFTREC_FP16_HALF_HPP
#define SOFTREC_FP16_HALF_HPP

#include <cstdint>
#include <limits>
#include <vector>

namespace softrec {

/** IEEE-754 binary16 storage type with float-mediated arithmetic. */
class Half
{
  public:
    /** Zero-initialized half. */
    constexpr Half() : bits_(0) {}

    /** Convert from float with round-to-nearest-even. */
    explicit Half(float value) : bits_(fromFloat(value)) {}

    /** Reinterpret raw storage bits as a half. */
    static constexpr Half
    fromBits(uint16_t bits)
    {
        Half h;
        h.bits_ = bits;
        return h;
    }

    /** Raw storage bits. */
    constexpr uint16_t bits() const { return bits_; }

    /** Widen to float (exact). */
    float toFloat() const { return toFloat(bits_); }

    /** Implicit widening conversion, mirroring __half on CUDA. */
    operator float() const { return toFloat(); }

    /** True for +/- infinity. */
    bool isInf() const;
    /** True for NaN payloads. */
    bool isNan() const;
    /** True for zero of either sign. */
    bool isZero() const;

    /** Largest finite half value (65504). */
    static Half max() { return fromBits(0x7bff); }
    /** Smallest positive normal half (2^-14). */
    static Half minNormal() { return fromBits(0x0400); }
    /** Positive infinity. */
    static Half infinity() { return fromBits(0x7c00); }
    /** Smallest positive subnormal (2^-24). */
    static Half denormMin() { return fromBits(0x0001); }

    /** Core conversion: float bits to half bits, round-to-nearest-even. */
    static uint16_t fromFloat(float value);
    /** Core conversion: half bits to float value (exact). */
    static float toFloat(uint16_t bits);

  private:
    uint16_t bits_;
};

inline Half operator+(Half a, Half b) { return Half(float(a) + float(b)); }
inline Half operator-(Half a, Half b) { return Half(float(a) - float(b)); }
inline Half operator*(Half a, Half b) { return Half(float(a) * float(b)); }
inline Half operator/(Half a, Half b) { return Half(float(a) / float(b)); }
inline Half operator-(Half a) { return Half::fromBits(a.bits() ^ 0x8000); }

inline bool operator==(Half a, Half b) { return float(a) == float(b); }
inline bool operator!=(Half a, Half b) { return float(a) != float(b); }
inline bool operator<(Half a, Half b) { return float(a) < float(b); }
inline bool operator<=(Half a, Half b) { return float(a) <= float(b); }
inline bool operator>(Half a, Half b) { return float(a) > float(b); }
inline bool operator>=(Half a, Half b) { return float(a) >= float(b); }

/**
 * SIMD backend of the kernel substrate: it selects the batch
 * fp16<->fp32 conversions below, the body of every dot-product
 * primitive in kernels/fma_dot.hpp (GEMM tiles, attention scores and
 * P.V) and the path of the exp primitive (expSpan, maxSpan, tanhSpan
 * in fp16/simd_math.hpp). Every SIMD path is bit-identical to the
 * scalar one by construction (NaN conversion chunks fall back to the
 * scalar conversion; every dot product, scalar, AVX2 or AVX-512, is
 * the same k-ascending chain of fused multiply-adds, c = fma(a, b, c)
 * from +0; the scalar exp runs the SIMD exps' operations and 8-lane
 * sums in the same order), so the choice only affects throughput,
 * never results.
 */
enum class SimdBackend
{
    Scalar,   ///< Portable conversion, dot products (std::fma) and
              ///< exp, always available.
    F16cAvx2, ///< x86-64 VCVTPH2PS/VCVTPS2PH, 8 elements per step,
              ///< plus the AVX2+FMA dot-product bodies (the
              ///< register-blocked GEMM tile among them) and the
              ///< 8-wide AVX2 exp. Needs AVX2, F16C and FMA.
    Avx512,   ///< F16cAvx2 with 16-lane AVX-512 bodies of the GEMM
              ///< tile (fmaGemmTile), of the exp primitive
              ///< (localSoftmaxTile, expSpan, maxSpan) and of the
              ///< layer's element-wise passes (geluSpan, softmaxRow,
              ///< epilogueTile, residualLayerNormRows); the
              ///< conversions and the decode dot products run their
              ///< AVX2 bodies. Needs AVX-512F on top of F16cAvx2's
              ///< ISA.
    Neon,     ///< AArch64 vcvt_f32_f16/vcvt_f16_f32, 4 per step
              ///< (the dot products and exp use the portable paths).
};

/**
 * Whether `backend` runs the AVX2 bodies (conversions, decode dot
 * products, and on F16cAvx2 the exp and the LS tile): F16cAvx2, and
 * Avx512 for the primitives it has no AVX-512 body of.
 */
inline bool
simdHasAvx2(SimdBackend backend)
{
    return backend == SimdBackend::F16cAvx2 ||
           backend == SimdBackend::Avx512;
}

/**
 * Human-readable backend name ("scalar", "f16c-avx2", "f16c-avx512",
 * "neon").
 */
const char *simdBackendName(SimdBackend backend);

/**
 * Best backend this binary supports on this machine, ignoring the
 * SOFTREC_SIMD environment override.
 */
SimdBackend detectedSimdBackend();

/**
 * Every backend this machine runs, Scalar first and
 * detectedSimdBackend() last (Scalar, F16cAvx2, Avx512 on an AVX-512
 * host), so a test or bench can cover each body.
 */
std::vector<SimdBackend> availableSimdBackends();

/**
 * Active SIMD backend (conversions, dot products and exp):
 * detectedSimdBackend() unless the environment says SOFTREC_SIMD=off
 * (force scalar). SOFTREC_SIMD=auto or unset means detect; anything
 * else warns and detects.
 */
SimdBackend simdBackend();

/**
 * Override the active backend in-process (benches/tests A/B the scalar
 * and SIMD paths without re-exec). Any backend in
 * availableSimdBackends() is accepted. Returns the previous backend so
 * callers can restore it.
 */
SimdBackend setSimdBackend(SimdBackend backend);

/** Widen n contiguous halves to floats (exact, backend-dispatched). */
void halfToFloat(const Half *src, float *dst, int64_t n);

/** Narrow n contiguous floats to halves (RNE, backend-dispatched). */
void floatToHalf(const float *src, Half *dst, int64_t n);

/** Scalar batch widening, regardless of the active backend. */
void halfToFloatScalar(const Half *src, float *dst, int64_t n);

/** Scalar batch narrowing, regardless of the active backend. */
void floatToHalfScalar(const float *src, Half *dst, int64_t n);

} // namespace softrec

#endif // SOFTREC_FP16_HALF_HPP
