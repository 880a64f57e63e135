/**
 * @file
 * Shared definitions for the kernel library: element sizes, tile
 * shapes, and the L2-residency rule used by the traffic formulas.
 */

#ifndef SOFTREC_KERNELS_KERNEL_COMMON_HPP
#define SOFTREC_KERNELS_KERNEL_COMMON_HPP

#include <cstdint>

#include "sim/gpu_spec.hpp"

/**
 * No-alias hint for micro-kernel pointer parameters: the packed
 * operand panels and the accumulator tile never overlap, and telling
 * the compiler so lets it vectorize the inner loops without emitting
 * runtime overlap checks.
 */
#if defined(__GNUC__) || defined(__clang__)
#define SOFTREC_RESTRICT __restrict
#else
#define SOFTREC_RESTRICT
#endif

namespace softrec {

/** Bytes per FP16 element. */
inline constexpr int64_t kFp16Bytes = 2;
/** Bytes per FP32 element (intermediate m', d', r' values). */
inline constexpr int64_t kFp32Bytes = 4;

/**
 * Output-tile shape of the outer-product-dataflow GEMM (Fig. 3(b)).
 * tileN doubles as the softmax sub-vector width T when LS is fused
 * (paper Section 3.3: "setting T of the LS kernel equal to the output
 * tile width of the MatMul kernel").
 */
struct GemmTiling
{
    int64_t tileM = 128;    //!< output tile height
    int64_t tileN = 64;     //!< output tile width (= T under fusion
                            //!< unless GemmEpilogue::lsSubVector)
    int64_t tileK = 32;     //!< mainloop K step
    int threads = 256;      //!< threads per TB
    int regsPerThread = 128; //!< accumulators + pipeline registers

    /** Shared memory for double-buffered A and B tile staging. */
    uint64_t
    smemBytes() const
    {
        const int64_t a = tileM * tileK;
        const int64_t b = tileK * tileN;
        return uint64_t(2 * (a + b) * kFp16Bytes);
    }
};

/**
 * DRAM traffic of one GEMM operand under the streaming reuse rule: an
 * operand that fits in L2 is fetched from DRAM once and re-read from
 * L2 afterwards; one that does not fit is re-fetched on every pass
 * over it.
 *
 * @param operand_bytes total size of the operand
 * @param passes how many times the kernel sweeps the operand
 * @param l2_bytes L2 capacity of the target GPU
 */
uint64_t operandDramBytes(uint64_t operand_bytes, int64_t passes,
                          uint64_t l2_bytes);

/** ceil(a / b) for positive ints. */
inline int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace softrec

#endif // SOFTREC_KERNELS_KERNEL_COMMON_HPP
