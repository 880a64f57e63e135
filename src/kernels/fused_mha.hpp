/**
 * @file
 * Fully fused multi-head-attention kernel for short sequences.
 *
 * FasterTransformer/TensorRT ship a single kernel that computes the
 * entire QK^T -> softmax -> P.V chain with the attention row resident
 * on chip — but, as the paper notes in its related work, only for
 * short inputs (L <= 384 in FasterTransformer) because the K and V
 * operands must fit in each thread block's shared memory. This module
 * models that kernel so the library baselines and the short-sequence
 * ablation can include it. It is a cost model only: the CPU stack
 * runs the strip loop (core/attention_exec.hpp) instead.
 */

#ifndef SOFTREC_KERNELS_FUSED_MHA_HPP
#define SOFTREC_KERNELS_FUSED_MHA_HPP

#include <cstdint>
#include <string>

#include "sim/kernel_profile.hpp"

namespace softrec {

/** One fused-MHA launch: all heads of one attention layer. */
struct FusedMhaDesc
{
    std::string name = "sda.fused_mha";
    int64_t batch = 1;      //!< batch x heads problems
    int64_t seqLen = 384;   //!< sequence length L
    int64_t dHead = 64;     //!< per-head width
    double scale = 0.125;   //!< 1/sqrt(dHead)
    bool causalMask = false;
    int64_t rowsPerBlock = 64; //!< query rows per thread block
};

/** Shared memory one TB needs: staged K and V plus the row tile. */
uint64_t fusedMhaSmemBytes(const FusedMhaDesc &desc);

/**
 * True when the fused kernel is usable: the K/V staging for a full
 * sequence fits the GPU's per-TB shared memory budget. Long sequences
 * fail this — the gap softmax recomposition exists to fill.
 */
bool fusedMhaSupported(const GpuSpec &spec, const FusedMhaDesc &desc);

/** Launch profile; call only when fusedMhaSupported. */
KernelProfile fusedMhaProfile(const GpuSpec &spec,
                              const FusedMhaDesc &desc);

} // namespace softrec

#endif // SOFTREC_KERNELS_FUSED_MHA_HPP
