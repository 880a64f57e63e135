/**
 * @file
 * The softmax recomposition planner — the paper's primary contribution
 * as a schedule rewrite.
 *
 * Given one scaled-dot-product-attention (SDA) block, emit the kernel
 * launch sequence under one of three strategies:
 *
 *  - Baseline: QK^T GEMM (scale/mask fused) -> row softmax -> P.V GEMM;
 *  - Decomposed (SD): softmax split into LS -> IR -> GS kernels whose
 *    data access patterns match the adjacent GEMM tiles (Section 3.2);
 *  - Fused (SDF): LS folded into the QK^T epilogue and GS into the P.V
 *    prologue; only the tiny IR kernel remains (Section 3.3).
 *
 * Works for dense attention and for block-sparse attention layouts
 * (Section 3.4). The schedule also reports how many times the L x L
 * attention matrix crosses the off-chip boundary — the quantity Fig. 6
 * shows dropping from four sweeps to two.
 */

#ifndef SOFTREC_CORE_RECOMPOSITION_HPP
#define SOFTREC_CORE_RECOMPOSITION_HPP

#include <string>
#include <vector>

#include "kernels/gemm.hpp"
#include "sim/kernel_profile.hpp"
#include "sparse/bsr.hpp"

namespace softrec {

/** Softmax execution strategy for the SDA block. */
enum class Strategy {
    Baseline,   //!< fused row softmax (TensorRT/DeepSpeed style)
    Decomposed, //!< SD: standalone LS / IR / GS kernels
    Fused,      //!< SDF: LS and GS fused into the adjacent GEMMs
};

/** Display name ("Baseline", "SD", "SDF"). */
const char *strategyName(Strategy strategy);

/** All three strategies, in presentation order. */
std::vector<Strategy> allStrategies();

/** Shape and options of one SDA block invocation. */
struct SdaConfig
{
    int64_t batch = 1;   //!< sequences per batch
    int64_t heads = 16;  //!< attention heads H_num
    int64_t seqLen = 4096; //!< query sequence length L
    /**
     * Key/value sequence length; 0 means "same as seqLen". Differs in
     * encoder-decoder cross-attention, where the decoder's queries
     * attend over the encoder's hidden states (paper Section 2.1).
     */
    int64_t kvLen = 0;
    int64_t dHead = 64;  //!< per-head hidden size D_head
    bool causalMask = false; //!< decoder-style masking
    /** Block-sparse attention structure; nullptr = dense. */
    const BsrLayout *layout = nullptr;
    /**
     * Sub-vector width T: the simulated GPU's GEMM output tile width
     * under fusion; a CPU tile holds a whole number of T-wide segments.
     */
    int64_t subVector = 64;
    /** Tiling of the dense attention GEMMs. */
    GemmTiling attnTiling;

    /** Effective key/value length (kvLen, or seqLen when unset). */
    int64_t keyLen() const { return kvLen > 0 ? kvLen : seqLen; }
    /** 1 / sqrt(D_head). */
    double scale() const;
    /** True when a block-sparse layout is configured. */
    bool sparse() const { return layout != nullptr; }
    /** batch x heads: independent attention problems. */
    int64_t problems() const { return batch * heads; }
    /** Efficiency class of the attention GEMMs. */
    GemmShapeClass attentionClass() const;
    /** Bytes of the (dense or sparse) attention matrix, all problems. */
    uint64_t attentionMatrixBytes() const;
};

/** A planned SDA block: kernels plus traffic bookkeeping. */
struct SdaSchedule
{
    Strategy strategy = Strategy::Baseline;
    std::vector<KernelProfile> kernels;
    /**
     * Off-chip crossings of the attention matrix inside the block
     * (reads + writes of attention-matrix-sized operands). Four in the
     * baseline, six under SD, two under SDF (Fig. 6).
     */
    int attentionSweeps = 0;
    /** Size of one full attention-matrix sweep. */
    uint64_t attentionMatrixBytes = 0;
    /** Off-chip bytes of the m'/d'/r' intermediates (SD and SDF). */
    uint64_t intermediateBytes = 0;
};

/**
 * Plan the SDA block's kernel sequence for a strategy on a GPU.
 * The returned profiles are ready to Gpu::launch in order.
 */
SdaSchedule buildSdaSchedule(const GpuSpec &spec, const SdaConfig &config,
                             Strategy strategy);

/**
 * Largest sub-vector width that divides key_len and does not exceed
 * preferred (so fusion's T = tile-width constraint is satisfiable for
 * any sequence length, not just multiples of 64). Returns preferred
 * unchanged when it already divides key_len.
 */
int64_t chooseSubVector(int64_t key_len, int64_t preferred);

} // namespace softrec

#endif // SOFTREC_CORE_RECOMPOSITION_HPP
