/**
 * @file
 * Functional single-head attention executor.
 *
 * Runs one scaled-dot-product-attention head end to end on the CPU
 * using the functional kernel implementations, under any of the three
 * strategies. All strategies compute the same mathematics; tests and
 * examples use this to demonstrate that recomposition is exact (up to
 * fp16 storage rounding of the X' intermediate).
 */

#ifndef SOFTREC_CORE_ATTENTION_EXEC_HPP
#define SOFTREC_CORE_ATTENTION_EXEC_HPP

#include <vector>

#include "common/exec_context.hpp"
#include "core/recomposition.hpp"
#include "fp16/half.hpp"
#include "kernels/gemm.hpp"
#include "sparse/bsr_matrix.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** Q/K/V of one attention head, each [L, dHead] fp16. */
struct AttentionInputs
{
    Tensor<Half> q;
    Tensor<Half> k;
    Tensor<Half> v;
};

/** Make zeroed inputs of the right shapes for a config. */
AttentionInputs makeAttentionInputs(const SdaConfig &config);

/**
 * One worker slot's buffers for one strip of attnTiling.tileM query
 * rows: what the strip's three stages hand each other, [rows, kv] or
 * [rows, N_sv]. Each is resized (capacity-reusing, see Tensor::resize)
 * only by the strategies that use it and fully rewritten before it is
 * read, so reuse cannot change results.
 */
struct AttentionStrip
{
    Tensor<Half> scores; //!< QK^T scores (Baseline, SD)
    Tensor<Half> xPrime; //!< local-softmax output X' (SD, SDF)
    Tensor<Half> probs;  //!< probabilities, the P.V A rows (Baseline, SD)
    //! m', d' and r', fp32 (SD, SDF).
    Tensor<float> localMax, localSum, recon;
    std::vector<float> staging; //!< one fp32 row of the softmax stage
    GemmScratch gemm;           //!< the GEMM strips' A rows and tile
};

/**
 * Reusable buffers of one dense attention head. Dense attention runs
 * strip by strip, so no L x kv matrix exists: K and V are packed once
 * per head into fp32 GEMM panels (~kv x dHead x 4 bytes each), and
 * each worker slot owns one AttentionStrip (at L = kv = 2048, d_head =
 * 64, T = 16 and 16-row strips: 64 KiB per fp16 strip matrix,
 * 128 KiB of P.V A rows, 8 KiB per m'/d'/r'; the packed K and V take
 * 512 KiB each). A caller that keeps one workspace per
 * worker allocates nothing once the buffers have reached their
 * high-water shape.
 */
struct AttentionWorkspace
{
    std::vector<float> kPanels; //!< K packed for QK^T (gemmPackB)
    std::vector<float> vPanels; //!< V packed for P.V (gemmPackB)
    //! One strip's buffers per worker slot, indexed by
    //! currentThreadSlot() inside the strip loop.
    std::vector<AttentionStrip> strips;

    /** Bytes of storage held by every buffer above. */
    uint64_t heldBytes() const;
};

/**
 * Execute one attention head functionally under a strategy,
 * dispatching on config.layout: dense when null, block-sparse
 * otherwise. config.batch and config.heads are ignored (single
 * problem). Dense intermediates live in `ws`; `out` is resized to
 * [L, dHead] and overwritten. This is the only implementation; the
 * returning overload below wraps it with a fresh workspace.
 *
 * Dense attention packs K and V once, then runs one strip of
 * attnTiling.tileM query rows at a time through all three stages
 * before the next strip starts: QK^T (with the LS epilogue under
 * SDF), the strip's softmax stage (the row softmax for Baseline,
 * LS -> IR -> GS for SD, IR for SDF), then P.V (with the GS prologue
 * under SDF). Every stage is row-local and each strip runs the
 * whole-matrix kernels' bodies (gemmRunStrip, the xxxRows bodies) on
 * its rows, so the bits equal the whole-matrix composition
 * gemmRun -> softmax kernels -> gemmRun; only the loop order differs.
 * The strips run in parallel on ctx; nested inside a parallel region
 * (one head per worker) they run serially on the caller.
 *
 * With config.causalMask, the dense strategies stop at the diagonal:
 * the row softmax covers columns [0, i + 1) of row i and the P.V GEMM
 * reads only those (GemmPrologue::causalA). The result bits equal the
 * full computation's whenever V is finite; a non-finite V row past i
 * no longer reaches row i, as in decode. Profiler rows keep their
 * names (sda.qk, softmax.*, sda.av, one call per head) and report the
 * full, causal-oblivious operands, K and V once per head; their time
 * is summed over the strips (prof::Scope::Kind::Segmented).
 */
void runAttention(const ExecContext &ctx, const SdaConfig &config,
                  const AttentionInputs &inputs, Strategy strategy,
                  AttentionWorkspace &ws, Tensor<Half> &out);

/**
 * runAttention over a fresh workspace.
 *
 * @return the attention output, [L, dHead] fp16
 */
Tensor<Half> runAttention(const ExecContext &ctx,
                          const SdaConfig &config,
                          const AttentionInputs &inputs,
                          Strategy strategy);

/**
 * Double-precision reference attention (dense), computed directly from
 * the definition; the gold standard for the functional tests.
 */
Tensor<float> referenceDenseAttention(const SdaConfig &config,
                                      const AttentionInputs &inputs);

/**
 * Double-precision reference attention over a block-sparse layout
 * (softmax over the non-masked positions only).
 */
Tensor<float> referenceSparseAttention(const SdaConfig &config,
                                       const AttentionInputs &inputs);

} // namespace softrec

#endif // SOFTREC_CORE_ATTENTION_EXEC_HPP
