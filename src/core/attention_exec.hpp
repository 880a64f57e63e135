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
 * One worker slot's buffers for one strip of at most attnTiling.tileM
 * query rows: what the strip's three stages hand each other,
 * [rows, widest] or [rows, ceil(widest / T)], where widest is the most
 * keys any strip of the head attends to (kv when dense). Each is
 * resized (capacity-reusing, see Tensor::resize) only by the
 * strategies that use it and fully rewritten where it is read, so
 * reuse cannot change results.
 */
struct AttentionStrip
{
    //! QK^T scores (Baseline, SD); SD's GS writes the probabilities
    //! over them.
    Tensor<Half> scores;
    Tensor<Half> xPrime; //!< local-softmax output X' (SD, SDF)
    Tensor<Half> probs;  //!< Baseline's probabilities
    //! m', d' and r', fp32 (SD, SDF).
    Tensor<float> localMax, localSum, recon;
    std::vector<float> staging; //!< one fp32 row of the softmax stage
    GemmScratch gemm;           //!< the GEMM strips' A rows and tile
};

/**
 * Reusable buffers of one attention head. Attention runs strip by
 * strip, so no L x kv matrix (dense) or layout-sized matrix (sparse)
 * exists: K and V are packed once per head into fp32 GEMM panels
 * (~kv x dHead x 4 bytes each), and each worker slot owns one
 * AttentionStrip (at L = kv = 2048, d_head = 64, T = 16 and 16-row
 * strips: 64 KiB per fp16 strip matrix, of which every strategy holds
 * at most two, 128 KiB of P.V A rows, 8 KiB per m'/d'/r'; the packed
 * K and V take 512 KiB each). A caller that
 * keeps one workspace per worker allocates nothing once the buffers
 * have reached their high-water shape.
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
 * Execute one attention head functionally under a strategy, dense
 * when config.layout is null and block-sparse otherwise.
 * config.batch and config.heads are ignored (single problem).
 * Intermediates live in `ws`; `out` is resized to [L, dHead] and
 * overwritten. This is the only implementation; the returning
 * overload below wraps it with a fresh workspace.
 *
 * One strip loop serves dense and sparse attention. K and V are
 * packed once per head, then each strip of at most attnTiling.tileM
 * query rows runs through all three stages before the next strip
 * starts: QK^T (with the LS epilogue under SDF), the strip's softmax
 * stage (the row softmax for Baseline, LS -> IR -> GS for SD, IR for
 * SDF), then P.V (with the GS prologue under SDF). A dense strip
 * attends to every key. A block-sparse strip lies inside one block
 * row and attends only to that row's column blocks: its QK^T runs
 * just their n-tiles, its P.V reads just their V rows (GemmStrip
 * blocks), and its sub-vectors and QK^T n-tiles are one block wide
 * (T = blockSize), so its bits equal dense attention over the block
 * row's gathered keys. Every stage is row-local and each strip runs
 * the whole-matrix kernels' bodies (gemmRunStrip, the xxxRows bodies)
 * on its rows, so the bits equal the whole-matrix composition gemmRun
 * -> softmax kernels -> gemmRun; only the loop order differs. The
 * strips run in parallel on ctx; nested inside a parallel region (one
 * head per worker) they run serially on the caller.
 *
 * With config.causalMask, the dense strategies stop at the diagonal:
 * the row softmax covers columns [0, i + 1) of row i and the P.V GEMM
 * reads only those (GemmPrologue::causalA). The result bits equal the
 * full computation's whenever V is finite; a non-finite V row past i
 * no longer reaches row i, as in decode. A layout encodes its own
 * mask (causalWindowPattern), so a causal mask with a layout is a
 * fatal error. Profiler rows keep their names for dense and sparse
 * heads (sda.qk, softmax.*, sda.av, one call per head) and report the
 * full, causal-oblivious operands: K and V once per head, and per
 * strip the A rows it reads and the C rows it writes; their time is
 * summed over the strips (prof::Scope::Kind::Segmented).
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
