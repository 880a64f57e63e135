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

#include "common/exec_context.hpp"
#include "core/recomposition.hpp"
#include "fp16/half.hpp"
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
 * Reusable buffers of one dense attention head. runAttention resizes
 * the intermediates its strategy needs (capacity-reusing, see
 * Tensor::resize) and leaves the others untouched, so a caller that keeps
 * one workspace per worker allocates no L x kv buffer once the
 * workspace has reached its high-water shape. Every intermediate is
 * fully rewritten before it is read, so reuse cannot change results.
 */
struct AttentionWorkspace
{
    //! QK^T scores, [L, kv] (Baseline, SD).
    Tensor<Half> scores;
    //! Local-softmax output X', [L, kv] (SD, SDF).
    Tensor<Half> xPrime;
    //! Softmax probabilities, the P.V left operand, [L, kv]
    //! (Baseline, SD).
    Tensor<Half> probs;
    //! m', d' and r', [L, N_sv] fp32 (SD, SDF).
    Tensor<float> localMax, localSum, recon;
};

/**
 * Execute one attention head functionally under a strategy,
 * dispatching on config.layout: dense when null, block-sparse
 * otherwise. config.batch and config.heads are ignored (single
 * problem). Dense intermediates live in `ws`; `out` is resized to
 * [L, dHead] and overwritten. This is the only implementation; the
 * returning overload below wraps it with a fresh workspace.
 *
 * With config.causalMask, the dense strategies stop at the diagonal:
 * the row softmax covers columns [0, i + 1) of row i and the P.V GEMM
 * reads only those (GemmPrologue::causalA). The result bits equal the
 * full computation's whenever V is finite; a non-finite V row past i
 * no longer reaches row i, as in decode. Profiler byte counters keep
 * reporting the full, causal-oblivious operands.
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
