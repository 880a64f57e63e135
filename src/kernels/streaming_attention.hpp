/**
 * @file
 * Single-pass fused streaming attention (online softmax).
 *
 * The recomposed strategies (core/recomposition.hpp) cut the softmax
 * layer's off-chip traffic by fusing LS/GS into the adjacent GEMMs,
 * but they still stage each strip's full-width score rows between the
 * two GEMMs. The streaming kernel is the logical endpoint of that
 * line (FLASH-D / operation-fusion style): for each query row it
 * iterates key/value tiles keeping a running maximum m, a running
 * denominator d, and a rescaled fp32 output accumulator, so the score
 * matrix never exists in memory — only one 64-key score tile per row
 * is ever staged, and it lives in a per-strip workspace.
 * The final 1/d is folded into the output epilogue as one reciprocal
 * multiply per row (division-free inner loop).
 *
 * Numerics contract: streaming accumulates in a different order than
 * the recomposed path, so equivalence with it is *tolerance-based*
 * (max-abs-error bounds, see docs/ARCHITECTURE.md "Fused streaming
 * attention"), never bit-identity. The kernel is deterministic on its
 * own: rows are row-local, so its output is bit-identical for any
 * thread count and SIMD backend.
 *
 * Serving and runAttention run the recomposed strategies only; this
 * kernel is bench/micro_streaming's comparison arm.
 */

#ifndef SOFTREC_KERNELS_STREAMING_ATTENTION_HPP
#define SOFTREC_KERNELS_STREAMING_ATTENTION_HPP

#include <cstdint>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** Shape of one single-head streaming-attention problem. */
struct StreamingAttentionDesc
{
    int64_t seqLen = 0;      //!< query rows L
    int64_t kvLen = 0;       //!< key/value rows
    int64_t dHead = 64;      //!< head width
    bool causalMask = false; //!< row i attends positions [0, i]
    double scale = 1.0;      //!< QK^T scale (1/sqrt(dHead))
};

/**
 * Single-pass attention over one head: out = softmax(scale * QK^T) V
 * without ever writing the score matrix. K is packed once into fp32
 * panels ([tile][dHead][64], the gemm.cpp transposeB layout) and V
 * into fp32 rows; query strips then run in parallel,
 * each row folding one key tile at a time into its running (m, d,
 * accumulator) state. Deterministic for any thread count (rows are
 * row-local); tolerance-equal to the recomposed path.
 *
 * @param q   [seqLen, dHead] fp16
 * @param k,v [kvLen, dHead] fp16
 * @param out [seqLen, dHead] fp16
 */
void streamingAttentionRun(const ExecContext &ctx,
                           const StreamingAttentionDesc &desc,
                           const Tensor<Half> &q, const Tensor<Half> &k,
                           const Tensor<Half> &v, Tensor<Half> &out);

} // namespace softrec

#endif // SOFTREC_KERNELS_STREAMING_ATTENTION_HPP
