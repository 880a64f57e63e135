/**
 * @file
 * Single-pass fused streaming attention (online softmax).
 *
 * The recomposed strategies (core/recomposition.hpp) cut the softmax
 * layer's off-chip traffic by fusing LS/GS into the adjacent GEMMs,
 * but they still materialize the full L x kv score matrix between the
 * two GEMMs. The streaming kernel is the logical endpoint of that
 * line (FLASH-D / operation-fusion style): for each query row it
 * iterates key/value tiles keeping a running maximum m, a running
 * denominator d, and a rescaled fp32 output accumulator, so the score
 * matrix never exists in memory — only one kStreamKeyTile-wide score
 * tile per row is ever staged, and it lives in a per-strip workspace.
 * The final 1/d is folded into the output epilogue as one reciprocal
 * multiply per row (division-free inner loop).
 *
 * Numerics contract: streaming accumulates in a different order than
 * the recomposed path, so equivalence with it is *tolerance-based*
 * (max-abs-error bounds, see docs/ARCHITECTURE.md "Fused streaming
 * attention"), never bit-identity. Within the streaming backend,
 * however, determinism is exact: the prefill kernel and
 * decodeAttendStreamRun process key tiles of the same constant width
 * in the same ascending order with an identical per-tile update
 * sequence, and causally masked tail positions are exact no-ops, so
 * incremental decode is bit-identical to full-prefix recompute for
 * any thread count, SIMD backend, and batch composition — the same
 * KV-equivalence contract the recomposed path offers.
 */

#ifndef SOFTREC_KERNELS_STREAMING_ATTENTION_HPP
#define SOFTREC_KERNELS_STREAMING_ATTENTION_HPP

#include <cstdint>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"
#include "kernels/decode_attention.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/**
 * Attention execution backend, set on SdaConfig /
 * FunctionalLayerConfig. Recomposed runs the paper's strategy
 * pipeline (Baseline / SD / SDF); Streaming runs the single-pass
 * online-softmax kernel and ignores the strategy.
 */
enum class AttentionBackend
{
    Recomposed, //!< strategy pipeline over a materialized score matrix
    Streaming,  //!< tiled online softmax; no score matrix in memory
};

/** Display name ("recomposed", "streaming"). */
const char *attentionBackendName(AttentionBackend backend);

/**
 * Key/value tile width of the streaming kernels. Shared by the
 * prefill kernel and decodeAttendStreamRun: processing key tiles of
 * the same constant width in the same order is what makes streaming
 * decode bit-identical to streaming prefill rows.
 */
inline constexpr int64_t kStreamKeyTile = 64;

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
 * panels ([tile][dHead][kStreamKeyTile], the gemm.cpp transposeB
 * layout) and V into fp32 rows; query strips then run in parallel,
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

/**
 * Streaming (online-softmax, division-free) variant of
 * decodeAttendRun: same signature, same cached-row access, but the
 * score row is never staged through memory — each kStreamKeyTile-wide
 * tile of scores is folded into running (m, d, accumulator) state,
 * and the single 1/d lands in the output epilogue. Bit-identical to
 * the rows streamingAttentionRun produces for the same context (see
 * the file comment); tolerance-equal to decodeAttendRun.
 */
void decodeAttendStreamRun(const ExecContext &ctx,
                           const DecodeAttendDesc &desc,
                           const Half *q_row, const KvRowsView &k,
                           const KvRowsView &v, Half *out,
                           DecodeAttendWorkspace *ws = nullptr);

} // namespace softrec

#endif // SOFTREC_KERNELS_STREAMING_ATTENTION_HPP
