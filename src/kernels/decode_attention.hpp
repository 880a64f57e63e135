/**
 * @file
 * Single-query attention over a block-allocated KV cache — the inner
 * kernel of one autoregressive decode step.
 *
 * A decode step's attention "matrix" is one 1 x C score row per head
 * (C = context length so far), so there is nothing for softmax
 * recomposition to save here; the kernel's job is to read the cached
 * K/V rows in place (no per-step repacking or reconversion of the
 * whole prefix) while reproducing the prefill path's arithmetic
 * bit for bit: the same k-ascending fma chains as the packed GEMM
 * tile (kernels/fma_dot.hpp), the GEMM epilogue and row softmax
 * primitives of the prefill strips (epilogueTile, softmaxRow), and the
 * same fp16 storage round-trips between stages. tests/test_decode.cpp
 * proves incremental decode through this kernel is bit-identical to
 * full-prefix recompute at every step, for any thread count and SIMD
 * backend.
 */

#ifndef SOFTREC_KERNELS_DECODE_ATTENTION_HPP
#define SOFTREC_KERNELS_DECODE_ATTENTION_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"

namespace softrec {

/**
 * KV-cache storage element format. F16 is the bit-exact reference
 * (rows are stored exactly as the projection kernels produced them);
 * I8 stores each block as int8 with one per-block fp32 scale/zero
 * header, halving KV bytes so the serve engine admits ~2x the tokens
 * at a fixed slab byte budget.
 */
enum class KvDtype
{
    F16,
    I8,
};

/**
 * Per-block quantization header of an I8 block. Symmetric scheme:
 * scale = blockAmax / 127, zero stays 0.0 (kept in the header so the
 * dequant expression `(q - zero) * scale` matches the conventional
 * affine form and an asymmetric format can slot in later). A freshly
 * opened all-zero block has scale == 0 and dequantizes to zeros.
 */
struct KvBlockQuant
{
    float scale = 0.0f;
    float zero = 0.0f;
};

/**
 * Bytes reserved for the I8 header at the front of a block — padded
 * past sizeof(KvBlockQuant) so the int8 payload starts 16-aligned.
 */
constexpr int64_t kKvBlockQuantBytes = 16;

/**
 * Read-only view of cached rows stored in fixed-size slab blocks
 * (serve/kv_cache.hpp produces these). Row `pos` lives in block
 * `pos / blockTokens` at row offset `pos % blockTokens`; every row is
 * `rowWidth` elements (the model width, all heads concatenated) of
 * the view's storage format. Kernels read rows through loadRow(),
 * which dequantizes into caller-owned fp32 lane buffers, so reading
 * the cache allocates nothing in either format. (The decode step
 * reuses its activation and attention buffers, but not the GEMM
 * panels and scratch; a runtime allocation gate is ROADMAP item 2.)
 */
struct KvRowsView
{
    const std::byte *const *blocks = nullptr; //!< block base pointers
    int64_t blockTokens = 0;          //!< rows per block
    int64_t rowWidth = 0;             //!< elements per row (dModel)
    int64_t rows = 0;                 //!< valid rows (context C)
    KvDtype dtype = KvDtype::F16;     //!< storage element format

    /** Stored bytes per element (profiler traffic attribution). */
    int64_t
    elemBytes() const
    {
        return dtype == KvDtype::F16 ? 2 : 1;
    }

    /** Pointer to cached row `pos` (all heads). F16 views only. */
    const Half *
    row(int64_t pos) const
    {
        return reinterpret_cast<const Half *>(
                   blocks[pos / blockTokens]) +
               (pos % blockTokens) * rowWidth;
    }

    /** Quantization header of row `pos`'s block. I8 views only. */
    const KvBlockQuant &
    blockQuant(int64_t pos) const
    {
        return *reinterpret_cast<const KvBlockQuant *>(
            blocks[pos / blockTokens]);
    }

    /** Pointer to quantized row `pos` (all heads). I8 views only. */
    const int8_t *
    rowI8(int64_t pos) const
    {
        return reinterpret_cast<const int8_t *>(
                   blocks[pos / blockTokens] + kKvBlockQuantBytes) +
               (pos % blockTokens) * rowWidth;
    }

    /**
     * Read `n` fp32 elements of row `pos` starting at column `col`
     * into `dst`. F16 rows go through the batch conversion substrate
     * (bit-identical to the pre-quantization read path); I8 rows
     * dequantize with their block's scale/zero header.
     */
    void
    loadRow(int64_t pos, int64_t col, int64_t n, float *dst) const
    {
        if (dtype == KvDtype::F16) {
            halfToFloat(row(pos) + col, dst, n);
            return;
        }
        const KvBlockQuant &q = blockQuant(pos);
        const int8_t *src = rowI8(pos) + col;
        for (int64_t i = 0; i < n; ++i)
            dst[i] = (float(src[i]) - q.zero) * q.scale;
    }
};

/**
 * View over the first `rows` rows of one contiguous fp16 staging
 * buffer, presented as a single pseudo-block spanning `block_tokens`
 * rows. Chunked prefill attends over its exact (pre-quantization)
 * K/V staging through this, reusing the cache-read kernels
 * unchanged: they address rows only through row()/loadRow(), so a
 * one-block view is indistinguishable from slab blocks and the bits
 * cannot depend on the blocking. `block` must point to a stable
 * `const std::byte *` (the caller owns the pointer cell) whose
 * target buffer outlives the view.
 */
inline KvRowsView
contiguousKvView(const std::byte *const *block, int64_t block_tokens,
                 int64_t row_width, int64_t rows)
{
    KvRowsView view;
    view.blocks = block;
    view.blockTokens = block_tokens;
    view.rowWidth = row_width;
    view.rows = rows;
    view.dtype = KvDtype::F16;
    return view;
}

/** Shape of one cached-decode attention row. */
struct DecodeAttendDesc
{
    int64_t dHead = 64;     //!< per-head width
    int64_t headOffset = 0; //!< column of this head in a cached row
    double scale = 1.0;     //!< QK^T epilogue scale (1/sqrt(dHead))
};

/**
 * Int8 cached rows decodeAttendRun dequantizes to fp32 per batch:
 * the scores and the P.V run over up to this many of them per
 * fmaDotRows or fmaAccumRows call (fp16 rows are read in place).
 */
inline constexpr int64_t kDecodeRowChunk = 64;

/**
 * Reusable staging buffers for decodeAttendRun. The kernel runs once
 * per (request, head) every decode step, so allocating its fp32
 * staging rows inside the call would put ~5 mallocs on the per-token
 * path; callers that decode in a loop keep one workspace per worker
 * slot (ExecContext::currentThreadSlot()) and pass it in. prepare()
 * only reallocates when the context outgrows the high-water mark,
 * which with vector's geometric growth amortizes to zero as the
 * cache fills.
 */
struct DecodeAttendWorkspace
{
    std::vector<float> qf;    //!< query row, fp32, dHead
    std::vector<float> rows;  //!< kDecodeRowChunk int8 rows, dequantized
    std::vector<float> row;   //!< score/probability row, fp32
    std::vector<Half> rowH;   //!< fp16 round-trip of the score row
    std::vector<float> acc;   //!< output accumulator, fp32, dHead

    /** Size every buffer for one (dHead, context) problem. */
    void
    prepare(int64_t d_head, int64_t context)
    {
        qf.resize(size_t(d_head));
        rows.resize(size_t(kDecodeRowChunk * d_head));
        row.resize(size_t(context));
        rowH.resize(size_t(context));
        acc.resize(size_t(d_head));
    }
};

/**
 * One head's decode-step attention: score the query row against every
 * cached K row, safe-softmax the score row, and reduce against the
 * cached V rows.
 *
 * @param q_row the query head slice, dHead contiguous halfs
 * @param k,v   cached rows; both views must have rows >= 1 (the
 *              current token's K/V must already be appended)
 * @param out   destination, dHead halfs
 * @param ws    staging buffers to reuse; nullptr makes the call
 *              allocate its own (fine for tests, not for the decode
 *              loop)
 */
void decodeAttendRun(const ExecContext &ctx,
                     const DecodeAttendDesc &desc, const Half *q_row,
                     const KvRowsView &k, const KvRowsView &v,
                     Half *out, DecodeAttendWorkspace *ws = nullptr);

} // namespace softrec

#endif // SOFTREC_KERNELS_DECODE_ATTENTION_HPP
