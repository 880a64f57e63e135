/**
 * @file
 * KV-cached decode attention implementation.
 *
 * Bit-identity contract with the prefill path (gemmRun + rowSoftmaxRun
 * + gemmRun on the full prefix):
 *
 *  - scores: one d-ascending fma chain from +0 per element
 *    (fmaDotRows, eight cached positions per vector), then the GEMM
 *    tile's epilogue primitive (epilogueTile: the scale, then the
 *    fp16 store) - exactly the per-element chain of the packed GEMM
 *    tile (which accumulates k-ascending whatever the tiling) and its
 *    epilogue/store.
 *  - softmax: rowSoftmaxRows' row body, softmaxRow, on the stored
 *    score row, so the two run one primitive over one row. A causal
 *    prefill row stops at the diagonal, so it covers exactly the
 *    decode context. That stop is itself bit-exact against the
 *    full-row kernel on the -inf tail: maxSpan never lets -inf
 *    replace a lane's max, and expSpan maps each masked column to +0
 *    and adds it to lane j % 8, where adding +0 to a lane sum (itself
 *    >= +0) leaves its bits unchanged; the eight lanes are then
 *    combined by the same fixed tree. So max and denominator, and
 *    with them the probabilities, are bit-identical for any
 *    context % 8.
 *  - output: one fma chain in ascending key order per element
 *    (fmaAccumRows) - the GEMM tile's k-ascending chain for the P.V
 *    GEMM. Causal P.V (GemmPrologue::causalA) skips the masked tail
 *    rather than adding its +0 terms, so prefill reads the same V rows
 *    as decode and the two agree even when a later V row is not
 *    finite.
 *
 * Over an fp16 KV cache both products of every chain have fp16
 * operands (the probabilities are stored through fp16 too), so each
 * fma gives the bits of a separate multiply and add
 * (kernels/fma_dot.hpp); over an int8 cache the dequantized rows are
 * fp32 and the fma rounds once where a mul+add would round twice.
 *
 * All Half<->float conversions use the batch converters, which are
 * bit-identical to scalar conversion on every backend.
 */

#include "kernels/decode_attention.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/fma_dot.hpp"
#include "kernels/kernel_common.hpp"

namespace softrec {

namespace {

/**
 * Calls fn(r0, rows, ld, n) over consecutive batches of the cached
 * rows [0, count): `rows` points at the batch's first head slice
 * (fp16 in place, or int8 dequantized into staging), ld is its row
 * stride and r0 the batch's first position. An fp16 batch is one
 * block's run of rows, an int8 batch up to kDecodeRowChunk rows.
 */
template <typename Fn>
void
forEachRowBatch(const KvRowsView &view, int64_t col, int64_t width,
                int64_t count, float *staging, Fn &&fn)
{
    for (int64_t r0 = 0; r0 < count;) {
        if (view.dtype == KvDtype::F16) {
            const int64_t n = std::min(count - r0,
                                       view.blockTokens -
                                           r0 % view.blockTokens);
            fn(r0, view.row(r0) + col, view.rowWidth, n);
            r0 += n;
        } else {
            const int64_t n = std::min(kDecodeRowChunk, count - r0);
            for (int64_t r = 0; r < n; ++r)
                view.loadRow(r0 + r, col, width, staging + r * width);
            fn(r0, static_cast<const float *>(staging), width, n);
            r0 += n;
        }
    }
}

/**
 * Scores of the fp32 query slice q (`width` wide) against the head
 * slice at column `col` of cached rows [0, count): out[r] is one
 * d-ascending fma chain from +0 (fmaDotRows). `staging` holds
 * kDecodeRowChunk * width floats for int8 rows.
 */
void
kvDotRows(SimdBackend backend, const float *q, const KvRowsView &view,
          int64_t col, int64_t width, int64_t count, float *staging,
          float *out)
{
    forEachRowBatch(view, col, width, count, staging,
                    [&](int64_t r0, const auto *rows, int64_t ld,
                        int64_t n) {
                        fmaDotRows(backend, q, rows, ld, n, width,
                                   out + r0);
                    });
}

/**
 * P.V over the same rows: acc[d] = fma(p[r], row[d], acc[d]) for r
 * ascending over [0, count) (fmaAccumRows).
 */
void
kvAccumRows(SimdBackend backend, const float *p, const KvRowsView &view,
            int64_t col, int64_t width, int64_t count, float *staging,
            float *acc)
{
    forEachRowBatch(view, col, width, count, staging,
                    [&](int64_t r0, const auto *rows, int64_t ld,
                        int64_t n) {
                        fmaAccumRows(backend, p + r0, rows, ld, n, width,
                                     acc);
                    });
}

} // namespace

void
decodeAttendRun(const ExecContext &ctx, const DecodeAttendDesc &desc,
                const Half *q_row, const KvRowsView &k,
                const KvRowsView &v, Half *out,
                DecodeAttendWorkspace *ws)
{
    const int64_t dh = desc.dHead;
    const int64_t context = k.rows;
    SOFTREC_ASSERT(dh > 0 && context > 0 && v.rows == context,
                   "decode attention needs matching K/V contexts "
                   "(k=%lld, v=%lld)", (long long)context,
                   (long long)v.rows);
    SOFTREC_ASSERT(desc.headOffset >= 0 &&
                   desc.headOffset + dh <= k.rowWidth &&
                   k.rowWidth == v.rowWidth,
                   "head slice outside the cached row");
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();

    prof::Scope scope(ctx, "decode.attend");
    // The fp16 score-row staging below (score store -> softmax read
    // -> probability store -> P.V read) is the same four crossings
    // the batch path attributes to its softmax.* scopes, so it gets
    // the same byte-only attribution here; without it the decode /
    // prefill traffic ratios are skewed in decode's favour.
    std::optional<prof::Scope> row_scope;
    if (scope.active()) {
        scope.addRead(uint64_t(dh) * kFp16Bytes +              // q
                      uint64_t(2 * context * dh) *
                          uint64_t(k.elemBytes()));            // K, V
        scope.addWrite(uint64_t(dh) * kFp16Bytes);
        // softrec-lint: allow(hot-path-alloc) — profiling-only
        // branch; a disabled profiler never reaches this emplace.
        row_scope.emplace(ctx, "softmax.row.decode",
                          prof::Scope::Kind::BytesOnly);
        row_scope->addWrite(uint64_t(2 * context) * kFp16Bytes);
        row_scope->addRead(uint64_t(2 * context) * kFp16Bytes);
    }

    DecodeAttendWorkspace local;
    DecodeAttendWorkspace &w = ws != nullptr ? *ws : local;
    w.prepare(dh, context);
    std::vector<float> &qf = w.qf;
    std::vector<float> &staging = w.rows;
    std::vector<float> &row = w.row;
    std::vector<Half> &row_h = w.rowH;
    halfToFloat(q_row, qf.data(), dh);
    const SimdBackend backend = simdBackend();

    // Scores: q . K^T through the GEMM tile's epilogue (the scale,
    // then the fp16 store), as one row of width context.
    kvDotRows(backend, qf.data(), k, desc.headOffset, dh, context,
              staging.data(), row.data());
    EpilogueTile scores;
    scores.acc = row.data();
    scores.rows = 1;
    scores.width = context;
    scores.ld = context;
    scores.scale = float(desc.scale);
    scores.out = row_h.data();
    scores.outLd = context;
    epilogueTile(backend, scores);

    // Safe softmax over the score row: rowSoftmaxRows' row body.
    const RowSoftmaxStats stats =
        softmaxRow(backend, row_h.data(), row.data(), row_h.data(), context);
    SOFTREC_CHECK(stats.sum > 0.0f || stats.max == kNegInf,
                  "decode attention normalizer d = %f must be positive "
                  "(the current token always attends to itself)",
                  double(stats.sum));

    // Output: P . V in ascending key order per output element.
    halfToFloat(row_h.data(), row.data(), context);
    std::vector<float> &acc = w.acc;
    std::fill(acc.begin(), acc.end(), 0.0f);
    kvAccumRows(backend, row.data(), v, desc.headOffset, dh, context,
                staging.data(), acc.data());
    floatToHalf(acc.data(), out, dh);
}

} // namespace softrec
