/**
 * @file
 * KV-cached decode attention implementation.
 *
 * Bit-identity contract with the prefill path (gemmRun + rowSoftmaxRun
 * + gemmRun on the full prefix):
 *
 *  - scores: fp32 accumulation in ascending d per element, then the
 *    scale epilogue, then an fp16 store — exactly the per-element
 *    order of the packed GEMM micro-kernel (which accumulates
 *    k-ascending whatever the tiling) and its epilogue/store.
 *  - softmax: the same staged three-pass safe softmax as
 *    rowSoftmaxRun, through the same maxSpan/expSpan calls. A causal
 *    prefill row stops at the diagonal, so it covers exactly the
 *    decode context. That stop is itself bit-exact against the
 *    full-row kernel on the -inf tail: maxSpan never lets -inf
 *    replace a lane's max, and expSpan maps each masked column to +0
 *    and adds it to lane j % 8, where adding +0 to a lane sum (itself
 *    >= +0) leaves its bits unchanged; the eight lanes are then
 *    combined by the same fixed tree. So max and denominator, and
 *    with them the probabilities, are bit-identical for any
 *    context % 8.
 *  - output: fp32 accumulation in ascending key order per element —
 *    the micro-kernel's k-ascending order for the P.V GEMM. Causal
 *    P.V (GemmPrologue::causalA) skips the masked tail rather than
 *    adding its +0 terms, so prefill reads the same V rows as decode
 *    and the two agree even when a later V row is not finite.
 *
 * All Half<->float conversions use the batch converters, which are
 * bit-identical to scalar conversion on every backend.
 */

#include "kernels/decode_attention.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include <optional>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/kernel_common.hpp"

namespace softrec {

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
    std::vector<float> &lane = w.lane;
    std::vector<float> &row = w.row;
    std::vector<Half> &row_h = w.rowH;
    halfToFloat(q_row, qf.data(), dh);

    // Scores: q . K^T with the scale epilogue, stored through fp16.
    for (int64_t pos = 0; pos < context; ++pos) {
        k.loadRow(pos, desc.headOffset, dh, lane.data());
        float acc = 0.0f;
        for (int64_t d = 0; d < dh; ++d)
            acc += qf[size_t(d)] * lane[size_t(d)];
        if (desc.scale != 1.0)
            acc *= float(desc.scale);
        row[size_t(pos)] = acc;
    }
    floatToHalf(row.data(), row_h.data(), context);

    // Safe softmax over the score row (rowSoftmaxRun's three passes).
    halfToFloat(row_h.data(), row.data(), context);
    const SimdBackend backend = simdBackend();
    const float max_val = maxSpan(backend, row.data(), context);
    const float denom =
        expSpan(backend, row.data(), max_val, row.data(), context);
    for (int64_t j = 0; j < context; ++j)
        row[size_t(j)] = denom > 0.0f ? row[size_t(j)] / denom : 0.0f;
    floatToHalf(row.data(), row_h.data(), context);
    SOFTREC_CHECK(denom > 0.0f || max_val == kNegInf,
                  "decode attention normalizer d = %f must be positive "
                  "(the current token always attends to itself)",
                  double(denom));

    // Output: P . V in ascending key order per output element.
    halfToFloat(row_h.data(), row.data(), context);
    std::vector<float> &acc = w.acc;
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int64_t pos = 0; pos < context; ++pos) {
        v.loadRow(pos, desc.headOffset, dh, lane.data());
        const float p = row[size_t(pos)];
        for (int64_t d = 0; d < dh; ++d)
            acc[size_t(d)] += p * lane[size_t(d)];
    }
    floatToHalf(acc.data(), out, dh);
}

} // namespace softrec
