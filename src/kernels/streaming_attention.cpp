/**
 * @file
 * Streaming-attention implementation.
 *
 * Each row folds key tiles of kStreamKeyTile positions in ascending
 * order, and for each tile runs the update sequence of
 * onlineTileUpdate below:
 *
 *  - scores: one d-ascending fma chain from +0 per element, then the
 *    conditional scale multiply - the per-element chain of the packed
 *    GEMM tile (kernels/fma_dot.hpp);
 *  - tile max (maxSpan), m_new = max(m, tile_max); a tile whose
 *    running max is still -inf is skipped;
 *  - rescale = exp(m - m_new) applied to d and (when != 1) to the
 *    accumulator, then e_j = exp(s_j - m_new) for the tile in one
 *    expSpan, whose lane-order sum is added to d, and e_j accumulated
 *    into the accumulator by one j-ascending fma chain per element
 *    (fmaAccumRows);
 *  - epilogue: one reciprocal inv = 1/d multiplied into the fp32
 *    accumulator (division-free inner loop), then the fp16 store.
 *
 * A causally masked row stops its tile sweep at the diagonal, so its
 * final tile is ragged. Every step is row-local, so the bits do not
 * depend on the strip split, the thread count or the SIMD backend
 * (tests/test_streaming_attention.cpp).
 *
 * q and K are fp16, so the score chains have the bits of a mul+add
 * loop; e_j is fp32, so the p.V chains round once per step where a
 * mul+add would round twice.
 */

#include "kernels/streaming_attention.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/fma_dot.hpp"
#include "kernels/kernel_common.hpp"

namespace softrec {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/** Key/value tile width: the width of one online-softmax update. */
constexpr int64_t kStreamKeyTile = 64;

/**
 * Fold one w-wide tile of scaled scores into a row's running
 * (m, d, acc) state: e_j times the tile's fp32 V row j (`vrows`, dh
 * wide) is added into acc, one j-ascending fma chain per element
 * (fmaAccumRows).
 */
inline void
onlineTileUpdate(SimdBackend backend, float *SOFTREC_RESTRICT s,
                 int64_t w, int64_t dh, float &m, float &d,
                 float *SOFTREC_RESTRICT acc, const float *vrows)
{
    const float m_new = std::max(m, maxSpan(backend, s, w));
    if (m_new == kNegInf)
        return; // every score so far is -inf; nothing to accumulate
    float rescale; // 1.0 when m == m_new, +0 when m is still -inf
    expSpan(backend, &m, m_new, &rescale, 1);
    const float tile_sum = expSpan(backend, s, m_new, s, w);
    d = d * rescale + tile_sum;
    if (rescale != 1.0f) {
        for (int64_t dd = 0; dd < dh; ++dd)
            acc[dd] *= rescale;
    }
    fmaAccumRows(backend, s, vrows, dh, w, dh, acc);
    m = m_new;
}

/**
 * Normalize and store one finished row: the single division of the
 * whole row, folded into the epilogue as a reciprocal multiply. A row
 * whose every score was -inf (m still -inf, d == 0) stores zeros,
 * matching decodeAttendRun's fully-masked behaviour.
 */
inline void
storeRow(float *SOFTREC_RESTRICT acc, int64_t dh, float m, float d,
         Half *out)
{
    SOFTREC_CHECK(d > 0.0f || m == kNegInf,
                  "streaming attention normalizer d = %f must be "
                  "positive for a row with any finite score",
                  double(d));
    if (d > 0.0f) {
        const float inv = 1.0f / d;
        for (int64_t dd = 0; dd < dh; ++dd)
            acc[dd] *= inv;
    } else {
        for (int64_t dd = 0; dd < dh; ++dd)
            acc[dd] = 0.0f;
    }
    floatToHalf(acc, out, dh);
}

/** Query strip height (rows per parallelFor chunk). */
constexpr int64_t kStreamQueryTile = 64;

} // namespace

void
streamingAttentionRun(const ExecContext &ctx,
                      const StreamingAttentionDesc &desc,
                      const Tensor<Half> &q, const Tensor<Half> &k,
                      const Tensor<Half> &v, Tensor<Half> &out)
{
    const int64_t L = desc.seqLen;
    const int64_t kv = desc.kvLen;
    const int64_t dh = desc.dHead;
    SOFTREC_ASSERT(L > 0 && kv > 0 && dh > 0,
                   "streaming attention has an empty problem");
    SOFTREC_ASSERT(q.shape() == Shape({L, dh}) &&
                   k.shape() == Shape({kv, dh}) &&
                   v.shape() == Shape({kv, dh}) &&
                   out.shape() == Shape({L, dh}),
                   "streaming attention operand shapes inconsistent "
                   "with the descriptor");
    // Unique-operand traffic: K and V are packed (read) once up front
    // on the submitting thread; per-strip q reads and output writes
    // are credited by whichever thread runs the strip. There is no
    // score-matrix term — that absence is the measured win.
    prof::Scope scope(ctx, "sda.stream");
    if (scope.active())
        scope.addRead(uint64_t(2 * kv * dh) * kFp16Bytes); // K, V
    const SimdBackend backend = simdBackend();

    // Pack K once into one fp32 panel per key tile, laid out
    // [dHead][kStreamKeyTile] (the gemm.cpp transposeB scatter), so
    // scoreTile streams it contiguously; ragged tail columns are
    // zero-padded and never consumed. V is converted once into fp32
    // rows shared read-only by every strip.
    const int64_t tiles = ceilDiv(kv, kStreamKeyTile);
    std::vector<float> kpack(size_t(tiles) * size_t(dh) *
                             size_t(kStreamKeyTile), 0.0f);
    std::vector<float> krow(size_t(dh), 0.0f);
    for (int64_t j = 0; j < kv; ++j) {
        halfToFloat(k.rowPtr(j), krow.data(), dh);
        float *panel = &kpack[size_t((j / kStreamKeyTile) * dh *
                                     kStreamKeyTile)];
        const int64_t jj = j % kStreamKeyTile;
        for (int64_t kk = 0; kk < dh; ++kk)
            panel[kk * kStreamKeyTile + jj] = krow[kk];
    }
    std::vector<float> vpack(size_t(kv) * size_t(dh));
    for (int64_t j = 0; j < kv; ++j)
        halfToFloat(v.rowPtr(j), &vpack[size_t(j * dh)], dh);

    // Parallel over query strips: every row's (m, d, acc) evolution is
    // row-local, so strip boundaries are invisible in the result bits
    // and the output is bit-identical for any thread count.
    const int64_t strips = ceilDiv(L, kStreamQueryTile);
    parallelFor(ctx, 0, strips, 1, [&](int64_t s0, int64_t s1) {
        std::vector<float> qf(size_t(kStreamQueryTile) * size_t(dh));
        std::vector<float> sbuf(size_t(kStreamQueryTile) *
                                size_t(kStreamKeyTile));
        std::vector<float> accbuf(size_t(kStreamQueryTile) *
                                  size_t(dh));
        std::vector<float> mbuf(size_t(kStreamQueryTile), kNegInf);
        std::vector<float> dbuf(size_t(kStreamQueryTile), 0.0f);
        for (int64_t strip = s0; strip < s1; ++strip) {
            const int64_t r0 = strip * kStreamQueryTile;
            const int64_t rh = std::min(kStreamQueryTile, L - r0);
            if (scope.active()) {
                scope.addRead(uint64_t(rh * dh) * kFp16Bytes);
                scope.addWrite(uint64_t(rh * dh) * kFp16Bytes);
            }
            for (int64_t i = 0; i < rh; ++i)
                halfToFloat(q.rowPtr(r0 + i), &qf[size_t(i * dh)], dh);
            std::fill(accbuf.begin(), accbuf.end(), 0.0f);
            std::fill(mbuf.begin(), mbuf.end(), kNegInf);
            std::fill(dbuf.begin(), dbuf.end(), 0.0f);

            // The strip's tile sweep stops at its last row's context;
            // each row additionally clamps its own consumption to the
            // diagonal.
            const int64_t strip_kv =
                desc.causalMask ? std::min(kv, r0 + rh) : kv;
            for (int64_t t0 = 0; t0 < strip_kv; t0 += kStreamKeyTile) {
                const int64_t w_full =
                    std::min(kStreamKeyTile, kv - t0);
                // Scores: the GEMM tile over the packed K panel, every
                // row at full depth.
                std::fill(sbuf.begin(),
                          sbuf.begin() + rh * kStreamKeyTile, 0.0f);
                fmaGemmTile(backend, qf.data(), dh,
                            &kpack[size_t((t0 / kStreamKeyTile) * dh *
                                          kStreamKeyTile)],
                            sbuf.data(), rh, dh, dh, kStreamKeyTile);
                if (desc.scale != 1.0) {
                    for (int64_t i = 0; i < rh; ++i) {
                        float *sr = &sbuf[size_t(i * kStreamKeyTile)];
                        for (int64_t j = 0; j < w_full; ++j)
                            sr[j] *= float(desc.scale);
                    }
                }
                for (int64_t i = 0; i < rh; ++i) {
                    const int64_t valid = desc.causalMask
                        ? std::min(r0 + i + 1, kv)
                        : kv;
                    if (t0 >= valid)
                        continue;
                    const int64_t w =
                        std::min(w_full, valid - t0);
                    onlineTileUpdate(
                        backend, &sbuf[size_t(i * kStreamKeyTile)], w, dh,
                        mbuf[size_t(i)], dbuf[size_t(i)],
                        &accbuf[size_t(i * dh)], &vpack[size_t(t0 * dh)]);
                }
            }
            for (int64_t i = 0; i < rh; ++i)
                storeRow(&accbuf[size_t(i * dh)], dh, mbuf[size_t(i)],
                         dbuf[size_t(i)], out.rowPtr(r0 + i));
        }
    });
}

} // namespace softrec
