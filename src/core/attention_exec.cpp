/**
 * @file
 * Functional attention executor implementation.
 */

#include "core/attention_exec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/softmax_kernels.hpp"

namespace softrec {

namespace {

constexpr double kNegInfD = -std::numeric_limits<double>::infinity();

} // namespace

uint64_t
AttentionWorkspace::heldBytes() const
{
    uint64_t bytes =
        (kPanels.capacity() + vPanels.capacity()) * sizeof(float);
    for (const AttentionStrip &strip : strips) {
        bytes += (strip.scores.capacity() + strip.xPrime.capacity() +
                  strip.probs.capacity()) * sizeof(Half);
        bytes += (strip.localMax.capacity() + strip.localSum.capacity() +
                  strip.recon.capacity() + strip.staging.capacity() +
                  strip.gemm.a.capacity() + strip.gemm.acc.capacity()) *
                 sizeof(float);
    }
    return bytes;
}

AttentionInputs
makeAttentionInputs(const SdaConfig &config)
{
    AttentionInputs inputs{
        Tensor<Half>(Shape({config.seqLen, config.dHead})),
        Tensor<Half>(Shape({config.keyLen(), config.dHead})),
        Tensor<Half>(Shape({config.keyLen(), config.dHead})),
    };
    return inputs;
}

namespace {

void
runStrips(const ExecContext &ctx, const SdaConfig &config,
          const AttentionInputs &inputs, Strategy strategy,
          AttentionWorkspace &ws, Tensor<Half> &out)
{
    const int64_t L = config.seqLen;
    const int64_t kv = config.keyLen();
    const int64_t dh = config.dHead;
    SOFTREC_ASSERT(inputs.q.shape() == Shape({L, dh}),
                   "Q shape %s != [L, dHead]",
                   inputs.q.shape().toString().c_str());
    const BsrLayout *layout = config.layout;
    SOFTREC_ASSERT(!layout || (layout->rows() == L && layout->cols() == kv),
                   "layout %s does not cover the [%lld, %lld] scores",
                   layout ? layout->toString().c_str() : "",
                   (long long)L, (long long)kv);
    const bool baseline = strategy == Strategy::Baseline;
    const bool decomposed = strategy == Strategy::Decomposed;
    const bool fused = strategy == Strategy::Fused;

    // Sub-vectors of a block-sparse head are one block wide, and so
    // are its QK^T n-tiles, so a block row's strips run over its
    // column blocks' tiles only. A dense head's QK^T takes the free
    // tile width, under SDF's LS a whole number of sub-vectors wide.
    const int64_t bs = layout ? layout->blockSize() : 0;
    const int64_t sv_width = layout ? bs : config.subVector;
    const SimdBackend backend = simdBackend();
    GemmTiling tiling = config.attnTiling;
    if (layout) {
        tiling.tileN = bs;
    } else {
        tiling.tileN = gemmFreeTileN(backend, tiling.tileN, kv);
        if (fused)
            tiling.tileN = std::max(sv_width,
                                    tiling.tileN / sv_width * sv_width);
    }

    GemmDesc qk;
    qk.name = "sda.qk";
    qk.m = L;
    qk.n = kv;
    qk.k = dh;
    qk.tiling = tiling;
    qk.epilogue.scale = config.scale();
    qk.epilogue.causalMask = config.causalMask;
    qk.epilogue.localSoftmax = fused;
    qk.epilogue.lsSubVector = sv_width;

    // The softmax stage of one strip; rows, cols and firstRow are per
    // strip.
    SoftmaxShape sub;
    sub.subVector = sv_width;
    sub.causal = config.causalMask;

    // Every strategy hands P.V a left operand that is +0 past the
    // diagonal of a causal row (probabilities or X'), so P.V stops
    // there.
    GemmDesc av;
    av.name = "sda.av";
    av.m = L;
    av.n = dh;
    av.k = kv;
    av.tiling = config.attnTiling;
    av.tiling.tileN = gemmFreeTileN(backend, av.tiling.tileN, dh);
    av.prologue.causalA = config.causalMask;
    av.prologue.globalScale = fused;
    av.prologue.gsSubVector = sv_width;

    // The strip buffers are [rows, widest] for the whole head, widest
    // being the most keys any strip attends to, so a slot's buffers
    // do not depend on which strips it ran.
    int64_t widest = kv;
    if (layout) {
        widest = 0;
        for (int64_t br = 0; br < layout->blockRows(); ++br)
            widest = std::max(widest, layout->rowNnzBlocks(br) * bs);
    }
    const int64_t md_ld = baseline ? 0 : ceilDiv(widest, sv_width);

    // One profiler row per stage, entered once per head; each strip's
    // stage adds a segment to it.
    constexpr auto kSegmented = prof::Scope::Kind::Segmented;
    prof::Scope qk_scope(ctx, qk.name.c_str(), kSegmented);
    GemmTraffic qk_traffic(ctx, qk, qk_scope);
    std::optional<prof::Scope> row_scope, ls_scope, ir_scope, gs_scope;
    if (baseline) {
        row_scope.emplace(ctx, "softmax.row", kSegmented);
    } else {
        if (decomposed)
            ls_scope.emplace(ctx, "softmax.ls", kSegmented);
        ir_scope.emplace(ctx, "softmax.ir", kSegmented);
        if (decomposed)
            gs_scope.emplace(ctx, "softmax.gs", kSegmented);
    }
    prof::Scope av_scope(ctx, av.name.c_str(), kSegmented);
    GemmTraffic av_traffic(ctx, av, av_scope);

    // K and V are packed once per head; every strip streams them.
    GemmOperands k_op;
    k_op.b = &inputs.k;
    k_op.transposeB = true;
    const float *k_panels = gemmPackB(qk, k_op, ws.kPanels, qk_traffic);
    GemmOperands v_op;
    v_op.b = &inputs.v;
    const float *v_panels = gemmPackB(av, v_op, ws.vPanels, av_traffic);

    // Shape a slot's buffers for a strip of `rows` rows: the tensors
    // its strategy uses, each [rows, widest] or [rows, md_ld] whatever
    // keys the strip attends to.
    const auto shapeStrip = [&](AttentionStrip &buf, int64_t rows) {
        const Shape matrix({rows, widest});
        (fused ? buf.xPrime : buf.scores).resize(matrix);
        if (decomposed)
            buf.xPrime.resize(matrix);
        if (baseline)
            buf.probs.resize(matrix);
        if (!baseline) {
            const Shape md_shape({rows, md_ld});
            buf.localMax.resize(md_shape);
            buf.localSum.resize(md_shape);
            buf.recon.resize(md_shape);
        }
        if (buf.staging.size() < size_t(widest))
            buf.staging.resize(size_t(widest));
        buf.gemm.reserve(qk);
        buf.gemm.reserve(av);
    };

    // One strip: rows [m0, m0 + mh) against every key, or against the
    // `count` column blocks listed in `blocks`.
    const auto runStrip = [&](int64_t m0, int64_t mh, const int64_t *blocks,
                              int64_t count, AttentionStrip &buf) {
        shapeStrip(buf, mh);
        SoftmaxShape shape = sub;
        shape.rows = mh;
        shape.cols = blocks ? count * bs : kv;
        shape.firstRow = m0;

        // QK^T: scores, or X' with m'/d' under the fused LS epilogue.
        Tensor<Half> &qk_out = fused ? buf.xPrime : buf.scores;
        GemmStrip qs;
        qs.row0 = m0;
        qs.rows = mh;
        qs.a = inputs.q.rowPtr(m0);
        qs.lda = dh;
        qs.c = qk_out.data();
        qs.ldc = widest;
        qs.blocks = blocks;
        qs.blockCount = count;
        if (fused) {
            qs.localMax = buf.localMax.data();
            qs.localSum = buf.localSum.data();
            qs.mdLd = md_ld;
        }
        gemmRunStrip(backend, qk, k_panels, nullptr, qs,
                     buf.gemm, qk_traffic);

        // The strip's softmax stage.
        switch (strategy) {
          case Strategy::Baseline:
            rowSoftmaxRows(backend, shape, buf.scores, buf.probs,
                           {0, mh, buf.staging.data(), &*row_scope});
            break;
          case Strategy::Decomposed:
            lsRows(backend, shape, buf.scores, buf.xPrime, buf.localMax,
                   buf.localSum, {0, mh, buf.staging.data(), &*ls_scope});
            irRows(backend, shape, buf.localMax, buf.localSum, buf.recon,
                   {0, mh, nullptr, &*ir_scope});
            // The scores are dead once LS has read them, so GS
            // writes the probabilities over them.
            gsRows(backend, shape, buf.xPrime, buf.recon, buf.scores,
                   {0, mh, buf.staging.data(), &*gs_scope});
            break;
          case Strategy::Fused:
            irRows(backend, shape, buf.localMax, buf.localSum, buf.recon,
                   {0, mh, nullptr, &*ir_scope});
            break;
        }

        // P.V over the strip's probabilities, or X' scaled by r' in
        // the GS prologue.
        GemmStrip vs;
        vs.row0 = m0;
        vs.rows = mh;
        vs.a = fused ? buf.xPrime.data()
                     : baseline ? buf.probs.data() : buf.scores.data();
        vs.lda = widest;
        if (fused) {
            vs.gsFactors = buf.recon.data();
            vs.gsLd = md_ld;
        }
        vs.c = out.rowPtr(m0);
        vs.ldc = dh;
        vs.blocks = blocks;
        vs.blockCount = count;
        vs.kBlock = bs;
        gemmRunStrip(backend, av, v_panels, nullptr, vs,
                     buf.gemm, av_traffic);
    };

    // Dense attention is one group of L rows against every key; a
    // block-sparse head has one group per block row, against that
    // row's column blocks. Each group runs in strips of at most tileM
    // rows. Strips write disjoint output rows and each worker slot
    // owns its strip buffers, so the result is bit-identical for any
    // thread count.
    const int64_t group_rows = layout ? bs : L;
    const int64_t groups = layout ? layout->blockRows() : 1;
    const int64_t tile_m = std::min(config.attnTiling.tileM, group_rows);
    const int64_t group_strips = ceilDiv(group_rows, tile_m);
    const int64_t strips = groups * group_strips;
    if (ws.strips.size() < size_t(maxThreadSlots()))
        ws.strips.resize(size_t(maxThreadSlots()));
    // A pool's workers claim strips dynamically, so any of its slots
    // (0 for the caller, 1.. for the workers) may run one. They are
    // all shaped up front, so what a workspace holds after a run does
    // not depend on which slots the pool handed strips to. A single
    // strip, or a nested call, runs inline on the calling slot, which
    // runStrip shapes itself.
    if (strips > 1 && ctx.pool != nullptr && !ThreadPool::insideRun()) {
        for (int slot = 0; slot < ctx.threads(); ++slot)
            shapeStrip(ws.strips[size_t(slot)], tile_m);
    }
    parallelFor(ctx, 0, strips, 1,
                [&](int64_t strip0, int64_t strip1) {
        AttentionStrip &buf = ws.strips[size_t(currentThreadSlot())];
        for (int64_t strip = strip0; strip < strip1; ++strip) {
            const int64_t group = strip / group_strips;
            const int64_t r0 = (strip % group_strips) * tile_m;
            runStrip(group * group_rows + r0,
                     std::min(tile_m, group_rows - r0),
                     layout ? layout->rowBlockCols(group) : nullptr,
                     layout ? layout->rowNnzBlocks(group) : 0, buf);
        }
    });
}

/** Static scope name per strategy (prof::Scope keeps the pointer). */
const char *
attentionScopeName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::Baseline:
        return "attention.baseline";
      case Strategy::Decomposed:
        return "attention.decomposed";
      case Strategy::Fused:
        return "attention.fused";
    }
    return "attention";
}

} // namespace

void
runAttention(const ExecContext &ctx, const SdaConfig &config,
             const AttentionInputs &inputs, Strategy strategy,
             AttentionWorkspace &ws, Tensor<Half> &out)
{
    out.resize(Shape({config.seqLen, config.dHead}));
    if (config.sparse() && config.causalMask) {
        fatal("a causal mask does not combine with a block-sparse "
              "layout; encode the mask in the layout "
              "(causalWindowPattern)");
    }
    // Time-only summary scope; the kernels inside record their own
    // time and traffic under their individual names.
    prof::Scope scope(ctx, attentionScopeName(strategy));
    runStrips(ctx, config, inputs, strategy, ws, out);
}

Tensor<Half>
runAttention(const ExecContext &ctx, const SdaConfig &config,
             const AttentionInputs &inputs, Strategy strategy)
{
    AttentionWorkspace ws;
    Tensor<Half> out;
    runAttention(ctx, config, inputs, strategy, ws, out);
    return out;
}

Tensor<float>
referenceDenseAttention(const SdaConfig &config,
                        const AttentionInputs &inputs)
{
    const int64_t L = config.seqLen;
    const int64_t kv = config.keyLen();
    const int64_t dh = config.dHead;
    const double scale = config.scale();
    Tensor<float> out(Shape({L, dh}));
    std::vector<double> scores(static_cast<size_t>(kv), 0.0);
    for (int64_t i = 0; i < L; ++i) {
        for (int64_t j = 0; j < kv; ++j) {
            double s = 0.0;
            for (int64_t d = 0; d < dh; ++d) {
                s += double(float(inputs.q.at(i, d))) *
                     double(float(inputs.k.at(j, d)));
            }
            s *= scale;
            if (config.causalMask && j > i)
                s = kNegInfD;
            scores[size_t(j)] = s;
        }
        // Safe softmax in double precision.
        double m = kNegInfD;
        for (double s : scores)
            m = std::max(m, s);
        double d_sum = 0.0;
        for (double s : scores) {
            if (m != kNegInfD)
                d_sum += std::exp(s - m);
        }
        SOFTREC_CHECK(d_sum > 0.0 || m == kNegInfD,
                      "reference attention row %lld: d = %f must be "
                      "positive for an unmasked row",
                      (long long)i, d_sum);
        for (int64_t d = 0; d < dh; ++d) {
            double acc = 0.0;
            for (int64_t j = 0; j < kv; ++j) {
                const double p = d_sum > 0.0
                    ? std::exp(scores[size_t(j)] - m) / d_sum
                    : 0.0;
                acc += p * double(float(inputs.v.at(j, d)));
            }
            out.at(i, d) = float(acc);
        }
    }
    if constexpr (kCheckedBuild)
        checkFinite(out, "reference attention output");
    return out;
}

Tensor<float>
referenceSparseAttention(const SdaConfig &config,
                         const AttentionInputs &inputs)
{
    SOFTREC_ASSERT(config.sparse(), "sparse reference needs a layout");
    const BsrLayout &layout = *config.layout;
    const int64_t L = config.seqLen;
    const int64_t dh = config.dHead;
    const int64_t bs = layout.blockSize();
    const double scale = config.scale();
    Tensor<float> out(Shape({L, dh}));

    for (int64_t i = 0; i < L; ++i) {
        const int64_t br = i / bs;
        // Collect the row's non-masked column positions.
        std::vector<int64_t> cols;
        for (int64_t k = layout.rowBegin(br); k < layout.rowEnd(br);
             ++k) {
            const int64_t bc = layout.blockCol(k);
            for (int64_t j = 0; j < bs; ++j)
                cols.push_back(bc * bs + j);
        }
        std::vector<double> scores(cols.size());
        for (size_t c = 0; c < cols.size(); ++c) {
            double s = 0.0;
            for (int64_t d = 0; d < dh; ++d) {
                s += double(float(inputs.q.at(i, d))) *
                     double(float(inputs.k.at(cols[c], d)));
            }
            scores[c] = s * scale;
        }
        double m = kNegInfD;
        for (double s : scores)
            m = std::max(m, s);
        double d_sum = 0.0;
        for (double s : scores) {
            if (m != kNegInfD)
                d_sum += std::exp(s - m);
        }
        SOFTREC_CHECK(d_sum > 0.0 || m == kNegInfD,
                      "sparse reference row %lld: d = %f must be "
                      "positive for an unmasked row",
                      (long long)i, d_sum);
        for (int64_t d = 0; d < dh; ++d) {
            double acc = 0.0;
            for (size_t c = 0; c < cols.size(); ++c) {
                const double p = d_sum > 0.0
                    ? std::exp(scores[c] - m) / d_sum
                    : 0.0;
                acc += p * double(float(inputs.v.at(cols[c], d)));
            }
            out.at(i, d) = float(acc);
        }
    }
    if constexpr (kCheckedBuild)
        checkFinite(out, "sparse reference output");
    return out;
}

} // namespace softrec
