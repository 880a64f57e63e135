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
#include "kernels/bsr_gemm.hpp"
#include "kernels/bsr_softmax.hpp"
#include "kernels/softmax_kernels.hpp"
#include "kernels/streaming_attention.hpp"

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
runDense(const ExecContext &ctx, const SdaConfig &config,
         const AttentionInputs &inputs, Strategy strategy,
         AttentionWorkspace &ws, Tensor<Half> &out)
{
    const int64_t L = config.seqLen;
    const int64_t kv = config.keyLen();
    const int64_t dh = config.dHead;
    SOFTREC_ASSERT(inputs.q.shape() == Shape({L, dh}),
                   "Q shape %s != [L, dHead]",
                   inputs.q.shape().toString().c_str());
    const bool baseline = strategy == Strategy::Baseline;
    const bool decomposed = strategy == Strategy::Decomposed;
    const bool fused = strategy == Strategy::Fused;

    GemmTiling tiling = config.attnTiling;
    if (fused)
        tiling.tileN = config.subVector;

    GemmDesc qk;
    qk.name = "sda.qk";
    qk.m = L;
    qk.n = kv;
    qk.k = dh;
    qk.tiling = tiling;
    qk.epilogue.scale = config.scale();
    qk.epilogue.causalMask = config.causalMask;
    qk.epilogue.localSoftmax = fused;

    // The softmax stage of one strip; rows and firstRow are per strip.
    SoftmaxShape sub;
    sub.cols = kv;
    sub.subVector = fused ? tiling.tileN : config.subVector;
    sub.causal = config.causalMask;
    const int64_t nsv = baseline ? 0 : sub.numSubVectors();

    // Every strategy hands P.V a left operand that is +0 past the
    // diagonal of a causal row (probabilities or X'), so P.V stops
    // there.
    GemmDesc av;
    av.name = "sda.av";
    av.m = L;
    av.n = dh;
    av.k = kv;
    av.tiling = config.attnTiling;
    av.prologue.causalA = config.causalMask;
    av.prologue.globalScale = fused;
    av.prologue.gsSubVector = sub.subVector;

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
    gemmPackB(qk, k_op, ws.kPanels, qk_traffic);
    GemmOperands v_op;
    v_op.b = &inputs.v;
    gemmPackB(av, v_op, ws.vPanels, av_traffic);

    const SimdBackend backend = simdBackend();
    const auto runStrip = [&](int64_t m0, int64_t mh, AttentionStrip &buf) {
        const Shape matrix({mh, kv});
        SoftmaxShape shape = sub;
        shape.rows = mh;
        shape.firstRow = m0;
        if (buf.staging.size() < size_t(kv))
            buf.staging.resize(size_t(kv));

        // QK^T: scores, or X' with m'/d' under the fused LS epilogue.
        Tensor<Half> &qk_out = fused ? buf.xPrime : buf.scores;
        qk_out.resize(matrix);
        GemmStrip qs;
        qs.row0 = m0;
        qs.rows = mh;
        qs.a = inputs.q.rowPtr(m0);
        qs.lda = dh;
        qs.c = qk_out.data();
        qs.ldc = kv;
        if (!baseline) {
            const Shape md_shape({mh, nsv});
            buf.localMax.resize(md_shape);
            buf.localSum.resize(md_shape);
            buf.recon.resize(md_shape);
        }
        if (fused) {
            qs.localMax = buf.localMax.data();
            qs.localSum = buf.localSum.data();
            qs.mdLd = nsv;
        }
        gemmRunStrip(backend, qk, ws.kPanels.data(), nullptr, qs,
                     buf.gemm, qk_traffic);

        // The strip's softmax stage.
        switch (strategy) {
          case Strategy::Baseline:
            buf.probs.resize(matrix);
            rowSoftmaxRows(backend, shape, buf.scores, buf.probs,
                           {0, mh, buf.staging.data(), &*row_scope});
            break;
          case Strategy::Decomposed:
            buf.xPrime.resize(matrix);
            lsRows(backend, shape, buf.scores, buf.xPrime, buf.localMax,
                   buf.localSum, {0, mh, buf.staging.data(), &*ls_scope});
            irRows(backend, shape, buf.localMax, buf.localSum, buf.recon,
                   {0, mh, nullptr, &*ir_scope});
            buf.probs.resize(matrix);
            gsRows(shape, buf.xPrime, buf.recon, buf.probs,
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
        vs.a = fused ? buf.xPrime.data() : buf.probs.data();
        vs.lda = kv;
        if (fused) {
            vs.gsFactors = buf.recon.data();
            vs.gsLd = nsv;
        }
        vs.c = out.rowPtr(m0);
        vs.ldc = dh;
        gemmRunStrip(backend, av, ws.vPanels.data(), nullptr, vs,
                     buf.gemm, av_traffic);
    };

    // Strips write disjoint output rows and each worker slot owns its
    // strip buffers, so the result is bit-identical for any thread
    // count.
    const int64_t tile_m = config.attnTiling.tileM;
    if (ws.strips.size() < size_t(maxThreadSlots()))
        ws.strips.resize(size_t(maxThreadSlots()));
    parallelFor(ctx, 0, ceilDiv(L, tile_m), 1,
                [&](int64_t strip0, int64_t strip1) {
        AttentionStrip &buf = ws.strips[size_t(currentThreadSlot())];
        for (int64_t strip = strip0; strip < strip1; ++strip) {
            const int64_t m0 = strip * tile_m;
            runStrip(m0, std::min(tile_m, L - m0), buf);
        }
    });
}

void
runSparse(const ExecContext &ctx, const SdaConfig &config,
          const AttentionInputs &inputs, Strategy strategy,
          Tensor<Half> &out)
{
    SOFTREC_ASSERT(config.sparse(), "sparse attention needs a layout");
    const BsrLayout &layout = *config.layout;
    const int64_t dh = config.dHead;
    const size_t sub_count =
        size_t(layout.nnzBlocks() * layout.blockSize());

    BsrSddDesc qk;
    qk.layout = &layout;
    qk.dHead = dh;
    qk.scale = config.scale();

    BsrDsdDesc av;
    av.layout = &layout;
    av.dHead = dh;

    BsrSoftmaxDesc sub;
    sub.layout = &layout;

    switch (strategy) {
      case Strategy::Baseline: {
        BsrMatrix scores(layout);
        bsrSddRun(ctx, qk, inputs.q, inputs.k, scores);
        BsrMatrix probs(layout);
        bsrRowSoftmaxRun(ctx, sub, scores, probs);
        bsrDsdRun(ctx, av, probs, inputs.v, out);
        break;
      }
      case Strategy::Decomposed: {
        BsrMatrix scores(layout);
        bsrSddRun(ctx, qk, inputs.q, inputs.k, scores);
        BsrMatrix x_prime(layout);
        std::vector<float> local_max, local_sum;
        bsrLsRun(ctx, sub, scores, x_prime, local_max, local_sum);
        std::vector<float> recon;
        bsrIrRun(ctx, sub, local_max, local_sum, recon);
        BsrMatrix probs(layout);
        bsrGsRun(ctx, sub, x_prime, recon, probs);
        bsrDsdRun(ctx, av, probs, inputs.v, out);
        break;
      }
      case Strategy::Fused: {
        BsrMatrix x_prime(layout);
        std::vector<float> local_max(sub_count), local_sum(sub_count);
        qk.fuseLocalSoftmax = true;
        bsrSddRun(ctx, qk, inputs.q, inputs.k, x_prime, &local_max,
                  &local_sum);
        std::vector<float> recon;
        bsrIrRun(ctx, sub, local_max, local_sum, recon);
        av.fuseGlobalScale = true;
        bsrDsdRun(ctx, av, x_prime, inputs.v, out, &recon);
        break;
      }
    }
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
    if (config.backend == AttentionBackend::Streaming) {
        if (config.sparse()) {
            fatal("SOFTREC_ATTENTION=streaming supports dense "
                  "attention only; block-sparse layouts run the "
                  "recomposed backend");
        }
        // Time-only summary scope, like the strategies below; the
        // kernel records its own traffic under "sda.stream".
        prof::Scope scope(ctx, "attention.streaming");
        StreamingAttentionDesc desc;
        desc.seqLen = config.seqLen;
        desc.kvLen = config.keyLen();
        desc.dHead = config.dHead;
        desc.causalMask = config.causalMask;
        desc.scale = config.scale();
        streamingAttentionRun(ctx, desc, inputs.q, inputs.k, inputs.v,
                              out);
        return;
    }
    // Time-only summary scope; the kernels inside record their own
    // time and traffic under their individual names.
    prof::Scope scope(ctx, attentionScopeName(strategy));
    if (config.sparse())
        runSparse(ctx, config, inputs, strategy, out);
    else
        runDense(ctx, config, inputs, strategy, ws, out);
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
