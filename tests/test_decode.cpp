/**
 * @file
 * Tests of the autoregressive generation study, plus the KV-cache
 * equivalence suite: incremental decode through the functional KV
 * path must be bit-identical to recomputing the full prefix at every
 * step, across thread counts and SIMD backends (each pinned per
 * test), at prompt lengths that leave every remainder modulo the exp
 * primitive's 8 sum lanes; and the edge cases of decodeAttendRun.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "kernels/decode_attention.hpp"
#include "model/decode.hpp"
#include "model/functional_layer.hpp"
#include "serve/kv_cache.hpp"
#include "sparse/patterns.hpp"

namespace softrec {
namespace {

constexpr int64_t kDm = 32;
constexpr int64_t kHeads = 2;
constexpr int64_t kDff = 48;
constexpr int64_t kLayers = 2;
constexpr int64_t kSteps = 5;

DecoderStack
makeStack(Rng &rng)
{
    return DecoderStack::random(kDm, kHeads, kDff, kLayers, rng);
}

Tensor<Half>
randomHalf(Rng &rng, int64_t rows, int64_t cols)
{
    Tensor<Half> t(Shape({rows, cols}));
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return t;
}

/** One decode step with a call-lifetime workspace (test-only). */
Tensor<Half>
decodeStep(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &inputs,
           const std::vector<KvCache *> &caches)
{
    DecodeStepWorkspace ws;
    Tensor<Half> outputs;
    runDecodeStepInto(ctx, stack, inputs, caches, ws, outputs);
    return outputs;
}

/** Full forward pass of the stack over `seq` (no cache). */
Tensor<Half>
fullForward(const ExecContext &ctx, const DecoderStack &stack,
            const Tensor<Half> &seq)
{
    Tensor<Half> x = seq;
    for (const EncoderLayerWeights &layer : stack.layers)
        x = runEncoderLayer(ctx, stack.config, layer, x);
    return x;
}

/** Append `row` of a [*, dm] tensor to `seq`. */
Tensor<Half>
appendRow(const Tensor<Half> &seq, const Tensor<Half> &rows,
          int64_t row)
{
    const int64_t n = seq.shape().dim(0);
    Tensor<Half> out(Shape({n + 1, seq.shape().dim(1)}));
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < seq.shape().dim(1); ++j)
            out.at(i, j) = seq.at(i, j);
    for (int64_t j = 0; j < seq.shape().dim(1); ++j)
        out.at(n, j) = rows.at(row, j);
    return out;
}

void
expectRowBitsEqual(const Tensor<Half> &got, int64_t got_row,
                   const Tensor<Half> &want, int64_t want_row,
                   const char *what, int64_t step)
{
    for (int64_t j = 0; j < got.shape().dim(1); ++j)
        ASSERT_EQ(got.at(got_row, j).bits(),
                  want.at(want_row, j).bits())
            << what << ": step " << step << " column " << j;
}

/**
 * Drive `kSteps` incremental decode steps and assert each output row
 * is bit-identical to a full-prefix recompute of the same sequence.
 */
void
checkIncrementalMatchesRecompute(const ExecContext &ctx,
                                 int64_t prompt_len)
{
    Rng rng(17);
    const DecoderStack stack = makeStack(rng);
    const Tensor<Half> prompt = randomHalf(rng, prompt_len, kDm);

    KvSlab slab(/*block_tokens=*/4, kDm);
    KvCache cache(slab, kLayers);
    const Tensor<Half> prefill_out =
        runPrefill(ctx, stack, prompt, cache);
    EXPECT_EQ(cache.context(), prompt_len);

    // The prefill itself must match a plain stack forward bit for bit.
    const Tensor<Half> plain = fullForward(ctx, stack, prompt);
    for (int64_t i = 0; i < prompt_len; ++i)
        expectRowBitsEqual(prefill_out, i, plain, i, "prefill", i);

    Tensor<Half> seq = prompt;
    Tensor<Half> input(Shape({1, kDm}));
    for (int64_t j = 0; j < kDm; ++j)
        input.at(0, j) = prefill_out.at(prompt_len - 1, j);

    for (int64_t t = 0; t < kSteps; ++t) {
        seq = appendRow(seq, input, 0);
        const Tensor<Half> decode_out =
            decodeStep(ctx, stack, input, {&cache});
        EXPECT_EQ(cache.context(), prompt_len + t + 1);

        const Tensor<Half> full = fullForward(ctx, stack, seq);
        expectRowBitsEqual(decode_out, 0, full,
                           seq.shape().dim(0) - 1, "decode", t);
        for (int64_t j = 0; j < kDm; ++j)
            input.at(0, j) = decode_out.at(0, j);
    }
}

/**
 * The suite runs once per prompt length. Every
 * full-prefix recompute row i carries a causally masked -inf tail of
 * a different length than the prefill row it must equal, so the
 * prompt lengths put every remainder of the context modulo 8 under
 * the lane-order sum, and 2055 spans many tiles. The decode steps'
 * own contexts (prompt + 1 .. prompt + kSteps) also cover every
 * remainder modulo 8, so each count of trailing positions that the
 * eight-per-vector decode scores leave to the one-row chain is met.
 */
class KvEquivalence : public testing::TestWithParam<int64_t>
{
  protected:
    static int64_t promptLen() { return GetParam(); }
};

TEST_P(KvEquivalence, SerialContext)
{
    checkIncrementalMatchesRecompute(ExecContext(), promptLen());
}

TEST_P(KvEquivalence, ThreadPool4)
{
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.pool = &pool;
    checkIncrementalMatchesRecompute(ctx, promptLen());
}

TEST_P(KvEquivalence, ScalarSimdBackend)
{
    const SimdBackend prev = setSimdBackend(SimdBackend::Scalar);
    checkIncrementalMatchesRecompute(ExecContext(), promptLen());
    setSimdBackend(prev);
}

TEST_P(KvEquivalence, DetectedSimdBackendThreaded)
{
    const SimdBackend prev =
        setSimdBackend(detectedSimdBackend());
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.pool = &pool;
    checkIncrementalMatchesRecompute(ctx, promptLen());
    setSimdBackend(prev);
}

TEST_P(KvEquivalence, SameBitsAcrossThreadCountsAndBackends)
{
    // Prefill outputs, decode outputs and the cached K/V bytes must
    // not depend on execution resources at all: run the same
    // generation under four (threads, backend) pairs and require
    // identical bits everywhere. The backends run different GEMM
    // micro-kernels (the prompt fills one 4-row register block and
    // leaves 3 rows), so this is also the layer-level check that the
    // scalar and SIMD kernels agree.
    Rng rng(23);
    const DecoderStack stack = makeStack(rng);
    const Tensor<Half> prompt = randomHalf(rng, promptLen(), kDm);

    auto generate = [&](int threads, SimdBackend backend) {
        const SimdBackend prev = setSimdBackend(backend);
        std::vector<uint16_t> bits;
        {
            ThreadPool pool(threads);
            ExecContext ctx;
            if (threads > 1)
                ctx.pool = &pool;
            KvSlab slab(/*block_tokens=*/4, kDm);
            KvCache cache(slab, kLayers);
            const Tensor<Half> out =
                runPrefill(ctx, stack, prompt, cache);
            for (int64_t i = 0; i < out.numel(); ++i)
                bits.push_back(out.data()[i].bits());
            Tensor<Half> input(Shape({1, kDm}));
            for (int64_t j = 0; j < kDm; ++j)
                input.at(0, j) = out.at(promptLen() - 1, j);
            for (int64_t t = 0; t < kSteps; ++t) {
                input = decodeStep(ctx, stack, input, {&cache});
                for (int64_t j = 0; j < kDm; ++j)
                    bits.push_back(input.at(0, j).bits());
            }
            for (int64_t layer = 0; layer < kLayers; ++layer) {
                for (const KvRowsView &view :
                     {cache.kView(layer), cache.vView(layer)}) {
                    for (int64_t pos = 0; pos < view.rows; ++pos)
                        for (int64_t j = 0; j < view.rowWidth; ++j)
                            bits.push_back(view.row(pos)[j].bits());
                }
            }
        }
        setSimdBackend(prev);
        return bits;
    };

    const auto reference = generate(1, SimdBackend::Scalar);
    for (const SimdBackend simd : availableSimdBackends()) {
        for (const int threads : {1, 4}) {
            if (simd == SimdBackend::Scalar && threads == 1)
                continue;
            EXPECT_EQ(generate(threads, simd), reference)
                << simdBackendName(simd) << " threads=" << threads;
        }
    }
}

TEST_P(KvEquivalence, PrefillCacheHoldsTheProjectedRows)
{
    Rng rng(29);
    const DecoderStack stack = makeStack(rng);
    const Tensor<Half> prompt = randomHalf(rng, promptLen(), kDm);

    KvSlab slab(/*block_tokens=*/3, kDm);
    KvCache cache(slab, kLayers);
    runPrefill(ExecContext(), stack, prompt, cache);

    // Layer 0's cached K rows must equal the fc.k projection of the
    // prompt (the cache stores projections, not raw embeddings).
    Tensor<Half> k(Shape({promptLen(), kDm}));
    projectRowsInto(ExecContext(), "fc.k", prompt, stack.layers[0].wk,
                    stack.layers[0].bk, /*gelu=*/false, k);
    const KvRowsView view = cache.kView(0);
    ASSERT_EQ(view.rows, promptLen());
    for (int64_t i = 0; i < promptLen(); ++i)
        for (int64_t j = 0; j < kDm; ++j)
            EXPECT_EQ(view.row(i)[j].bits(), k.at(i, j).bits())
                << "row " << i << " column " << j;
}

INSTANTIATE_TEST_SUITE_P(
    Prompts, KvEquivalence,
    testing::Values(int64_t(1), int64_t(7), int64_t(9), int64_t(10),
                    int64_t(17), int64_t(2055)),
    [](const testing::TestParamInfo<int64_t> &info) {
        return "prompt" + std::to_string(info.param);
    });

TEST(DecodeStep, StructureAndWeightBoundGemvs)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    const auto step = buildDecodeStep(spec, model, 1, 4096);
    // 6 GEMVs + attention + 2 residuals + 2 layernorms.
    EXPECT_EQ(step.size(), 11u);
    for (const auto &prof : step) {
        if (prof.name == "dec.fc.q" || prof.name == "dec.fc.out" ||
            prof.name == "dec.ff.1" || prof.name == "dec.ff.2") {
            // Weight streaming dominates a single-token GEMV.
            EXPECT_GE(prof.dramReadBytes,
                      uint64_t(model.dModel * model.dModel) * 2)
                << prof.name;
        }
    }
}

TEST(DecodeStep, AttentionTrafficTracksContext)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    auto cache_read = [&](int64_t context) {
        for (const auto &prof :
             buildDecodeStep(spec, model, 1, context))
            if (prof.name == "dec.attn")
                return prof.dramReadBytes;
        return uint64_t(0);
    };
    // KV cache grows linearly with context.
    EXPECT_NEAR(double(cache_read(4096)) / double(cache_read(1024)),
                4.0, 0.1);
}

TEST(Generation, PrefillDominatedByLongPrompts)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    DecodeRun run;
    run.promptLen = 4096;
    run.generateTokens = 16;
    const DecodeResult result = runGeneration(spec, model, run);
    EXPECT_GT(result.prefillSeconds, 0.0);
    EXPECT_GT(result.decodeSeconds, 0.0);
    EXPECT_GT(result.prefillSeconds, result.decodeSeconds);
    EXPECT_GT(result.secondsPerToken(16), 0.0);
    EXPECT_DOUBLE_EQ(result.totalSeconds(),
                     result.prefillSeconds + result.decodeSeconds);
}

TEST(Generation, RecompositionAcceleratesOnlyThePrefill)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    DecodeRun run;
    run.promptLen = 4096;
    run.generateTokens = 8;
    run.prefillStrategy = Strategy::Baseline;
    const DecodeResult base = runGeneration(spec, model, run);
    run.prefillStrategy = Strategy::Fused;
    const DecodeResult sdf = runGeneration(spec, model, run);
    EXPECT_LT(sdf.prefillSeconds, base.prefillSeconds);
    // Decode is strategy-independent (1 x C attention rows).
    EXPECT_DOUBLE_EQ(sdf.decodeSeconds, base.decodeSeconds);
}

TEST(Generation, NonCausalModelRejected)
{
    DecodeRun run;
    EXPECT_THROW(runGeneration(GpuSpec::a100(),
                               ModelConfig::bertLarge(), run),
                 std::logic_error);
}

TEST(Generation, PerTokenLatencyGrowsWithContext)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    Gpu gpu(spec);
    auto step_seconds = [&](int64_t context) {
        gpu.reset();
        for (const auto &prof :
             buildDecodeStep(spec, model, 1, context))
            gpu.launch(prof);
        return gpu.totalSeconds();
    };
    EXPECT_GT(step_seconds(8192), step_seconds(1024));
}

/** Attention bytes held by every worker slot of a step workspace. */
uint64_t
attentionBytes(const DecodeStepWorkspace &ws)
{
    uint64_t bytes = 0;
    for (const OwnRowsSlot &slot : ws.ownRows)
        bytes += slot.attn.heldBytes();
    return bytes;
}

TEST(AttentionMemory, StripBuffersStayBelowOneScoreMatrix)
{
    // Dense attention runs strip by strip, so the attention buffers of
    // all worker slots together (packed K/V plus one strip each) stay
    // below a single L x L fp16 matrix at the serving shape, for a
    // causal Baseline prefill and a non-causal SDF encoder layer.
    constexpr int64_t kL = 2048, kModel = 256, kModelHeads = 4;
    const uint64_t score_matrix = uint64_t(kL * kL) * sizeof(Half);
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.pool = &pool;
    Rng rng(91);
    DecoderStack stack =
        DecoderStack::random(kModel, kModelHeads, kModel, 1, rng);
    Tensor<Half> prompt(Shape({kL, kModel}));
    for (int64_t i = 0; i < prompt.numel(); ++i)
        prompt.data()[i] = Half(float(rng.normal(0.0, 0.5)));

    DecodeStepWorkspace prefill_ws;
    KvSlab slab(/*block_tokens=*/16, kModel);
    KvCache cache(slab, 1);
    PrefillState state;
    state.prepare(stack, kL);
    Tensor<Half> outputs;
    runPrefill(ctx, stack, prompt, kL, cache, state, prefill_ws, outputs);
    EXPECT_GT(attentionBytes(prefill_ws), 0u);
    EXPECT_LT(attentionBytes(prefill_ws), score_matrix);

    FunctionalLayerConfig encoder = stack.config;
    encoder.causalMask = false;
    encoder.strategy = Strategy::Fused;
    DecodeStepWorkspace encoder_ws;
    runEncoderLayer(ctx, encoder, stack.layers[0], prompt, encoder_ws);
    EXPECT_GT(attentionBytes(encoder_ws), 0u);
    EXPECT_LT(attentionBytes(encoder_ws), score_matrix);
}

TEST(AttentionMemory, SparseHeadStaysBelowOneLayoutMatrix)
{
    // A block-sparse head runs the same strip loop: K and V packed
    // once, one strip of one block row per worker slot, every slot
    // sized to the head's widest block row (all kv keys here, since
    // BigBird has global rows). Against one layout-sized fp16 matrix
    // (nnz x bs^2 x 2 bytes), the packed K/V stay below a half and
    // each slot below an eighth, so a head on up to four slots holds
    // less than one layout matrix. A second run through the same
    // workspace allocates nothing more.
    const BsrLayout layout = bigBirdPattern(4096, BigBirdParams{});
    const uint64_t layout_matrix =
        uint64_t(layout.nnzElements()) * sizeof(Half);
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.pool = &pool;
    SdaConfig config;
    config.seqLen = layout.rows();
    config.dHead = 64;
    config.layout = &layout;
    config.subVector = layout.blockSize();
    config.attnTiling = FunctionalLayerConfig().attnTiling;
    AttentionInputs inputs = makeAttentionInputs(config);
    Rng rng(92);
    for (Tensor<Half> *t : {&inputs.q, &inputs.k, &inputs.v})
        for (int64_t i = 0; i < t->numel(); ++i)
            t->data()[i] = Half(float(rng.normal(0.0, 1.0)));

    for (Strategy strategy :
         {Strategy::Baseline, Strategy::Decomposed, Strategy::Fused}) {
        AttentionWorkspace ws;
        Tensor<Half> out;
        runAttention(ctx, config, inputs, strategy, ws, out);
        const uint64_t held = ws.heldBytes();
        const uint64_t panels =
            (ws.kPanels.capacity() + ws.vPanels.capacity()) *
            sizeof(float);
        // Every slot of the pool is shaped alike, so each holds an
        // equal share of the strip buffers.
        const uint64_t per_slot = (held - panels) / uint64_t(ctx.threads());
        EXPECT_GT(per_slot, 0u) << strategyName(strategy);
        EXPECT_LT(panels, layout_matrix / 2) << strategyName(strategy);
        EXPECT_LT(per_slot, layout_matrix / 8) << strategyName(strategy);
        EXPECT_LT(held, layout_matrix) << strategyName(strategy);
        runAttention(ctx, config, inputs, strategy, ws, out);
        EXPECT_EQ(ws.heldBytes(), held) << strategyName(strategy);
    }
}

// --- decodeAttendRun edge cases ---------------------------------------

/** Single-block KV view over a [rows, width] tensor. */
struct TensorKvView
{
    const std::byte *block;
    KvRowsView view;

    TensorKvView(const Tensor<Half> &t, int64_t rows)
        : block(reinterpret_cast<const std::byte *>(t.data()))
    {
        view.blocks = &block;
        view.blockTokens = t.shape().dim(0);
        view.rowWidth = t.shape().dim(1);
        view.rows = rows;
    }
};

TEST(DecodeAttend, AllMaskedRowYieldsZeros)
{
    // Every score -inf (fully masked row): the kernel must emit a
    // zero row, not NaNs — exp(-inf - -inf) is the trap.
    const int64_t dh = 8;
    const int64_t context = 70;
    const float neg_inf = -std::numeric_limits<float>::infinity();
    Tensor<Half> k(Shape({context, dh}));
    Rng rng(59);
    Tensor<Half> v = randomHalf(rng, context, dh);
    std::vector<Half> q(size_t(dh), Half(1.0f));
    for (int64_t i = 0; i < k.numel(); ++i)
        k.data()[i] = Half(neg_inf);

    DecodeAttendDesc desc;
    desc.dHead = dh;
    TensorKvView kv(k, context);
    TensorKvView vv(v, context);
    std::vector<Half> out(size_t(dh), Half(7.0f));
    decodeAttendRun(ExecContext(), desc, q.data(), kv.view, vv.view,
                    out.data());
    for (int64_t j = 0; j < dh; ++j) {
        EXPECT_FALSE(std::isnan(float(out[size_t(j)]))) << j;
        EXPECT_EQ(float(out[size_t(j)]), 0.0f) << j;
    }
}

TEST(DecodeAttend, OneHotRowSurvivesDenomUnderflow)
{
    // One dominant score, the rest ~exp(-90) below it: the exp terms
    // underflow toward zero but the output must converge to the
    // dominant V row, not 0/0.
    const int64_t dh = 8;
    const int64_t context = 65;
    const int64_t hot = 37;
    Rng rng(61);
    Tensor<Half> k(Shape({context, dh}));
    Tensor<Half> v = randomHalf(rng, context, dh);
    for (int64_t pos = 0; pos < context; ++pos)
        for (int64_t j = 0; j < dh; ++j)
            k.at(pos, j) = Half(pos == hot ? 12.0f : -12.0f);
    std::vector<Half> q(size_t(dh), Half(1.0f));

    DecodeAttendDesc desc;
    desc.dHead = dh;
    TensorKvView kv(k, context);
    TensorKvView vv(v, context);
    std::vector<Half> out(size_t(dh), Half(0.0f));
    decodeAttendRun(ExecContext(), desc, q.data(), kv.view, vv.view,
                    out.data());
    for (int64_t j = 0; j < dh; ++j)
        EXPECT_NEAR(float(out[size_t(j)]), float(v.at(hot, j)), 1e-2)
            << j;
}

TEST(DecodeAttend, SingleTokenContextReturnsTheVRow)
{
    // Context of one: softmax over one score is exactly 1, so the
    // output is the V row bit for bit (fp32 round-trip is exact).
    const int64_t dh = 8;
    Rng rng(67);
    Tensor<Half> k = randomHalf(rng, 1, dh);
    Tensor<Half> v = randomHalf(rng, 1, dh);
    std::vector<Half> q(size_t(dh), Half(0.25f));

    DecodeAttendDesc desc;
    desc.dHead = dh;
    desc.scale = 0.125;
    TensorKvView kv(k, 1);
    TensorKvView vv(v, 1);
    std::vector<Half> out(size_t(dh), Half(0.0f));
    decodeAttendRun(ExecContext(), desc, q.data(), kv.view, vv.view,
                    out.data());
    for (int64_t j = 0; j < dh; ++j)
        EXPECT_EQ(out[size_t(j)].bits(), v.at(0, j).bits()) << j;
}

} // namespace
} // namespace softrec
