/**
 * @file
 * Tests of the single-pass streaming-attention backend: tolerance
 * equivalence against the recomposed pipeline and the double gold
 * reference (bit-identity with the recomposed path is explicitly NOT
 * the contract — the softmax orders differ), bit-identity of the
 * streaming backend with itself across thread counts and SIMD
 * backends, bit-identity between streaming prefill rows and streaming
 * decode, and edge cases of both decode kernels (all-masked rows,
 * denom underflow, single-token context).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "kernels/decode_attention.hpp"
#include "kernels/streaming_attention.hpp"

namespace softrec {
namespace {

Tensor<Half>
randomHalf(Rng &rng, int64_t rows, int64_t cols)
{
    Tensor<Half> t(Shape({rows, cols}));
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return t;
}

AttentionInputs
randomInputs(Rng &rng, const SdaConfig &config)
{
    AttentionInputs inputs;
    inputs.q = randomHalf(rng, config.seqLen, config.dHead);
    inputs.k = randomHalf(rng, config.keyLen(), config.dHead);
    inputs.v = randomHalf(rng, config.keyLen(), config.dHead);
    return inputs;
}

double
maxAbsVsReference(const Tensor<Half> &got, const Tensor<float> &want)
{
    double worst = 0.0;
    for (int64_t i = 0; i < got.shape().dim(0); ++i)
        for (int64_t j = 0; j < got.shape().dim(1); ++j)
            worst = std::max(
                worst, std::abs(double(float(got.at(i, j))) -
                                double(want.at(i, j))));
    return worst;
}

double
maxAbsBetween(const Tensor<Half> &a, const Tensor<Half> &b)
{
    double worst = 0.0;
    for (int64_t i = 0; i < a.numel(); ++i)
        worst = std::max(worst,
                         std::abs(double(float(a.data()[i])) -
                                  double(float(b.data()[i]))));
    return worst;
}

/** Tolerance of the streaming-vs-recomposed contract (fp16 storage
 *  rounding of score/probability rows differs between the paths; the
 *  outputs are convex combinations of O(1) values). */
constexpr double kTol = 2e-2;

SdaConfig
streamingConfig(int64_t seq_len, int64_t kv_len, int64_t d_head,
                bool causal)
{
    SdaConfig config;
    config.seqLen = seq_len;
    config.kvLen = kv_len;
    config.dHead = d_head;
    config.causalMask = causal;
    config.backend = AttentionBackend::Streaming;
    return config;
}

/** Run one config under (threads, backend) and return the output. */
Tensor<Half>
runWith(const SdaConfig &config, const AttentionInputs &inputs,
        int threads, SimdBackend backend)
{
    const SimdBackend prev = setSimdBackend(backend);
    Tensor<Half> out;
    {
        ThreadPool pool(threads);
        ExecContext ctx;
        if (threads > 1)
            ctx.pool = &pool;
        out = runAttention(ctx, config, inputs, Strategy::Baseline);
    }
    setSimdBackend(prev);
    return out;
}

TEST(StreamingAttention, MatchesRecomposedAndReferenceWithinTolerance)
{
    // Ragged L (not a tile multiple), causal and non-causal, across
    // thread counts and SIMD backends: streaming must agree with the
    // recomposed pipeline and the double gold within kTol everywhere.
    Rng rng(41);
    for (const bool causal : {false, true}) {
        SdaConfig config = streamingConfig(/*seq_len=*/150,
                                           /*kv_len=*/0,
                                           /*d_head=*/32, causal);
        const AttentionInputs inputs = randomInputs(rng, config);
        const Tensor<float> gold =
            referenceDenseAttention(config, inputs);

        SdaConfig recomposed = config;
        recomposed.backend = AttentionBackend::Recomposed;
        const Tensor<Half> base = runWith(recomposed, inputs, 1,
                                          SimdBackend::Scalar);

        for (const int threads : {1, 4}) {
            for (const SimdBackend backend : availableSimdBackends()) {
                const Tensor<Half> out =
                    runWith(config, inputs, threads, backend);
                EXPECT_LT(maxAbsVsReference(out, gold), kTol)
                    << "causal=" << causal << " threads=" << threads;
                EXPECT_LT(maxAbsBetween(out, base), kTol)
                    << "causal=" << causal << " threads=" << threads;
            }
        }
    }
}

TEST(StreamingAttention, BitIdenticalAcrossThreadsAndSimd)
{
    // Within the streaming backend determinism is exact: rows are
    // row-local and every conversion is bit-identical per backend.
    Rng rng(43);
    const SdaConfig config =
        streamingConfig(/*seq_len=*/130, /*kv_len=*/0,
                        /*d_head=*/32, /*causal=*/true);
    const AttentionInputs inputs = randomInputs(rng, config);

    auto bits = [&](int threads, SimdBackend backend) {
        const Tensor<Half> out =
            runWith(config, inputs, threads, backend);
        std::vector<uint16_t> b;
        for (int64_t i = 0; i < out.numel(); ++i)
            b.push_back(out.data()[i].bits());
        return b;
    };
    const auto reference = bits(1, SimdBackend::Scalar);
    for (const SimdBackend simd : availableSimdBackends()) {
        for (const int threads : {1, 4}) {
            if (simd == SimdBackend::Scalar && threads == 1)
                continue;
            EXPECT_EQ(bits(threads, simd), reference)
                << simdBackendName(simd) << " threads=" << threads;
        }
    }
}

TEST(StreamingAttention, LongRaggedCrossAttentionWithinTolerance)
{
    // kv = 16385: one token past a tile boundary at L = 16k, the
    // paper's longest evaluation length. Cross-attention shape (64
    // queries) keeps the runtime test-sized.
    Rng rng(47);
    const SdaConfig config =
        streamingConfig(/*seq_len=*/64, /*kv_len=*/16385,
                        /*d_head=*/32, /*causal=*/false);
    const AttentionInputs inputs = randomInputs(rng, config);

    SdaConfig recomposed = config;
    recomposed.backend = AttentionBackend::Recomposed;
    const Tensor<Half> base =
        runWith(recomposed, inputs, 4, detectedSimdBackend());
    const Tensor<Half> out =
        runWith(config, inputs, 4, detectedSimdBackend());
    EXPECT_LT(maxAbsBetween(out, base), kTol);
}

// --- streaming prefill vs streaming decode ----------------------------

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

TEST(StreamingAttention, CausalPrefillRowsMatchStreamingDecodeBitForBit)
{
    // Every causal prefill row must equal a streaming decode of the
    // same query over context [0, i] bit for bit: same key-tile walk,
    // same update sequence, masked tail positions are exact no-ops.
    Rng rng(53);
    const int64_t L = 100; // spans a partial final tile
    const int64_t dh = 32;
    const Tensor<Half> q = randomHalf(rng, L, dh);
    const Tensor<Half> k = randomHalf(rng, L, dh);
    const Tensor<Half> v = randomHalf(rng, L, dh);

    StreamingAttentionDesc desc;
    desc.seqLen = L;
    desc.kvLen = L;
    desc.dHead = dh;
    desc.causalMask = true;
    desc.scale = 1.0 / std::sqrt(double(dh));
    Tensor<Half> prefill(Shape({L, dh}));
    streamingAttentionRun(ExecContext(), desc, q, k, v, prefill);

    DecodeAttendDesc step;
    step.dHead = dh;
    step.headOffset = 0;
    step.scale = desc.scale;
    std::vector<Half> out(size_t(dh), Half(0.0f));
    for (const int64_t i : {int64_t(0), int64_t(63), int64_t(64),
                            int64_t(L - 1)}) {
        TensorKvView kv(k, i + 1);
        TensorKvView vv(v, i + 1);
        decodeAttendStreamRun(ExecContext(), step,
                              q.data() + i * dh, kv.view, vv.view,
                              out.data());
        for (int64_t j = 0; j < dh; ++j)
            ASSERT_EQ(out[size_t(j)].bits(), prefill.at(i, j).bits())
                << "row " << i << " column " << j;
    }
}

// --- decode-kernel edge cases -----------------------------------------

using DecodeKernel = void (*)(const ExecContext &,
                              const DecodeAttendDesc &, const Half *,
                              const KvRowsView &, const KvRowsView &,
                              Half *, DecodeAttendWorkspace *);

class DecodeKernelEdgeCases
    : public ::testing::TestWithParam<DecodeKernel>
{
};

INSTANTIATE_TEST_SUITE_P(BothBackends, DecodeKernelEdgeCases,
                         ::testing::Values(&decodeAttendRun,
                                           &decodeAttendStreamRun));

TEST_P(DecodeKernelEdgeCases, AllMaskedRowYieldsZeros)
{
    // Every score -inf (fully masked row): the kernel must emit a
    // zero row, not NaNs — exp(-inf - -inf) is the trap.
    const int64_t dh = 8;
    const int64_t context = 70; // spans a partial second key tile
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
    GetParam()(ExecContext(), desc, q.data(), kv.view, vv.view,
               out.data(), nullptr);
    for (int64_t j = 0; j < dh; ++j) {
        EXPECT_FALSE(std::isnan(float(out[size_t(j)]))) << j;
        EXPECT_EQ(float(out[size_t(j)]), 0.0f) << j;
    }
}

TEST_P(DecodeKernelEdgeCases, OneHotRowSurvivesDenomUnderflow)
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
    GetParam()(ExecContext(), desc, q.data(), kv.view, vv.view,
               out.data(), nullptr);
    for (int64_t j = 0; j < dh; ++j)
        EXPECT_NEAR(float(out[size_t(j)]), float(v.at(hot, j)), 1e-2)
            << j;
}

TEST_P(DecodeKernelEdgeCases, SingleTokenContextReturnsTheVRow)
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
    GetParam()(ExecContext(), desc, q.data(), kv.view, vv.view,
               out.data(), nullptr);
    for (int64_t j = 0; j < dh; ++j)
        EXPECT_EQ(out[size_t(j)].bits(), v.at(0, j).bits()) << j;
}

} // namespace
} // namespace softrec
