/**
 * @file
 * Tests of the single-pass streaming-attention kernel
 * (streamingAttentionRun): tolerance equivalence against the
 * recomposed pipeline and the double gold reference (bit-identity
 * with the recomposed path is explicitly NOT the contract — the
 * softmax orders differ), and bit-identity of the kernel with itself
 * across thread counts and SIMD backends.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/attention_exec.hpp"
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
headConfig(int64_t seq_len, int64_t kv_len, int64_t d_head, bool causal)
{
    SdaConfig config;
    config.seqLen = seq_len;
    config.kvLen = kv_len;
    config.dHead = d_head;
    config.causalMask = causal;
    return config;
}

/** The streaming kernel on one head under (threads, backend). */
Tensor<Half>
runStreaming(const SdaConfig &config, const AttentionInputs &inputs,
             int threads, SimdBackend backend)
{
    StreamingAttentionDesc desc;
    desc.seqLen = config.seqLen;
    desc.kvLen = config.keyLen();
    desc.dHead = config.dHead;
    desc.causalMask = config.causalMask;
    desc.scale = config.scale();
    const SimdBackend prev = setSimdBackend(backend);
    Tensor<Half> out(Shape({config.seqLen, config.dHead}));
    {
        ThreadPool pool(threads);
        ExecContext ctx;
        if (threads > 1)
            ctx.pool = &pool;
        streamingAttentionRun(ctx, desc, inputs.q, inputs.k, inputs.v,
                              out);
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
        const SdaConfig config = headConfig(/*seq_len=*/150,
                                            /*kv_len=*/0,
                                            /*d_head=*/32, causal);
        const AttentionInputs inputs = randomInputs(rng, config);
        const Tensor<float> gold =
            referenceDenseAttention(config, inputs);
        const Tensor<Half> base =
            runAttention(ExecContext(), config, inputs, Strategy::Baseline);

        for (const int threads : {1, 4}) {
            for (const SimdBackend backend : availableSimdBackends()) {
                const Tensor<Half> out =
                    runStreaming(config, inputs, threads, backend);
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
    // The streaming kernel's determinism is exact: rows are
    // row-local and every conversion is bit-identical per backend.
    Rng rng(43);
    const SdaConfig config =
        headConfig(/*seq_len=*/130, /*kv_len=*/0,
                   /*d_head=*/32, /*causal=*/true);
    const AttentionInputs inputs = randomInputs(rng, config);

    auto bits = [&](int threads, SimdBackend backend) {
        const Tensor<Half> out =
            runStreaming(config, inputs, threads, backend);
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
        headConfig(/*seq_len=*/64, /*kv_len=*/16385,
                   /*d_head=*/32, /*causal=*/false);
    const AttentionInputs inputs = randomInputs(rng, config);
    const Tensor<Half> base =
        runAttention(ExecContext(), config, inputs, Strategy::Baseline);
    const Tensor<Half> out =
        runStreaming(config, inputs, 4, detectedSimdBackend());
    EXPECT_LT(maxAbsBetween(out, base), kTol);
}

} // namespace
} // namespace softrec
