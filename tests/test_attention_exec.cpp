/**
 * @file
 * End-to-end functional equivalence of the three strategies: dense and
 * block-sparse attention must produce the same output under Baseline,
 * SD, and SDF (up to fp16 rounding), and match a double-precision
 * reference; a reused AttentionWorkspace gives the bits of a fresh
 * run.
 */

#include <tuple>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"

namespace softrec {
namespace {

/** Shared context: honors SOFTREC_THREADS so suites can run threaded. */
ExecContext
execCtx()
{
    return ExecContext::fromEnv();
}

AttentionInputs
randomInputs(const SdaConfig &config, uint64_t seed)
{
    AttentionInputs inputs = makeAttentionInputs(config);
    Rng rng(seed);
    fillNormal(inputs.q, rng, 0.0, 0.8);
    fillNormal(inputs.k, rng, 0.0, 0.8);
    fillNormal(inputs.v, rng, 0.0, 0.8);
    return inputs;
}

/** Attention outputs are O(1); compare with a small absolute bound. */
constexpr double kTol = 2.5e-2;

class DenseStrategies
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, bool>>
{};

TEST_P(DenseStrategies, AllMatchDoubleReference)
{
    const auto [L, t, causal] = GetParam();
    SdaConfig config;
    config.seqLen = L;
    config.dHead = 32;
    config.subVector = t;
    config.causalMask = causal;
    config.attnTiling.tileM = 32;
    config.attnTiling.tileN = t;
    config.attnTiling.tileK = 16;
    const AttentionInputs inputs =
        randomInputs(config, uint64_t(L * 31 + t + causal));

    const Tensor<float> reference =
        referenceDenseAttention(config, inputs);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> out =
            runAttention(execCtx(), config, inputs, strategy);
        EXPECT_LT(maxAbsDiff(toFloat(out), reference), kTol)
            << strategyName(strategy) << " L=" << L << " t=" << t
            << " causal=" << causal;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DenseStrategies,
    ::testing::Combine(::testing::Values(64, 128, 192),
                       ::testing::Values(16, 32, 64),
                       ::testing::Bool()));

TEST(DenseStrategies, PairwiseAgreement)
{
    SdaConfig config;
    config.seqLen = 96;
    config.dHead = 16;
    config.subVector = 32;
    config.attnTiling.tileM = 32;
    config.attnTiling.tileN = 32;
    config.attnTiling.tileK = 16;
    const AttentionInputs inputs = randomInputs(config, 7);

    const auto baseline =
        toFloat(runAttention(execCtx(), config, inputs, Strategy::Baseline));
    const auto sd = toFloat(
        runAttention(execCtx(), config, inputs, Strategy::Decomposed));
    const auto sdf =
        toFloat(runAttention(execCtx(), config, inputs, Strategy::Fused));
    EXPECT_LT(maxAbsDiff(baseline, sd), kTol);
    EXPECT_LT(maxAbsDiff(baseline, sdf), kTol);
    EXPECT_LT(maxAbsDiff(sd, sdf), kTol);
}

TEST(DenseStrategies, CausalFirstRowAttendsOnlyToItself)
{
    SdaConfig config;
    config.seqLen = 64;
    config.dHead = 16;
    config.causalMask = true;
    config.subVector = 16;
    config.attnTiling.tileM = 16;
    config.attnTiling.tileN = 16;
    config.attnTiling.tileK = 16;
    const AttentionInputs inputs = randomInputs(config, 8);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> out =
            runAttention(execCtx(), config, inputs, strategy);
        // Row 0 sees only token 0, so output row 0 = V row 0.
        for (int64_t d = 0; d < config.dHead; ++d) {
            EXPECT_NEAR(float(out.at(0, d)),
                        float(inputs.v.at(0, d)), 5e-3)
                << strategyName(strategy);
        }
    }
}

TEST(DenseStrategies, ReusedWorkspaceMatchesFreshRuns)
{
    // One workspace and one output tensor carried across calls whose
    // L grows and shrinks: the intermediates keep stale values from
    // longer calls, which no kernel may read, so every call must give
    // the bits of a fresh runAttention.
    for (const bool causal : {false, true}) {
        for (Strategy strategy : allStrategies()) {
            AttentionWorkspace ws;
            Tensor<Half> out;
            for (const int64_t L : {40, 97, 17, 64, 97, 5}) {
                SdaConfig config;
                config.seqLen = L;
                config.dHead = 16;
                config.causalMask = causal;
                config.subVector = 16;
                config.attnTiling.tileM = 16;
                config.attnTiling.tileN = 16;
                const AttentionInputs inputs =
                    randomInputs(config, uint64_t(L + 7 * causal));
                runAttention(execCtx(), config, inputs, strategy, ws,
                             out);
                const Tensor<Half> fresh =
                    runAttention(execCtx(), config, inputs, strategy);
                ASSERT_EQ(out.shape(), fresh.shape());
                for (int64_t i = 0; i < fresh.numel(); ++i)
                    ASSERT_EQ(out.data()[i].bits(),
                              fresh.data()[i].bits())
                        << strategyName(strategy) << " L=" << L
                        << " causal=" << causal << " elem=" << i;
            }
        }
    }
}

class SparseStrategies : public ::testing::TestWithParam<int>
{};

TEST_P(SparseStrategies, AllMatchSparseReference)
{
    BigBirdParams params;
    params.blockSize = 16;
    params.windowBlocks = 1;
    params.globalBlocks = 1;
    params.randomBlocks = 1;
    params.seed = uint64_t(GetParam());
    const BsrLayout layout = bigBirdPattern(128, params);

    SdaConfig config;
    config.seqLen = 128;
    config.dHead = 16;
    config.layout = &layout;
    config.subVector = 16;
    const AttentionInputs inputs =
        randomInputs(config, uint64_t(GetParam()) + 100);

    const Tensor<float> reference =
        referenceSparseAttention(config, inputs);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> out =
            runAttention(execCtx(), config, inputs, strategy);
        EXPECT_LT(maxAbsDiff(toFloat(out), reference), kTol)
            << strategyName(strategy) << " seed=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseStrategies,
                         ::testing::Values(1, 2, 3));

TEST(SparseStrategies, LongformerLayoutToo)
{
    LongformerParams params;
    params.blockSize = 16;
    params.windowTokens = 64;
    params.globalBlocks = 1;
    const BsrLayout layout = longformerPattern(160, params);

    SdaConfig config;
    config.seqLen = 160;
    config.dHead = 8;
    config.layout = &layout;
    config.subVector = 16;
    const AttentionInputs inputs = randomInputs(config, 55);
    const Tensor<float> reference =
        referenceSparseAttention(config, inputs);
    for (Strategy strategy : allStrategies()) {
        EXPECT_LT(maxAbsDiff(toFloat(runAttention(execCtx(),
                                 config, inputs, strategy)),
                             reference),
                  kTol)
            << strategyName(strategy);
    }
}

TEST(SparseStrategies, DenseLayoutReproducesDenseAttention)
{
    // A fully dense "sparse" layout must agree with the dense path.
    const BsrLayout layout = densePattern(64, 16);
    SdaConfig sparse;
    sparse.seqLen = 64;
    sparse.dHead = 16;
    sparse.layout = &layout;
    sparse.subVector = 16;
    SdaConfig dense = sparse;
    dense.layout = nullptr;
    dense.attnTiling.tileM = 16;
    dense.attnTiling.tileN = 16;
    dense.attnTiling.tileK = 16;
    const AttentionInputs inputs = randomInputs(sparse, 77);
    const auto from_sparse = toFloat(
        runAttention(execCtx(), sparse, inputs, Strategy::Fused));
    const auto from_dense =
        toFloat(runAttention(execCtx(), dense, inputs, Strategy::Fused));
    EXPECT_LT(maxAbsDiff(from_sparse, from_dense), kTol);
}

} // namespace
} // namespace softrec
