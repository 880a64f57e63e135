/**
 * @file
 * Tests of the functional encoder layer: strategy equivalence on a
 * complete transformer layer, LayerNorm statistics, causal masking,
 * and shape checking.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "model/functional_layer.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

FunctionalLayerConfig
smallConfig(Strategy strategy)
{
    FunctionalLayerConfig config;
    config.dModel = 32;
    config.numHeads = 4;
    config.dFf = 64;
    config.strategy = strategy;
    config.subVector = 16;
    return config;
}

Tensor<Half>
randomInput(int64_t rows, int64_t d_model, uint64_t seed)
{
    Tensor<Half> input(Shape({rows, d_model}));
    Rng rng(seed);
    fillNormal(input, rng, 0.0, 1.0);
    return input;
}

// The layer suite runs once per ExecMatrix case: thread counts are
// pinned by ParallelDeterminism.EncoderLayer for one strategy only,
// and no other test pins the layer's bits across SIMD backends.
using FunctionalLayer = ExecMatrix;

TEST_P(FunctionalLayer, StrategiesAgreeOnFullLayer)
{
    Rng wrng(1);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    const Tensor<Half> input = randomInput(64, 32, 2);

    const auto baseline = toFloat(runEncoderLayer(ctx(),
        smallConfig(Strategy::Baseline), weights, input));
    const auto sd = toFloat(runEncoderLayer(ctx(),
        smallConfig(Strategy::Decomposed), weights, input));
    const auto sdf = toFloat(runEncoderLayer(ctx(),
        smallConfig(Strategy::Fused), weights, input));

    // The LayerNorms re-normalize any accumulated fp16 noise, so the
    // full layer agrees tightly across strategies.
    EXPECT_LT(maxAbsDiff(baseline, sd), 2e-2);
    EXPECT_LT(maxAbsDiff(baseline, sdf), 2e-2);
}

TEST_P(FunctionalLayer, OutputIsLayerNormalized)
{
    Rng wrng(3);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    const Tensor<Half> input = randomInput(16, 32, 4);
    const Tensor<Half> out = runEncoderLayer(ctx(),
        smallConfig(Strategy::Fused), weights, input);
    // gamma = 1, beta = 0: every output row has mean ~0, stddev ~1.
    for (int64_t i = 0; i < 16; ++i) {
        double mean = 0.0, var = 0.0;
        for (int64_t j = 0; j < 32; ++j)
            mean += float(out.at(i, j));
        mean /= 32.0;
        for (int64_t j = 0; j < 32; ++j) {
            const double d = float(out.at(i, j)) - mean;
            var += d * d;
        }
        var /= 32.0;
        EXPECT_NEAR(mean, 0.0, 0.02);
        EXPECT_NEAR(std::sqrt(var), 1.0, 0.05);
    }
}

TEST_P(FunctionalLayer, CausalVariantRunsAndAgrees)
{
    Rng wrng(5);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    const Tensor<Half> input = randomInput(48, 32, 6);
    FunctionalLayerConfig base = smallConfig(Strategy::Baseline);
    base.causalMask = true;
    FunctionalLayerConfig fused = smallConfig(Strategy::Fused);
    fused.causalMask = true;
    EXPECT_LT(maxAbsDiff(
                  toFloat(runEncoderLayer(ctx(), base, weights, input)),
                  toFloat(runEncoderLayer(ctx(), fused, weights, input))),
              2e-2);
}

TEST_P(FunctionalLayer, CausalRowZeroSeesOnlyItself)
{
    // With a causal mask, changing a later token must not change
    // output row 0.
    Rng wrng(7);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    Tensor<Half> input = randomInput(16, 32, 8);
    FunctionalLayerConfig config = smallConfig(Strategy::Fused);
    config.causalMask = true;
    const Tensor<Half> before =
        runEncoderLayer(ctx(), config, weights, input);
    for (int64_t j = 0; j < 32; ++j)
        input.at(15, j) = Half(float(input.at(15, j)) + 3.0f);
    const Tensor<Half> after = runEncoderLayer(ctx(), config, weights, input);
    for (int64_t j = 0; j < 32; ++j)
        EXPECT_EQ(before.at(0, j).bits(), after.at(0, j).bits());
    // But the perturbed row itself changes.
    bool changed = false;
    for (int64_t j = 0; j < 32; ++j)
        changed |= before.at(15, j).bits() != after.at(15, j).bits();
    EXPECT_TRUE(changed);
}

TEST_P(FunctionalLayer, Deterministic)
{
    Rng wrng(9);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    const Tensor<Half> input = randomInput(24, 32, 10);
    const auto a = runEncoderLayer(ctx(), smallConfig(Strategy::Decomposed),
                                   weights, input);
    const auto b = runEncoderLayer(ctx(), smallConfig(Strategy::Decomposed),
                                   weights, input);
    EXPECT_EQ(maxAbsDiff(toFloat(a), toFloat(b)), 0.0);
}

TEST_P(FunctionalLayer, ShapeMismatchPanics)
{
    Rng wrng(11);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    const Tensor<Half> bad = randomInput(16, 48, 12);
    EXPECT_THROW(runEncoderLayer(ctx(), smallConfig(Strategy::Baseline),
                                 weights, bad),
                 std::logic_error);
}

TEST_P(FunctionalLayer, BlockSparseAttentionStrategiesAgree)
{
    BigBirdParams params;
    params.blockSize = 16;
    params.windowBlocks = 1;
    params.globalBlocks = 1;
    params.randomBlocks = 1;
    const BsrLayout layout = bigBirdPattern(64, params);

    Rng wrng(13);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    const Tensor<Half> input = randomInput(64, 32, 14);

    auto run_with = [&](Strategy strategy) {
        FunctionalLayerConfig config = smallConfig(strategy);
        config.layout = &layout;
        return toFloat(runEncoderLayer(ctx(), config, weights, input));
    };
    const auto baseline = run_with(Strategy::Baseline);
    EXPECT_LT(maxAbsDiff(baseline, run_with(Strategy::Decomposed)),
              2e-2);
    EXPECT_LT(maxAbsDiff(baseline, run_with(Strategy::Fused)), 2e-2);
}

TEST_P(FunctionalLayer, SparseDiffersFromDenseButStaysNormalized)
{
    const BsrLayout layout = bigBirdPattern(
        64, BigBirdParams{16, 1, 1, 0, 5});
    Rng wrng(15);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    const Tensor<Half> input = randomInput(64, 32, 16);

    FunctionalLayerConfig dense = smallConfig(Strategy::Fused);
    FunctionalLayerConfig sparse = dense;
    sparse.layout = &layout;
    const auto out_dense =
        toFloat(runEncoderLayer(ctx(), dense, weights, input));
    const auto out_sparse =
        toFloat(runEncoderLayer(ctx(), sparse, weights, input));
    // Restricting attention changes the answer...
    EXPECT_GT(maxAbsDiff(out_dense, out_sparse), 1e-3);
    // ...but the LayerNorm still standardizes every row.
    for (int64_t i = 0; i < 4; ++i) {
        double mean = 0.0;
        for (int64_t j = 0; j < 32; ++j)
            mean += out_sparse.at(i, j);
        EXPECT_NEAR(mean / 32.0, 0.0, 0.02);
    }
}

INSTANTIATE_TEST_SUITE_P(Exec, FunctionalLayer,
                         testing::ValuesIn(execCases()), execCaseName);

} // namespace
} // namespace softrec
