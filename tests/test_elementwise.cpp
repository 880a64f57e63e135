/**
 * @file
 * Tests of the element-wise / normalization kernels.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

// The kernels' suites run once per ExecMatrix case: no other test
// pins their bits across thread counts and SIMD backends.
using LayerNorm = ExecMatrix;
using ResidualAdd = ExecMatrix;
using BiasAct = ExecMatrix;

TEST_P(LayerNorm, NormalizesRowsToAffineTarget)
{
    const int64_t rows = 8, width = 64;
    Rng rng(1);
    Tensor<Half> in(Shape({rows, width}));
    fillNormal(in, rng, 3.0, 2.0);
    Tensor<float> gamma(Shape({width}), 2.0f);
    Tensor<float> beta(Shape({width}), 0.5f);
    Tensor<Half> out(in.shape());
    layerNormRun(ctx(), in, gamma, beta, out);

    for (int64_t i = 0; i < rows; ++i) {
        double mean = 0.0, var = 0.0;
        for (int64_t j = 0; j < width; ++j)
            mean += float(out.at(i, j));
        mean /= width;
        for (int64_t j = 0; j < width; ++j) {
            const double d = float(out.at(i, j)) - mean;
            var += d * d;
        }
        var /= width;
        // gamma 2, beta 0.5: mean 0.5, stddev 2.
        EXPECT_NEAR(mean, 0.5, 0.02);
        EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
    }
}

TEST_P(LayerNorm, PerColumnAffineApplied)
{
    Tensor<Half> in(Shape({1, 4}));
    in.at(0, 0) = Half(1.0f);
    in.at(0, 1) = Half(2.0f);
    in.at(0, 2) = Half(3.0f);
    in.at(0, 3) = Half(4.0f);
    Tensor<float> gamma(Shape({4}));
    Tensor<float> beta(Shape({4}));
    for (int64_t j = 0; j < 4; ++j) {
        gamma.at(j) = float(j + 1);
        beta.at(j) = float(10 * j);
    }
    Tensor<Half> out(in.shape());
    layerNormRun(ctx(), in, gamma, beta, out);
    // x normalized = {-1.3416, -0.4472, 0.4472, 1.3416}.
    EXPECT_NEAR(float(out.at(0, 0)), -1.3416f * 1 + 0, 0.01);
    EXPECT_NEAR(float(out.at(0, 3)), 1.3416f * 4 + 30, 0.05);
}

TEST_P(LayerNorm, ShapeMismatchPanics)
{
    Tensor<Half> in(Shape({2, 4})), out(Shape({2, 4}));
    Tensor<float> gamma(Shape({3})), beta(Shape({4}));
    EXPECT_THROW(layerNormRun(ctx(), in, gamma, beta, out), std::logic_error);
}

TEST_P(ResidualAdd, ElementwiseSum)
{
    Tensor<Half> a(Shape({6}), Half(1.5f));
    Tensor<Half> b(Shape({6}), Half(2.0f));
    Tensor<Half> out(Shape({6}));
    residualAddRun(ctx(), a, b, out);
    for (int64_t i = 0; i < 6; ++i)
        EXPECT_EQ(float(out.at(i)), 3.5f);
}

TEST_P(BiasAct, BiasOnly)
{
    Tensor<Half> in(Shape({2, 3}), Half(1.0f));
    Tensor<float> bias(Shape({3}));
    bias.at(0) = 0.0f;
    bias.at(1) = 1.0f;
    bias.at(2) = -2.0f;
    Tensor<Half> out(in.shape());
    biasActRun(ctx(), in, bias, false, out);
    EXPECT_EQ(float(out.at(0, 0)), 1.0f);
    EXPECT_EQ(float(out.at(0, 1)), 2.0f);
    EXPECT_EQ(float(out.at(1, 2)), -1.0f);
}

TEST_P(BiasAct, BiasPlusGelu)
{
    Tensor<Half> in(Shape({1, 2}), Half(0.0f));
    Tensor<float> bias(Shape({2}));
    bias.at(0) = 1.0f;
    bias.at(1) = -1.0f;
    Tensor<Half> out(in.shape());
    biasActRun(ctx(), in, bias, true, out);
    EXPECT_NEAR(float(out.at(0, 0)), geluApprox(1.0f), 1e-3);
    EXPECT_NEAR(float(out.at(0, 1)), geluApprox(-1.0f), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Exec, LayerNorm, testing::ValuesIn(execCases()),
                         execCaseName);
INSTANTIATE_TEST_SUITE_P(Exec, ResidualAdd,
                         testing::ValuesIn(execCases()), execCaseName);
INSTANTIATE_TEST_SUITE_P(Exec, BiasAct, testing::ValuesIn(execCases()),
                         execCaseName);

// ---------- profiles ----------

TEST(ElementwiseProfiles, TrafficAccounting)
{
    const GpuSpec spec = GpuSpec::a100();

    const auto ln = layerNormProfile(spec, "ln", 1024, 1024);
    EXPECT_EQ(ln.dramWriteBytes, uint64_t(1024 * 1024 * 2));
    EXPECT_EQ(ln.dramReadBytes,
              uint64_t(1024 * 1024 * 2 + 2 * 1024 * 4));
    EXPECT_LT(ln.serializationFactor, 1.0); // two dependent passes

    const auto res = residualAddProfile(spec, "res", 1000);
    EXPECT_EQ(res.dramReadBytes, uint64_t(2 * 1000 * 2));
    EXPECT_EQ(res.dramWriteBytes, uint64_t(1000 * 2));

    const auto bias = biasActProfile(spec, "bias", 128, 256, true);
    EXPECT_EQ(bias.dramWriteBytes, uint64_t(128 * 256 * 2));
    EXPECT_GT(bias.sfuOps, 0.0);
    const auto bias_plain = biasActProfile(spec, "b", 128, 256, false);
    EXPECT_EQ(bias_plain.sfuOps, 0.0);

    const auto mask = scaleMaskProfile(spec, "mask", 16, 512, 512);
    EXPECT_EQ(mask.dramReadBytes, uint64_t(16) * 512 * 512 * 2);
    EXPECT_EQ(mask.dramReadBytes, mask.dramWriteBytes);

    const auto reshape = reshapeProfile(spec, "rs", 4096);
    EXPECT_EQ(reshape.dramBytes(), uint64_t(2 * 4096 * 2));

    const auto embed = embeddingProfile(spec, "emb", 4096, 1024);
    EXPECT_EQ(embed.dramWriteBytes, uint64_t(4096 * 1024 * 2));
    EXPECT_GT(embed.dramReadBytes, embed.dramWriteBytes); // + token ids
}

TEST(ElementwiseProfiles, AllCategorizedAsOther)
{
    const GpuSpec spec = GpuSpec::a100();
    EXPECT_EQ(layerNormProfile(spec, "x", 8, 8).category,
              KernelCategory::Other);
    EXPECT_EQ(residualAddProfile(spec, "x", 8).category,
              KernelCategory::Other);
    EXPECT_EQ(biasActProfile(spec, "x", 8, 8, false).category,
              KernelCategory::Other);
    EXPECT_EQ(scaleMaskProfile(spec, "x", 1, 8, 8).category,
              KernelCategory::Other);
    EXPECT_EQ(reshapeProfile(spec, "x", 8).category,
              KernelCategory::Other);
    EXPECT_EQ(embeddingProfile(spec, "x", 8, 8).category,
              KernelCategory::Other);
}

TEST(ElementwiseProfiles, EmptyProblemsPanic)
{
    const GpuSpec spec = GpuSpec::a100();
    EXPECT_THROW(layerNormProfile(spec, "x", 0, 8), std::logic_error);
    EXPECT_THROW(residualAddProfile(spec, "x", 0), std::logic_error);
    EXPECT_THROW(scaleMaskProfile(spec, "x", 1, 0, 8),
                 std::logic_error);
}

} // namespace
} // namespace softrec
