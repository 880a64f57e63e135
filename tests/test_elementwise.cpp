/**
 * @file
 * Tests of the element-wise / normalization kernels.
 */

#include <cmath>
#include <limits>
#include <vector>

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
using ResidualLayerNorm = ExecMatrix;
using BiasAct = ExecMatrix;

TEST_P(ResidualLayerNorm, NormalizesRowsToAffineTarget)
{
    const int64_t rows = 8, width = 64;
    Rng rng(1);
    Tensor<Half> in(Shape({rows, width}));
    fillNormal(in, rng, 3.0, 2.0);
    Tensor<float> gamma(Shape({width}), 2.0f);
    Tensor<float> beta(Shape({width}), 0.5f);
    Tensor<Half> out(in.shape());
    residualLayerNormRun(ctx(), in, Tensor<Half>(in.shape()), gamma, beta,
                         out);

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

TEST_P(ResidualLayerNorm, PerColumnAffineApplied)
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
    residualLayerNormRun(ctx(), in, Tensor<Half>(in.shape()), gamma, beta,
                         out);
    // x normalized = {-1.3416, -0.4472, 0.4472, 1.3416}.
    EXPECT_NEAR(float(out.at(0, 0)), -1.3416f * 1 + 0, 0.01);
    EXPECT_NEAR(float(out.at(0, 3)), 1.3416f * 4 + 30, 0.05);
}

TEST_P(ResidualLayerNorm, ShapeMismatchPanics)
{
    Tensor<Half> in(Shape({2, 4})), zero(Shape({2, 4})), out(Shape({2, 4}));
    Tensor<float> gamma(Shape({3})), beta(Shape({4}));
    EXPECT_THROW(residualLayerNormRun(ctx(), in, zero, gamma, beta, out),
                 std::logic_error);
}

TEST_P(ResidualLayerNorm, NormalizesTheSum)
{
    // Sums {3.5, 3.5, 3.5, 7.5}: mean 4.5, variance 3.
    Tensor<Half> a(Shape({1, 4}), Half(1.5f));
    Tensor<Half> b(Shape({1, 4}), Half(2.0f));
    b.at(0, 3) = Half(6.0f);
    Tensor<float> gamma(Shape({4}), 1.0f);
    Tensor<float> beta(Shape({4}), 0.0f);
    Tensor<Half> out(a.shape());
    residualLayerNormRun(ctx(), a, b, gamma, beta, out);
    for (int64_t j = 0; j < 3; ++j)
        EXPECT_NEAR(float(out.at(0, j)), -1.0f / std::sqrt(3.0f), 1e-3);
    EXPECT_NEAR(float(out.at(0, 3)), std::sqrt(3.0f), 2e-3);
}

/**
 * The two-step composition the fused kernel replaces, one element at
 * a time: the residual sum rounded to fp16, then LayerNorm with fp32
 * statistics (sequential sums, then (s - mean) * inv_std * gamma +
 * beta) rounded to fp16.
 */
Tensor<Half>
addThenLayerNorm(const Tensor<Half> &a, const Tensor<Half> &b,
                 const Tensor<float> &gamma, const Tensor<float> &beta)
{
    const int64_t rows = a.shape().dim(0), width = a.shape().dim(1);
    Tensor<Half> out(a.shape());
    std::vector<float> s(static_cast<size_t>(width));
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < width; ++j)
            s[size_t(j)] = float(Half(float(a.at(i, j)) + float(b.at(i, j))));
        float mean = 0.0f;
        for (int64_t j = 0; j < width; ++j)
            mean += s[size_t(j)];
        mean /= float(width);
        float var = 0.0f;
        for (int64_t j = 0; j < width; ++j) {
            const float d = s[size_t(j)] - mean;
            var += d * d;
        }
        var /= float(width);
        const float inv_std = 1.0f / std::sqrt(var + 1e-5f);
        for (int64_t j = 0; j < width; ++j) {
            const float norm = (s[size_t(j)] - mean) * inv_std;
            out.at(i, j) = Half(norm * gamma.at(j) + beta.at(j));
        }
    }
    return out;
}

TEST_P(ResidualLayerNorm, MatchesAddThenLayerNormBitForBit)
{
    // 37 rows are two whole 16-row blocks and a ragged one; width 33
    // leaves a one-column block. Rows 3-6 hold a NaN, +inf, -inf and a
    // sum that overflows fp16; row 8 has a constant sum (variance 0);
    // the second pass puts a NaN into gamma, so every row's output
    // holds one.
    const float inf = std::numeric_limits<float>::infinity();
    for (const int64_t width : {256, 33}) {
        for (const bool nan_gamma : {false, true}) {
            const int64_t rows = 37;
            Rng rng(uint64_t(width) + (nan_gamma ? 1 : 0));
            Tensor<Half> a(Shape({rows, width}));
            Tensor<Half> b(Shape({rows, width}));
            fillNormal(a, rng, 0.5, 2.0);
            fillNormal(b, rng, -0.25, 1.0);
            a.at(3, 7) = Half(std::numeric_limits<float>::quiet_NaN());
            b.at(4, 0) = Half(inf);
            a.at(5, width - 1) = Half(-inf);
            a.at(6, 2) = Half(60000.0f);
            b.at(6, 2) = Half(60000.0f);
            for (int64_t j = 0; j < width; ++j) {
                a.at(8, j) = Half(1.0f);
                b.at(8, j) = Half(0.5f);
            }
            Tensor<float> gamma(Shape({width}));
            Tensor<float> beta(Shape({width}));
            fillNormal(gamma, rng, 1.0, 0.2);
            fillNormal(beta, rng, 0.0, 0.2);
            if (nan_gamma)
                gamma.at(width / 2) = std::numeric_limits<float>::quiet_NaN();
            const Tensor<Half> want = addThenLayerNorm(a, b, gamma, beta);
            Tensor<Half> got(a.shape());
            residualLayerNormRun(ctx(), a, b, gamma, beta, got);
            for (int64_t i = 0; i < got.numel(); ++i)
                ASSERT_EQ(got.data()[i].bits(), want.data()[i].bits())
                    << "width=" << width << " nan_gamma=" << nan_gamma
                    << " row=" << i / width << " column=" << i % width;
        }
    }
}

TEST_P(ResidualLayerNorm, OutputAliasingAnInputPanics)
{
    Tensor<Half> a(Shape({2, 4})), b(Shape({2, 4}));
    Tensor<float> gamma(Shape({4})), beta(Shape({4}));
    EXPECT_THROW(residualLayerNormRun(ctx(), a, b, gamma, beta, a),
                 std::logic_error);
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

INSTANTIATE_TEST_SUITE_P(Exec, ResidualLayerNorm,
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
