/**
 * @file
 * Tests of the dense softmax kernels: the baseline row softmax and the
 * decomposed LS/IR/GS pipeline, functionally and at the profile level.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/softmax_math.hpp"
#include "kernels/softmax_kernels.hpp"
#include "sim/calibration.hpp"
#include "sim/cost_model.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_matrix.hpp"
#include "workload/corpus.hpp"

namespace softrec {
namespace {

/** Row softmax of the fp16 matrix in double precision. */
Tensor<float>
referenceSoftmax(const Tensor<Half> &in)
{
    const int64_t rows = in.shape().dim(0);
    const int64_t cols = in.shape().dim(1);
    Tensor<float> out(in.shape());
    for (int64_t i = 0; i < rows; ++i) {
        std::vector<double> row(static_cast<size_t>(cols), 0.0);
        for (int64_t j = 0; j < cols; ++j)
            row[size_t(j)] = double(float(in.at(i, j)));
        const auto y = safeSoftmax(row);
        for (int64_t j = 0; j < cols; ++j)
            out.at(i, j) = float(y[size_t(j)]);
    }
    return out;
}

TEST(RowSoftmax, MatchesReference)
{
    Rng rng(1);
    const Tensor<Half> in = makeAttentionScores(rng, 37, 53);
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = 37;
    desc.cols = 53;
    rowSoftmaxRun(ExecContext(), desc, in, out);
    EXPECT_LT(maxAbsDiff(toFloat(out), referenceSoftmax(in)), 1e-3);
}

TEST(RowSoftmax, RowsSumToOne)
{
    Rng rng(2);
    const Tensor<Half> in = makeAttentionScores(rng, 16, 128);
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = 16;
    desc.cols = 128;
    rowSoftmaxRun(ExecContext(), desc, in, out);
    for (int64_t i = 0; i < 16; ++i) {
        float sum = 0.0f;
        for (int64_t j = 0; j < 128; ++j)
            sum += float(out.at(i, j));
        EXPECT_NEAR(sum, 1.0f, 0.02f); // fp16 storage rounding
    }
}

TEST(RowSoftmax, FullyMaskedRowIsZero)
{
    Tensor<Half> in(Shape({2, 4}));
    for (int64_t j = 0; j < 4; ++j) {
        in.at(0, j) = Half::fromBits(0xfc00); // -inf
        in.at(1, j) = Half(float(j));
    }
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = 2;
    desc.cols = 4;
    rowSoftmaxRun(ExecContext(), desc, in, out);
    for (int64_t j = 0; j < 4; ++j)
        EXPECT_TRUE(out.at(0, j).isZero());
    EXPECT_GT(float(out.at(1, 3)), float(out.at(1, 0)));
}

/**
 * LS -> IR -> GS on fp16 storage vs the baseline kernel, once per
 * ExecMatrix case: no other test pins these whole-matrix kernels'
 * bits across thread counts and SIMD backends.
 */
using DecomposedPipeline = ExecMatrix;

TEST_P(DecomposedPipeline, ComposesToRowSoftmax)
{
    for (const int64_t cols : {32, 64, 100, 256}) {
        for (const int64_t t : {8, 16, 32, 64}) {
            const int64_t rows = 24;
            Rng rng(uint64_t(cols * 131 + t));
            const Tensor<Half> in = makeAttentionScores(rng, rows, cols);

            SoftmaxShape base_desc;
            base_desc.rows = rows;
            base_desc.cols = cols;
            Tensor<Half> baseline(in.shape());
            rowSoftmaxRun(ctx(), base_desc, in, baseline);

            SoftmaxShape sub;
            sub.rows = rows;
            sub.cols = cols;
            sub.subVector = t;
            const Shape md({rows, sub.numSubVectors()});
            Tensor<Half> x_prime(in.shape());
            Tensor<float> local_max(md), local_sum(md), recon(md);
            lsRun(ctx(), sub, in, x_prime, local_max, local_sum);
            irRun(ctx(), sub, local_max, local_sum, recon);
            Tensor<Half> recomposed(in.shape());
            gsRun(ctx(), sub, x_prime, recon, recomposed);

            // Both routes round through fp16 once more than the
            // reference; they must agree to fp16 precision on values
            // in [0, 1].
            EXPECT_LT(maxAbsDiff(toFloat(recomposed), toFloat(baseline)),
                      2e-3)
                << "cols=" << cols << " t=" << t;
        }
    }
}

TEST_P(DecomposedPipeline, MaskedSubVector)
{
    const int64_t rows = 4, cols = 32, t = 8;
    Rng rng(9);
    Tensor<Half> in = makeAttentionScores(rng, rows, cols);
    // Mask the second sub-vector of row 1 entirely.
    for (int64_t j = 8; j < 16; ++j)
        in.at(1, j) = Half::fromBits(0xfc00);

    SoftmaxShape sub;
    sub.rows = rows;
    sub.cols = cols;
    sub.subVector = t;
    const Shape md({rows, 4});
    Tensor<Half> x_prime(in.shape());
    Tensor<float> lmax(md), lsum(md), recon(md);
    lsRun(ctx(), sub, in, x_prime, lmax, lsum);
    EXPECT_EQ(lsum.at(1, 1), 0.0f);
    irRun(ctx(), sub, lmax, lsum, recon);
    EXPECT_EQ(recon.at(1, 1), 0.0f);
    Tensor<Half> out(in.shape());
    gsRun(ctx(), sub, x_prime, recon, out);

    SoftmaxShape base_desc;
    base_desc.rows = rows;
    base_desc.cols = cols;
    Tensor<Half> baseline(in.shape());
    rowSoftmaxRun(ctx(), base_desc, in, baseline);
    EXPECT_LT(maxAbsDiff(toFloat(out), toFloat(baseline)), 2e-3);
}

INSTANTIATE_TEST_SUITE_P(Exec, DecomposedPipeline,
                         testing::ValuesIn(execCases()), execCaseName);

TEST(DecomposedDesc, SubVectorCount)
{
    SoftmaxShape sub;
    sub.rows = 4;
    sub.cols = 100;
    sub.subVector = 32;
    EXPECT_EQ(sub.numSubVectors(), 4); // ceil(100/32)
}

// ---------- profiles ----------

TEST(RowSoftmaxProfile, OneBlockPerRowWithRowStaging)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 16;
    desc.rows = 4096;
    desc.cols = 4096;
    const KernelProfile prof = rowSoftmaxProfile(spec, desc);
    EXPECT_EQ(prof.geom.numBlocks, 16 * 4096);
    EXPECT_EQ(prof.geom.block.smemBytes,
              uint64_t(4096 * calib::kRowSoftmaxStagingBytesPerElem));
    const uint64_t matrix = uint64_t(16) * 4096 * 4096 * 2;
    EXPECT_EQ(prof.dramReadBytes, matrix);
    EXPECT_EQ(prof.dramWriteBytes, matrix);
    EXPECT_DOUBLE_EQ(prof.serializationFactor,
                     rowSoftmaxSerialization(4096));
    EXPECT_EQ(prof.category, KernelCategory::Softmax);
}

TEST(LsProfile, TiledGridAndIntermediateWrites)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 2;
    desc.rows = 512;
    desc.cols = 512;
    desc.subVector = 64;
    const KernelProfile prof = lsProfile(spec, desc);
    EXPECT_EQ(prof.geom.numBlocks, 2 * 8 * 8);
    const uint64_t matrix = uint64_t(2) * 512 * 512 * 2;
    EXPECT_EQ(prof.dramReadBytes, matrix);
    EXPECT_EQ(prof.dramWriteBytes,
              matrix + uint64_t(2) * 512 * 8 * 2 * 4);
    EXPECT_DOUBLE_EQ(prof.serializationFactor, 1.0);
    EXPECT_EQ(prof.category, KernelCategory::SoftmaxLs);
}

TEST(IrProfile, TinyTraffic)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 2;
    desc.rows = 512;
    desc.cols = 512;
    desc.subVector = 64;
    const KernelProfile prof = irProfile(spec, desc);
    const uint64_t md_count = 2 * 512 * 8;
    EXPECT_EQ(prof.dramReadBytes, md_count * 8);
    EXPECT_EQ(prof.dramWriteBytes, md_count * 4);
    EXPECT_EQ(prof.category, KernelCategory::SoftmaxIr);
    // IR traffic is ~1/T of one matrix sweep: negligible by design.
    EXPECT_LT(prof.dramBytes(), uint64_t(2) * 512 * 512 * 2 / 8);
}

TEST(GsProfile, StreamingElementwise)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 1;
    desc.rows = 1024;
    desc.cols = 1024;
    desc.subVector = 64;
    const KernelProfile prof = gsProfile(spec, desc);
    const uint64_t matrix = uint64_t(1024) * 1024 * 2;
    EXPECT_EQ(prof.dramWriteBytes, matrix);
    EXPECT_EQ(prof.dramReadBytes, matrix + 1024 * 16 * 4);
    EXPECT_EQ(prof.category, KernelCategory::SoftmaxGs);
    EXPECT_DOUBLE_EQ(prof.laneUtilization, 1.0);
}

TEST(SoftmaxProfiles, DecomposedMovesTwiceTheMatrixTraffic)
{
    // The SD configuration's defining cost (paper Section 5.1): LS+GS
    // together sweep the attention matrix twice as often as the
    // baseline kernel.
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape base;
    base.batch = 16;
    base.rows = base.cols = 4096;
    SoftmaxShape sub;
    sub.batch = 16;
    sub.rows = sub.cols = 4096;
    sub.subVector = 64;
    const uint64_t base_bytes = rowSoftmaxProfile(spec, base).dramBytes();
    const uint64_t sd_bytes = lsProfile(spec, sub).dramBytes() +
                              irProfile(spec, sub).dramBytes() +
                              gsProfile(spec, sub).dramBytes();
    EXPECT_GT(sd_bytes, base_bytes * 2.0);
    EXPECT_LT(sd_bytes, base_bytes * 2.1);
}

} // namespace
} // namespace softrec
