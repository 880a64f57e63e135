/**
 * @file
 * Tests of the block-sparse kernels' launch profiles. The functional
 * sparse attention (the dense strip loop over each block row's column
 * blocks) is tested in test_attention_exec.cpp.
 */

#include <gtest/gtest.h>

#include "kernels/bsr_gemm.hpp"
#include "kernels/bsr_softmax.hpp"
#include "sim/cost_model.hpp"
#include "sparse/patterns.hpp"

namespace softrec {
namespace {

TEST(BsrProfiles, BaselineSoftmaxHasWorstCaseAllocation)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout = bigBirdPattern(4096, BigBirdParams{});
    BsrSoftmaxDesc desc;
    desc.batch = 16;
    desc.layout = &layout;
    const KernelProfile prof = bsrRowSoftmaxProfile(spec, desc);
    // Worst-case staging for a full row despite sparse rows.
    EXPECT_EQ(prof.geom.block.smemBytes, uint64_t(4096 * 4));
    EXPECT_EQ(prof.geom.numBlocks, 16 * 4096);
    // Lane utilization equals the density.
    EXPECT_NEAR(prof.laneUtilization, layout.density(), 1e-12);
    // Traffic covers only the stored values.
    EXPECT_EQ(prof.dramReadBytes,
              uint64_t(16) * uint64_t(layout.nnzElements()) * 2);
    EXPECT_GT(prof.workImbalance, 1.0);
}

TEST(BsrProfiles, DecomposedKernelsAllocatePerBlock)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout = bigBirdPattern(4096, BigBirdParams{});
    BsrSoftmaxDesc desc;
    desc.batch = 4;
    desc.layout = &layout;
    const KernelProfile ls = bsrLsProfile(spec, desc);
    EXPECT_EQ(ls.geom.numBlocks, 4 * layout.nnzBlocks());
    EXPECT_EQ(ls.geom.block.smemBytes, uint64_t(64 * 64 * 2));
    EXPECT_DOUBLE_EQ(ls.laneUtilization, 1.0);
    const KernelProfile gs = bsrGsProfile(spec, desc);
    EXPECT_EQ(gs.geom.numBlocks, 4 * layout.nnzBlocks());
    const KernelProfile ir = bsrIrProfile(spec, desc);
    EXPECT_LT(ir.dramBytes(), ls.dramBytes() / 8);
}

TEST(BsrProfiles, SddUniformDsdImbalanced)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout =
        longformerPattern(4096, LongformerParams{});
    BsrSddDesc sdd;
    sdd.batch = 16;
    sdd.layout = &layout;
    sdd.dHead = 64;
    EXPECT_DOUBLE_EQ(bsrSddProfile(spec, sdd).workImbalance, 1.0);

    BsrDsdDesc dsd;
    dsd.batch = 16;
    dsd.layout = &layout;
    dsd.dHead = 64;
    const KernelProfile prof = bsrDsdProfile(spec, dsd);
    EXPECT_GT(prof.workImbalance, 2.0); // dense global rows straggle
    EXPECT_EQ(prof.geom.numBlocks, 16 * layout.blockRows());
}

TEST(BsrProfiles, FlopsProportionalToNnz)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout = bigBirdPattern(2048, BigBirdParams{});
    BsrSddDesc sdd;
    sdd.batch = 1;
    sdd.layout = &layout;
    sdd.dHead = 64;
    EXPECT_DOUBLE_EQ(bsrSddProfile(spec, sdd).tensorFlops,
                     2.0 * double(layout.nnzElements()) * 64.0);
}

} // namespace
} // namespace softrec
