/**
 * @file
 * Tests of the short-sequence fused-MHA kernel model and the
 * online-normalizer softmax (the paper's related-work baselines):
 * the reference math, the cost models and the scheduler policies.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/softmax_math.hpp"
#include "kernels/fused_mha.hpp"
#include "kernels/softmax_kernels.hpp"
#include "model/schedule.hpp"

namespace softrec {
namespace {

TEST(OnlineNormalizer, MatchesTwoPassValues)
{
    Rng rng(1);
    std::vector<double> x(97);
    for (double &v : x)
        v = rng.normal(0.0, 3.0);
    const OnlineNormalizerState state = onlineNormalizer(x);
    double m = x[0], d = 0.0;
    for (double v : x)
        m = std::max(m, v);
    for (double v : x)
        d += std::exp(v - m);
    EXPECT_DOUBLE_EQ(state.runningMax, m);
    EXPECT_NEAR(state.runningSum, d, d * 1e-12);
}

TEST(OnlineSoftmax, IdenticalToSafeSoftmax)
{
    Rng rng(2);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> x(64);
        for (double &v : x)
            v = rng.normal(0.0, 5.0);
        const auto a = safeSoftmax(x);
        const auto b = onlineSoftmax(x);
        for (size_t i = 0; i < x.size(); ++i)
            EXPECT_NEAR(a[i], b[i], 1e-14);
    }
}

TEST(OnlineSoftmax, HandlesMaskedPrefix)
{
    const double inf = std::numeric_limits<double>::infinity();
    // Leading -inf entries exercise the "no finite value yet" branch.
    const std::vector<double> x = {-inf, -inf, 1.0, 2.0};
    const auto y = onlineSoftmax(x);
    EXPECT_DOUBLE_EQ(y[0], 0.0);
    EXPECT_DOUBLE_EQ(y[1], 0.0);
    EXPECT_NEAR(y[2] + y[3], 1.0, 1e-12);
    // All-masked row.
    const auto zero = onlineSoftmax({-inf, -inf});
    EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

TEST(OnlineRowSoftmaxProfile, SameTrafficBetterSerialization)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 16;
    desc.rows = desc.cols = 4096;
    const KernelProfile base = rowSoftmaxProfile(spec, desc);
    const KernelProfile online = onlineRowSoftmaxProfile(spec, desc);
    EXPECT_EQ(online.dramBytes(), base.dramBytes());
    EXPECT_GT(online.serializationFactor, base.serializationFactor);
    EXPECT_LT(online.serializationFactor, 1.0);
}

TEST(FusedMha, SupportBoundaryTracksSharedMemory)
{
    const GpuSpec a100 = GpuSpec::a100(); // 164 KiB smem
    const GpuSpec t4 = GpuSpec::t4();     // 64 KiB smem
    FusedMhaDesc desc;
    desc.dHead = 64;
    desc.seqLen = 384;
    // 384 x 64 x 2 x 2B = 96 KiB: fits 3/4 of A100's smem, not T4's.
    EXPECT_TRUE(fusedMhaSupported(a100, desc));
    EXPECT_FALSE(fusedMhaSupported(t4, desc));
    desc.seqLen = 4096;
    EXPECT_FALSE(fusedMhaSupported(a100, desc));
    EXPECT_THROW(fusedMhaProfile(a100, desc), std::runtime_error);
}

TEST(FusedMha, ProfileMovesOnlyLayerInputsAndOutputs)
{
    const GpuSpec spec = GpuSpec::a100();
    FusedMhaDesc desc;
    desc.batch = 16;
    desc.seqLen = 256;
    desc.dHead = 64;
    const KernelProfile prof = fusedMhaProfile(spec, desc);
    EXPECT_EQ(prof.dramReadBytes, uint64_t(16) * 3 * 256 * 64 * 2);
    EXPECT_EQ(prof.dramWriteBytes, uint64_t(16) * 256 * 64 * 2);
    EXPECT_GT(prof.fusedPenalty, 1.0);
    EXPECT_GT(prof.tensorFlops, 0.0);
}

TEST(Scheduler, FusedMhaPolicyKicksInOnlyWhenShortDenseBaseline)
{
    const GpuSpec spec = GpuSpec::a100();
    RunConfig run;
    run.seqLen = 256;
    run.fusion.fusedMhaShortSeq = true;
    TransformerScheduler short_dense(spec, ModelConfig::bertLarge(),
                                     run);
    EXPECT_EQ(short_dense.sdaSchedule().kernels.size(), 1u);
    EXPECT_EQ(short_dense.sdaSchedule().kernels[0].name,
              "sda.fused_mha");
    EXPECT_EQ(short_dense.sdaSchedule().attentionSweeps, 0);

    run.seqLen = 4096; // too long: falls back to the 3-kernel plan
    TransformerScheduler long_dense(spec, ModelConfig::bertLarge(),
                                    run);
    EXPECT_EQ(long_dense.sdaSchedule().kernels.size(), 3u);

    run.seqLen = 256;
    run.strategy = Strategy::Fused; // recomposition path unaffected
    TransformerScheduler recomposed(spec, ModelConfig::bertLarge(),
                                    run);
    EXPECT_EQ(recomposed.sdaSchedule().kernels[0].name, "sda.qk+ls");
}

TEST(Scheduler, OnlineSoftmaxPolicySwapsTheKernel)
{
    const GpuSpec spec = GpuSpec::a100();
    RunConfig run;
    run.seqLen = 2048;
    run.fusion.onlineSoftmax = true;
    TransformerScheduler sched(spec, ModelConfig::bertLarge(), run);
    bool found = false;
    for (const auto &prof : sched.sdaSchedule().kernels) {
        if (prof.category == KernelCategory::Softmax) {
            EXPECT_NE(prof.name.find(".online"), std::string::npos);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace softrec
