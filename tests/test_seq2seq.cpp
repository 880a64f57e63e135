/**
 * @file
 * Tests of cross-attention (rectangular planner path) and the
 * encoder-decoder scheduler.
 */

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "model/seq2seq.hpp"
#include "tensor/tensor_ops.hpp"

namespace softrec {
namespace {

TEST(CrossAttention, FunctionalEquivalenceAcrossStrategies)
{
    // Rectangular attention: 64 queries over 128 keys.
    SdaConfig config;
    config.seqLen = 64;
    config.kvLen = 128;
    config.dHead = 16;
    config.subVector = 32;
    config.attnTiling.tileM = 32;
    config.attnTiling.tileN = 32;
    config.attnTiling.tileK = 16;
    AttentionInputs inputs = makeAttentionInputs(config);
    EXPECT_EQ(inputs.q.shape(), Shape({64, 16}));
    EXPECT_EQ(inputs.k.shape(), Shape({128, 16}));
    Rng rng(1);
    fillNormal(inputs.q, rng, 0.0, 0.7);
    fillNormal(inputs.k, rng, 0.0, 0.7);
    fillNormal(inputs.v, rng, 0.0, 0.7);

    const Tensor<float> reference =
        referenceDenseAttention(config, inputs);
    for (Strategy strategy : allStrategies()) {
        const Tensor<Half> out =
            runAttention(ExecContext(), config, inputs, strategy);
        EXPECT_LT(maxAbsDiff(toFloat(out), reference), 2.5e-2)
            << strategyName(strategy);
    }
}

TEST(CrossAttention, PlannerShapesFollowBothLengths)
{
    SdaConfig config;
    config.heads = 8;
    config.seqLen = 1024;  // decoder queries
    config.kvLen = 4096;   // encoder keys
    config.dHead = 64;
    const auto sched = buildSdaSchedule(GpuSpec::a100(), config,
                                        Strategy::Fused);
    // QK+LS grid: ceil(1024/128) x (4096/64) tiles per head.
    EXPECT_EQ(sched.kernels[0].geom.numBlocks, 8 * 8 * 64);
    EXPECT_EQ(config.attentionMatrixBytes(),
              uint64_t(8) * 1024 * 4096 * 2);
    EXPECT_EQ(sched.attentionSweeps, 2);
}

TEST(CrossAttention, SubVectorMustDivideKeyLength)
{
    SdaConfig config;
    config.seqLen = 512;
    config.kvLen = 100; // not a multiple of 64
    EXPECT_THROW(buildSdaSchedule(GpuSpec::a100(), config,
                                  Strategy::Baseline),
                 std::logic_error);
}

TEST(Seq2SeqConfig, VanillaVariants)
{
    const Seq2SeqConfig base = Seq2SeqConfig::vanillaBase();
    EXPECT_EQ(base.dModel, 512);
    EXPECT_EQ(base.numHeads, 8);
    EXPECT_EQ(base.dHead(), 64);
    const Seq2SeqConfig big = Seq2SeqConfig::vanillaBig();
    EXPECT_EQ(big.dModel, 1024);
    EXPECT_EQ(big.dFf, 4096);
}

TEST(Seq2SeqScheduler, DecoderLayerCarriesBothAttentions)
{
    Seq2SeqRun run;
    run.srcLen = 1024;
    run.tgtLen = 512;
    Seq2SeqScheduler sched(GpuSpec::a100(),
                           Seq2SeqConfig::vanillaBase(), run);
    auto count = [](const std::vector<KernelProfile> &layer,
                    const std::string &substr) {
        int64_t n = 0;
        for (const auto &prof : layer)
            n += prof.name.find(substr) != std::string::npos;
        return n;
    };
    EXPECT_EQ(count(sched.decoderLayer(), "dec.self.sda"), 3);
    EXPECT_EQ(count(sched.decoderLayer(), "dec.cross.sda"), 3);
    EXPECT_EQ(count(sched.encoderLayer(), "enc.self.sda"), 3);
    EXPECT_EQ(count(sched.encoderLayer(), "cross"), 0);
    // Decoder self-attention is causal: its QK kernel carries the
    // mask flops; the cross-attention one does not.
    double self_flops = 0, cross_flops = 0;
    for (const auto &prof : sched.decoderLayer()) {
        if (prof.name == "dec.self.sda.qk")
            self_flops = prof.cudaFlops;
        if (prof.name == "dec.cross.sda.qk")
            cross_flops = prof.cudaFlops;
    }
    // Same element count (512x512 vs 512x1024): normalize per elem.
    EXPECT_GT(self_flops / (512.0 * 512.0),
              cross_flops / (512.0 * 1024.0));
}

TEST(Seq2SeqScheduler, RunLaunchesAllLayers)
{
    Seq2SeqRun run;
    run.srcLen = 512;
    run.tgtLen = 512;
    const Seq2SeqConfig config = Seq2SeqConfig::vanillaBase();
    Seq2SeqScheduler sched(GpuSpec::a100(), config, run);
    Gpu gpu(GpuSpec::a100());
    sched.run(gpu);
    EXPECT_EQ(gpu.timeline().size(),
              sched.prologue().size() +
                  size_t(config.encoderLayers) *
                      sched.encoderLayer().size() +
                  size_t(config.decoderLayers) *
                      sched.decoderLayer().size());
}

TEST(Seq2Seq, RecompositionSpeedsUpLongTranslation)
{
    const GpuSpec spec = GpuSpec::a100();
    const Seq2SeqConfig config = Seq2SeqConfig::vanillaBig();
    Seq2SeqRun run;
    run.srcLen = 4096;
    run.tgtLen = 4096;
    run.strategy = Strategy::Baseline;
    const Seq2SeqResult base = runSeq2SeqInference(spec, config, run);
    run.strategy = Strategy::Fused;
    const Seq2SeqResult sdf = runSeq2SeqInference(spec, config, run);
    EXPECT_GT(base.seconds / sdf.seconds, 1.15);
    EXPECT_LT(sdf.dramBytes, base.dramBytes);
    EXPECT_LT(sdf.softmaxSeconds, base.softmaxSeconds * 0.2);
}

TEST(Seq2Seq, ShortSequencesAreNeutral)
{
    const GpuSpec spec = GpuSpec::a100();
    const Seq2SeqConfig config = Seq2SeqConfig::vanillaBase();
    Seq2SeqRun run;
    run.srcLen = 256;
    run.tgtLen = 256;
    run.strategy = Strategy::Baseline;
    const Seq2SeqResult base = runSeq2SeqInference(spec, config, run);
    run.strategy = Strategy::Fused;
    const Seq2SeqResult sdf = runSeq2SeqInference(spec, config, run);
    EXPECT_NEAR(base.seconds / sdf.seconds, 1.0, 0.1);
}

} // namespace
} // namespace softrec
