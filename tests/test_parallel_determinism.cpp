/**
 * @file
 * Determinism suite: every functional entry point must produce
 * bit-identical fp16 outputs for any thread count. Chunk boundaries
 * are a pure function of the iteration range and each chunk keeps the
 * serial accumulation order, so 1-, 2- and 8-thread runs of the same
 * problem must agree to the last bit — not merely to a tolerance —
 * on every available SIMD backend.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "model/engine.hpp"
#include "model/functional_layer.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"

namespace softrec {
namespace {

/** Thread counts every case runs under (1 = serial context). */
const std::vector<int> kThreadCounts = {1, 2, 8};

/** Run fn under a context of `threads` and return its output. */
template <typename Fn>
Tensor<Half>
runWith(int threads, Fn &&fn)
{
    if (threads == 1)
        return fn(ExecContext());
    ThreadPool pool(threads);
    ExecContext ctx;
    ctx.pool = &pool;
    return fn(ctx);
}

void
expectBitIdentical(const Tensor<Half> &a, const Tensor<Half> &b,
                   const char *what, int threads)
{
    ASSERT_EQ(a.shape(), b.shape());
    for (int64_t i = 0; i < a.numel(); ++i) {
        ASSERT_EQ(a.at(i).bits(), b.at(i).bits())
            << what << ": element " << i << " differs at " << threads
            << " threads";
    }
}

/**
 * Check fn(ctx) is bit-identical across all of kThreadCounts, on each
 * available SIMD backend.
 */
template <typename Fn>
void
expectDeterministic(const char *what, Fn &&fn)
{
    for (const SimdBackend simd : availableSimdBackends()) {
        SCOPED_TRACE(simdBackendName(simd));
        const SimdBackend saved = setSimdBackend(simd);
        const Tensor<Half> serial = runWith(1, fn);
        for (int threads : kThreadCounts) {
            if (threads == 1)
                continue;
            const Tensor<Half> parallel = runWith(threads, fn);
            expectBitIdentical(serial, parallel, what, threads);
        }
        setSimdBackend(saved);
    }
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

TEST(ParallelDeterminism, DenseAttentionAllStrategies)
{
    SdaConfig config;
    config.seqLen = 96;
    config.dHead = 32;
    config.subVector = 16;
    config.attnTiling.tileM = 16;
    config.attnTiling.tileN = 16;
    config.attnTiling.tileK = 16;
    const AttentionInputs inputs = randomInputs(config, 11);
    for (Strategy strategy : allStrategies()) {
        expectDeterministic(
            strategyName(strategy),
            [&](const ExecContext &ctx) {
                return runAttention(ctx, config, inputs, strategy);
            });
    }
}

TEST(ParallelDeterminism, SparseAttentionAllStrategies)
{
    BigBirdParams params;
    params.blockSize = 16;
    params.windowBlocks = 1;
    params.globalBlocks = 1;
    params.randomBlocks = 1;
    params.seed = 5;
    const BsrLayout layout = bigBirdPattern(128, params);

    SdaConfig config;
    config.seqLen = 128;
    config.dHead = 16;
    config.layout = &layout;
    config.subVector = 16;
    const AttentionInputs inputs = randomInputs(config, 13);
    for (Strategy strategy : allStrategies()) {
        expectDeterministic(
            strategyName(strategy),
            [&](const ExecContext &ctx) {
                return runAttention(ctx, config, inputs, strategy);
            });
    }
}

TEST(ParallelDeterminism, EncoderLayer)
{
    FunctionalLayerConfig config;
    config.dModel = 32;
    config.numHeads = 4;
    config.dFf = 64;
    config.strategy = Strategy::Fused;
    config.subVector = 16;
    Rng wrng(19);
    const auto weights = EncoderLayerWeights::random(32, 64, wrng);
    Tensor<Half> input(Shape({64, 32}));
    Rng irng(23);
    fillNormal(input, irng, 0.0, 1.0);
    expectDeterministic("encoderLayer", [&](const ExecContext &ctx) {
        return runEncoderLayer(ctx, config, weights, input);
    });
}

TEST(ParallelDeterminism, InferenceSweepAlignsWithSerialRuns)
{
    const GpuSpec spec = GpuSpec::a100();
    ModelConfig model = ModelConfig::bertLarge();
    std::vector<RunConfig> runs;
    for (Strategy strategy : allStrategies()) {
        RunConfig run;
        run.strategy = strategy;
        run.seqLen = 1024;
        run.batch = 2;
        runs.push_back(run);
    }
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.pool = &pool;
    const auto sweep = runInferenceSweep(ctx, spec, model, runs);
    ASSERT_EQ(sweep.size(), runs.size());
    for (size_t i = 0; i < runs.size(); ++i) {
        const InferenceResult serial =
            runInference(spec, model, runs[i]);
        EXPECT_EQ(sweep[i].strategy, runs[i].strategy);
        EXPECT_DOUBLE_EQ(sweep[i].seconds, serial.seconds);
        EXPECT_EQ(sweep[i].dramReadBytes, serial.dramReadBytes);
        EXPECT_EQ(sweep[i].dramWriteBytes, serial.dramWriteBytes);
        EXPECT_EQ(sweep[i].kernelLaunches, serial.kernelLaunches);
    }
}

} // namespace
} // namespace softrec
