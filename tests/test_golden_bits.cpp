/**
 * @file
 * Golden output bits of the two serving-shape paths, pinned as FNV-1a
 * hashes over Half::bits():
 *
 *  - one SDF (Strategy::Fused) non-causal encoder layer at the serving
 *    config (dModel 256, 4 heads, dFf 1024, T = 16) over a ragged
 *    300-row input, which runs the fused LS epilogue, IR and the GS
 *    prologue;
 *  - a two-layer Baseline decoder stack on f16 and int8 caches: a
 *    one-shot prefill of a 300-token prompt, the same prompt in 77-row
 *    chunks, then 8 decode steps.
 *
 * Every backend and thread count gives the same bits, so one constant
 * per path holds on every ExecMatrix case. A kernel change that keeps
 * the bits keeps these constants; a change that moves them changes the
 * numbers every other test only bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "common/rng.hpp"
#include "model/decode.hpp"
#include "model/functional_layer.hpp"
#include "serve/kv_cache.hpp"
#include "tensor/tensor_ops.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

constexpr int64_t kDm = 256;
constexpr int64_t kHeads = 4;
constexpr int64_t kDff = 1024;
constexpr int64_t kRows = 300;
constexpr int64_t kChunk = 77;
constexpr int64_t kDecodeSteps = 8;

// The hashes as first pinned; a kernel change that keeps the bits
// keeps them.
constexpr uint64_t kEncoderSdfHash = 0x0e2a6269a6617b55ULL;
constexpr uint64_t kDecoderStackHash = 0x4d4f630254ea7a5cULL;

/** FNV-1a, 64 bits, fed one Half's bits (low byte first) at a time. */
struct Fnv1a
{
    uint64_t state = 0xcbf29ce484222325ULL;

    void
    add(const Tensor<Half> &t)
    {
        for (int64_t i = 0; i < t.numel(); ++i) {
            const uint16_t bits = t.data()[i].bits();
            for (const uint16_t byte : {uint16_t(bits & 0xff),
                                        uint16_t(bits >> 8)}) {
                state ^= byte;
                state *= 0x100000001b3ULL;
            }
        }
    }
};

Tensor<Half>
randomRows(int64_t rows, uint64_t seed)
{
    Tensor<Half> x(Shape({rows, kDm}));
    Rng rng(seed);
    fillNormal(x, rng, 0.0, 1.0);
    return x;
}

using GoldenBits = ExecMatrix;

TEST_P(GoldenBits, FusedEncoderLayerAtTheServingConfig)
{
    FunctionalLayerConfig config;
    config.dModel = kDm;
    config.numHeads = kHeads;
    config.dFf = kDff;
    config.strategy = Strategy::Fused;
    config.subVector = 16;
    Rng wrng(41);
    const auto weights = EncoderLayerWeights::random(kDm, kDff, wrng);
    Fnv1a hash;
    hash.add(runEncoderLayer(ctx(), config, weights, randomRows(kRows, 42)));
    EXPECT_EQ(hash.state, kEncoderSdfHash)
        << std::hex << "got 0x" << hash.state;
}

TEST_P(GoldenBits, BaselinePrefillChunksAndDecodeSteps)
{
    Rng wrng(43);
    const DecoderStack stack =
        DecoderStack::random(kDm, kHeads, kDff, 2, wrng);
    const Tensor<Half> prompt = randomRows(kRows, 44);
    Fnv1a hash;
    for (const KvDtype dtype : {KvDtype::F16, KvDtype::I8}) {
        KvSlab one_shot_slab(16, kDm, 64, dtype);
        KvCache one_shot_cache(one_shot_slab, 2);
        const Tensor<Half> one_shot =
            runPrefill(ctx(), stack, prompt, one_shot_cache);
        hash.add(one_shot);

        KvSlab slab(16, kDm, 64, dtype);
        KvCache cache(slab, 2);
        PrefillState state;
        state.prepare(stack, kRows);
        DecodeStepWorkspace ws;
        Tensor<Half> out;
        while (!state.done()) {
            runPrefill(ctx(), stack, prompt,
                       std::min(kChunk, kRows - state.rowsDone), cache,
                       state, ws, out);
            hash.add(out);
        }
        Tensor<Half> token(Shape({1, kDm}));
        std::copy(out.rowPtr(out.shape().dim(0) - 1),
                  out.rowPtr(out.shape().dim(0) - 1) + kDm,
                  token.rowPtr(0));
        for (int64_t step = 0; step < kDecodeSteps; ++step) {
            Tensor<Half> next;
            runDecodeStepInto(ctx(), stack, token, {&cache}, ws, next);
            hash.add(next);
            token = next;
        }
    }
    EXPECT_EQ(hash.state, kDecoderStackHash)
        << std::hex << "got 0x" << hash.state;
}

INSTANTIATE_TEST_SUITE_P(Exec, GoldenBits, testing::ValuesIn(execCases()),
                         execCaseName);

} // namespace
} // namespace softrec
