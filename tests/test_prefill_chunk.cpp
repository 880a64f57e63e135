/**
 * @file
 * Chunk-boundary suite for resumable (chunked) prefill: splitting a
 * prompt into fixed-row chunks must be bit-identical to the one-shot
 * prefill — same stack outputs, same cache contents (including the
 * quantized cache's per-block headers), same subsequent decode
 * steps — for every chunk size and both KV storage formats, on
 * every ExecMatrix case (thread count x SIMD
 * backend). This is what lets the serve engine interleave prefill
 * with decode without perturbing a single generated token.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "model/decode.hpp"
#include "serve/kv_cache.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

constexpr int64_t kDm = 32;
constexpr int64_t kHeads = 2;
constexpr int64_t kDff = 48;
constexpr int64_t kLayers = 2;
constexpr int64_t kPrompt = 70; // > 64 so chunk=64 splits for real
constexpr int64_t kDecodeSteps = 3;
constexpr int64_t kBlockTokens = 4;

Tensor<Half>
randomPrompt(Rng &rng, int64_t tokens)
{
    Tensor<Half> prompt(Shape({tokens, kDm}));
    for (int64_t i = 0; i < prompt.numel(); ++i)
        prompt.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return prompt;
}

DecoderStack
makeStack()
{
    Rng rng(11); // same weights in every combination
    return DecoderStack::random(kDm, kHeads, kDff, kLayers, rng);
}

/** Drive a full chunked prefill; returns the final chunk's output. */
Tensor<Half>
chunkedPrefill(const ExecContext &ctx, const DecoderStack &stack,
               const Tensor<Half> &prompt, int64_t chunk,
               KvCache &cache)
{
    PrefillState state;
    state.prepare(stack, prompt.shape().dim(0));
    DecodeStepWorkspace ws;
    Tensor<Half> out;
    while (!state.done()) {
        const int64_t rows =
            std::min(chunk, state.promptTokens - state.rowsDone);
        runPrefill(ctx, stack, prompt, rows, cache, state, ws, out);
    }
    return out;
}

/** Every stored row of both caches must dequantize to the same
 *  bits (for I8 this covers payloads and block headers at once). */
void
expectCachesEqual(const KvCache &a, const KvCache &b)
{
    ASSERT_EQ(a.context(), b.context());
    std::vector<float> row_a(size_t(kDm), 0.0f);
    std::vector<float> row_b(size_t(kDm), 0.0f);
    for (int64_t l = 0; l < kLayers; ++l) {
        const KvRowsView views_a[] = {a.kView(l), a.vView(l)};
        const KvRowsView views_b[] = {b.kView(l), b.vView(l)};
        for (int i = 0; i < 2; ++i) {
            for (int64_t pos = 0; pos < a.context(); ++pos) {
                views_a[i].loadRow(pos, 0, kDm, row_a.data());
                views_b[i].loadRow(pos, 0, kDm, row_b.data());
                ASSERT_EQ(std::memcmp(row_a.data(), row_b.data(),
                                      size_t(kDm) * sizeof(float)),
                          0)
                    << (i == 0 ? "k" : "v") << " layer " << l
                    << " row " << pos;
            }
        }
    }
}

void
expectRowBitsEqual(const Tensor<Half> &got, int64_t got_row,
                   const Tensor<Half> &want, int64_t want_row,
                   const char *what)
{
    for (int64_t j = 0; j < got.shape().dim(1); ++j)
        ASSERT_EQ(got.at(got_row, j).bits(),
                  want.at(want_row, j).bits())
            << what << ": column " << j;
}

/** One decode step with a call-lifetime workspace (test-only). */
Tensor<Half>
decodeStep(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &inputs,
           const std::vector<KvCache *> &caches)
{
    DecodeStepWorkspace ws;
    Tensor<Half> outputs;
    runDecodeStepInto(ctx, stack, inputs, caches, ws, outputs);
    return outputs;
}

/**
 * The acceptance matrix: chunk in {1, 7, 64, >= prompt} x KV dtype,
 * per ExecMatrix case. For every cell, chunked
 * and one-shot prefill must agree bit for bit on the stack output's
 * last row, on every cached row, and on kDecodeSteps subsequent
 * decode steps.
 */
using PrefillChunk = ExecMatrix;

TEST_P(PrefillChunk, ChunkedMatchesUnchunkedBitForBit)
{
    const DecoderStack stack = makeStack();
    const KvDtype dtypes[] = {KvDtype::F16, KvDtype::I8};
    const int64_t chunks[] = {1, 7, 64, kPrompt, kPrompt + 9};
    Rng prompt_rng(29);
    const Tensor<Half> prompt = randomPrompt(prompt_rng, kPrompt);

    for (KvDtype dtype : dtypes) {
        // One-shot reference for this dtype.
        KvSlab ref_slab(kBlockTokens, kDm, 8, dtype);
        KvCache ref_cache(ref_slab, kLayers);
        const Tensor<Half> ref_out =
            runPrefill(ctx(), stack, prompt, ref_cache);

        for (int64_t chunk : chunks) {
            SCOPED_TRACE(testing::Message()
                         << "dtype " << kvDtypeName(dtype)
                         << " chunk " << chunk);
            KvSlab slab(kBlockTokens, kDm, 8, dtype);
            KvCache cache(slab, kLayers);
            const Tensor<Half> out =
                chunkedPrefill(ctx(), stack, prompt, chunk, cache);
            expectRowBitsEqual(out, out.shape().dim(0) - 1, ref_out,
                               kPrompt - 1, "final prefill row");
            expectCachesEqual(cache, ref_cache);

            // The caches must be interchangeable downstream: decode
            // from both, bit-identical at every step.
            KvSlab ref_decode_slab(kBlockTokens, kDm, 8, dtype);
            KvCache ref_decode(ref_decode_slab, kLayers);
            runPrefill(ctx(), stack, prompt, ref_decode);
            Tensor<Half> ref_in(Shape({1, kDm}));
            Tensor<Half> in(Shape({1, kDm}));
            std::copy(ref_out.rowPtr(kPrompt - 1),
                      ref_out.rowPtr(kPrompt - 1) + kDm,
                      ref_in.rowPtr(0));
            std::copy(out.rowPtr(out.shape().dim(0) - 1),
                      out.rowPtr(out.shape().dim(0) - 1) + kDm,
                      in.rowPtr(0));
            for (int64_t step = 0; step < kDecodeSteps; ++step) {
                ref_in = decodeStep(ctx(), stack, ref_in, {&ref_decode});
                in = decodeStep(ctx(), stack, in, {&cache});
                expectRowBitsEqual(in, 0, ref_in, 0, "decode step");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Exec, PrefillChunk,
                         testing::ValuesIn(execCases()), execCaseName);

/** Chunk bookkeeping: bad resumes are bugs, loudly. */
TEST(PrefillState, GuardsMisuse)
{
    const ExecContext ctx;
    const DecoderStack stack = makeStack();
    Rng prompt_rng(31);
    const Tensor<Half> prompt = randomPrompt(prompt_rng, 8);
    KvSlab slab(kBlockTokens, kDm, 8, KvDtype::F16);
    DecodeStepWorkspace ws;
    Tensor<Half> out;
    {
        // A chunk past the end of the prompt must throw.
        KvCache cache(slab, kLayers);
        PrefillState state;
        state.prepare(stack, 8);
        runPrefill(ctx, stack, prompt, 6, cache, state, ws, out);
        EXPECT_THROW(runPrefill(ctx, stack, prompt, 3, cache, state,
                                ws, out),
                     std::logic_error);
    }
    {
        // The cache must track the state row for row.
        KvCache cache(slab, kLayers);
        PrefillState state;
        state.prepare(stack, 8);
        runPrefill(ctx, stack, prompt, 4, cache, state, ws, out);
        state.rowsDone = 2; // desync
        EXPECT_THROW(runPrefill(ctx, stack, prompt, 2, cache, state,
                                ws, out),
                     std::logic_error);
    }
    {
        // Zero-row chunks are rejected (progress must be real).
        KvCache cache(slab, kLayers);
        PrefillState state;
        state.prepare(stack, 8);
        EXPECT_THROW(runPrefill(ctx, stack, prompt, 0, cache, state,
                                ws, out),
                     std::logic_error);
    }
}

} // namespace
} // namespace softrec
