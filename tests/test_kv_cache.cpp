/**
 * @file
 * Dedicated KvSlab/KvCache suite: freelist recycling and chunk
 * growth, per-layer append invariants, block-boundary addressing in
 * both storage formats, the per-block int8 quantization contract
 * (round-trip error <= scale / 2, rescale-on-append never compounds),
 * checked-build poison-on-release, and the end-to-end quantized
 * decode error bound (<= 5e-2 vs the fp16 reference) of
 * decodeAttendRun. Before this file the cache was only covered
 * indirectly through the serve tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "kernels/decode_attention.hpp"
#include "serve/kv_cache.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

constexpr int64_t kDm = 32;

std::vector<Half>
randomRow(Rng &rng, int64_t width, double sigma = 0.5)
{
    std::vector<Half> row(static_cast<size_t>(width));
    for (int64_t j = 0; j < width; ++j)
        row[size_t(j)] = Half(float(rng.normal(0.0, sigma)));
    return row;
}

// --- slab bookkeeping -------------------------------------------------

TEST(KvSlab, RecyclesBlocksAcrossCaches)
{
    KvSlab slab(/*block_tokens=*/2, kDm, /*blocks_per_chunk=*/4);
    std::vector<Half> row(static_cast<size_t>(kDm));

    {
        KvCache cache(slab, /*num_layers=*/2);
        for (int t = 0; t < 3; ++t)
            for (int64_t layer = 0; layer < 2; ++layer)
                cache.appendRow(layer, row.data(), row.data());
        // 3 tokens / 2 per block = 2 blocks, x 2 layers x K and V.
        EXPECT_EQ(slab.blocksInUse(), 8);
        EXPECT_EQ(cache.context(), 3);
    }
    // Cache destruction returns every block without shrinking the
    // reservation — steady-state serving never re-mallocs.
    EXPECT_EQ(slab.blocksInUse(), 0);
    const int64_t reserved = slab.blocksReserved();
    EXPECT_GE(reserved, 8);

    KvCache reuse(slab, /*num_layers=*/2);
    for (int t = 0; t < 3; ++t)
        for (int64_t layer = 0; layer < 2; ++layer)
            reuse.appendRow(layer, row.data(), row.data());
    EXPECT_EQ(slab.blocksReserved(), reserved);
    EXPECT_GT(slab.bytesReserved(), 0);
}

TEST(KvSlab, GrowsByWholeChunksAndNeverShrinks)
{
    KvSlab slab(/*block_tokens=*/2, /*row_width=*/4,
                /*blocks_per_chunk=*/2);
    EXPECT_EQ(slab.blocksReserved(), 0);
    std::vector<std::byte *> held;
    for (int i = 0; i < 5; ++i)
        held.push_back(slab.acquire());
    // Five acquires at two blocks per chunk = three chunks.
    EXPECT_EQ(slab.blocksReserved(), 6);
    EXPECT_EQ(slab.blocksInUse(), 5);
    EXPECT_EQ(slab.bytesReserved(), 6 * slab.blockBytes());
    for (std::byte *block : held)
        slab.release(block);
    EXPECT_EQ(slab.blocksInUse(), 0);
    // Re-acquiring the same working set touches only the freelist.
    for (int i = 0; i < 5; ++i)
        held[size_t(i)] = slab.acquire();
    EXPECT_EQ(slab.blocksReserved(), 6);
    for (std::byte *block : held)
        slab.release(block);
}

TEST(KvSlab, BlockBytesReflectStorageFormat)
{
    // The serve-bench capacity claim in one number: at the default
    // serving shape an int8 block is less than 1/1.8 the bytes of an
    // f16 block, so a fixed slab byte budget admits >= 1.8x tokens.
    const int64_t f16 = kvBlockBytes(KvDtype::F16, 64, 64);
    const int64_t i8 = kvBlockBytes(KvDtype::I8, 64, 64);
    EXPECT_EQ(f16, 64 * 64 * 2);
    EXPECT_EQ(i8, kKvBlockQuantBytes + 64 * 64);
    EXPECT_GE(double(f16) / double(i8), 1.8);

    // Odd shapes stay 16-aligned so every block's fp32 header is
    // addressable at its natural alignment.
    EXPECT_EQ(kvBlockBytes(KvDtype::I8, 3, 5) % 16, 0);
    EXPECT_EQ(kvBlockBytes(KvDtype::F16, 3, 5) % 16, 0);

    KvSlab f16_slab(64, 64, 4, KvDtype::F16);
    KvSlab i8_slab(64, 64, 4, KvDtype::I8);
    EXPECT_EQ(f16_slab.blockBytes(), f16);
    EXPECT_EQ(i8_slab.blockBytes(), i8);
    EXPECT_EQ(std::string(kvDtypeName(f16_slab.dtype())), "f16");
    EXPECT_EQ(std::string(kvDtypeName(i8_slab.dtype())), "int8");
}

// --- append invariants ------------------------------------------------

TEST(KvCache, ViewsAddressRowsAcrossBlockBoundaries)
{
    KvSlab slab(/*block_tokens=*/2, kDm);
    KvCache cache(slab, /*num_layers=*/1);
    std::vector<Half> k_row(static_cast<size_t>(kDm));
    std::vector<Half> v_row(static_cast<size_t>(kDm));
    for (int t = 0; t < 5; ++t) {
        for (int64_t j = 0; j < kDm; ++j) {
            k_row[size_t(j)] = Half(float(t * 100 + j));
            v_row[size_t(j)] = Half(float(-(t * 100 + j)));
        }
        cache.appendRow(0, k_row.data(), v_row.data());
    }
    const KvRowsView k = cache.kView(0);
    const KvRowsView v = cache.vView(0);
    ASSERT_EQ(k.rows, 5);
    EXPECT_EQ(k.dtype, KvDtype::F16);
    for (int t = 0; t < 5; ++t)
        for (int64_t j = 0; j < kDm; ++j) {
            EXPECT_EQ(k.row(t)[j].bits(),
                      Half(float(t * 100 + j)).bits());
            EXPECT_EQ(v.row(t)[j].bits(),
                      Half(float(-(t * 100 + j))).bits());
        }
}

TEST(KvCache, UnevenLayerAppendsAreCaught)
{
    KvSlab slab(/*block_tokens=*/2, kDm);
    KvCache cache(slab, /*num_layers=*/2);
    std::vector<Half> row(static_cast<size_t>(kDm));
    cache.appendRow(0, row.data(), row.data());
    cache.appendRow(1, row.data(), row.data());
    cache.appendRow(0, row.data(), row.data());
    // Layer 0 has 2 rows, layer 1 has 1: the context is ill-defined.
    EXPECT_THROW(cache.context(), std::logic_error);
    EXPECT_THROW(cache.appendRow(2, row.data(), row.data()),
                 std::logic_error);
    cache.appendRow(1, row.data(), row.data()); // repair for dtor
    EXPECT_EQ(cache.context(), 2);
}

// --- int8 quantization contract ---------------------------------------

/** Max-abs per-block value of rows [first, last] of `rows`. */
float
blockAmax(const std::vector<std::vector<Half>> &rows, size_t first,
          size_t last)
{
    float amax = 0.0f;
    for (size_t r = first; r <= last && r < rows.size(); ++r)
        for (const Half &h : rows[r])
            amax = std::max(amax, std::fabs(float(h)));
    return amax;
}

TEST(KvCacheI8, RoundTripErrorIsBoundedPerBlock)
{
    constexpr int64_t kBlockTokens = 4;
    KvSlab slab(kBlockTokens, kDm, /*blocks_per_chunk=*/4,
                KvDtype::I8);
    KvCache cache(slab, /*num_layers=*/1);

    Rng rng(101);
    std::vector<std::vector<Half>> appended;
    for (int t = 0; t < 11; ++t) { // spans two full + one open block
        appended.push_back(randomRow(rng, kDm));
        cache.appendRow(0, appended.back().data(),
                        appended.back().data());
    }

    const KvRowsView k = cache.kView(0);
    ASSERT_EQ(k.rows, 11);
    ASSERT_EQ(k.dtype, KvDtype::I8);
    std::vector<float> got(static_cast<size_t>(kDm));
    for (int64_t t = 0; t < 11; ++t) {
        const size_t b0 = size_t(t / kBlockTokens) *
                          size_t(kBlockTokens);
        const float amax =
            blockAmax(appended, b0, b0 + size_t(kBlockTokens) - 1);
        const float scale = amax / 127.0f;
        EXPECT_FLOAT_EQ(k.blockQuant(t).scale, scale);
        EXPECT_EQ(k.blockQuant(t).zero, 0.0f);
        // Round-to-nearest on the scale grid: every element within
        // half a quantization step of its fp16 source (small fp slack
        // for the scale division itself).
        const float bound = scale * 0.5f * 1.001f;
        k.loadRow(t, 0, kDm, got.data());
        for (int64_t j = 0; j < kDm; ++j) {
            const float want =
                float(appended[size_t(t)][size_t(j)]);
            EXPECT_LE(std::fabs(got[size_t(j)] - want), bound)
                << "row " << t << " col " << j;
        }
    }
}

TEST(KvCacheI8, RescaleOnAppendNeverCompoundsError)
{
    // Fill most of a block with tiny values, then append one huge row
    // into the same block. The block's scale must widen to the new
    // amax AND the earlier rows must still satisfy the *final* scale
    // bound — i.e. they were requantized from their exact fp16
    // staging copies, not from their previously quantized (and now
    // far-too-coarse-to-matter) int8 values.
    constexpr int64_t kBlockTokens = 4;
    KvSlab slab(kBlockTokens, kDm, /*blocks_per_chunk=*/4,
                KvDtype::I8);
    KvCache cache(slab, /*num_layers=*/1);

    Rng rng(103);
    std::vector<std::vector<Half>> appended;
    for (int t = 0; t < 3; ++t) {
        appended.push_back(randomRow(rng, kDm, /*sigma=*/0.01));
        cache.appendRow(0, appended.back().data(),
                        appended.back().data());
    }
    std::vector<Half> huge(static_cast<size_t>(kDm));
    for (int64_t j = 0; j < kDm; ++j)
        huge[size_t(j)] = Half(j % 2 == 0 ? 50.0f : -50.0f);
    appended.push_back(huge);
    cache.appendRow(0, huge.data(), huge.data());

    const KvRowsView k = cache.kView(0);
    const float scale = k.blockQuant(0).scale;
    EXPECT_FLOAT_EQ(scale, 50.0f / 127.0f);
    std::vector<float> got(static_cast<size_t>(kDm));
    for (int64_t t = 0; t < 4; ++t) {
        k.loadRow(t, 0, kDm, got.data());
        for (int64_t j = 0; j < kDm; ++j) {
            const float want =
                float(appended[size_t(t)][size_t(j)]);
            EXPECT_LE(std::fabs(got[size_t(j)] - want),
                      scale * 0.5f * 1.001f)
                << "row " << t << " col " << j;
        }
    }
}

TEST(KvCacheI8, BlocksQuantizeIndependently)
{
    // A huge value in block 1 must not coarsen block 0: per-block
    // scaling is the whole point vs per-tensor.
    constexpr int64_t kBlockTokens = 2;
    KvSlab slab(kBlockTokens, kDm, /*blocks_per_chunk=*/4,
                KvDtype::I8);
    KvCache cache(slab, /*num_layers=*/1);

    Rng rng(107);
    std::vector<std::vector<Half>> appended;
    for (int t = 0; t < 2; ++t) { // block 0: small values
        appended.push_back(randomRow(rng, kDm, /*sigma=*/0.05));
        cache.appendRow(0, appended.back().data(),
                        appended.back().data());
    }
    std::vector<Half> huge(size_t(kDm), Half(60.0f));
    cache.appendRow(0, huge.data(), huge.data()); // opens block 1

    const KvRowsView k = cache.kView(0);
    EXPECT_LT(k.blockQuant(0).scale, 1.0f);
    EXPECT_FLOAT_EQ(k.blockQuant(2).scale, 60.0f / 127.0f);
    // Block 0 rows keep their fine-grained bound.
    const float amax0 = blockAmax(appended, 0, 1);
    std::vector<float> got(static_cast<size_t>(kDm));
    for (int64_t t = 0; t < 2; ++t) {
        k.loadRow(t, 0, kDm, got.data());
        for (int64_t j = 0; j < kDm; ++j) {
            const float want =
                float(appended[size_t(t)][size_t(j)]);
            EXPECT_LE(std::fabs(got[size_t(j)] - want),
                      amax0 / 127.0f * 0.5f * 1.001f);
        }
    }
}

// --- poison-on-release (checked builds) -------------------------------

TEST(KvSlab, ReleasePoisonsF16BlocksInCheckedBuilds)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "poison-on-release is compiled out";
    KvSlab slab(/*block_tokens=*/2, /*row_width=*/4,
                /*blocks_per_chunk=*/2, KvDtype::F16);
    std::byte *block = slab.acquire();
    std::memset(block, 0, size_t(slab.blockBytes()));
    slab.release(block);
    // The slab still owns the memory (freelist); a stale view reading
    // it must see fp16 NaNs, not another request's zeros.
    const Half *rows = reinterpret_cast<const Half *>(block);
    for (int64_t i = 0; i < 2 * 4; ++i) {
        EXPECT_EQ(rows[i].bits(), 0x7e7e);
        EXPECT_TRUE(std::isnan(float(rows[i])));
    }
}

TEST(KvSlab, ReleasePoisonsI8HeadersInCheckedBuilds)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "poison-on-release is compiled out";
    KvSlab slab(/*block_tokens=*/2, /*row_width=*/4,
                /*blocks_per_chunk=*/2, KvDtype::I8);
    std::byte *block = slab.acquire();
    std::memset(block, 0, size_t(slab.blockBytes()));
    slab.release(block);
    KvBlockQuant header;
    std::memcpy(&header, block, sizeof(header));
    // NaN scale: any dequantized element of a stale block is NaN.
    EXPECT_TRUE(std::isnan(header.scale));
    const int8_t *payload =
        reinterpret_cast<const int8_t *>(block + kKvBlockQuantBytes);
    for (int64_t i = 0; i < 2 * 4; ++i)
        EXPECT_EQ(payload[i], int8_t(-128));
}

// --- quantized decode vs the fp16 reference ---------------------------

// Once per ExecMatrix case: the int8 decode path has no bit-level
// cross-backend test of its own.
using QuantizedDecode = ExecMatrix;

TEST_P(QuantizedDecode, ThreePassKernelStaysWithinContract)
{
    // Append the same random rows into an F16 and an I8 cache, run
    // decodeAttendRun against both, and bound the divergence. A
    // nonzero headOffset covers the dequantized head *slice* path.
    constexpr int64_t kWidth = 16; // two heads of 8
    constexpr int64_t kHead = 8;
    constexpr int64_t kContext = 21; // partial final slab block
    KvSlab f16_slab(/*block_tokens=*/4, kWidth, 8, KvDtype::F16);
    KvSlab i8_slab(/*block_tokens=*/4, kWidth, 8, KvDtype::I8);
    KvCache f16_cache(f16_slab, /*num_layers=*/1);
    KvCache i8_cache(i8_slab, /*num_layers=*/1);

    Rng rng(211);
    for (int t = 0; t < kContext; ++t) {
        const std::vector<Half> k_row = randomRow(rng, kWidth);
        const std::vector<Half> v_row = randomRow(rng, kWidth);
        f16_cache.appendRow(0, k_row.data(), v_row.data());
        i8_cache.appendRow(0, k_row.data(), v_row.data());
    }

    const std::vector<Half> q = randomRow(rng, kHead);
    for (int64_t head = 0; head < 2; ++head) {
        DecodeAttendDesc desc;
        desc.dHead = kHead;
        desc.headOffset = head * kHead;
        desc.scale = 1.0 / std::sqrt(double(kHead));
        std::vector<Half> ref(static_cast<size_t>(kHead));
        std::vector<Half> quant(static_cast<size_t>(kHead));
        decodeAttendRun(ctx(), desc, q.data(), f16_cache.kView(0),
                        f16_cache.vView(0), ref.data());
        decodeAttendRun(ctx(), desc, q.data(), i8_cache.kView(0),
                        i8_cache.vView(0), quant.data());
        float max_err = 0.0f;
        for (int64_t j = 0; j < kHead; ++j)
            max_err = std::max(
                max_err,
                std::fabs(float(ref[size_t(j)]) -
                          float(quant[size_t(j)])));
        // The acceptance contract: int8 KV decode stays within 5e-2
        // of the bit-exact fp16 reference for unit-scale activations.
        EXPECT_LE(max_err, 5e-2f) << "head " << head;
        EXPECT_GT(max_err, 0.0f); // the formats genuinely differ
    }
}

INSTANTIATE_TEST_SUITE_P(Exec, QuantizedDecode,
                         testing::ValuesIn(execCases()), execCaseName);

} // namespace
} // namespace softrec
