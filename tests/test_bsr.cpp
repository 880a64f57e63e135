/**
 * @file
 * Tests of the BSR layout and its invariants.
 */

#include <stdexcept>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "sparse/bsr.hpp"

namespace softrec {
namespace {

BsrLayout
diagonalLayout(int64_t n, int64_t bs)
{
    std::vector<bool> mask(size_t(n * n), false);
    for (int64_t i = 0; i < n; ++i)
        mask[size_t(i * n + i)] = true;
    return BsrLayout::fromMask(bs, n, n, mask);
}

TEST(BsrLayout, MaskRoundTrip)
{
    Rng rng(1);
    std::vector<bool> mask(48);
    for (size_t i = 0; i < mask.size(); ++i)
        mask[i] = rng.uniform() < 0.4;
    mask[0] = true; // ensure non-degenerate
    const auto layout = BsrLayout::fromMask(16, 6, 8, mask);
    EXPECT_EQ(layout.toMask(), mask);
}

TEST(BsrLayout, GeometryAccessors)
{
    const auto layout = diagonalLayout(4, 32);
    EXPECT_EQ(layout.blockSize(), 32);
    EXPECT_EQ(layout.blockRows(), 4);
    EXPECT_EQ(layout.blockCols(), 4);
    EXPECT_EQ(layout.rows(), 128);
    EXPECT_EQ(layout.cols(), 128);
    EXPECT_EQ(layout.nnzBlocks(), 4);
    EXPECT_EQ(layout.nnzElements(), 4 * 32 * 32);
    EXPECT_DOUBLE_EQ(layout.density(), 0.25);
}

TEST(BsrLayout, RowQueriesAndLookup)
{
    const auto layout = diagonalLayout(3, 8);
    for (int64_t r = 0; r < 3; ++r) {
        EXPECT_EQ(layout.rowNnzBlocks(r), 1);
        EXPECT_TRUE(layout.hasBlock(r, r));
        EXPECT_EQ(layout.blockIndex(r, r), r);
        EXPECT_EQ(layout.rowBlockCols(r)[0], r);
        for (int64_t c = 0; c < 3; ++c) {
            if (c != r) {
                EXPECT_FALSE(layout.hasBlock(r, c));
                EXPECT_EQ(layout.blockIndex(r, c), -1);
            }
        }
    }
    EXPECT_EQ(layout.blockCol(1), 1);
}

TEST(BsrLayout, ValidatesRowPtrConsistency)
{
    // rowPtr end must equal colIdx size.
    EXPECT_THROW(BsrLayout(8, 2, 2, {0, 1, 3}, {0}), std::logic_error);
    // rowPtr must start at zero.
    EXPECT_THROW(BsrLayout(8, 2, 2, {1, 1, 2}, {0, 1}),
                 std::logic_error);
    // Columns must be sorted and unique per row.
    EXPECT_THROW(BsrLayout(8, 1, 4, {0, 2}, {2, 1}), std::logic_error);
    EXPECT_THROW(BsrLayout(8, 1, 4, {0, 2}, {1, 1}), std::logic_error);
    // Column out of range.
    EXPECT_THROW(BsrLayout(8, 1, 2, {0, 1}, {2}), std::logic_error);
    // Valid layout does not throw.
    EXPECT_NO_THROW(BsrLayout(8, 2, 2, {0, 1, 2}, {0, 1}));
}

TEST(BsrLayout, OutOfRangeRowPanics)
{
    const auto layout = diagonalLayout(2, 8);
    EXPECT_THROW(layout.rowBegin(2), std::logic_error);
    EXPECT_THROW(layout.rowNnzBlocks(-1), std::logic_error);
}

TEST(AnalyzeSparsity, BalancedDiagonal)
{
    const auto stats = analyzeSparsity(diagonalLayout(8, 16));
    EXPECT_EQ(stats.nnzBlocks, 8);
    EXPECT_EQ(stats.minRowBlocks, 1);
    EXPECT_EQ(stats.maxRowBlocks, 1);
    EXPECT_DOUBLE_EQ(stats.meanRowBlocks, 1.0);
    EXPECT_DOUBLE_EQ(stats.imbalance, 1.0);
}

TEST(AnalyzeSparsity, DetectsStragglerRow)
{
    // Row 0 fully dense, other rows diagonal only.
    const int64_t n = 8;
    std::vector<bool> mask(size_t(n * n), false);
    for (int64_t c = 0; c < n; ++c)
        mask[size_t(c)] = true;
    for (int64_t r = 1; r < n; ++r)
        mask[size_t(r * n + r)] = true;
    const auto stats =
        analyzeSparsity(BsrLayout::fromMask(16, n, n, mask));
    EXPECT_EQ(stats.maxRowBlocks, 8);
    EXPECT_EQ(stats.minRowBlocks, 1);
    EXPECT_NEAR(stats.imbalance, 8.0 / (15.0 / 8.0), 1e-12);
}

} // namespace
} // namespace softrec
