/**
 * @file
 * Block-sparse-row (BSR) layout for sparse attention matrices.
 *
 * Sparse attention kernels (DeepSpeed / Triton style, per the paper's
 * Section 3.4) define sparsity at the granularity of square blocks so
 * that computation inside a block stays dense and tensor-core friendly.
 * A BsrLayout records, per block row, the sorted column indices of the
 * non-zero blocks.
 */

#ifndef SOFTREC_SPARSE_BSR_HPP
#define SOFTREC_SPARSE_BSR_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace softrec {

/** Block-sparse-row layout over a (blockRows x blockCols) block grid. */
class BsrLayout
{
  public:
    /**
     * Build a layout from explicit structure.
     *
     * @param block_size edge length of each square block, in elements
     * @param block_rows number of block rows
     * @param block_cols number of block columns
     * @param row_ptr CSR-style offsets into col_idx, size block_rows + 1
     * @param col_idx sorted, unique block-column indices per block row
     */
    BsrLayout(int64_t block_size, int64_t block_rows, int64_t block_cols,
              std::vector<int64_t> row_ptr, std::vector<int64_t> col_idx);

    /** Build a layout from a row-major block mask (true = non-zero). */
    static BsrLayout fromMask(int64_t block_size, int64_t block_rows,
                              int64_t block_cols,
                              const std::vector<bool> &mask);

    /** Edge length of each square block, in elements. */
    int64_t blockSize() const { return blockSize_; }
    /** Number of block rows. */
    int64_t blockRows() const { return blockRows_; }
    /** Number of block columns. */
    int64_t blockCols() const { return blockCols_; }
    /** Matrix height in elements. */
    int64_t rows() const { return blockRows_ * blockSize_; }
    /** Matrix width in elements. */
    int64_t cols() const { return blockCols_ * blockSize_; }

    /** Total non-zero blocks. */
    int64_t nnzBlocks() const { return int64_t(colIdx_.size()); }
    /** Total non-zero elements. */
    int64_t nnzElements() const
    {
        return nnzBlocks() * blockSize_ * blockSize_;
    }
    /** Fraction of blocks that are non-zero, in [0, 1]. */
    double density() const;

    /** Non-zero blocks in a block row. */
    int64_t rowNnzBlocks(int64_t block_row) const;

    /** Begin offset of a block row in the block index array. */
    int64_t rowBegin(int64_t block_row) const;
    /** End offset of a block row in the block index array. */
    int64_t rowEnd(int64_t block_row) const;

    /** Block-column index of the k-th stored block. */
    int64_t blockCol(int64_t k) const { return colIdx_[size_t(k)]; }

    /** A block row's rowNnzBlocks sorted block-column indices. */
    const int64_t *rowBlockCols(int64_t block_row) const
    {
        return colIdx_.data() + rowBegin(block_row);
    }

    /** True if block (block_row, block_col) is non-zero. */
    bool hasBlock(int64_t block_row, int64_t block_col) const;

    /**
     * Index of block (block_row, block_col) in block storage order, or
     * -1 if the block is zero.
     */
    int64_t blockIndex(int64_t block_row, int64_t block_col) const;

    /** Expand to a row-major block mask. */
    std::vector<bool> toMask() const;

    /** One-line summary for logs. */
    std::string toString() const;

  private:
    void validate() const;

    int64_t blockSize_;
    int64_t blockRows_;
    int64_t blockCols_;
    std::vector<int64_t> rowPtr_;
    std::vector<int64_t> colIdx_;
};

/**
 * Summary statistics of a layout's per-row block occupancy; feeds the
 * load-imbalance term of the performance model (paper Section 5.2).
 */
struct SparsityStats
{
    int64_t nnzBlocks = 0;       //!< total non-zero blocks
    double density = 0.0;        //!< non-zero block fraction
    int64_t minRowBlocks = 0;    //!< fewest blocks in any block row
    int64_t maxRowBlocks = 0;    //!< most blocks in any block row
    double meanRowBlocks = 0.0;  //!< average blocks per block row
    /**
     * max/mean per-row blocks; 1.0 means perfectly balanced rows,
     * larger values mean a straggler row dominates.
     */
    double imbalance = 1.0;
};

/** Compute occupancy statistics for a layout. */
SparsityStats analyzeSparsity(const BsrLayout &layout);

} // namespace softrec

#endif // SOFTREC_SPARSE_BSR_HPP
