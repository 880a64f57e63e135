/**
 * @file
 * Minimal dense tensor library used by the functional kernels.
 *
 * Row-major, owning storage. Kernels use 2-D and 3-D tensors of float
 * (accumulators, reference math) and Half (FP16 storage, matching the
 * paper's evaluation precision).
 */

#ifndef SOFTREC_TENSOR_TENSOR_HPP
#define SOFTREC_TENSOR_TENSOR_HPP

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace softrec {

/** Tensor shape: an ordered list of dimension sizes. */
class Shape
{
  public:
    /** Empty (rank-0) shape with one element. */
    Shape() = default;

    /** Construct from a dimension list, e.g. Shape({4, 4096, 64}). */
    Shape(std::initializer_list<int64_t> dims) : dims_(dims) { validate(); }

    /** Construct from a vector of dimensions. */
    explicit Shape(std::vector<int64_t> dims) : dims_(std::move(dims))
    {
        validate();
    }

    /** Number of dimensions. */
    size_t rank() const { return dims_.size(); }

    /** Size of dimension i (negative i counts from the back). */
    int64_t dim(int i) const;

    /** All dimensions. */
    const std::vector<int64_t> &dims() const { return dims_; }

    /** Total number of elements. */
    int64_t numel() const;

    /** Row-major strides (in elements). */
    std::vector<int64_t> strides() const;

    /** Human-readable form, e.g. "[4, 4096, 64]". */
    std::string toString() const;

    bool operator==(const Shape &other) const = default;

  private:
    void validate() const;

    std::vector<int64_t> dims_;
};

/**
 * Owning, row-major dense tensor.
 *
 * @tparam T element type (float or Half).
 */
template <typename T>
class Tensor
{
  public:
    /** Empty tensor (rank 0, one element). */
    Tensor() : shape_(), data_(1) {}

    /** Zero-initialized tensor of the given shape. */
    explicit Tensor(Shape shape)
        : shape_(std::move(shape)),
          data_(static_cast<size_t>(shape_.numel()))
    {}

    /** Tensor of the given shape filled with a value. */
    Tensor(Shape shape, T fill_value)
        : shape_(std::move(shape)),
          data_(static_cast<size_t>(shape_.numel()), fill_value)
    {}

    /** The tensor's shape. */
    const Shape &shape() const { return shape_; }

    /** Total elements. */
    int64_t numel() const { return shape_.numel(); }

    /** Elements of storage held, which resize() never gives back. */
    size_t capacity() const { return data_.capacity(); }

    /** Raw storage. */
    T *data() { return data_.data(); }
    /** Raw storage (const). */
    const T *data() const { return data_.data(); }

    /** Linear element access. */
    T &at(int64_t i) { return data_[checkIndex(i)]; }
    /** Linear element access (const). */
    const T &at(int64_t i) const { return data_[checkIndex(i)]; }

    /** 2-D element access (requires rank 2). */
    T &
    at(int64_t i, int64_t j)
    {
        return data_[offset2d(i, j)];
    }
    /** 2-D element access (const). */
    const T &
    at(int64_t i, int64_t j) const
    {
        return data_[offset2d(i, j)];
    }

    /** 3-D element access (requires rank 3). */
    T &
    at(int64_t i, int64_t j, int64_t k)
    {
        return data_[offset3d(i, j, k)];
    }
    /** 3-D element access (const). */
    const T &
    at(int64_t i, int64_t j, int64_t k) const
    {
        return data_[offset3d(i, j, k)];
    }

    /**
     * Pointer to the first element of row i (requires rank 2). The
     * row's dim(1) elements are contiguous, so kernels can hand it to
     * the batch converters instead of looping at(i, j).
     */
    T *
    rowPtr(int64_t i)
    {
        return data_.data() + rowOffset(i);
    }
    /** Pointer to the first element of row i (const, rank 2). */
    const T *
    rowPtr(int64_t i) const
    {
        return data_.data() + rowOffset(i);
    }

    /** Fill every element with a value. */
    void
    fill(T value)
    {
        std::fill(data_.begin(), data_.end(), value);
    }

    /**
     * Re-shape in place, reusing the existing storage capacity.
     * Element values are unspecified afterwards (kernels that take a
     * resized tensor as an output write every element); no
     * reallocation happens once capacity has reached the high-water
     * mark, which is what lets step-lifetime workspaces reuse the
     * decode loop's activation and attention buffers. (The GEMM
     * panels and scratch are still allocated per call; a runtime
     * allocation gate is ROADMAP item 2.)
     */
    void
    resize(Shape shape)
    {
        shape_ = std::move(shape);
        data_.resize(static_cast<size_t>(shape_.numel()));
    }

  private:
    // Per-element bounds checks are SOFTREC_CHECK, not SOFTREC_ASSERT:
    // these run in the innermost kernel loops, so they compile in only
    // under -DSOFTREC_CHECKED_BUILD=ON (the CI checked build).
    size_t
    checkIndex(int64_t i) const
    {
        SOFTREC_CHECK(i >= 0 && i < shape_.numel(),
                      "index %lld out of range for %s",
                      (long long)i, shape_.toString().c_str());
        return static_cast<size_t>(i);
    }

    size_t
    offset2d(int64_t i, int64_t j) const
    {
        SOFTREC_CHECK(shape_.rank() == 2, "rank-2 access on %s",
                      shape_.toString().c_str());
        SOFTREC_CHECK(i >= 0 && i < shape_.dim(0) &&
                      j >= 0 && j < shape_.dim(1),
                      "(%lld, %lld) out of range for %s",
                      (long long)i, (long long)j,
                      shape_.toString().c_str());
        return static_cast<size_t>(i * shape_.dim(1) + j);
    }

    size_t
    rowOffset(int64_t i) const
    {
        SOFTREC_CHECK(shape_.rank() == 2, "rowPtr on %s",
                      shape_.toString().c_str());
        SOFTREC_CHECK(i >= 0 && i < shape_.dim(0),
                      "row %lld out of range for %s",
                      (long long)i, shape_.toString().c_str());
        return static_cast<size_t>(i * shape_.dim(1));
    }

    size_t
    offset3d(int64_t i, int64_t j, int64_t k) const
    {
        SOFTREC_CHECK(shape_.rank() == 3, "rank-3 access on %s",
                      shape_.toString().c_str());
        SOFTREC_CHECK(i >= 0 && i < shape_.dim(0) &&
                      j >= 0 && j < shape_.dim(1) &&
                      k >= 0 && k < shape_.dim(2),
                      "(%lld, %lld, %lld) out of range for %s",
                      (long long)i, (long long)j, (long long)k,
                      shape_.toString().c_str());
        return static_cast<size_t>(
            (i * shape_.dim(1) + j) * shape_.dim(2) + k);
    }

    Shape shape_;
    std::vector<T> data_;
};

} // namespace softrec

#endif // SOFTREC_TENSOR_TENSOR_HPP
