/**
 * @file
 * Memory-bound element-wise and normalization kernels that fill out
 * the transformer layer schedule: LayerNorm, residual add, standalone
 * bias/GeLU and scale/mask (for the unfused library baselines of
 * Fig. 7), head reshapes, and embedding lookup. The functional layer
 * runs residual add and LayerNorm as one fused kernel.
 */

#ifndef SOFTREC_KERNELS_ELEMENTWISE_HPP
#define SOFTREC_KERNELS_ELEMENTWISE_HPP

#include <string>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"
#include "sim/kernel_profile.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** LayerNorm over [rows, width] (two-pass mean/var + scale). */
KernelProfile layerNormProfile(const GpuSpec &spec,
                               const std::string &name, int64_t rows,
                               int64_t width);

/** Residual addition out = a + b over `elems` fp16 elements. */
KernelProfile residualAddProfile(const GpuSpec &spec,
                                 const std::string &name, int64_t elems);

/**
 * Functional residual Add & LayerNorm: out = LayerNorm(a + b) per row,
 * with fp32 statistics over the sum rounded to fp16, the bits of a
 * residual add that stores its sum followed by a LayerNorm, without
 * the sum tensor (residualLayerNormRows, fp16/simd_math.hpp). All
 * three are [rows, width]; out aliases neither input. Row-parallel in
 * 16-row chunks, bit-identical for any thread count and backend.
 */
void residualLayerNormRun(const ExecContext &ctx, const Tensor<Half> &a,
                          const Tensor<Half> &b,
                          const Tensor<float> &gamma,
                          const Tensor<float> &beta, Tensor<Half> &out,
                          float epsilon = 1e-5f);

/** Standalone bias + optional GeLU over [rows, width]. */
KernelProfile biasActProfile(const GpuSpec &spec, const std::string &name,
                             int64_t rows, int64_t width, bool gelu);

/** Functional bias + optional GeLU (row-parallel). */
void biasActRun(const ExecContext &ctx, const Tensor<Half> &in,
                const Tensor<float> &bias, bool gelu,
                Tensor<Half> &out);

/**
 * Standalone scale and/or mask pass over the attention matrix — what
 * an unfused library (HuggingFace eager mode) launches between the
 * QK^T GEMM and the softmax.
 */
KernelProfile scaleMaskProfile(const GpuSpec &spec,
                               const std::string &name, int64_t batch,
                               int64_t rows, int64_t cols);

/**
 * Head split/merge reshape of a [L, Dm] activation (read + write),
 * launched around the SDA block by layout-sensitive libraries.
 */
KernelProfile reshapeProfile(const GpuSpec &spec, const std::string &name,
                             int64_t elems);

/** Embedding gather producing [rows, width] fp16. */
KernelProfile embeddingProfile(const GpuSpec &spec,
                               const std::string &name, int64_t rows,
                               int64_t width);

} // namespace softrec

#endif // SOFTREC_KERNELS_ELEMENTWISE_HPP
