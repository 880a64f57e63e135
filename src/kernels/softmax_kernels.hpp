/**
 * @file
 * Dense softmax kernels.
 *
 *  - rowSoftmax*: the baseline fused safe-softmax kernel (one row
 *    vector per thread block, Fig. 3(a)); the configuration the paper's
 *    baseline inherits from TensorRT.
 *  - ls / ir / gs: the three decomposed sub-layer kernels of Fig. 4
 *    (Local Softmax, Inter-sub-vector Reduction, Global Scaling), run
 *    standalone in the SD configuration.
 *
 * Functional implementations compute with fp32 intermediates on fp16
 * storage, mirroring the modeled kernels, and parallelize over rows
 * through the ExecContext they take as first parameter (bit-identical
 * for any thread count — see common/exec_context.hpp).
 */

#ifndef SOFTREC_KERNELS_SOFTMAX_KERNELS_HPP
#define SOFTREC_KERNELS_SOFTMAX_KERNELS_HPP

#include <string>

#include "common/exec_context.hpp"
#include "common/profiler.hpp"
#include "fp16/half.hpp"
#include "sim/kernel_profile.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/**
 * Problem shape shared by all dense softmax kernels. The whole-row
 * kernels (rowSoftmax*, onlineRowSoftmax*) ignore subVector; the
 * decomposed LS/IR/GS kernels require it > 0.
 */
struct SoftmaxShape
{
    std::string name = "softmax";
    int64_t batch = 1;      //!< independent matrices (batch x heads)
    int64_t rows = 0;       //!< attention rows (L)
    int64_t cols = 0;       //!< attention columns (L)
    int64_t subVector = 0;  //!< sub-vector width T; 0 = whole-row
    /**
     * Causal rows: row i covers columns [0, min(cols, firstRow + i +
     * 1)) and the rest of the row is stored as +0 without being read.
     * Only the row softmax honours it; the analytical profiles stay
     * causal-oblivious, like the paper's kernels.
     */
    bool causal = false;
    /**
     * Sequence position of row 0, for the causal bound: a strip of
     * rows [r0, r0 + rows) of a larger matrix sets r0 and gets the
     * bits of those rows of the whole-matrix kernel.
     */
    int64_t firstRow = 0;

    /** Number of sub-vectors per row (N_sv = ceil(L / T)). */
    int64_t numSubVectors() const;
};

/**
 * A row range of a softmax kernel's matrices, for the row-range bodies
 * below. Each xxxRun kernel is its xxxRows body over parallel row
 * chunks; a caller that runs its own row loop (the strip loop of
 * runAttention) calls the body directly, with no parallelFor and no
 * allocation. The body credits its rows' operand bytes to `scope`,
 * the kernel's counters exactly, and times itself as a segment of it.
 */
struct SoftmaxRows
{
    int64_t begin = 0;
    int64_t end = 0;
    float *staging = nullptr; //!< desc.cols floats (not used by IR)
    prof::Scope *scope = nullptr;
};

/** Baseline row-softmax launch profile (one row per TB). */
KernelProfile rowSoftmaxProfile(const GpuSpec &spec,
                                const SoftmaxShape &desc);

/**
 * Functional safe softmax along rows: out = softmax(in). With
 * desc.causal, row i stops at the diagonal; its output bits equal the
 * full-row kernel's on a row whose columns past i are -inf (max and
 * lane sums are unchanged by a -inf tail, and 0 / d is +0), and the
 * input past the diagonal is never read.
 */
void rowSoftmaxRun(const ExecContext &ctx, const SoftmaxShape &desc,
                   const Tensor<Half> &in, Tensor<Half> &out);

/**
 * rowSoftmaxRun's body over one row range (scope "softmax.row"): one
 * softmaxRow call (fp16/simd_math.hpp) per row over its live columns,
 * the row primitive decode attention runs too.
 */
void rowSoftmaxRows(SimdBackend backend, const SoftmaxShape &desc,
                    const Tensor<Half> &in, Tensor<Half> &out,
                    const SoftmaxRows &rows);

/**
 * Online-normalizer row softmax (Milakov & Gimelshein, related work
 * [21]): computes max and normalizer in a single fused pass, so only
 * two dependent passes remain instead of three. Same off-chip traffic
 * as the baseline kernel but a better serialization factor — still an
 * unfused kernel, so it cannot remove the attention-matrix sweeps the
 * way recomposition does.
 */
KernelProfile onlineRowSoftmaxProfile(const GpuSpec &spec,
                                      const SoftmaxShape &desc);

/** LS kernel profile: square tiles of sub-vectors per TB. */
KernelProfile lsProfile(const GpuSpec &spec, const SoftmaxShape &desc);

/**
 * Functional Local Softmax: per sub-vector k of each row, emit
 * X'= exp(x - m'_k), the local max m'_k and local sum d'_k.
 *
 * @param x_prime out, same shape as in (fp16)
 * @param local_max out, [rows, N_sv] (fp32)
 * @param local_sum out, [rows, N_sv] (fp32)
 */
void lsRun(const ExecContext &ctx, const SoftmaxShape &desc,
           const Tensor<Half> &in, Tensor<Half> &x_prime,
           Tensor<float> &local_max, Tensor<float> &local_sum);

/** lsRun's body over one row range (scope "softmax.ls"). */
void lsRows(SimdBackend backend, const SoftmaxShape &desc,
            const Tensor<Half> &in, Tensor<Half> &x_prime,
            Tensor<float> &local_max, Tensor<float> &local_sum,
            const SoftmaxRows &rows);

/** IR kernel profile: one row's (m', d') pairs per thread. */
KernelProfile irProfile(const GpuSpec &spec, const SoftmaxShape &desc);

/**
 * Functional Inter-sub-vector Reduction: per row, reduce
 * m = max_k m'_k and d = sum_k e^(m'_k - m) d'_k, then emit the
 * reconstruction factors r'_k = e^(m'_k - m) / d.
 *
 * @param recon out, [rows, N_sv] (fp32)
 */
void irRun(const ExecContext &ctx, const SoftmaxShape &desc,
           const Tensor<float> &local_max,
           const Tensor<float> &local_sum, Tensor<float> &recon);

/**
 * irRun's body over one row range (scope "softmax.ir"): the
 * reconstructionFactors primitive (fp16/simd_math.hpp) over blocks of
 * up to 16 rows.
 */
void irRows(SimdBackend backend, const SoftmaxShape &desc,
            const Tensor<float> &local_max,
            const Tensor<float> &local_sum, Tensor<float> &recon,
            const SoftmaxRows &rows);

/** GS kernel profile: element-wise streaming. */
KernelProfile gsProfile(const GpuSpec &spec, const SoftmaxShape &desc);

/** Functional Global Scaling: y = x' * r'[row, j / T]. */
void gsRun(const ExecContext &ctx, const SoftmaxShape &desc,
           const Tensor<Half> &x_prime, const Tensor<float> &recon,
           Tensor<Half> &y);

/**
 * gsRun's body over one row range (scope "softmax.gs"): one
 * halfToFloatScaled pass (fp16/simd_math.hpp) per row, then the
 * narrowing.
 */
void gsRows(SimdBackend backend, const SoftmaxShape &desc,
            const Tensor<Half> &x_prime,
            const Tensor<float> &recon, Tensor<Half> &y,
            const SoftmaxRows &rows);

} // namespace softrec

#endif // SOFTREC_KERNELS_SOFTMAX_KERNELS_HPP
