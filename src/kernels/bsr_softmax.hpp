/**
 * @file
 * Launch profiles of the block-sparse softmax kernels (Section 3.4),
 * for the GPU cost model.
 *
 * The baseline kernel mirrors DeepSpeed's sparse softmax: one thread
 * block per attention row with *worst-case* (full row length) resource
 * allocation, which is what destroys its memory-bandwidth utilization
 * (paper Section 5.1). The decomposed LS/IR/GS variants allocate per
 * sub-vector (= per non-zero block) instead.
 *
 * The functional CPU path has no block-sparse softmax of its own:
 * runAttention (core/attention_exec.hpp) runs a sparse head's softmax
 * stage through the dense row bodies, one block-row strip at a time.
 */

#ifndef SOFTREC_KERNELS_BSR_SOFTMAX_HPP
#define SOFTREC_KERNELS_BSR_SOFTMAX_HPP

#include <string>

#include "sim/kernel_profile.hpp"
#include "sparse/bsr.hpp"

namespace softrec {

/** Problem shape shared by the block-sparse softmax kernels. */
struct BsrSoftmaxDesc
{
    std::string name = "softmax.bsr";
    int64_t batch = 1;               //!< independent matrices
    const BsrLayout *layout = nullptr; //!< attention sparsity structure
};

/** Baseline block-sparse row-softmax profile (worst-case allocation). */
KernelProfile bsrRowSoftmaxProfile(const GpuSpec &spec,
                                   const BsrSoftmaxDesc &desc);

/** Decomposed block-sparse LS profile (one TB per non-zero block). */
KernelProfile bsrLsProfile(const GpuSpec &spec,
                           const BsrSoftmaxDesc &desc);

/** Decomposed block-sparse IR profile. */
KernelProfile bsrIrProfile(const GpuSpec &spec,
                           const BsrSoftmaxDesc &desc);

/** Decomposed block-sparse GS profile. */
KernelProfile bsrGsProfile(const GpuSpec &spec,
                           const BsrSoftmaxDesc &desc);

} // namespace softrec

#endif // SOFTREC_KERNELS_BSR_SOFTMAX_HPP
