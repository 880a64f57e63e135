/**
 * @file
 * Launch profiles of the block-sparse attention GEMMs (DeepSpeed/
 * Triton style, Section 3.4), for the GPU cost model:
 *
 *  - SDD (sampled dense-dense): S = Q . K^T evaluated only at the
 *    layout's non-zero blocks, optionally with scale and a fused LS
 *    epilogue (SDF);
 *  - DSD (dense = sparse . dense): O = P . V where P is block-sparse,
 *    optionally with a fused GS prologue applied as P blocks load.
 *
 * The functional CPU path has no block-sparse kernels of its own:
 * runAttention (core/attention_exec.hpp) runs a sparse head through
 * the dense strip loop, each strip over its block row's column blocks.
 */

#ifndef SOFTREC_KERNELS_BSR_GEMM_HPP
#define SOFTREC_KERNELS_BSR_GEMM_HPP

#include <string>

#include "sim/kernel_profile.hpp"
#include "sparse/bsr.hpp"

namespace softrec {

/** Description of an SDD launch (Q.K^T into a sparse layout). */
struct BsrSddDesc
{
    std::string name = "gemm.sdd";
    int64_t batch = 1;
    const BsrLayout *layout = nullptr; //!< output sparsity structure
    int64_t dHead = 64;                //!< inner dimension
    double scale = 1.0;                //!< 1/sqrt(D_head) epilogue
    bool fuseLocalSoftmax = false;     //!< SDF: LS in the epilogue
};

/** SDD launch profile (one TB per non-zero output block). */
KernelProfile bsrSddProfile(const GpuSpec &spec, const BsrSddDesc &desc);

/** Description of a DSD launch (sparse P times dense V). */
struct BsrDsdDesc
{
    std::string name = "gemm.dsd";
    int64_t batch = 1;
    const BsrLayout *layout = nullptr; //!< P's sparsity structure
    int64_t dHead = 64;                //!< output width
    bool fuseGlobalScale = false;      //!< SDF: GS in the prologue
};

/** DSD launch profile (one TB per output block row). */
KernelProfile bsrDsdProfile(const GpuSpec &spec, const BsrDsdDesc &desc);

} // namespace softrec

#endif // SOFTREC_KERNELS_BSR_GEMM_HPP
