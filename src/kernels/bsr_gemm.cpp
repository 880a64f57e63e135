/**
 * @file
 * Block-sparse GEMM launch profiles.
 */

#include "kernels/bsr_gemm.hpp"

#include "common/logging.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernel_common.hpp"
#include "sim/calibration.hpp"

namespace softrec {

KernelProfile
bsrSddProfile(const GpuSpec &spec, const BsrSddDesc &desc)
{
    SOFTREC_ASSERT(desc.layout != nullptr && desc.batch > 0 &&
                   desc.dHead > 0,
                   "bad SDD description %s", desc.name.c_str());
    const BsrLayout &layout = *desc.layout;
    const int64_t bs = layout.blockSize();

    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SdaMatMul;
    prof.geom.numBlocks = desc.batch * layout.nnzBlocks();
    prof.geom.block.threads = 256;
    prof.geom.block.smemBytes =
        uint64_t(2 * 2 * bs * 32) * kFp16Bytes; // double-buffered A/B
    prof.geom.block.regsPerThread = 96;

    const uint64_t q_bytes =
        uint64_t(layout.rows() * desc.dHead) * kFp16Bytes;
    const uint64_t k_bytes =
        uint64_t(layout.cols() * desc.dHead) * kFp16Bytes;
    const uint64_t s_bytes = uint64_t(layout.nnzElements()) * kFp16Bytes;
    // Q and K strips are small and L2-resident; each is fetched from
    // DRAM once per batch item.
    uint64_t reads =
        operandDramBytes(q_bytes, layout.blockCols(), spec.l2Bytes) +
        operandDramBytes(k_bytes, layout.blockRows(), spec.l2Bytes);
    uint64_t writes = s_bytes;
    if (desc.fuseLocalSoftmax) {
        writes += uint64_t(layout.nnzBlocks() * bs) * 2 * kFp32Bytes;
    }
    prof.dramReadBytes = uint64_t(desc.batch) * reads;
    prof.dramWriteBytes = uint64_t(desc.batch) * writes;

    const double nnz_elems =
        double(desc.batch) * double(layout.nnzElements());
    prof.tensorFlops = 2.0 * nnz_elems * double(desc.dHead);
    prof.gemmEfficiency = gemmEfficiencyOf(GemmShapeClass::BlockSparse);
    double epilogue = 0.0, sfu = 0.0;
    if (desc.scale != 1.0)
        epilogue += nnz_elems;
    if (desc.fuseLocalSoftmax) {
        epilogue += 3.0 * nnz_elems;
        sfu += nnz_elems;
    }
    prof.cudaFlops = epilogue;
    prof.sfuOps = sfu;
    if (desc.fuseLocalSoftmax)
        prof.fusedPenalty +=
            calib::kFusedWorkPerElement / double(desc.dHead);
    // One TB per non-zero block: work is uniform across TBs.
    prof.workImbalance = 1.0;
    return prof;
}

KernelProfile
bsrDsdProfile(const GpuSpec &spec, const BsrDsdDesc &desc)
{
    SOFTREC_ASSERT(desc.layout != nullptr && desc.batch > 0 &&
                   desc.dHead > 0,
                   "bad DSD description %s", desc.name.c_str());
    const BsrLayout &layout = *desc.layout;
    const int64_t bs = layout.blockSize();
    const SparsityStats stats = analyzeSparsity(layout);

    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SdaMatMul;
    // One TB per output block row: its work scales with the row's
    // non-zero count, which is what load-imbalances sparse attention
    // (Section 5.2).
    prof.geom.numBlocks = desc.batch * layout.blockRows();
    prof.geom.block.threads = 256;
    prof.geom.block.smemBytes =
        uint64_t(2 * (bs * 32 + 32 * desc.dHead)) * kFp16Bytes;
    prof.geom.block.regsPerThread = 96;

    const uint64_t p_bytes = uint64_t(layout.nnzElements()) * kFp16Bytes;
    const uint64_t v_bytes =
        uint64_t(layout.cols() * desc.dHead) * kFp16Bytes;
    const uint64_t o_bytes =
        uint64_t(layout.rows() * desc.dHead) * kFp16Bytes;
    uint64_t reads =
        p_bytes +
        operandDramBytes(v_bytes, layout.blockRows(), spec.l2Bytes);
    if (desc.fuseGlobalScale)
        reads += uint64_t(layout.nnzBlocks() * bs) * kFp32Bytes;
    prof.dramReadBytes = uint64_t(desc.batch) * reads;
    prof.dramWriteBytes = uint64_t(desc.batch) * o_bytes;

    const double nnz_elems =
        double(desc.batch) * double(layout.nnzElements());
    prof.tensorFlops = 2.0 * nnz_elems * double(desc.dHead);
    prof.gemmEfficiency = gemmEfficiencyOf(GemmShapeClass::BlockSparse);
    if (desc.fuseGlobalScale) {
        prof.cudaFlops = nnz_elems;
        prof.fusedPenalty +=
            calib::kFusedWorkPerElement / double(desc.dHead);
    }
    prof.workImbalance = stats.imbalance;
    return prof;
}

} // namespace softrec
