/**
 * @file
 * Block-sparse softmax launch profiles.
 */

#include "kernels/bsr_softmax.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "kernels/kernel_common.hpp"
#include "sim/calibration.hpp"
#include "sim/cost_model.hpp"

namespace softrec {

namespace {

const BsrLayout &
checkedLayout(const BsrSoftmaxDesc &desc)
{
    SOFTREC_ASSERT(desc.layout != nullptr, "BSR softmax without layout");
    SOFTREC_ASSERT(desc.batch > 0, "empty batch in %s",
                   desc.name.c_str());
    return *desc.layout;
}

/** Bytes of all non-zero attention values. */
uint64_t
nnzBytes(const BsrLayout &layout)
{
    return uint64_t(layout.nnzElements()) * kFp16Bytes;
}

/** Count of per-sub-vector intermediates (one per block row element). */
uint64_t
subVectorCount(const BsrLayout &layout)
{
    return uint64_t(layout.nnzBlocks() * layout.blockSize());
}

} // namespace

KernelProfile
bsrRowSoftmaxProfile(const GpuSpec &spec, const BsrSoftmaxDesc &desc)
{
    (void)spec;
    const BsrLayout &layout = checkedLayout(desc);
    const SparsityStats stats = analyzeSparsity(layout);

    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::Softmax;
    prof.geom.numBlocks = desc.batch * layout.rows();
    prof.geom.block.threads = 128;
    // Worst-case allocation: the number and position of non-zeros per
    // row is not known at launch time, so every TB reserves staging
    // for a full row (Section 5.1).
    prof.geom.block.smemBytes =
        uint64_t(layout.cols()) * calib::kRowSoftmaxStagingBytesPerElem;
    prof.geom.block.regsPerThread = 40;

    prof.dramReadBytes = uint64_t(desc.batch) * nnzBytes(layout);
    prof.dramWriteBytes = prof.dramReadBytes;

    const double elems =
        double(desc.batch) * double(layout.nnzElements());
    prof.cudaFlops = 4.0 * elems;
    prof.sfuOps = elems;
    prof.serializationFactor = rowSoftmaxSerialization(layout.cols());
    // Most lanes of the worst-case-sized TB have no non-zero to load.
    prof.laneUtilization = std::max(1e-3, stats.density);
    prof.workImbalance = stats.imbalance;
    return prof;
}

KernelProfile
bsrLsProfile(const GpuSpec &spec, const BsrSoftmaxDesc &desc)
{
    (void)spec;
    const BsrLayout &layout = checkedLayout(desc);
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxLs;
    // One TB per non-zero block: allocation matches actual work.
    prof.geom.numBlocks = desc.batch * layout.nnzBlocks();
    prof.geom.block.threads = 128;
    prof.geom.block.smemBytes =
        uint64_t(layout.blockSize() * layout.blockSize()) * kFp16Bytes;
    prof.geom.block.regsPerThread = 40;

    prof.dramReadBytes = uint64_t(desc.batch) * nnzBytes(layout);
    prof.dramWriteBytes =
        uint64_t(desc.batch) *
        (nnzBytes(layout) + subVectorCount(layout) * 2 * kFp32Bytes);

    const double elems =
        double(desc.batch) * double(layout.nnzElements());
    prof.cudaFlops = 3.0 * elems;
    prof.sfuOps = elems;
    return prof;
}

KernelProfile
bsrIrProfile(const GpuSpec &spec, const BsrSoftmaxDesc &desc)
{
    (void)spec;
    const BsrLayout &layout = checkedLayout(desc);
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxIr;
    prof.geom.numBlocks = std::max<int64_t>(
        1, ceilDiv(desc.batch * layout.rows(), 256));
    prof.geom.block.threads = 256;
    prof.geom.block.regsPerThread = 32;

    const uint64_t md_count =
        uint64_t(desc.batch) * subVectorCount(layout);
    prof.dramReadBytes = md_count * 2 * kFp32Bytes;
    prof.dramWriteBytes = md_count * kFp32Bytes;
    prof.cudaFlops = 4.0 * double(md_count);
    prof.sfuOps = double(md_count);
    const SparsityStats stats = analyzeSparsity(layout);
    prof.workImbalance = stats.imbalance;
    return prof;
}

KernelProfile
bsrGsProfile(const GpuSpec &spec, const BsrSoftmaxDesc &desc)
{
    (void)spec;
    const BsrLayout &layout = checkedLayout(desc);
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxGs;
    prof.geom.numBlocks = desc.batch * layout.nnzBlocks();
    prof.geom.block.threads = 128;
    prof.geom.block.smemBytes = 0;
    prof.geom.block.regsPerThread = 32;

    prof.dramReadBytes =
        uint64_t(desc.batch) *
        (nnzBytes(layout) + subVectorCount(layout) * kFp32Bytes);
    prof.dramWriteBytes = uint64_t(desc.batch) * nnzBytes(layout);
    prof.cudaFlops =
        double(desc.batch) * double(layout.nnzElements());
    return prof;
}

} // namespace softrec
