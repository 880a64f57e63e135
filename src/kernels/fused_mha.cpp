/**
 * @file
 * Fused multi-head-attention kernel implementation.
 */

#include "kernels/fused_mha.hpp"

#include "common/logging.hpp"
#include "common/units.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernel_common.hpp"
#include "sim/calibration.hpp"

namespace softrec {

uint64_t
fusedMhaSmemBytes(const FusedMhaDesc &desc)
{
    // K and V staged in full (fp16) plus one fp32 attention-row tile.
    const uint64_t kv = uint64_t(2 * desc.seqLen * desc.dHead) *
                        kFp16Bytes;
    const uint64_t row_tile =
        uint64_t(desc.rowsPerBlock * desc.seqLen) * 0; // in registers
    const uint64_t stats =
        uint64_t(desc.rowsPerBlock) * 2 * kFp32Bytes;
    return kv + row_tile + stats;
}

bool
fusedMhaSupported(const GpuSpec &spec, const FusedMhaDesc &desc)
{
    // Leave headroom for the scheduler; FasterTransformer's published
    // limit (L <= 384 at D_head = 64) falls out of this inequality on
    // the A100 and earlier parts.
    return fusedMhaSmemBytes(desc) <= spec.smemPerSm * 3 / 4;
}

KernelProfile
fusedMhaProfile(const GpuSpec &spec, const FusedMhaDesc &desc)
{
    SOFTREC_ASSERT(desc.batch > 0 && desc.seqLen > 0 && desc.dHead > 0,
                   "empty fused MHA %s", desc.name.c_str());
    if (!fusedMhaSupported(spec, desc)) {
        fatal("fused MHA needs %s of shared memory per TB for L = "
              "%lld but %s offers %s; use softmax recomposition for "
              "long sequences",
              formatBytes(fusedMhaSmemBytes(desc)).c_str(),
              (long long)desc.seqLen, spec.name.c_str(),
              formatBytes(spec.smemPerSm).c_str());
    }

    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SdaMatMul;
    prof.geom.numBlocks =
        desc.batch * ceilDiv(desc.seqLen, desc.rowsPerBlock);
    prof.geom.block.threads = 256;
    prof.geom.block.smemBytes = fusedMhaSmemBytes(desc);
    prof.geom.block.regsPerThread = 128;

    // Only the layer inputs and output touch DRAM: the attention
    // matrix never exists off chip.
    const uint64_t qkv_bytes =
        uint64_t(3 * desc.seqLen * desc.dHead) * kFp16Bytes;
    const uint64_t o_bytes =
        uint64_t(desc.seqLen * desc.dHead) * kFp16Bytes;
    prof.dramReadBytes = uint64_t(desc.batch) * qkv_bytes;
    prof.dramWriteBytes = uint64_t(desc.batch) * o_bytes;

    const double attn_elems =
        double(desc.batch) * double(desc.seqLen) * double(desc.seqLen);
    prof.tensorFlops = 2.0 * 2.0 * attn_elems * double(desc.dHead);
    prof.gemmEfficiency = gemmEfficiencyOf(
        desc.dHead >= 128 ? GemmShapeClass::AttentionWide
                          : GemmShapeClass::Attention);
    // Softmax work runs inline between the two GEMM stages: both an
    // LS-like epilogue and a GS-like prologue worth of disruption.
    prof.fusedPenalty =
        1.0 + 2.0 * calib::kFusedWorkPerElement / double(desc.dHead);
    prof.cudaFlops = 4.0 * attn_elems;
    prof.sfuOps = attn_elems;
    return prof;
}

} // namespace softrec
