/**
 * @file
 * Fused multi-head-attention kernel implementation.
 */

#include "kernels/fused_mha.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "common/units.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/fma_dot.hpp"
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

void
fusedMhaRun(const ExecContext &ctx, const FusedMhaDesc &desc,
            const Tensor<Half> &q, const Tensor<Half> &k,
            const Tensor<Half> &v, Tensor<Half> &out)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional fused MHA handles one head");
    const int64_t L = desc.seqLen;
    const int64_t dh = desc.dHead;
    const Shape expect({L, dh});
    SOFTREC_ASSERT(q.shape() == expect && k.shape() == expect &&
                   v.shape() == expect && out.shape() == expect,
                   "fused MHA operand shapes must be [L, dHead]");
    constexpr float neg_inf = -std::numeric_limits<float>::infinity();

    // Only the layer inputs and output touch off-chip memory: the
    // attention matrix lives entirely in the per-chunk scores buffer.
    prof::Scope scope(ctx, desc.name.c_str());
    if (scope.active()) {
        scope.addRead(uint64_t(3 * L * dh) * kFp16Bytes); // Q, K, V
        scope.addWrite(uint64_t(L * dh) * kFp16Bytes);    // O
    }

    // Q, K, V widened to fp32 once up front (they are contiguous
    // [L, dh] tensors); every row chunk reads them read-only. This
    // models the kernel staging K/V on chip instead of reconverting
    // them per query row.
    std::vector<float> qf(size_t(L) * size_t(dh));
    std::vector<float> kf(size_t(L) * size_t(dh));
    std::vector<float> vf(size_t(L) * size_t(dh));
    halfToFloat(q.data(), qf.data(), L * dh);
    halfToFloat(k.data(), kf.data(), L * dh);
    halfToFloat(v.data(), vf.data(), L * dh);

    // Parallel over query rows; each chunk owns a scores buffer and
    // writes disjoint output rows (bit-identical at any thread count).
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, L, 8, [&](int64_t row0, int64_t row1) {
        std::vector<float> scores(size_t(L), 0.0f);
        std::vector<float> orow(size_t(dh), 0.0f);
        for (int64_t i = row0; i < row1; ++i) {
            const float *qrow = &qf[size_t(i) * size_t(dh)];
            fmaDotRows(backend, qrow, kf.data(), dh, L, dh,
                       scores.data());
            for (int64_t j = 0; j < L; ++j) {
                float &s = scores[size_t(j)];
                s *= float(desc.scale);
                if (desc.causalMask && j > i)
                    s = neg_inf;
            }
            const float row_max = maxSpan(backend, scores.data(), L);
            const float denom = expSpan(backend, scores.data(), row_max,
                                        scores.data(), L);
            SOFTREC_CHECK(denom > 0.0f || row_max == neg_inf,
                          "fused MHA row %lld: normalizer d = %f must "
                          "be positive for an unmasked row",
                          (long long)i, double(denom));
            const float inv = denom > 0.0f ? 1.0f / denom : 0.0f;
            // P.V: one j-ascending fma chain per output element.
            std::fill(orow.begin(), orow.end(), 0.0f);
            fmaAccumRows(backend, scores.data(), vf.data(), dh, L, dh,
                         orow.data());
            for (int64_t d = 0; d < dh; ++d)
                orow[size_t(d)] *= inv;
            floatToHalf(orow.data(), out.rowPtr(i), dh);
        }
    });
    if constexpr (kCheckedBuild)
        checkFinite(out, "fused MHA output");
}

} // namespace softrec
