/**
 * @file
 * Block-sparse GEMM implementations.
 */

#include "kernels/bsr_gemm.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/fma_dot.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernel_common.hpp"
#include "sim/calibration.hpp"

namespace softrec {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

} // namespace

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

void
bsrSddRun(const ExecContext &ctx, const BsrSddDesc &desc,
          const Tensor<Half> &q, const Tensor<Half> &k_mat,
          BsrMatrix &s, std::vector<float> *local_max,
          std::vector<float> *local_sum)
{
    SOFTREC_ASSERT(desc.batch == 1, "functional SDD handles one head");
    const BsrLayout &layout = *desc.layout;
    const int64_t bs = layout.blockSize();
    SOFTREC_ASSERT(q.shape() == Shape({layout.rows(), desc.dHead}) &&
                   k_mat.shape() == Shape({layout.cols(), desc.dHead}),
                   "SDD operand shapes must be [L, dHead]");
    if (desc.fuseLocalSoftmax) {
        SOFTREC_ASSERT(local_max && local_sum,
                       "fused SDD needs LS outputs");
        local_max->assign(size_t(layout.nnzBlocks() * bs), kNegInf);
        local_sum->assign(size_t(layout.nnzBlocks() * bs), 0.0f);
    }

    prof::Scope scope(ctx, desc.name.c_str());
    std::optional<prof::Scope> ls_scope;
    if (scope.active()) {
        scope.addRead(uint64_t((layout.rows() + layout.cols()) *
                               desc.dHead) * kFp16Bytes); // Q, K
        if (desc.fuseLocalSoftmax)
            ls_scope.emplace(ctx, "softmax.bsr.ls.fused",
                             prof::Scope::Kind::BytesOnly);
    }

    // Q and K widened to fp32 once per call: every stored block reads
    // the same rows, so per-block reconversion would multiply the
    // conversion cost by the row's non-zero count.
    std::vector<float> qf(size_t(layout.rows()) * size_t(desc.dHead));
    std::vector<float> kf(size_t(layout.cols()) * size_t(desc.dHead));
    halfToFloat(q.data(), qf.data(), layout.rows() * desc.dHead);
    halfToFloat(k_mat.data(), kf.data(), layout.cols() * desc.dHead);

    // Parallel over block rows: each row's stored blocks (and their
    // m'/d' slots) are disjoint; each chunk owns its accumulator.
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, layout.blockRows(), 1,
                [&](int64_t br0, int64_t br1) {
    std::vector<float> acc(size_t(bs * bs));
    for (int64_t br = br0; br < br1; ++br) {
        if (scope.active()) {
            const uint64_t row_nnz =
                uint64_t(layout.rowEnd(br) - layout.rowBegin(br));
            scope.addWrite(row_nnz * uint64_t(bs * bs) * kFp16Bytes);
            if (ls_scope) // m'/d' per (block, row-in-block)
                ls_scope->addWrite(row_nnz * uint64_t(bs) * 2 *
                                   kFp32Bytes);
        }
        for (int64_t kk = layout.rowBegin(br); kk < layout.rowEnd(br);
             ++kk) {
            const int64_t bc = layout.blockCol(kk);
            // Dense block GEMM: acc = Q[br] . K[bc]^T, one fma chain
            // per element, then the scale.
            for (int64_t i = 0; i < bs; ++i) {
                float *arow = &acc[size_t(i * bs)];
                fmaDotRows(backend,
                           &qf[size_t(br * bs + i) * size_t(desc.dHead)],
                           &kf[size_t(bc * bs) * size_t(desc.dHead)],
                           desc.dHead, bs, desc.dHead, arow);
                for (int64_t j = 0; j < bs; ++j)
                    arow[j] *= float(desc.scale);
            }
            // Epilogue: the fused LS tile, one sub-vector per block
            // row, or a plain store through the batch converter.
            if (desc.fuseLocalSoftmax) {
                LsTile tile;
                tile.x = acc.data();
                tile.rows = bs;
                tile.width = bs;
                tile.ld = bs;
                tile.subVector = bs;
                tile.xPrime = s.blockData(kk);
                tile.xPrimeLd = bs;
                tile.localMax = &(*local_max)[size_t(kk * bs)];
                tile.localSum = &(*local_sum)[size_t(kk * bs)];
                tile.mdLd = 1;
                localSoftmaxTile(backend, tile);
            } else {
                floatToHalf(acc.data(), s.blockData(kk), bs * bs);
            }
        }
    }
    });
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

void
bsrDsdRun(const ExecContext &ctx, const BsrDsdDesc &desc,
          const BsrMatrix &p, const Tensor<Half> &v, Tensor<Half> &o,
          const std::vector<float> *recon)
{
    SOFTREC_ASSERT(desc.batch == 1, "functional DSD handles one head");
    const BsrLayout &layout = *desc.layout;
    const int64_t bs = layout.blockSize();
    SOFTREC_ASSERT(v.shape() == Shape({layout.cols(), desc.dHead}) &&
                   o.shape() == Shape({layout.rows(), desc.dHead}),
                   "DSD operand shapes must be [L, dHead]");
    if (desc.fuseGlobalScale) {
        SOFTREC_ASSERT(recon && recon->size() ==
                           size_t(layout.nnzBlocks() * bs),
                       "fused DSD needs r'");
    }
    o.fill(Half());
    prof::Scope scope(ctx, desc.name.c_str());
    std::optional<prof::Scope> gs_scope;
    if (scope.active()) {
        scope.addRead(uint64_t(layout.cols() * desc.dHead) *
                      kFp16Bytes); // V
        if (desc.fuseGlobalScale)
            gs_scope.emplace(ctx, "softmax.bsr.gs.fused",
                             prof::Scope::Kind::BytesOnly);
    }
    // V widened once per call: every block row gathers from the same
    // value rows, so per-element reconversion would scale with nnz.
    std::vector<float> vf(size_t(layout.cols()) * size_t(desc.dHead));
    halfToFloat(v.data(), vf.data(), layout.cols() * desc.dHead);

    // Parallel over block rows: output rows are disjoint per chunk.
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, layout.blockRows(), 1,
                [&](int64_t br0, int64_t br1) {
    std::vector<float> pbuf(size_t(bs), 0.0f);
    std::vector<float> obuf(size_t(desc.dHead));
    for (int64_t br = br0; br < br1; ++br) {
        if (scope.active()) {
            const uint64_t row_nnz =
                uint64_t(layout.rowEnd(br) - layout.rowBegin(br));
            scope.addRead(row_nnz * uint64_t(bs * bs) * kFp16Bytes);
            scope.addWrite(uint64_t(bs * desc.dHead) * kFp16Bytes);
            if (gs_scope) // r' per (block, row-in-block)
                gs_scope->addRead(row_nnz * uint64_t(bs) * kFp32Bytes);
        }
        for (int64_t i = 0; i < bs; ++i) {
            // kk outer / j inner: per output element (i, d) one fma
            // chain in ascending (kk, j) order, V rows swept
            // contiguously, and each P block row widened through the
            // batch converter exactly once.
            std::fill(obuf.begin(), obuf.end(), 0.0f);
            for (int64_t kk = layout.rowBegin(br);
                 kk < layout.rowEnd(br); ++kk) {
                const int64_t bc = layout.blockCol(kk);
                halfToFloat(p.blockData(kk) + i * bs, pbuf.data(), bs);
                if (desc.fuseGlobalScale) {
                    const float r = (*recon)[size_t(kk * bs + i)];
                    for (int64_t j = 0; j < bs; ++j)
                        pbuf[size_t(j)] *= r;
                }
                fmaAccumRows(backend, pbuf.data(),
                             &vf[size_t(bc * bs) * size_t(desc.dHead)],
                             desc.dHead, bs, desc.dHead, obuf.data());
            }
            floatToHalf(obuf.data(), o.rowPtr(br * bs + i), desc.dHead);
        }
    }
    });
}

} // namespace softrec
