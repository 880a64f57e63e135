/**
 * @file
 * Dense softmax kernel implementations.
 */

#include "kernels/softmax_kernels.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/kernel_common.hpp"
#include "sim/calibration.hpp"
#include "sim/cost_model.hpp"

namespace softrec {

namespace {

constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/** Rows per parallelFor chunk (fixed: part of the determinism contract). */
constexpr int64_t kRowGrain = 8;

} // namespace

int64_t
SoftmaxShape::numSubVectors() const
{
    SOFTREC_ASSERT(subVector > 0,
                   "%s: numSubVectors needs subVector > 0 (whole-row "
                   "shape?)", name.c_str());
    return ceilDiv(cols, subVector);
}

KernelProfile
rowSoftmaxProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    SOFTREC_ASSERT(desc.batch > 0 && desc.rows > 0 && desc.cols > 0,
                   "empty softmax problem %s", desc.name.c_str());
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::Softmax;
    prof.geom.numBlocks = desc.batch * desc.rows;
    prof.geom.block.threads = 128;
    // The whole row is staged in fp32 in shared memory so the three
    // dependent passes avoid re-reading DRAM (Section 3.1).
    prof.geom.block.smemBytes =
        uint64_t(desc.cols) * calib::kRowSoftmaxStagingBytesPerElem;
    prof.geom.block.regsPerThread = 40;

    const uint64_t matrix_bytes =
        uint64_t(desc.batch * desc.rows * desc.cols) * kFp16Bytes;
    prof.dramReadBytes = matrix_bytes;
    prof.dramWriteBytes = matrix_bytes;

    const double elems =
        double(desc.batch) * double(desc.rows) * double(desc.cols);
    prof.cudaFlops = 4.0 * elems; // max, subtract, accumulate, scale
    prof.sfuOps = elems;          // exp
    prof.serializationFactor = rowSoftmaxSerialization(desc.cols);
    return prof;
}

void
rowSoftmaxRows(SimdBackend backend, const SoftmaxShape &desc,
               const Tensor<Half> &in, Tensor<Half> &out,
               const SoftmaxRows &rows)
{
    prof::Segment segment(*rows.scope);
    if (rows.scope->active()) {
        const uint64_t matrix = uint64_t(rows.end - rows.begin) *
                                uint64_t(desc.cols) * kFp16Bytes;
        rows.scope->addRead(matrix);
        rows.scope->addWrite(matrix);
    }
    // Each row is one softmaxRow call over its live columns: the row
    // is staged once in fp32 and each element pays for one exp.
    for (int64_t i = rows.begin; i < rows.end; ++i) {
        if constexpr (kCheckedBuild)
            checkFinite(SpanView<Half>{in.rowPtr(i), desc.cols},
                        "rowSoftmax input", /*allow_neg_inf=*/true);
        const int64_t live = desc.causal
            ? std::clamp<int64_t>(desc.firstRow + i + 1, 0, desc.cols)
            : desc.cols;
        const RowSoftmaxStats stats = softmaxRow(
            backend, in.rowPtr(i), rows.staging, out.rowPtr(i), live);
        std::fill(out.rowPtr(i) + live, out.rowPtr(i) + desc.cols,
                  Half());
        SOFTREC_CHECK(stats.sum > 0.0f || stats.max == kNegInf,
                      "row %lld normalizer d = %f must be positive "
                      "for an unmasked row",
                      (long long)i, double(stats.sum));
        if constexpr (kCheckedBuild)
            checkRowSumNearOne(out.rowPtr(i), desc.cols,
                               "rowSoftmax output", i);
    }
}

void
rowSoftmaxRun(const ExecContext &ctx, const SoftmaxShape &desc,
              const Tensor<Half> &in, Tensor<Half> &out)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional softmax handles one matrix; loop outside");
    const Shape expect({desc.rows, desc.cols});
    SOFTREC_ASSERT(in.shape() == expect && out.shape() == expect,
                   "softmax shapes must be [rows, cols]");
    prof::Scope scope(ctx, "softmax.row");
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        std::vector<float> row(size_t(desc.cols));
        rowSoftmaxRows(backend, desc, in, out,
                       SoftmaxRows{row0, row1, row.data(), &scope});
    });
}

KernelProfile
onlineRowSoftmaxProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    KernelProfile prof = rowSoftmaxProfile(spec, desc);
    prof.name = desc.name + ".online";
    // The fused max+normalizer pass removes one of the three
    // dependent sweeps, recovering a third of the serialization loss.
    prof.serializationFactor =
        1.0 - (1.0 - prof.serializationFactor) * 2.0 / 3.0;
    // One extra rescale multiply per element in the online recurrence.
    prof.cudaFlops += double(desc.batch) * double(desc.rows) *
                      double(desc.cols);
    return prof;
}

KernelProfile
lsProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    SOFTREC_ASSERT(desc.batch > 0 && desc.rows > 0 && desc.cols > 0 &&
                   desc.subVector > 0,
                   "empty LS problem %s", desc.name.c_str());
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxLs;
    // Square tiles: subVector-wide, subVector-tall blocks of the
    // attention matrix per TB (Fig. 4, left).
    const int64_t tile_rows = desc.subVector;
    prof.geom.numBlocks = desc.batch * ceilDiv(desc.rows, tile_rows) *
                          desc.numSubVectors();
    prof.geom.block.threads = 128;
    prof.geom.block.smemBytes =
        uint64_t(tile_rows * desc.subVector) * kFp16Bytes;
    prof.geom.block.regsPerThread = 40;

    const uint64_t matrix_bytes =
        uint64_t(desc.batch * desc.rows * desc.cols) * kFp16Bytes;
    const uint64_t md_bytes =
        uint64_t(desc.batch * desc.rows * desc.numSubVectors()) * 2 *
        kFp32Bytes;
    prof.dramReadBytes = matrix_bytes;
    prof.dramWriteBytes = matrix_bytes + md_bytes;

    const double elems =
        double(desc.batch) * double(desc.rows) * double(desc.cols);
    prof.cudaFlops = 3.0 * elems;
    prof.sfuOps = elems;
    return prof;
}

void
lsRows(SimdBackend backend, const SoftmaxShape &desc,
       const Tensor<Half> &in, Tensor<Half> &x_prime,
       Tensor<float> &local_max, Tensor<float> &local_sum,
       const SoftmaxRows &rows)
{
    prof::Segment segment(*rows.scope);
    const int64_t nsv = desc.numSubVectors();
    if (rows.scope->active()) {
        const uint64_t chunk_rows = uint64_t(rows.end - rows.begin);
        const uint64_t matrix =
            chunk_rows * uint64_t(desc.cols) * kFp16Bytes;
        const uint64_t md = chunk_rows * uint64_t(nsv) * 2 * kFp32Bytes;
        rows.scope->addRead(matrix);
        rows.scope->addWrite(matrix + md); // X' plus m'/d'
    }
    // Whole row staged in fp32 once; the LS tile narrows each
    // sub-vector's exp values straight into X'.
    LsTile tile;
    tile.x = rows.staging;
    tile.rows = 1;
    tile.width = desc.cols;
    tile.ld = desc.cols;
    tile.subVector = desc.subVector;
    tile.xPrimeLd = desc.cols;
    tile.mdLd = nsv;
    for (int64_t i = rows.begin; i < rows.end; ++i) {
        if constexpr (kCheckedBuild)
            checkFinite(SpanView<Half>{in.rowPtr(i), desc.cols},
                        "LS input", /*allow_neg_inf=*/true);
        halfToFloat(in.rowPtr(i), rows.staging, desc.cols);
        tile.xPrime = x_prime.rowPtr(i);
        tile.localMax = local_max.rowPtr(i);
        tile.localSum = local_sum.rowPtr(i);
        localSoftmaxTile(backend, tile);
        for (int64_t sv = 0; sv < nsv; ++sv) {
            SOFTREC_CHECK(tile.localSum[sv] > 0.0f ||
                          tile.localMax[sv] == kNegInf,
                          "LS sub-vector (%lld, %lld): d' = %f must "
                          "be positive unless fully masked",
                          (long long)i, (long long)sv,
                          double(tile.localSum[sv]));
        }
        if constexpr (kCheckedBuild)
            checkFinite(SpanView<float>{tile.localSum, nsv},
                        "LS d' output");
    }
}

void
lsRun(const ExecContext &ctx, const SoftmaxShape &desc,
      const Tensor<Half> &in, Tensor<Half> &x_prime,
      Tensor<float> &local_max, Tensor<float> &local_sum)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional LS handles one matrix; loop outside");
    const Shape expect({desc.rows, desc.cols});
    const Shape md_shape({desc.rows, desc.numSubVectors()});
    SOFTREC_ASSERT(in.shape() == expect && x_prime.shape() == expect,
                   "LS matrix shapes must be [rows, cols]");
    SOFTREC_ASSERT(local_max.shape() == md_shape &&
                   local_sum.shape() == md_shape,
                   "LS m'/d' shapes must be [rows, N_sv]");
    prof::Scope scope(ctx, "softmax.ls");
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        std::vector<float> row(size_t(desc.cols));
        lsRows(backend, desc, in, x_prime, local_max, local_sum,
               SoftmaxRows{row0, row1, row.data(), &scope});
    });
}

KernelProfile
irProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxIr;
    // One row per thread; 256 threads per TB.
    prof.geom.numBlocks =
        std::max<int64_t>(1, ceilDiv(desc.batch * desc.rows, 256));
    prof.geom.block.threads = 256;
    prof.geom.block.smemBytes = 0;
    prof.geom.block.regsPerThread = 32;

    const uint64_t md_count =
        uint64_t(desc.batch * desc.rows * desc.numSubVectors());
    prof.dramReadBytes = md_count * 2 * kFp32Bytes; // m', d'
    prof.dramWriteBytes = md_count * kFp32Bytes;    // r'
    prof.cudaFlops = 4.0 * double(md_count);
    prof.sfuOps = double(md_count);
    return prof;
}

void
irRows(SimdBackend backend, const SoftmaxShape &desc,
       const Tensor<float> &local_max, const Tensor<float> &local_sum,
       Tensor<float> &recon, const SoftmaxRows &rows)
{
    prof::Segment segment(*rows.scope);
    const int64_t nsv = desc.numSubVectors();
    if (rows.scope->active()) {
        const uint64_t md_count =
            uint64_t(rows.end - rows.begin) * uint64_t(nsv);
        rows.scope->addRead(md_count * 2 * kFp32Bytes); // m', d'
        rows.scope->addWrite(md_count * kFp32Bytes);    // r'
    }
    // reconstructionFactors runs up to 16 rows at a time, one per lane
    // under Avx512, so the rows go to it in blocks of 16. The three
    // matrices share one row stride, which may exceed nsv (a strip's
    // buffers are as wide as its widest row).
    SOFTREC_ASSERT(local_sum.shape() == local_max.shape() &&
                       recon.shape() == local_max.shape() &&
                       local_max.shape().dim(1) >= nsv,
                   "IR m'/d'/r' shapes must match and hold N_sv columns");
    constexpr int64_t kBlock = 16;
    RowSoftmaxStats stats[kBlock];
    for (int64_t i0 = rows.begin; i0 < rows.end; i0 += kBlock) {
        IrRows block;
        block.localMax = local_max.rowPtr(i0);
        block.localSum = local_sum.rowPtr(i0);
        block.recon = recon.rowPtr(i0);
        block.rows = std::min(kBlock, rows.end - i0);
        block.segments = nsv;
        block.ld = local_max.shape().dim(1);
        reconstructionFactors(backend, block, stats);
        for (int64_t i = i0; i < i0 + block.rows; ++i) {
            const RowSoftmaxStats &row = stats[i - i0];
            SOFTREC_CHECK(row.sum > 0.0f || row.max == kNegInf,
                          "IR row %lld: global normalizer d = %f must "
                          "be positive for an unmasked row",
                          (long long)i, double(row.sum));
            if constexpr (kCheckedBuild)
                checkReconFactors(SpanView<float>{recon.rowPtr(i), nsv},
                                  "IR r' output");
        }
    }
}

void
irRun(const ExecContext &ctx, const SoftmaxShape &desc,
      const Tensor<float> &local_max, const Tensor<float> &local_sum,
      Tensor<float> &recon)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional IR handles one matrix; loop outside");
    const Shape md_shape({desc.rows, desc.numSubVectors()});
    SOFTREC_ASSERT(local_max.shape() == md_shape &&
                   local_sum.shape() == md_shape &&
                   recon.shape() == md_shape,
                   "IR shapes must be [rows, N_sv]");
    prof::Scope scope(ctx, "softmax.ir");
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        irRows(backend, desc, local_max, local_sum, recon,
               SoftmaxRows{row0, row1, nullptr, &scope});
    });
}

KernelProfile
gsProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxGs;
    // Element-wise streaming: 256 threads, 4 elements per thread.
    const int64_t elems = desc.batch * desc.rows * desc.cols;
    prof.geom.numBlocks = std::max<int64_t>(1, ceilDiv(elems, 1024));
    prof.geom.block.threads = 256;
    prof.geom.block.smemBytes = 0;
    prof.geom.block.regsPerThread = 32;

    const uint64_t matrix_bytes = uint64_t(elems) * kFp16Bytes;
    const uint64_t r_bytes =
        uint64_t(desc.batch * desc.rows * desc.numSubVectors()) *
        kFp32Bytes;
    prof.dramReadBytes = matrix_bytes + r_bytes;
    prof.dramWriteBytes = matrix_bytes;
    prof.cudaFlops = double(elems);
    return prof;
}

void
gsRows(SimdBackend backend, const SoftmaxShape &desc,
       const Tensor<Half> &x_prime,
       const Tensor<float> &recon, Tensor<Half> &y,
       const SoftmaxRows &rows)
{
    prof::Segment segment(*rows.scope);
    if (rows.scope->active()) {
        const uint64_t chunk_rows = uint64_t(rows.end - rows.begin);
        const uint64_t matrix =
            chunk_rows * uint64_t(desc.cols) * kFp16Bytes;
        const uint64_t r_bytes = chunk_rows *
            uint64_t(desc.numSubVectors()) * kFp32Bytes;
        rows.scope->addRead(matrix + r_bytes); // X' plus r'
        rows.scope->addWrite(matrix);
    }
    // Each row is widened and scaled by its segments' r' in one pass,
    // then narrowed.
    float *row = rows.staging;
    for (int64_t i = rows.begin; i < rows.end; ++i) {
        halfToFloatScaled(backend, x_prime.rowPtr(i), row, desc.cols,
                          recon.rowPtr(i), desc.subVector);
        floatToHalf(row, y.rowPtr(i), desc.cols);
        // The recomposition identity (Eq. (2)): after GS the
        // decomposed pipeline must reproduce safe-softmax rows exactly,
        // so each unmasked row sums to ~1.
        if constexpr (kCheckedBuild)
            checkRowSumNearOne(y.rowPtr(i), desc.cols, "GS output", i);
    }
}

void
gsRun(const ExecContext &ctx, const SoftmaxShape &desc,
      const Tensor<Half> &x_prime, const Tensor<float> &recon,
      Tensor<Half> &y)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional GS handles one matrix; loop outside");
    const Shape expect({desc.rows, desc.cols});
    SOFTREC_ASSERT(x_prime.shape() == expect && y.shape() == expect,
                   "GS matrix shapes must be [rows, cols]");
    SOFTREC_ASSERT(recon.shape() ==
                       Shape({desc.rows, desc.numSubVectors()}),
                   "GS r' shape must be [rows, N_sv]");
    prof::Scope scope(ctx, "softmax.gs");
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        std::vector<float> row(size_t(desc.cols));
        gsRows(backend, desc, x_prime, recon, y,
               SoftmaxRows{row0, row1, row.data(), &scope});
    });
}

} // namespace softrec
