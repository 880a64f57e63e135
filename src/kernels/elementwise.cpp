/**
 * @file
 * Element-wise kernel implementations.
 */

#include "kernels/elementwise.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernel_common.hpp"

namespace softrec {

namespace {

/** Common streaming-kernel geometry: 256 threads, 4 elems/thread. */
LaunchGeometry
streamingGeometry(int64_t elems)
{
    LaunchGeometry geom;
    geom.numBlocks = std::max<int64_t>(1, ceilDiv(elems, 1024));
    geom.block.threads = 256;
    geom.block.smemBytes = 0;
    geom.block.regsPerThread = 32;
    return geom;
}

} // namespace

KernelProfile
layerNormProfile(const GpuSpec &spec, const std::string &name,
                 int64_t rows, int64_t width)
{
    (void)spec;
    SOFTREC_ASSERT(rows > 0 && width > 0, "empty layernorm %s",
                   name.c_str());
    KernelProfile prof;
    prof.name = name;
    prof.category = KernelCategory::Other;
    prof.geom.numBlocks = rows;
    prof.geom.block.threads = 128;
    prof.geom.block.smemBytes = uint64_t(width) * kFp32Bytes;
    prof.geom.block.regsPerThread = 32;
    const uint64_t bytes = uint64_t(rows * width) * kFp16Bytes;
    prof.dramReadBytes = bytes + uint64_t(2 * width) * kFp32Bytes;
    prof.dramWriteBytes = bytes;
    prof.cudaFlops = 6.0 * double(rows) * double(width);
    // Two dependent passes (statistics, then normalize).
    prof.serializationFactor = 0.85;
    return prof;
}

void
layerNormRun(const ExecContext &ctx, const Tensor<Half> &in,
             const Tensor<float> &gamma, const Tensor<float> &beta,
             Tensor<Half> &out, float epsilon)
{
    SOFTREC_ASSERT(in.shape().rank() == 2, "layernorm input must be 2-D");
    const int64_t rows = in.shape().dim(0);
    const int64_t width = in.shape().dim(1);
    SOFTREC_ASSERT(out.shape() == in.shape() &&
                   gamma.shape() == Shape({width}) &&
                   beta.shape() == Shape({width}),
                   "layernorm shapes inconsistent");
    prof::Scope scope(ctx, "ew.layernorm");
    if (scope.active())
        scope.addRead(uint64_t(2 * width) * kFp32Bytes); // gamma, beta
    parallelFor(ctx, 0, rows, 8, [&](int64_t row0, int64_t row1) {
        if (scope.active()) {
            const uint64_t bytes =
                uint64_t(row1 - row0) * uint64_t(width) * kFp16Bytes;
            scope.addRead(bytes);
            scope.addWrite(bytes);
        }
        std::vector<float> row(size_t(width), 0.0f);
        const float *g = gamma.data();
        const float *b = beta.data();
        for (int64_t i = row0; i < row1; ++i) {
            halfToFloat(in.rowPtr(i), row.data(), width);
            float mean = 0.0f;
            for (int64_t j = 0; j < width; ++j)
                mean += row[size_t(j)];
            mean /= float(width);
            float var = 0.0f;
            for (int64_t j = 0; j < width; ++j) {
                const float d = row[size_t(j)] - mean;
                var += d * d;
            }
            var /= float(width);
            const float inv_std = 1.0f / std::sqrt(var + epsilon);
            for (int64_t j = 0; j < width; ++j) {
                const float norm = (row[size_t(j)] - mean) * inv_std;
                row[size_t(j)] = norm * g[j] + b[j];
            }
            floatToHalf(row.data(), out.rowPtr(i), width);
        }
    });
}

KernelProfile
residualAddProfile(const GpuSpec &spec, const std::string &name,
                   int64_t elems)
{
    (void)spec;
    SOFTREC_ASSERT(elems > 0, "empty residual add %s", name.c_str());
    KernelProfile prof;
    prof.name = name;
    prof.category = KernelCategory::Other;
    prof.geom = streamingGeometry(elems);
    prof.dramReadBytes = uint64_t(2 * elems) * kFp16Bytes;
    prof.dramWriteBytes = uint64_t(elems) * kFp16Bytes;
    prof.cudaFlops = double(elems);
    return prof;
}

void
residualAddRun(const ExecContext &ctx, const Tensor<Half> &a,
               const Tensor<Half> &b, Tensor<Half> &out)
{
    SOFTREC_ASSERT(a.shape() == b.shape() && a.shape() == out.shape(),
                   "residual shapes inconsistent");
    prof::Scope scope(ctx, "ew.residual");
    parallelFor(ctx, 0, a.numel(), 4096, [&](int64_t i0, int64_t i1) {
        if (scope.active()) {
            const uint64_t elems = uint64_t(i1 - i0);
            scope.addRead(2 * elems * kFp16Bytes);
            scope.addWrite(elems * kFp16Bytes);
        }
        // The chunk is a contiguous linear span: widen both inputs
        // once, add in fp32, narrow once.
        const int64_t len = i1 - i0;
        std::vector<float> fa(size_t(len), 0.0f);
        std::vector<float> fb(size_t(len), 0.0f);
        halfToFloat(a.data() + i0, fa.data(), len);
        halfToFloat(b.data() + i0, fb.data(), len);
        for (int64_t i = 0; i < len; ++i)
            fa[size_t(i)] += fb[size_t(i)];
        floatToHalf(fa.data(), out.data() + i0, len);
    });
}

KernelProfile
biasActProfile(const GpuSpec &spec, const std::string &name,
               int64_t rows, int64_t width, bool gelu)
{
    (void)spec;
    SOFTREC_ASSERT(rows > 0 && width > 0, "empty bias kernel %s",
                   name.c_str());
    KernelProfile prof;
    prof.name = name;
    prof.category = KernelCategory::Other;
    const int64_t elems = rows * width;
    prof.geom = streamingGeometry(elems);
    prof.dramReadBytes =
        uint64_t(elems) * kFp16Bytes + uint64_t(width) * kFp32Bytes;
    prof.dramWriteBytes = uint64_t(elems) * kFp16Bytes;
    prof.cudaFlops = (gelu ? 9.0 : 1.0) * double(elems);
    prof.sfuOps = gelu ? double(elems) : 0.0;
    return prof;
}

void
biasActRun(const ExecContext &ctx, const Tensor<Half> &in,
           const Tensor<float> &bias, bool gelu, Tensor<Half> &out)
{
    SOFTREC_ASSERT(in.shape().rank() == 2 && in.shape() == out.shape(),
                   "bias kernel shapes inconsistent");
    const int64_t rows = in.shape().dim(0);
    const int64_t width = in.shape().dim(1);
    SOFTREC_ASSERT(bias.shape() == Shape({width}), "bias misshaped");
    prof::Scope scope(ctx, "ew.bias_act");
    if (scope.active())
        scope.addRead(uint64_t(width) * kFp32Bytes); // bias vector
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, rows, 8, [&](int64_t row0, int64_t row1) {
        if (scope.active()) {
            const uint64_t bytes =
                uint64_t(row1 - row0) * uint64_t(width) * kFp16Bytes;
            scope.addRead(bytes);
            scope.addWrite(bytes);
        }
        std::vector<float> row(size_t(width), 0.0f);
        const float *b = bias.data();
        for (int64_t i = row0; i < row1; ++i) {
            halfToFloat(in.rowPtr(i), row.data(), width);
            for (int64_t j = 0; j < width; ++j)
                row[size_t(j)] += b[j];
            if (gelu)
                geluSpan(backend, row.data(), row.data(), width);
            floatToHalf(row.data(), out.rowPtr(i), width);
        }
    });
}

KernelProfile
scaleMaskProfile(const GpuSpec &spec, const std::string &name,
                 int64_t batch, int64_t rows, int64_t cols)
{
    (void)spec;
    SOFTREC_ASSERT(batch > 0 && rows > 0 && cols > 0,
                   "empty scale/mask %s", name.c_str());
    KernelProfile prof;
    prof.name = name;
    prof.category = KernelCategory::Other;
    const int64_t elems = batch * rows * cols;
    prof.geom = streamingGeometry(elems);
    prof.dramReadBytes = uint64_t(elems) * kFp16Bytes;
    prof.dramWriteBytes = uint64_t(elems) * kFp16Bytes;
    prof.cudaFlops = 2.0 * double(elems);
    return prof;
}

KernelProfile
reshapeProfile(const GpuSpec &spec, const std::string &name,
               int64_t elems)
{
    (void)spec;
    SOFTREC_ASSERT(elems > 0, "empty reshape %s", name.c_str());
    KernelProfile prof;
    prof.name = name;
    prof.category = KernelCategory::Other;
    prof.geom = streamingGeometry(elems);
    prof.dramReadBytes = uint64_t(elems) * kFp16Bytes;
    prof.dramWriteBytes = uint64_t(elems) * kFp16Bytes;
    return prof;
}

KernelProfile
embeddingProfile(const GpuSpec &spec, const std::string &name,
                 int64_t rows, int64_t width)
{
    (void)spec;
    SOFTREC_ASSERT(rows > 0 && width > 0, "empty embedding %s",
                   name.c_str());
    KernelProfile prof;
    prof.name = name;
    prof.category = KernelCategory::Other;
    const int64_t elems = rows * width;
    prof.geom = streamingGeometry(elems);
    // Token ids plus the gathered embedding rows.
    prof.dramReadBytes =
        uint64_t(rows) * 4 + uint64_t(elems) * kFp16Bytes;
    prof.dramWriteBytes = uint64_t(elems) * kFp16Bytes;
    return prof;
}

} // namespace softrec
