/**
 * @file
 * Element-wise kernel implementations.
 */

#include "kernels/elementwise.hpp"

#include <algorithm>
#include <vector>

#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "fp16/simd_math.hpp"
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
residualLayerNormRun(const ExecContext &ctx, const Tensor<Half> &a,
                     const Tensor<Half> &b, const Tensor<float> &gamma,
                     const Tensor<float> &beta, Tensor<Half> &out,
                     float epsilon)
{
    SOFTREC_ASSERT(a.shape().rank() == 2 && b.shape() == a.shape() &&
                   out.shape() == a.shape(),
                   "residual layernorm shapes inconsistent");
    const int64_t rows = a.shape().dim(0);
    const int64_t width = a.shape().dim(1);
    SOFTREC_ASSERT(gamma.shape() == Shape({width}) &&
                   beta.shape() == Shape({width}),
                   "residual layernorm gamma/beta must be [width]");
    SOFTREC_ASSERT(out.data() != a.data() && out.data() != b.data(),
                   "residual layernorm output must not alias an input");
    prof::Scope scope(ctx, "ew.add_layernorm");
    if (scope.active())
        scope.addRead(uint64_t(2 * width) * kFp32Bytes); // gamma, beta
    const SimdBackend backend = simdBackend();
    parallelFor(ctx, 0, rows, 16, [&](int64_t row0, int64_t row1) {
        if (scope.active()) {
            const uint64_t bytes =
                uint64_t(row1 - row0) * uint64_t(width) * kFp16Bytes;
            scope.addRead(2 * bytes);
            scope.addWrite(bytes);
        }
        AddNormRows block;
        block.a = a.rowPtr(row0);
        block.b = b.rowPtr(row0);
        block.out = out.rowPtr(row0);
        block.rows = row1 - row0;
        block.width = width;
        block.gamma = gamma.data();
        block.beta = beta.data();
        block.epsilon = epsilon;
        residualLayerNormRows(backend, block);
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
