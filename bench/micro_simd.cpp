/**
 * @file
 * Scalar-vs-SIMD A/B micro-benchmarks of the vectorized kernel
 * substrate: batch fp16<->fp32 conversion throughput, the packed-panel
 * GEMM at an attention shape (plain, and as SDF's fused-LS QK^T at the
 * serving tiling) and at the serving projection shape, the exp
 * primitive on its own and row softmax. Both arms run the same code
 * paths — the backend is switched in-process via setSimdBackend(),
 * which selects the conversion paths, the GEMM tile body and the
 * exp path — so the report isolates exactly what the SIMD backend
 * buys. The fused-LS, exp and softmax arms also report ns per
 * element, the plain GEMM and projection arms the SIMD arm's
 * GFLOP/s.
 * Writes BENCH_micro_simd.json (schema softrec-bench-v1).
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/bench_report.hpp"
#include "common/exec_context.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fp16/half.hpp"
#include "fp16/simd_math.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "model/functional_layer.hpp"
#include "tensor/tensor.hpp"

namespace softrec {
namespace {

constexpr int kWarmup = 2;
constexpr int kReps = 5;

/** Runs `body` under `backend`, restoring the previous backend. */
template <typename Fn>
double
timedWithBackend(SimdBackend backend, Fn &&body)
{
    const SimdBackend prev = setSimdBackend(backend);
    const double s = bench::medianSeconds(kWarmup, kReps, body);
    setSimdBackend(prev);
    return s;
}

Tensor<Half>
randomHalf(Rng &rng, const Shape &shape)
{
    Tensor<Half> t(shape);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return t;
}

struct ArmTimes
{
    double scalar_s = 0.0;
    double simd_s = 0.0;
};

template <typename Fn>
ArmTimes
runArms(Fn &&body)
{
    ArmTimes t;
    t.scalar_s = timedWithBackend(SimdBackend::Scalar, body);
    t.simd_s = timedWithBackend(detectedSimdBackend(), body);
    return t;
}

void
addArmRows(BenchReport &report, const std::string &stem,
           const ArmTimes &t, uint64_t bytes_read,
           uint64_t bytes_written, int threads)
{
    for (const char *arm : {"scalar", "simd"}) {
        BenchKernelRow row;
        row.name = stem + "." + arm;
        row.ms = (arm[1] == 'c' ? t.scalar_s : t.simd_s) * 1e3;
        row.bytesRead = bytes_read;
        row.bytesWritten = bytes_written;
        row.calls = kReps;
        row.threads = threads;
        report.addKernel(row);
    }
    report.setDerived(stem + "_speedup",
                      t.simd_s > 0.0 ? t.scalar_s / t.simd_s : 0.0);
}

/** Per-element cost of both arms over `elems` elements per call. */
void
addNsPerElem(BenchReport &report, const std::string &stem,
             const ArmTimes &t, int64_t elems)
{
    report.setDerived(stem + ".scalar_ns_per_elem",
                      t.scalar_s * 1e9 / double(elems));
    report.setDerived(stem + ".simd_ns_per_elem",
                      t.simd_s * 1e9 / double(elems));
}

/** The SIMD arm's GEMM rate for `flops` floating-point ops per call. */
void
addSimdGflops(BenchReport &report, const std::string &stem,
              const ArmTimes &t, double flops)
{
    report.setDerived(stem + ".simd_gflops",
                      t.simd_s > 0.0 ? flops / t.simd_s * 1e-9 : 0.0);
}

} // namespace
} // namespace softrec

int
main()
{
    using namespace softrec;

    const ExecContext ctx = ExecContext::fromEnv();
    const int64_t L = bench::benchSeqLenFromEnv(4096);
    const int64_t dh = 64;

    BenchReport report("micro_simd");
    report.setConfig("seq_len", L);
    report.setConfig("d_head", dh);
    report.setConfig("threads", int64_t(ctx.threads()));
    report.setConfig("simd_backend",
                     simdBackendName(detectedSimdBackend()));

    Rng rng(7);

    // --- Batch conversion throughput at attention scale (L x dHead).
    {
        const int64_t n = L * dh;
        Tensor<Half> src = randomHalf(rng, Shape({L, dh}));
        std::vector<float> wide(size_t(n), 0.0f);
        Tensor<Half> narrow(Shape({L, dh}));

        const ArmTimes h2f = runArms([&] {
            halfToFloat(src.data(), wide.data(), n);
        });
        addArmRows(report, "conv.h2f", h2f,
                   uint64_t(n) * kFp16Bytes, uint64_t(n) * kFp32Bytes,
                   1);

        const ArmTimes f2h = runArms([&] {
            floatToHalf(wide.data(), narrow.data(), n);
        });
        addArmRows(report, "conv.f2h", f2h,
                   uint64_t(n) * kFp32Bytes, uint64_t(n) * kFp16Bytes,
                   1);
    }

    // --- Packed-panel GEMM mainloop (attention-shaped: k = dHead).
    {
        const int64_t mn = std::min<int64_t>(L, 1024);
        GemmDesc desc;
        desc.name = "bench.gemm";
        desc.m = mn;
        desc.n = mn;
        desc.k = dh;
        Tensor<Half> a = randomHalf(rng, Shape({mn, dh}));
        Tensor<Half> b = randomHalf(rng, Shape({dh, mn}));
        Tensor<Half> c(Shape({mn, mn}));
        GemmOperands ops;
        ops.a = &a;
        ops.b = &b;

        const ArmTimes t = runArms([&] { gemmRun(ctx, desc, ops, c); });
        const uint64_t in_bytes =
            uint64_t((mn + mn) * dh) * kFp16Bytes;
        addArmRows(report, "gemm.mainloop", t, in_bytes,
                   uint64_t(mn * mn) * kFp16Bytes, ctx.threads());
        addSimdGflops(report, "gemm.mainloop", t,
                      2.0 * double(mn) * double(mn) * double(dh));
    }

    // --- Fused-LS QK^T at the serving tiling: [L, dHead] x [L, dHead]^T
    // with 16 x 16 tiles, the 1/sqrt(dHead) scale and the LS epilogue
    // (one sub-vector per tile row): SDF's QK^T, whose epilogue is the
    // softmax work the recomposition moves into the GEMM.
    {
        const int64_t tile = 16;
        const int64_t nsv = (L + tile - 1) / tile;
        GemmDesc desc;
        desc.name = "bench.qk_ls";
        desc.m = L;
        desc.n = L;
        desc.k = dh;
        desc.tiling.tileM = tile;
        desc.tiling.tileN = tile;
        desc.epilogue.scale = 0.125;
        desc.epilogue.localSoftmax = true;
        Tensor<Half> q = randomHalf(rng, Shape({L, dh}));
        Tensor<Half> k = randomHalf(rng, Shape({L, dh}));
        Tensor<Half> x_prime(Shape({L, L}));
        Tensor<float> local_max(Shape({L, nsv}));
        Tensor<float> local_sum(Shape({L, nsv}));
        GemmOperands ops;
        ops.a = &q;
        ops.b = &k;
        ops.transposeB = true;
        LsOutputs ls;
        ls.localMax = &local_max;
        ls.localSum = &local_sum;

        const ArmTimes t = runArms([&] {
            gemmRun(ctx, desc, ops, x_prime, &ls);
        });
        const uint64_t in_bytes = uint64_t(2 * L * dh) * kFp16Bytes;
        const uint64_t out_bytes = uint64_t(L * L) * kFp16Bytes +
                                   uint64_t(2 * L * nsv) * kFp32Bytes;
        addArmRows(report, "gemm.qk_ls", t, in_bytes, out_bytes,
                   ctx.threads());
        addNsPerElem(report, "gemm.qk_ls", t, L * L);
    }

    // --- Serving projection GEMM: [L, 256] x [256, 1024] with bias,
    // through projectRowsInto (tileM = tileN = 16), the shape of the
    // ff.1 projection in the serving model.
    {
        const int64_t dm = 256, dff = 1024;
        Tensor<Half> x = randomHalf(rng, Shape({L, dm}));
        Tensor<Half> w = randomHalf(rng, Shape({dm, dff}));
        Tensor<float> bias(Shape({dff}));
        for (int64_t j = 0; j < dff; ++j)
            bias.at(j) = float(rng.normal(0.0, 0.02));
        Tensor<Half> out(Shape({L, dff}));

        const ArmTimes t = runArms([&] {
            projectRowsInto(ctx, "bench.proj", x, w, bias,
                            /*gelu=*/false, out);
        });
        const uint64_t in_bytes =
            uint64_t((L + dff) * dm) * kFp16Bytes +
            uint64_t(dff) * kFp32Bytes;
        addArmRows(report, "gemm.proj", t, in_bytes,
                   uint64_t(L * dff) * kFp16Bytes, ctx.threads());
        addSimdGflops(report, "gemm.proj", t,
                      2.0 * double(L) * double(dm) * double(dff));
    }

    // --- The exp primitive alone: 256 attention-width rows through
    // expSpan (one L1-resident row, so this is the exp's compute, not
    // memory traffic).
    {
        const int64_t rows = 256;
        std::vector<float> src(static_cast<size_t>(L));
        std::vector<float> dst(static_cast<size_t>(L));
        for (float &v : src)
            v = float(rng.normal(0.0, 2.0));
        const float shift = maxSpan(SimdBackend::Scalar, src.data(), L);
        float sink = 0.0f;
        const ArmTimes t = runArms([&] {
            const SimdBackend backend = simdBackend();
            for (int64_t r = 0; r < rows; ++r)
                sink += expSpan(backend, src.data(), shift, dst.data(), L);
        });
        if (!(sink > 0.0f))
            fatal("micro_simd: exp.span sums must be positive");
        const uint64_t bytes = uint64_t(rows * L) * kFp32Bytes;
        addArmRows(report, "exp.span", t, bytes, bytes, 1);
        addNsPerElem(report, "exp.span", t, rows * L);
    }

    // --- Row softmax over attention-width rows.
    {
        const int64_t rows = 256;
        SoftmaxShape desc;
        desc.name = "bench.softmax";
        desc.rows = rows;
        desc.cols = L;
        Tensor<Half> in = randomHalf(rng, Shape({rows, L}));
        Tensor<Half> out(Shape({rows, L}));

        const ArmTimes t =
            runArms([&] { rowSoftmaxRun(ctx, desc, in, out); });
        const uint64_t bytes = uint64_t(rows * L) * kFp16Bytes;
        addArmRows(report, "softmax.row", t, bytes, bytes,
                   ctx.threads());
        addNsPerElem(report, "softmax.row", t, rows * L);
    }

    const std::string path = report.defaultPath();
    if (!report.writeFile(path))
        return 1;
    inform("wrote %s (L = %lld, backend = %s)", path.c_str(),
           (long long)L, simdBackendName(detectedSimdBackend()));
    return 0;
}
