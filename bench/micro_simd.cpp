/**
 * @file
 * Scalar-vs-SIMD A/B micro-benchmarks of the vectorized kernel
 * substrate: batch fp16<->fp32 conversion throughput, the packed-panel
 * GEMM at an attention shape (plain; as QK^T, plain and as SDF's
 * fused-LS QK^T with 16 x 16 tiles and with 64-column tiles of four
 * T = 16 segments; as P.V with and without SDF's GS prologue) and at
 * the serving projection shape with and without its GeLU epilogue,
 * the exp primitive on its own, row softmax and the residual Add &
 * LayerNorm. Every arm runs the same code paths on every backend in
 * availableSimdBackends() — the backend is switched in-process via
 * setSimdBackend(), which selects the conversion paths, the GEMM tile
 * body and the exp path — so the report isolates exactly what each
 * SIMD backend buys (rows <stem>.<backend name>, e.g.
 * gemm.proj.f16c-avx2 and gemm.proj.f16c-avx512 on an AVX-512 host,
 * where the GEMM and exp arms run different bodies). The QK^T, P.V,
 * exp and softmax arms also report ns per element (of the scores, or
 * of P.V's A operand), the LayerNorm arm ns per row; the plain GEMM
 * and projection arms report each backend's GFLOP/s and, for the AVX2
 * and AVX-512 tiles, its share of an in-process FMA-peak loop of the
 * same vector width (derived fma_peak.<backend>_gflops).
 * Writes BENCH_micro_simd.json (schema softrec-bench-v1).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/bench_report.hpp"
#include "common/exec_context.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fp16/half.hpp"
#include "fp16/simd_math.hpp"
#include "fp16/simd_platform.hpp"
#include "kernels/elementwise.hpp"
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

#if defined(SOFTREC_SIMD_X86)

// Twelve independent FMA chains, more than the eight that two FMA
// ports with a 4-cycle latency keep in flight, so each loop runs at
// the core's FMA peak for its vector width. The file is built for the
// baseline ISA; fmaPeakGflops enters a loop only for an available
// backend, whose detection checked the ISA.

constexpr int kPeakChains = 12;
constexpr int64_t kPeakSteps = 2000000;
constexpr int kPeakReps = 11;

__attribute__((noinline, target("avx2,fma"))) float
fmaPeakYmm(int64_t steps)
{
    __m256 c[kPeakChains];
    for (__m256 &v : c)
        v = _mm256_setzero_ps();
    const __m256 a = _mm256_set1_ps(1.0f);
    const __m256 b = _mm256_set1_ps(1e-7f);
    for (int64_t s = 0; s < steps; ++s) {
#pragma GCC unroll 12
        for (__m256 &v : c)
            v = _mm256_fmadd_ps(a, b, v);
    }
    float sum = 0.0f;
    for (const __m256 &v : c)
        sum += _mm256_cvtss_f32(v);
    _mm256_zeroupper();
    return sum;
}

__attribute__((noinline, target("avx512f"))) float
fmaPeakZmm(int64_t steps)
{
    __m512 c[kPeakChains];
    for (__m512 &v : c)
        v = _mm512_setzero_ps();
    const __m512 a = _mm512_set1_ps(1.0f);
    const __m512 b = _mm512_set1_ps(1e-7f);
    for (int64_t s = 0; s < steps; ++s) {
#pragma GCC unroll 12
        for (__m512 &v : c)
            v = _mm512_fmadd_ps(a, b, v);
    }
    float sum = 0.0f;
    for (const __m512 &v : c)
        sum += _mm512_cvtss_f32(v);
    _mm256_zeroupper();
    return sum;
}

#endif // SOFTREC_SIMD_X86

/**
 * One core's FMA peak in GFLOP/s at the vector width of `backend`'s
 * GEMM tile (8 lanes for F16cAvx2, 16 for Avx512), or 0 for a backend
 * without one. It is the fastest of kPeakReps calls, not the median:
 * other load on the host only ever slows a call down.
 */
double
fmaPeakGflops(SimdBackend backend)
{
#if defined(SOFTREC_SIMD_X86)
    int lanes = 0;
    float (*loop)(int64_t) = nullptr;
    if (backend == SimdBackend::F16cAvx2) {
        lanes = 8;
        loop = fmaPeakYmm;
    } else if (backend == SimdBackend::Avx512) {
        lanes = 16;
        loop = fmaPeakZmm;
    }
    if (loop == nullptr)
        return 0.0;
    float sink = loop(kPeakSteps);
    double best = 0.0;
    for (int rep = 0; rep < kPeakReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        sink += loop(kPeakSteps);
        const std::chrono::duration<double> s =
            std::chrono::steady_clock::now() - start;
        best = rep == 0 ? s.count() : std::min(best, s.count());
    }
    if (!(sink > 0.0f))
        fatal("micro_simd: FMA peak loop sums must be positive");
    return 2.0 * lanes * kPeakChains * double(kPeakSteps) / best * 1e-9;
#else
    (void)backend;
    return 0.0;
#endif
}

/**
 * One arm on each backend of `peaks` (every available one, with its
 * one-core FMA peak): a row per backend named <stem>.<backend name>
 * and the scalar-over-detected speedup. With `flops` > 0 it adds each
 * backend's <stem>.<name>_gflops and, against its peak times the
 * thread count, <stem>.<name>_pct_of_peak; with `elems` > 0 each
 * backend's <stem>.<name>_ns_per_elem.
 */
template <typename Fn>
void
addArm(BenchReport &report, const std::string &stem,
       const std::vector<std::pair<SimdBackend, double>> &peaks,
       uint64_t bytes_read, uint64_t bytes_written, int threads,
       double flops, int64_t elems, Fn &&body)
{
    double scalar_s = 0.0;
    for (const auto &[backend, peak] : peaks) {
        const double s = timedWithBackend(backend, body);
        BenchKernelRow row;
        row.name = stem + "." + simdBackendName(backend);
        row.ms = s * 1e3;
        row.bytesRead = bytes_read;
        row.bytesWritten = bytes_written;
        row.calls = kReps;
        row.threads = threads;
        report.addKernel(row);
        if (backend == SimdBackend::Scalar)
            scalar_s = s;
        if (backend == detectedSimdBackend())
            report.setDerived(stem + "_speedup",
                              s > 0.0 ? scalar_s / s : 0.0);
        const double gflops = s > 0.0 ? flops / s * 1e-9 : 0.0;
        if (flops > 0.0)
            report.setDerived(row.name + "_gflops", gflops);
        if (flops > 0.0 && peak > 0.0) {
            report.setDerived(row.name + "_pct_of_peak",
                              100.0 * gflops / (peak * threads));
        }
        if (elems > 0)
            report.setDerived(row.name + "_ns_per_elem",
                              s * 1e9 / double(elems));
    }
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

    // Each available backend with its one-core FMA peak (0 for
    // Scalar): every arm runs on each, and the GEMM arms quote their
    // share of its peak.
    std::vector<std::pair<SimdBackend, double>> peaks;
    for (const SimdBackend backend : availableSimdBackends()) {
        const double peak = fmaPeakGflops(backend);
        peaks.emplace_back(backend, peak);
        if (peak > 0.0) {
            report.setDerived(std::string("fma_peak.") +
                                  simdBackendName(backend) + "_gflops",
                              peak);
        }
    }

    Rng rng(7);

    // --- Batch conversion throughput at attention scale (L x dHead).
    {
        const int64_t n = L * dh;
        Tensor<Half> src = randomHalf(rng, Shape({L, dh}));
        std::vector<float> wide(size_t(n), 0.0f);
        Tensor<Half> narrow(Shape({L, dh}));

        addArm(report, "conv.h2f", peaks, uint64_t(n) * kFp16Bytes,
               uint64_t(n) * kFp32Bytes, 1, 0.0, 0,
               [&] { halfToFloat(src.data(), wide.data(), n); });
        addArm(report, "conv.f2h", peaks, uint64_t(n) * kFp32Bytes,
               uint64_t(n) * kFp16Bytes, 1, 0.0, 0,
               [&] { floatToHalf(wide.data(), narrow.data(), n); });
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

        const uint64_t in_bytes =
            uint64_t((mn + mn) * dh) * kFp16Bytes;
        addArm(report, "gemm.mainloop", peaks, in_bytes,
               uint64_t(mn * mn) * kFp16Bytes, ctx.threads(),
               2.0 * double(mn) * double(mn) * double(dh), 0,
               [&] { gemmRun(ctx, desc, ops, c); });
    }

    // --- QK^T, [L, dHead] x [L, dHead]^T with the 1/sqrt(dHead)
    // scale: gemm.qk is Baseline's, with 16 x 64 tiles; the other two
    // add SDF's LS epilogue at the serving sub-vector T = 16, the
    // softmax work the recomposition moves into the GEMM. gemm.qk_ls
    // runs 16 x 16 tiles (one sub-vector per tile row, the GPU
    // dataflow); gemm.qk_ls_wide runs 16 x 64 tiles of four
    // sub-vectors each, the width SDF's attention takes on an AVX-512
    // host, with the bits of gemm.qk_ls. gemm.qk_ls_wide minus gemm.qk
    // is the epilogue's cost per score.
    {
        const int64_t sub = 16;
        const int64_t nsv = (L + sub - 1) / sub;
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

        const uint64_t in_bytes = uint64_t(2 * L * dh) * kFp16Bytes;
        const uint64_t out_bytes = uint64_t(L * L) * kFp16Bytes +
                                   uint64_t(2 * L * nsv) * kFp32Bytes;
        const struct
        {
            const char *stem;
            int64_t tileN;
            bool ls;
        } arms[] = {{"gemm.qk", 64, false},
                    {"gemm.qk_ls", sub, true},
                    {"gemm.qk_ls_wide", 64, true}};
        for (const auto &arm : arms) {
            GemmDesc desc;
            desc.name = "bench.qk";
            desc.m = L;
            desc.n = L;
            desc.k = dh;
            desc.tiling.tileM = 16;
            desc.tiling.tileN = arm.tileN;
            desc.epilogue.scale = 0.125;
            desc.epilogue.localSoftmax = arm.ls;
            desc.epilogue.lsSubVector = sub;
            addArm(report, arm.stem, peaks, in_bytes,
                   arm.ls ? out_bytes : uint64_t(L * L) * kFp16Bytes,
                   ctx.threads(), 0.0, L * L, [&] {
                       gemmRun(ctx, desc, ops, x_prime,
                               arm.ls ? &ls : nullptr);
                   });
        }
    }

    // --- P.V: [L, L] probabilities x [L, dHead] values with 16 x 64
    // tiles (L capped at 2048), plain (Baseline's P.V) and with SDF's
    // GS prologue, which scales each T = 16 segment of the fp16 A rows
    // by its r' as they are widened. ns per element counts A's L x L
    // elements; gemm.pv_gs minus gemm.pv is the prologue's cost.
    {
        // Its own generator, so the arms below keep their inputs.
        Rng pv_rng(17);
        const int64_t mk = std::min<int64_t>(L, 2048);
        const int64_t sub = 16;
        Tensor<Half> p = randomHalf(pv_rng, Shape({mk, mk}));
        Tensor<Half> v = randomHalf(pv_rng, Shape({mk, dh}));
        Tensor<float> recon(Shape({mk, mk / sub}));
        for (int64_t i = 0; i < recon.numel(); ++i)
            recon.data()[i] = float(pv_rng.uniform(0.05, 1.0));
        Tensor<Half> out(Shape({mk, dh}));
        GemmOperands ops;
        ops.a = &p;
        ops.b = &v;
        ops.gsFactors = &recon;

        const uint64_t in_bytes = uint64_t(mk * mk + mk * dh) * kFp16Bytes;
        const uint64_t out_bytes = uint64_t(mk * dh) * kFp16Bytes;
        for (const bool gs : {false, true}) {
            GemmDesc desc;
            desc.name = "bench.pv";
            desc.m = mk;
            desc.n = dh;
            desc.k = mk;
            desc.tiling.tileM = 16;
            desc.tiling.tileN = 64;
            desc.prologue.globalScale = gs;
            desc.prologue.gsSubVector = sub;
            addArm(report, gs ? "gemm.pv_gs" : "gemm.pv", peaks,
                   in_bytes + (gs ? uint64_t(recon.numel()) * kFp32Bytes
                                  : 0),
                   out_bytes, ctx.threads(),
                   2.0 * double(mk) * double(mk) * double(dh), mk * mk,
                   [&] { gemmRun(ctx, desc, ops, out); });
        }
    }

    // --- Serving projection GEMM: [L, 256] x [256, 1024] with bias,
    // through projectRowsInto (tileM = tileN = 16), the shape of the
    // ff.1 projection in the serving model: gemm.proj without its GeLU
    // epilogue, gemm.proj_gelu with it, so their difference is GeLU's
    // cost (ff.1 against an ff.2-like projection).
    {
        const int64_t dm = 256, dff = 1024;
        Tensor<Half> x = randomHalf(rng, Shape({L, dm}));
        Tensor<Half> w = randomHalf(rng, Shape({dm, dff}));
        Tensor<float> bias(Shape({dff}));
        for (int64_t j = 0; j < dff; ++j)
            bias.at(j) = float(rng.normal(0.0, 0.02));
        Tensor<Half> out(Shape({L, dff}));

        const uint64_t in_bytes =
            uint64_t((L + dff) * dm) * kFp16Bytes +
            uint64_t(dff) * kFp32Bytes;
        for (const bool gelu : {false, true}) {
            addArm(report, gelu ? "gemm.proj_gelu" : "gemm.proj", peaks,
                   in_bytes, uint64_t(L * dff) * kFp16Bytes, ctx.threads(),
                   2.0 * double(L) * double(dm) * double(dff), 0, [&] {
                       projectRowsInto(ctx, "bench.proj", x, w, bias, gelu,
                                       out);
                   });
        }
    }

    // --- The layer's residual Add & LayerNorm over [L, 256]
    // (residualLayerNormRun); ns per element counts rows.
    {
        const int64_t dm = 256;
        Tensor<Half> a = randomHalf(rng, Shape({L, dm}));
        Tensor<Half> b = randomHalf(rng, Shape({L, dm}));
        Tensor<float> gamma(Shape({dm}), 1.0f);
        Tensor<float> beta(Shape({dm}), 0.0f);
        Tensor<Half> out(Shape({L, dm}));
        const uint64_t bytes = uint64_t(L * dm) * kFp16Bytes;
        addArm(report, "layernorm", peaks,
               2 * bytes + uint64_t(2 * dm) * kFp32Bytes, bytes,
               ctx.threads(), 0.0, L, [&] {
                   residualLayerNormRun(ctx, a, b, gamma, beta, out);
               });
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
        const uint64_t bytes = uint64_t(rows * L) * kFp32Bytes;
        addArm(report, "exp.span", peaks, bytes, bytes, 1, 0.0, rows * L,
               [&] {
                   const SimdBackend backend = simdBackend();
                   for (int64_t r = 0; r < rows; ++r)
                       sink += expSpan(backend, src.data(), shift,
                                       dst.data(), L);
               });
        if (!(sink > 0.0f))
            fatal("micro_simd: exp.span sums must be positive");
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

        const uint64_t bytes = uint64_t(rows * L) * kFp16Bytes;
        addArm(report, "softmax.row", peaks, bytes, bytes, ctx.threads(),
               0.0, rows * L,
               [&] { rowSoftmaxRun(ctx, desc, in, out); });
    }

    const std::string path = report.defaultPath();
    if (!report.writeFile(path))
        return 1;
    inform("wrote %s (L = %lld, backend = %s)", path.c_str(),
           (long long)L, simdBackendName(detectedSimdBackend()));
    return 0;
}
