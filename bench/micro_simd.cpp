/**
 * @file
 * Scalar-vs-SIMD A/B micro-benchmarks of the vectorized kernel
 * substrate: batch fp16<->fp32 conversion throughput, the packed-panel
 * GEMM at an attention shape (plain; as QK^T, plain and as SDF's
 * fused-LS QK^T with 16 x 16 tiles and with 64-column tiles of four
 * T = 16 segments; as P.V with and without SDF's GS prologue) and at
 * the serving projection shape with and without its GeLU epilogue,
 * the exp primitive on its own, row softmax, SDF's IR and the residual
 * Add & LayerNorm. Every arm runs the same code paths on every backend in
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
 *
 * The fused pieces of SDF are read in-process: gemm.qk and
 * gemm.qk_ls_wide, and gemm.pv and gemm.pv_gs, run in turn rep by rep,
 * and the median of each pair's difference on the detected backend is
 * the derived ls_overhead_ns_per_elem (per score) and
 * gs_overhead_ns_per_elem (per element of P.V's A); softmax.ir, which
 * runs IR over one L1-resident 16-row strip once per strip of L rows,
 * as a serving head does, gives ir_ns_per_row.
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
#include "common/profiler.hpp"
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
// Pairs of a plain and a fused arm: their difference is small against
// either, so it takes more samples than one arm.
constexpr int kPairReps = 11;

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

/** What one arm reads, writes and computes per call. */
struct ArmShape
{
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    int threads = 1;
    double flops = 0.0;  //!< > 0: GFLOP/s and share of peak
    int64_t elems = 0;   //!< > 0: ns per element
};

/**
 * The rows of one arm on one backend, timed at the median `s` seconds
 * of `calls` calls: a row named <stem>.<backend name>, the
 * scalar-over-detected speedup (from `scalar_s`, the Scalar backend's
 * time, which the Scalar call sets), and the derived values `shape`
 * asks for: <stem>.<name>_gflops and, against `peak` times the thread
 * count, <stem>.<name>_pct_of_peak; <stem>.<name>_ns_per_elem.
 */
void
reportArm(BenchReport &report, const std::string &stem, SimdBackend backend,
          double peak, const ArmShape &shape, int calls, double s,
          double &scalar_s)
{
    BenchKernelRow row;
    row.name = stem + "." + simdBackendName(backend);
    row.ms = s * 1e3;
    row.bytesRead = shape.bytesRead;
    row.bytesWritten = shape.bytesWritten;
    row.calls = calls;
    row.threads = shape.threads;
    report.addKernel(row);
    if (backend == SimdBackend::Scalar)
        scalar_s = s;
    if (backend == detectedSimdBackend())
        report.setDerived(stem + "_speedup", s > 0.0 ? scalar_s / s : 0.0);
    const double gflops = s > 0.0 ? shape.flops / s * 1e-9 : 0.0;
    if (shape.flops > 0.0)
        report.setDerived(row.name + "_gflops", gflops);
    if (shape.flops > 0.0 && peak > 0.0) {
        report.setDerived(row.name + "_pct_of_peak",
                          100.0 * gflops / (peak * shape.threads));
    }
    if (shape.elems > 0)
        report.setDerived(row.name + "_ns_per_elem",
                          s * 1e9 / double(shape.elems));
}

/**
 * One arm on each backend of `peaks` (every available one, with its
 * one-core FMA peak), kReps timed calls each: reportArm's rows.
 * Returns the detected backend's median seconds.
 */
template <typename Fn>
double
addArm(BenchReport &report, const std::string &stem,
       const std::vector<std::pair<SimdBackend, double>> &peaks,
       const ArmShape &shape, Fn &&body)
{
    double scalar_s = 0.0, detected_s = 0.0;
    for (const auto &[backend, peak] : peaks) {
        const double s = timedWithBackend(backend, body);
        reportArm(report, stem, backend, peak, shape, kReps, s, scalar_s);
        if (backend == detectedSimdBackend())
            detected_s = s;
    }
    return detected_s;
}

/**
 * Two arms that differ by one fused piece (a plain GEMM and the same
 * GEMM with SDF's LS epilogue or GS prologue), timed in turn rep by rep
 * on each backend, so both see the same host state: kPairReps pairs
 * after kWarmup untimed ones. Each arm gets reportArm's rows from its
 * median. Returns, on the detected backend, the median over pairs of
 * fused minus plain seconds: the fused piece's cost.
 */
template <typename Plain, typename Fused>
double
addArmPair(BenchReport &report, const std::string &plain_stem,
           const std::string &fused_stem,
           const std::vector<std::pair<SimdBackend, double>> &peaks,
           const ArmShape &plain_shape, const ArmShape &fused_shape,
           Plain &&plain, Fused &&fused)
{
    const auto seconds = [](auto &body) {
        const auto start = std::chrono::steady_clock::now();
        body();
        const std::chrono::duration<double> s =
            std::chrono::steady_clock::now() - start;
        return s.count();
    };
    double plain_scalar_s = 0.0, fused_scalar_s = 0.0, overhead_s = 0.0;
    for (const auto &[backend, peak] : peaks) {
        const SimdBackend prev = setSimdBackend(backend);
        for (int i = 0; i < kWarmup; ++i) {
            plain();
            fused();
        }
        std::vector<double> plain_s, fused_s, diff_s;
        for (int rep = 0; rep < kPairReps; ++rep) {
            plain_s.push_back(seconds(plain));
            fused_s.push_back(seconds(fused));
            diff_s.push_back(fused_s.back() - plain_s.back());
        }
        setSimdBackend(prev);
        reportArm(report, plain_stem, backend, peak, plain_shape, kPairReps,
                  bench::median(plain_s), plain_scalar_s);
        reportArm(report, fused_stem, backend, peak, fused_shape, kPairReps,
                  bench::median(fused_s), fused_scalar_s);
        if (backend == detectedSimdBackend())
            overhead_s = bench::median(std::move(diff_s));
    }
    return overhead_s;
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

        addArm(report, "conv.h2f", peaks,
               {uint64_t(n) * kFp16Bytes, uint64_t(n) * kFp32Bytes},
               [&] { halfToFloat(src.data(), wide.data(), n); });
        addArm(report, "conv.f2h", peaks,
               {uint64_t(n) * kFp32Bytes, uint64_t(n) * kFp16Bytes},
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
        addArm(report, "gemm.mainloop", peaks,
               {in_bytes, uint64_t(mn * mn) * kFp16Bytes, ctx.threads(),
                2.0 * double(mn) * double(mn) * double(dh)},
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
        const uint64_t md_bytes = uint64_t(L * nsv) * kFp32Bytes;
        const uint64_t out_bytes =
            uint64_t(L * L) * kFp16Bytes + 2 * md_bytes;
        const auto qkDesc = [&](int64_t tile_n, bool with_ls) {
            GemmDesc desc;
            desc.name = "bench.qk";
            desc.m = L;
            desc.n = L;
            desc.k = dh;
            desc.tiling.tileM = 16;
            desc.tiling.tileN = tile_n;
            desc.epilogue.scale = 0.125;
            desc.epilogue.localSoftmax = with_ls;
            desc.epilogue.lsSubVector = sub;
            return desc;
        };
        const GemmDesc qk = qkDesc(64, false);
        const GemmDesc qk_ls = qkDesc(sub, true);
        const GemmDesc qk_ls_wide = qkDesc(64, true);
        const ArmShape plain_shape{in_bytes, uint64_t(L * L) * kFp16Bytes,
                                   ctx.threads(), 0.0, L * L};
        const ArmShape ls_shape{in_bytes, out_bytes, ctx.threads(), 0.0,
                                L * L};
        const double ls_s = addArmPair(
            report, "gemm.qk", "gemm.qk_ls_wide", peaks, plain_shape,
            ls_shape, [&] { gemmRun(ctx, qk, ops, x_prime); },
            [&] { gemmRun(ctx, qk_ls_wide, ops, x_prime, &ls); });
        report.setDerived("ls_overhead_ns_per_elem",
                          ls_s * 1e9 / double(L * L));
        addArm(report, "gemm.qk_ls", peaks, ls_shape,
               [&] { gemmRun(ctx, qk_ls, ops, x_prime, &ls); });

        // --- IR as a serving head runs it: irRows over one 16-row
        // strip of the m'/d' the LS arms left, which stays in L1, once
        // per strip of the L rows. ir_ns_per_row is its cost per row.
        const int64_t strip = std::min<int64_t>(16, L);
        SoftmaxShape ir;
        ir.name = "bench.ir";
        ir.rows = strip;
        ir.cols = L;
        ir.subVector = sub;
        Tensor<float> strip_max(Shape({strip, nsv}));
        Tensor<float> strip_sum(Shape({strip, nsv}));
        Tensor<float> recon(Shape({strip, nsv}));
        std::copy_n(local_max.data(), strip_max.numel(), strip_max.data());
        std::copy_n(local_sum.data(), strip_sum.numel(), strip_sum.data());
        prof::Scope ir_scope(ctx, "softmax.ir");
        const double ir_s = addArm(
            report, "softmax.ir", peaks, {2 * md_bytes, md_bytes, 1},
            [&] {
                for (int64_t r0 = 0; r0 < L; r0 += strip)
                    irRows(simdBackend(), ir, strip_max, strip_sum, recon,
                           {0, std::min(strip, L - r0), nullptr, &ir_scope});
            });
        report.setDerived("ir_ns_per_row", ir_s * 1e9 / double(L));
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
        const double flops = 2.0 * double(mk) * double(mk) * double(dh);
        GemmDesc pv;
        pv.name = "bench.pv";
        pv.m = mk;
        pv.n = dh;
        pv.k = mk;
        pv.tiling.tileM = 16;
        pv.tiling.tileN = 64;
        pv.prologue.gsSubVector = sub;
        GemmDesc pv_gs = pv;
        pv_gs.prologue.globalScale = true;
        const double gs_s = addArmPair(
            report, "gemm.pv", "gemm.pv_gs", peaks,
            {in_bytes, out_bytes, ctx.threads(), flops, mk * mk},
            {in_bytes + uint64_t(recon.numel()) * kFp32Bytes, out_bytes,
             ctx.threads(), flops, mk * mk},
            [&] { gemmRun(ctx, pv, ops, out); },
            [&] { gemmRun(ctx, pv_gs, ops, out); });
        report.setDerived("gs_overhead_ns_per_elem",
                          gs_s * 1e9 / double(mk * mk));
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
                   {in_bytes, uint64_t(L * dff) * kFp16Bytes, ctx.threads(),
                    2.0 * double(L) * double(dm) * double(dff)},
                   [&] {
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
               {2 * bytes + uint64_t(2 * dm) * kFp32Bytes, bytes,
                ctx.threads(), 0.0, L},
               [&] {
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
        addArm(report, "exp.span", peaks, {bytes, bytes, 1, 0.0, rows * L},
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
        addArm(report, "softmax.row", peaks,
               {bytes, bytes, ctx.threads(), 0.0, rows * L},
               [&] { rowSoftmaxRun(ctx, desc, in, out); });
    }

    const std::string path = report.defaultPath();
    if (!report.writeFile(path))
        return 1;
    inform("wrote %s (L = %lld, backend = %s)", path.c_str(),
           (long long)L, simdBackendName(detectedSimdBackend()));
    return 0;
}
