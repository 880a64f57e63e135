/**
 * @file
 * google-benchmark micro-benchmarks of the functional CPU kernels:
 * the recomposition math itself (safe vs decomposed softmax), the
 * kernel-level LS/IR/GS pipeline, GEMM epilogues, and block-sparse
 * attention. These measure the *reference implementations*, not the
 * modeled GPU; they exist to keep the functional substrate honest
 * (e.g. decomposition must not change asymptotic cost).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/bench_report.hpp"
#include "common/exec_context.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "core/softmax_math.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/corpus.hpp"

namespace softrec {
namespace {

/** Shared context: honors SOFTREC_THREADS so suites can run threaded. */
ExecContext
execCtx()
{
    return ExecContext::fromEnv();
}

void
BM_SafeSoftmax(benchmark::State &state)
{
    const size_t len = size_t(state.range(0));
    Rng rng(1);
    std::vector<double> x(len);
    for (double &v : x)
        v = rng.normal(0.0, 2.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(safeSoftmax(x));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(len));
}
BENCHMARK(BM_SafeSoftmax)->Arg(512)->Arg(4096);

void
BM_DecomposedSoftmax(benchmark::State &state)
{
    const size_t len = size_t(state.range(0));
    Rng rng(2);
    std::vector<double> x(len);
    for (double &v : x)
        v = rng.normal(0.0, 2.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(decomposedSoftmax(x, 64));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(len));
}
BENCHMARK(BM_DecomposedSoftmax)->Arg(512)->Arg(4096);

void
BM_RowSoftmaxKernel(benchmark::State &state)
{
    const int64_t rows = 64, cols = state.range(0);
    Rng rng(3);
    const Tensor<Half> in = makeAttentionScores(rng, rows, cols);
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = rows;
    desc.cols = cols;
    for (auto _ : state)
        rowSoftmaxRun(execCtx(), desc, in, out);
    state.SetItemsProcessed(int64_t(state.iterations()) * rows * cols);
}
BENCHMARK(BM_RowSoftmaxKernel)->Arg(512)->Arg(2048);

void
BM_DecomposedKernelPipeline(benchmark::State &state)
{
    const int64_t rows = 64, cols = state.range(0);
    Rng rng(4);
    const Tensor<Half> in = makeAttentionScores(rng, rows, cols);
    SoftmaxShape sub;
    sub.rows = rows;
    sub.cols = cols;
    sub.subVector = 64;
    const Shape md({rows, sub.numSubVectors()});
    Tensor<Half> x_prime(in.shape()), out(in.shape());
    Tensor<float> lmax(md), lsum(md), recon(md);
    for (auto _ : state) {
        lsRun(execCtx(), sub, in, x_prime, lmax, lsum);
        irRun(execCtx(), sub, lmax, lsum, recon);
        gsRun(execCtx(), sub, x_prime, recon, out);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * rows * cols);
}
BENCHMARK(BM_DecomposedKernelPipeline)->Arg(512)->Arg(2048);

void
BM_GemmPlain(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(5);
    GemmDesc desc;
    desc.m = n;
    desc.n = n;
    desc.k = 64;
    Tensor<Half> a(Shape({n, 64})), b(Shape({64, n})), c(Shape({n, n}));
    fillNormal(a, rng);
    fillNormal(b, rng);
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    for (auto _ : state)
        gemmRun(execCtx(), desc, ops, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * n * n * 64);
}
BENCHMARK(BM_GemmPlain)->Arg(128)->Arg(256);

void
BM_GemmFusedLs(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(6);
    GemmDesc desc;
    desc.m = n;
    desc.n = n;
    desc.k = 64;
    desc.epilogue.scale = 0.125;
    desc.epilogue.localSoftmax = true;
    const int64_t tiles = (n + desc.tiling.tileN - 1) /
                          desc.tiling.tileN;
    Tensor<Half> a(Shape({n, 64})), b(Shape({64, n})), c(Shape({n, n}));
    fillNormal(a, rng);
    fillNormal(b, rng);
    Tensor<float> lmax(Shape({n, tiles})), lsum(Shape({n, tiles}));
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    LsOutputs ls{&lmax, &lsum};
    for (auto _ : state)
        gemmRun(execCtx(), desc, ops, c, &ls);
    state.SetItemsProcessed(int64_t(state.iterations()) * n * n * 64);
}
BENCHMARK(BM_GemmFusedLs)->Arg(128)->Arg(256);

/**
 * One block-sparse attention head (BigBird, block 32, d_head 64)
 * through runAttention on a reused workspace; the argument selects
 * the strategy (0 Baseline, 1 SD, 2 SDF).
 */
void
BM_SparseAttention(benchmark::State &state)
{
    BigBirdParams params;
    params.blockSize = 32;
    const BsrLayout layout = bigBirdPattern(1024, params);
    SdaConfig config;
    config.seqLen = layout.rows();
    config.dHead = 64;
    config.layout = &layout;
    config.subVector = params.blockSize;
    const Strategy strategy = Strategy(state.range(0));
    AttentionInputs inputs = makeAttentionInputs(config);
    Rng rng(7);
    fillNormal(inputs.q, rng);
    fillNormal(inputs.k, rng);
    fillNormal(inputs.v, rng);
    const ExecContext ctx = execCtx();
    AttentionWorkspace ws;
    Tensor<Half> out;
    for (auto _ : state) {
        runAttention(ctx, config, inputs, strategy, ws, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(strategyName(strategy));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            layout.nnzElements());
}
BENCHMARK(BM_SparseAttention)->DenseRange(0, 2);

void
BM_HalfConversion(benchmark::State &state)
{
    Rng rng(9);
    std::vector<float> values(4096);
    for (float &v : values)
        v = float(rng.normal(0.0, 10.0));
    for (auto _ : state) {
        uint32_t acc = 0;
        for (float v : values)
            acc += Half(v).bits();
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_HalfConversion);

/**
 * Measured-traffic report: run one attention head under all three
 * strategies with the profiler attached and write
 * BENCH_micro_kernels.json. The derived entries verify the paper's
 * recomposition claim on *measured* counters: the softmax layer's
 * off-chip traffic under SDF (IR plus the fused LS/GS extras) must be
 * far below the baseline kernel's four matrix sweeps. A second pass
 * reruns the three strategies with the causal mask (rows
 * causal_baseline/..., causal_sd/..., causal_sdf/...): they stop at
 * the diagonal, so their time drops, while their byte counters stay
 * the modeled causal-oblivious ones; tools/check_bench_json.py holds
 * each causal row's counters to its non-causal twin's.
 *
 * Each strategy runs once untimed (first-touch page faults, cache
 * fill), then kTrafficReps times with a fresh profiler, all over one
 * AttentionWorkspace as the serving layer body keeps one per worker,
 * so the rows time the kernels, not the allocator; a row's ms is
 * the median over those runs, with their min and max as ms_min/ms_max
 * so one slow run (host steal) shows as spread, not as a silent
 * shift. The byte counters are deterministic, so a row whose counters
 * differ between runs is a hard error.
 *
 * L defaults to 4096 (the paper's headline point); SOFTREC_BENCH_SEQLEN
 * overrides it so CI smoke runs stay fast.
 */
int
writeTrafficReport()
{
    constexpr int kTrafficReps = 5;
    const int64_t seq_len = bench::benchSeqLenFromEnv(4096);

    SdaConfig config;
    config.seqLen = seq_len;
    config.subVector = 64;

    Rng rng(11);
    AttentionInputs inputs = makeAttentionInputs(config);
    fillNormal(inputs.q, rng);
    fillNormal(inputs.k, rng);
    fillNormal(inputs.v, rng);

    BenchReport report("micro_kernels");
    report.setConfig("seq_len", seq_len);
    report.setConfig("d_head", config.dHead);
    report.setConfig("sub_vector", config.subVector);
    report.setConfig("threads",
                     int64_t(ExecContext::fromEnv().threads()));

    const struct
    {
        Strategy strategy;
        const char *prefix;
        const char *derived;
    } kStrategies[] = {
        {Strategy::Baseline, "baseline",
         "softmax_traffic_baseline_bytes"},
        {Strategy::Decomposed, "sd", "softmax_traffic_sd_bytes"},
        {Strategy::Fused, "sdf", "softmax_traffic_sdf_bytes"},
    };

    // Rows of one strategy under `prefix`; returns the strategy's
    // softmax-layer bytes.
    const auto measure = [&](const std::string &prefix,
                             Strategy strategy) {
        AttentionWorkspace ws;
        Tensor<Half> out;
        runAttention(ExecContext::fromEnv(), config, inputs, strategy, ws,
                     out);
        std::vector<std::map<std::string, prof::ScopeStats>> runs;
        for (int rep = 0; rep < kTrafficReps; ++rep) {
            prof::Profiler profiler;
            ExecContext ctx = ExecContext::fromEnv();
            ctx.profiler = &profiler;
            runAttention(ctx, config, inputs, strategy, ws, out);
            runs.push_back(profiler.snapshot());
        }

        double softmax_bytes = 0.0;
        for (const auto &[name, stats] : runs.front()) {
            std::vector<double> ms;
            for (const auto &run : runs) {
                const auto it = run.find(name);
                if (run.size() != runs.front().size() ||
                    it == run.end() ||
                    it->second.bytesRead != stats.bytesRead ||
                    it->second.bytesWritten != stats.bytesWritten) {
                    fatal("micro_kernels: %s/%s byte counters differ "
                          "between runs; traffic accounting must be "
                          "deterministic",
                          prefix.c_str(), name.c_str());
                }
                ms.push_back(it->second.seconds * 1e3);
            }
            BenchKernelRow row;
            row.name = prefix + "/" + name;
            row.msMin = *std::min_element(ms.begin(), ms.end());
            row.msMax = *std::max_element(ms.begin(), ms.end());
            row.ms = bench::median(std::move(ms));
            row.bytesRead = stats.bytesRead;
            row.bytesWritten = stats.bytesWritten;
            row.calls = stats.calls;
            row.threads = stats.maxThreads;
            report.addKernel(row);
            if (name.rfind("softmax.", 0) == 0)
                softmax_bytes +=
                    double(stats.bytesRead + stats.bytesWritten);
        }
        return softmax_bytes;
    };

    double baseline_traffic = 0.0, sdf_traffic = 0.0;
    for (const auto &entry : kStrategies) {
        const double softmax_bytes =
            measure(entry.prefix, entry.strategy);
        report.setDerived(entry.derived, softmax_bytes);
        if (entry.strategy == Strategy::Baseline)
            baseline_traffic = softmax_bytes;
        if (entry.strategy == Strategy::Fused)
            sdf_traffic = softmax_bytes;
    }
    config.causalMask = true;
    for (const auto &entry : kStrategies)
        measure(std::string("causal_") + entry.prefix, entry.strategy);
    report.setDerived("softmax_traffic_sdf_over_baseline",
                      baseline_traffic > 0.0
                          ? sdf_traffic / baseline_traffic
                          : 0.0);

    const std::string path = report.defaultPath();
    if (!report.writeFile(path))
        return 1;
    inform("wrote %s (L = %lld, SDF/baseline softmax traffic = %.4f)",
           path.c_str(), (long long)seq_len,
           baseline_traffic > 0.0 ? sdf_traffic / baseline_traffic
                                  : 0.0);
    return 0;
}

} // namespace
} // namespace softrec

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return softrec::writeTrafficReport();
}
