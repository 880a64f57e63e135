/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: running
 * all three strategies, formatting ratios, and the paper's published
 * numbers for side-by-side comparison.
 */

#ifndef SOFTREC_BENCH_BENCH_COMMON_HPP
#define SOFTREC_BENCH_BENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_report.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "model/engine.hpp"
#include "model/model_config.hpp"

namespace softrec {
namespace bench {

/** Median of a non-empty sample set (mean of the middle two if even). */
inline double
median(std::vector<double> samples)
{
    SOFTREC_ASSERT(!samples.empty(), "median of no samples");
    std::sort(samples.begin(), samples.end());
    const size_t mid = samples.size() / 2;
    return samples.size() % 2 != 0
        ? samples[mid]
        : 0.5 * (samples[mid - 1] + samples[mid]);
}

/**
 * Warmup + median-of-N wall-clock timing: runs `body` `warmup` times
 * untimed (first-touch page faults, cache fill), then `reps` timed
 * repetitions and returns the median seconds. Single-shot timing is
 * banned in benches — it reports allocation noise, not kernel time.
 */
template <typename Fn>
inline double
medianSeconds(int warmup, int reps, Fn &&body)
{
    SOFTREC_ASSERT(reps >= 1, "medianSeconds needs >= 1 rep");
    for (int i = 0; i < warmup; ++i)
        body();
    std::vector<double> samples;
    samples.reserve(size_t(reps));
    for (int i = 0; i < reps; ++i) {
        const auto start = std::chrono::steady_clock::now();
        body();
        const auto stop = std::chrono::steady_clock::now();
        samples.push_back(
            std::chrono::duration<double>(stop - start).count());
    }
    return median(std::move(samples));
}

/**
 * Measured-bench sequence length: `fallback` (the paper's headline
 * point) unless SOFTREC_BENCH_SEQLEN overrides it, so CI smoke runs
 * and slow containers can shrink the workload without recompiling.
 * Invalid values hard-error (the ServeConfig::fromEnv policy) — a CI
 * smoke run must never quietly benchmark the wrong workload.
 */
inline int64_t
benchSeqLenFromEnv(int64_t fallback)
{
    const char *env = std::getenv("SOFTREC_BENCH_SEQLEN");
    if (env == nullptr || *env == '\0')
        return fallback;
    char *end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 64) {
        fatal("SOFTREC_BENCH_SEQLEN='%s' is invalid: expected an "
              "integer >= 64; unset it to use the default (%lld)",
              env, (long long)fallback);
    }
    return parsed;
}

/** Baseline / SD / SDF results for one (model, GPU, L, batch). */
struct StrategySweep
{
    InferenceResult baseline;
    InferenceResult decomposed;
    InferenceResult fused;
};

/** Run all three strategies for one configuration. */
inline StrategySweep
runStrategies(const GpuSpec &spec, const ModelConfig &model,
              int64_t seq_len, int64_t batch = 1)
{
    RunConfig run;
    run.seqLen = seq_len;
    run.batch = batch;
    StrategySweep sweep;
    run.strategy = Strategy::Baseline;
    sweep.baseline = runInference(spec, model, run);
    run.strategy = Strategy::Decomposed;
    sweep.decomposed = runInference(spec, model, run);
    run.strategy = Strategy::Fused;
    sweep.fused = runInference(spec, model, run);
    return sweep;
}

/**
 * Append one simulated run's per-category totals to a report as
 * kernel rows named "<prefix>/<category>". The simulated GPU executes
 * launches one at a time, so threads is always 1.
 */
inline void
addCategoryRows(BenchReport &report, const std::string &prefix,
                const InferenceResult &result)
{
    for (const auto &[category, totals] : result.categories) {
        BenchKernelRow row;
        row.name = prefix + "/" + kernelCategoryName(category);
        row.ms = totals.seconds * 1e3;
        row.bytesRead = totals.dramReadBytes;
        row.bytesWritten = totals.dramWriteBytes;
        row.calls = totals.launches;
        row.threads = 1;
        report.addKernel(row);
    }
}

/** "1.25x" style formatting. */
inline std::string
ratio(double value)
{
    return strprintf("%.2fx", value);
}

/** "36.2%" style formatting. */
inline std::string
percent(double fraction)
{
    return strprintf("%.1f%%", fraction * 100.0);
}

/** Published end-to-end SDF speedups on A100 (Fig. 8a / abstract). */
inline const std::map<std::string, double> &
paperSpeedupsA100()
{
    static const std::map<std::string, double> values = {
        {"BERT-large", 1.25},
        {"GPT-Neo-1.3B", 1.12},
        {"BigBird-large", 1.57},
        {"Longformer-large", 1.65},
    };
    return values;
}

/** Published SD-only speedups on A100 (Section 5.1). */
inline const std::map<std::string, double> &
paperSdSpeedupsA100()
{
    static const std::map<std::string, double> values = {
        {"BERT-large", 0.94},
        {"GPT-Neo-1.3B", 0.99},
        {"BigBird-large", 1.44},
        {"Longformer-large", 1.49},
    };
    return values;
}

/** Published softmax shares of execution time, A100 L=4096 (Fig. 2). */
inline const std::map<std::string, double> &
paperSoftmaxShares()
{
    static const std::map<std::string, double> values = {
        {"BERT-large", 0.36},
        {"GPT-Neo-1.3B", 0.18},
        {"BigBird-large", 0.40},
        {"Longformer-large", 0.42},
    };
    return values;
}

/** Published SDF speedups on RTX 3090 and T4 (Section 5.1). */
inline const std::map<std::string, std::map<std::string, double>> &
paperSpeedupsOtherGpus()
{
    static const std::map<std::string, std::map<std::string, double>>
        values = {
            {"RTX 3090",
             {{"BERT-large", 1.12},
              {"GPT-Neo-1.3B", 1.05},
              {"BigBird-large", 1.32},
              {"Longformer-large", 1.36}}},
            {"T4",
             {{"BERT-large", 1.22},
              {"GPT-Neo-1.3B", 1.08},
              {"BigBird-large", 1.77},
              {"Longformer-large", 1.87}}},
        };
    return values;
}

} // namespace bench
} // namespace softrec

#endif // SOFTREC_BENCH_BENCH_COMMON_HPP
