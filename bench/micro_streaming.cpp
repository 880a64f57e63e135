/**
 * @file
 * Recomposed-vs-streaming attention micro-benchmark: one dense
 * attention head per sequence length, run through runAttention's
 * Fused strategy and through streamingAttentionRun, the single-pass
 * online-softmax kernel, with per-arm profiler traffic and median
 * wall time. The streaming arm must move strictly fewer bytes — it
 * never stages a score row through memory — and the report carries
 * the per-L byte and time ratios as derived metrics. Writes
 * BENCH_micro_streaming.json (schema softrec-bench-v1).
 *
 * Sequence lengths: {1024, 4096, 16384} (the paper's evaluation
 * range), or the single SOFTREC_BENCH_SEQLEN point for smoke runs.
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/bench_report.hpp"
#include "common/exec_context.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "fp16/half.hpp"
#include "kernels/streaming_attention.hpp"
#include "tensor/tensor.hpp"

namespace softrec {
namespace {

constexpr int64_t kDHead = 64;

AttentionInputs
randomInputs(Rng &rng, const SdaConfig &config)
{
    auto fill = [&rng](Tensor<Half> &t) {
        for (int64_t i = 0; i < t.numel(); ++i)
            t.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    };
    AttentionInputs inputs = makeAttentionInputs(config);
    fill(inputs.q);
    fill(inputs.k);
    fill(inputs.v);
    return inputs;
}

struct ArmResult
{
    double ms = 0.0;
    uint64_t bytes = 0; //!< all profiler scopes, read + write
};

/**
 * Run one arm under a fresh profiler: `attend(ctx, out)` computes the
 * head into out.
 */
template <typename AttendFn>
ArmResult
runArm(BenchReport &report, const std::string &prefix, int64_t seq_len,
       AttendFn &&attend)
{
    prof::Profiler profiler;
    ExecContext ctx = ExecContext::fromEnv();
    ctx.profiler = &profiler;

    Tensor<Half> out;
    const double seconds =
        bench::medianSeconds(1, 3, [&] { attend(ctx, out); });
    SOFTREC_ASSERT(out.numel() == seq_len * kDHead,
                   "arm %s produced the wrong shape", prefix.c_str());

    ArmResult result;
    result.ms = seconds * 1e3;
    for (const auto &[scope_name, totals] : profiler.snapshot()) {
        BenchKernelRow row;
        row.name = prefix + "/" + scope_name;
        row.ms = totals.seconds * 1e3;
        row.bytesRead = totals.bytesRead;
        row.bytesWritten = totals.bytesWritten;
        row.calls = totals.calls;
        row.threads = ctx.threads();
        report.addKernel(row);
        result.bytes += totals.bytesRead + totals.bytesWritten;
    }
    return result;
}

} // namespace
} // namespace softrec

int
main()
{
    using namespace softrec;

    // Fallback 0 = "no override": this bench sweeps its own L set,
    // so the env knob narrows it to a single point for smoke runs.
    const int64_t override_len = bench::benchSeqLenFromEnv(0);
    std::vector<int64_t> lengths;
    if (override_len > 0)
        lengths.push_back(override_len);
    else
        lengths = {1024, 4096, 16384};

    BenchReport report("micro_streaming");
    report.setConfig("d_head", kDHead);
    {
        const ExecContext probe = ExecContext::fromEnv();
        report.setConfig("threads", int64_t(probe.threads()));
    }

    Rng rng(13);
    for (const int64_t seq_len : lengths) {
        SdaConfig shape;
        shape.seqLen = seq_len;
        shape.dHead = kDHead;
        const AttentionInputs inputs = randomInputs(rng, shape);

        const std::string tag =
            strprintf("L%lld", (long long)seq_len);
        const ArmResult recomposed = runArm(
            report, tag + "/recomposed", seq_len,
            [&](const ExecContext &ctx, Tensor<Half> &out) {
                out = runAttention(ctx, shape, inputs, Strategy::Fused);
            });
        StreamingAttentionDesc desc;
        desc.seqLen = seq_len;
        desc.kvLen = seq_len;
        desc.dHead = kDHead;
        desc.scale = shape.scale();
        const ArmResult streaming = runArm(
            report, tag + "/streaming", seq_len,
            [&](const ExecContext &ctx, Tensor<Half> &out) {
                out.resize(Shape({seq_len, kDHead}));
                streamingAttentionRun(ctx, desc, inputs.q, inputs.k,
                                      inputs.v, out);
            });

        // The tentpole claim, asserted where the data is generated:
        // never materializing the score matrix must show up as
        // strictly less measured traffic on the softmax path.
        SOFTREC_ASSERT(streaming.bytes < recomposed.bytes,
                       "streaming moved %llu bytes >= recomposed "
                       "%llu at L=%lld",
                       (unsigned long long)streaming.bytes,
                       (unsigned long long)recomposed.bytes,
                       (long long)seq_len);

        report.setDerived(tag + "_recomposed_ms", recomposed.ms);
        report.setDerived(tag + "_streaming_ms", streaming.ms);
        report.setDerived(tag + "_recomposed_bytes",
                          double(recomposed.bytes));
        report.setDerived(tag + "_streaming_bytes",
                          double(streaming.bytes));
        report.setDerived(tag + "_bytes_ratio",
                          double(streaming.bytes) /
                              double(recomposed.bytes));
        report.setDerived(tag + "_speedup",
                          streaming.ms > 0.0
                              ? recomposed.ms / streaming.ms
                              : 0.0);
        inform("L=%lld: recomposed %.1f ms / %.1f MB, streaming "
               "%.1f ms / %.1f MB (bytes x%.3f, speedup %.2fx)",
               (long long)seq_len, recomposed.ms,
               double(recomposed.bytes) / 1e6, streaming.ms,
               double(streaming.bytes) / 1e6,
               double(streaming.bytes) / double(recomposed.bytes),
               streaming.ms > 0.0 ? recomposed.ms / streaming.ms
                                  : 0.0);
    }

    const std::string path = report.defaultPath();
    if (!report.writeFile(path))
        return 1;
    inform("wrote %s", path.c_str());
    return 0;
}
