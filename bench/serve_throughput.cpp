/**
 * @file
 * Continuous-batching serving throughput benchmark: a fixed arrival
 * trace of prompt-heavy requests is driven through ServeEngine at
 * batch limits {1, 4, 16} and the bench reports tokens/s plus p50/p95
 * request latency per arm, alongside the profiler's per-kernel rows.
 * A fourth arm repeats the batch-4 trace with the int8 KV cache for
 * a capacity A/B: same fp16-denominated token budget (= same slab
 * byte budget), so the reported KV token capacity must come out
 * >= 1.8x the f16 arm's.
 * Writes BENCH_serve_throughput.json (schema softrec-bench-v1).
 *
 * Headline point: prompts of L = 4096 tokens (the paper's evaluation
 * length); SOFTREC_BENCH_SEQLEN shrinks it for CI smoke runs.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/bench_report.hpp"
#include "common/exec_context.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "fp16/half.hpp"
#include "kernels/kernel_common.hpp"
#include "model/decode.hpp"
#include "serve/serve_engine.hpp"
#include "tensor/tensor.hpp"

namespace softrec {
namespace {

constexpr int64_t kRequests = 6;
constexpr int64_t kGenerateTokens = 8;

Tensor<Half>
randomPrompt(Rng &rng, int64_t tokens, int64_t d_model)
{
    Tensor<Half> prompt(Shape({tokens, d_model}));
    for (int64_t i = 0; i < prompt.numel(); ++i)
        prompt.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return prompt;
}

/** What one drained arm reports. */
struct ArmSummary
{
    int64_t requestsServed = 0;
    int64_t tokensGenerated = 0;
    int64_t decodeSteps = 0;
    double tokensPerSecond = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    int64_t kvTokenCapacity = 0; //!< effective scheduler budget
    int64_t kvBytesReserved = 0;
};

/**
 * One arm: drain kRequests through a batch-row limit. Round-robin
 * non-blocking drain — a blocking per-stream drain deadlocks on rings
 * shallower than generateTokens.
 */
ArmSummary
runArm(const ExecContext &ctx, const DecoderStack &stack,
       int64_t batch_rows, int64_t prompt_tokens, KvDtype kv_dtype)
{
    // fromEnv so a malformed SOFTREC_SERVE_KV_DTYPE (or any serve
    // knob) hard-errors here too — CI's negative check runs this
    // binary. The arm then pins its own dtype: the f16/int8 A/B is
    // the bench's, not the environment's.
    ServeConfig config = ServeConfig::fromEnv();
    config.maxBatchRows = batch_rows;
    // Roomy budget: this bench measures batching, not budget parking.
    // Denominated in fp16 tokens, so both A/B arms describe the same
    // slab byte budget and the int8 arm's *capacity* is the win.
    config.tokenBudget =
        kRequests * (prompt_tokens + kGenerateTokens);
    config.kvDtype = kv_dtype;
    ServeEngine engine(ctx, stack, config);

    struct Pending
    {
        ServeSession session;
        double arrivalSeconds = 0.0;
        double finishSeconds = 0.0;
        bool done = false;
    };
    std::vector<Pending> pending;
    Rng rng(11); // same prompts in every arm
    for (int64_t r = 0; r < kRequests; ++r) {
        ServeRequest request;
        request.id = r + 1;
        request.prompt =
            randomPrompt(rng, prompt_tokens, stack.config.dModel);
        request.generateTokens = kGenerateTokens;
        Pending p;
        p.arrivalSeconds = engine.nowSeconds();
        SubmitResult result = engine.submit(std::move(request));
        SOFTREC_ASSERT(result.decision.accepted,
                       "bench submit rejected: %s",
                       result.decision.reason.c_str());
        p.session = std::move(result.session);
        pending.push_back(std::move(p));
    }

    const double start = engine.nowSeconds();
    engine.start();
    size_t remaining = pending.size();
    Tensor<Half> row;
    while (remaining > 0) {
        bool progressed = false;
        for (Pending &p : pending) {
            if (p.done)
                continue;
            TokenStream &stream = p.session.stream();
            TokenStream::TryNext outcome = stream.tryNext(row);
            while (outcome == TokenStream::TryNext::Token) {
                progressed = true;
                outcome = stream.tryNext(row);
            }
            if (outcome == TokenStream::TryNext::End) {
                p.finishSeconds = stream.finishSeconds();
                p.done = true;
                --remaining;
                progressed = true;
            }
        }
        if (!progressed)
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
    }
    engine.waitIdle(); // let the step counters settle

    ArmSummary summary;
    const ServeStats stats = engine.stats();
    summary.requestsServed = stats.requestsServed;
    summary.tokensGenerated = stats.tokensGenerated;
    summary.decodeSteps = stats.decodeSteps;
    summary.kvTokenCapacity = stats.tokenBudget;
    summary.kvBytesReserved = stats.kvBytesReserved;
    const double seconds = engine.nowSeconds() - start;
    summary.tokensPerSecond =
        seconds > 0.0 ? double(summary.tokensGenerated) / seconds
                      : 0.0;
    std::vector<double> latencies;
    latencies.reserve(pending.size());
    for (const Pending &p : pending)
        latencies.push_back(p.finishSeconds - p.arrivalSeconds);
    summary.p50LatencySeconds = percentileSeconds(latencies, 0.50);
    summary.p95LatencySeconds = percentileSeconds(latencies, 0.95);
    return summary;
}

} // namespace
} // namespace softrec

int
main()
{
    using namespace softrec;

    const int64_t prompt_tokens = bench::benchSeqLenFromEnv(4096);
    const int64_t d_model = 64;
    Rng weights_rng(3);
    const DecoderStack stack =
        DecoderStack::random(d_model, /*num_heads=*/4, /*d_ff=*/128,
                             /*num_layers=*/2, weights_rng);

    BenchReport report("serve_throughput");
    report.setConfig("prompt_tokens", prompt_tokens);
    report.setConfig("generate_tokens", kGenerateTokens);
    report.setConfig("requests", kRequests);
    report.setConfig("d_model", d_model);
    report.setConfig("num_layers", int64_t(2));

    struct Arm
    {
        const char *name;
        int64_t batchRows;
        KvDtype kvDtype;
    };
    const Arm arms[] = {
        {"b1", 1, KvDtype::F16},
        {"b4", 4, KvDtype::F16},
        {"b16", 16, KvDtype::F16},
        {"b4_int8", 4, KvDtype::I8},
    };
    int64_t f16_capacity = 0;
    int64_t int8_capacity = 0;
    for (const Arm &arm : arms) {
        prof::Profiler profiler;
        ExecContext ctx = ExecContext::fromEnv();
        ctx.profiler = &profiler;
        if (arm.batchRows == 1)
            report.setConfig("threads", int64_t(ctx.threads()));

        const ArmSummary summary = runArm(
            ctx, stack, arm.batchRows, prompt_tokens, arm.kvDtype);
        SOFTREC_ASSERT(summary.requestsServed == kRequests,
                       "arm %s served %lld of %lld requests",
                       arm.name,
                       (long long)summary.requestsServed,
                       (long long)kRequests);

        for (const auto &[scope_name, totals] :
             profiler.snapshot()) {
            BenchKernelRow row;
            row.name = std::string(arm.name) + "/" + scope_name;
            row.ms = totals.seconds * 1e3;
            row.bytesRead = totals.bytesRead;
            row.bytesWritten = totals.bytesWritten;
            row.calls = totals.calls;
            row.threads = ctx.threads();
            report.addKernel(row);
        }
        const std::string prefix = arm.name;
        report.setDerived(prefix + "_tokens_per_s",
                          summary.tokensPerSecond);
        report.setDerived(prefix + "_p50_ms",
                          summary.p50LatencySeconds * 1e3);
        report.setDerived(prefix + "_p95_ms",
                          summary.p95LatencySeconds * 1e3);
        report.setDerived(prefix + "_decode_steps",
                          double(summary.decodeSteps));
        report.setDerived(prefix + "_kv_token_capacity",
                          double(summary.kvTokenCapacity));
        report.setDerived(prefix + "_kv_bytes_reserved",
                          double(summary.kvBytesReserved));
        report.setConfig(prefix + "_kv_dtype",
                         kvDtypeName(arm.kvDtype));
        if (std::string(arm.name) == "b4")
            f16_capacity = summary.kvTokenCapacity;
        if (std::string(arm.name) == "b4_int8")
            int8_capacity = summary.kvTokenCapacity;
        inform("%s: %.1f tok/s, p50 %.1f ms, p95 %.1f ms "
               "(%lld steps, %lld KV tokens, %s)", arm.name,
               summary.tokensPerSecond,
               summary.p50LatencySeconds * 1e3,
               summary.p95LatencySeconds * 1e3,
               (long long)summary.decodeSteps,
               (long long)summary.kvTokenCapacity,
               kvDtypeName(arm.kvDtype));
    }

    // The capacity acceptance bar: same trace, same slab byte budget,
    // int8 must admit >= 1.8x the concurrent KV tokens.
    const double capacity_ratio =
        double(int8_capacity) / double(f16_capacity);
    report.setDerived("int8_kv_capacity_ratio", capacity_ratio);
    SOFTREC_ASSERT(capacity_ratio >= 1.8,
                   "int8 KV capacity ratio %.3f below the 1.8x bar "
                   "(f16 %lld vs int8 %lld tokens)", capacity_ratio,
                   (long long)f16_capacity, (long long)int8_capacity);
    inform("int8 KV capacity ratio: %.2fx", capacity_ratio);

    const std::string path = report.defaultPath();
    if (!report.writeFile(path))
        return 1;
    inform("wrote %s (prompt_tokens = %lld)", path.c_str(),
           (long long)prompt_tokens);
    return 0;
}
