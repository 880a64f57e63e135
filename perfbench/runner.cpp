/**
 * @file
 * Repository benchmark runner: one fixed model, three workloads.
 *
 *   long_prompt  closed loop of 4 clients, 2048-token prompts, 16
 *                generated tokens, one-shot prefill (ServeConfig
 *                default) -- prefill attention, Baseline row softmax
 *                and prefill-shaped GEMMs dominate.
 *   chat_mixed   closed loop of 4 clients, 64-256-token prompts with
 *                one 1024-token prompt in every 16 requests, 64-192
 *                generated tokens, 256-row chunked prefill -- decode
 *                GEMVs and decode attention dominate.
 *   encoder_sdf  one caller, non-causal 2048-token sequences through
 *                both layers with Strategy::Fused (the paper's SDF
 *                kernels), back to back.
 *
 * Every workload runs on one 4-thread pool (the serving or calling
 * thread plus 3 workers); the decoder workloads add one client thread
 * that mostly sleeps between polls. A 3-thread pool, which leaves a
 * core to the client, measured 2-3x noisier across processes on the
 * prefill-heavy workloads (see README.md). With --trace 0 the runner reports the
 * end-to-end metrics; with --trace 1 it runs the workload once
 * untraced and once traced (spans kept in memory, written as a
 * Chrome trace-event file at exit) and then replays each layer's
 * public functions at the shapes the traced half produced to report
 * the per-layer metrics. After the timed run a seeded sample of
 * outputs is recomputed and checked; a mismatch fails the run.
 *
 * The last stdout line is the JSON result; the lines before it are a
 * human-readable report (provenance, request accounting, every metric
 * by name and unit with its sample count).
 *
 * Usage: perfbench_runner --workload <name> --seed <n> --seconds <s>
 *            --trace <0|1> [--trace-dir <dir>] [--git <sha>]
 *            [--dirty <0|1>]
 *        perfbench_runner --self-test
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "fp16/half.hpp"
#include "kernels/decode_attention.hpp"
#include "kernels/softmax_kernels.hpp"
#include "model/decode.hpp"
#include "model/functional_layer.hpp"
#include "serve/kv_cache.hpp"
#include "serve/serve_engine.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace softrec {
namespace {

// --- fixed model and load shape -------------------------------------

constexpr int64_t kDModel = 256;
constexpr int64_t kHeads = 4;
constexpr int64_t kDFf = 1024;
constexpr int64_t kLayers = 2;
constexpr int kPoolThreads = 4; //!< serving/calling thread + 3 workers
constexpr int64_t kClients = 4;
constexpr uint64_t kWeightsSeed = 0x50f7'2ec0ULL; //!< model is fixed
constexpr int kSetupReps = 5;
//! Client poll sleep: far below the ~4 ms decode-step ITL. A 50 us
//! sleep wakes the client so often that it steals time from the pool
//! threads, and long_prompt throughput then spread by ~30% between runs.
constexpr auto kPollSleep = std::chrono::microseconds(250);

constexpr int64_t kLongPrompt = 2048;
constexpr int64_t kLongGenerate = 16;
constexpr int64_t kChatChunk = 256;
constexpr int64_t kChatLongPrompt = 1024;
constexpr int64_t kChatDeck = 16; //!< one 1024-token prompt per deck
constexpr int64_t kEncoderLen = 2048;
//! SDF-vs-Baseline bound per layer, as tests/test_functional_layer.cpp
//! pins it.
constexpr double kSdfMaxAbs = 2e-2;

enum class Workload
{
    LongPrompt,
    ChatMixed,
    EncoderSdf,
};

const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::LongPrompt: return "long_prompt";
      case Workload::ChatMixed: return "chat_mixed";
      case Workload::EncoderSdf: return "encoder_sdf";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w : {Workload::LongPrompt, Workload::ChatMixed,
                       Workload::EncoderSdf}) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

// --- clock, statistics ----------------------------------------------

double
nowSeconds()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

double
median(std::vector<double> samples)
{
    return percentileSeconds(std::move(samples), 0.5);
}

/**
 * Samples lying strictly beyond the q-percentile of n samples under
 * percentileSeconds' linear interpolation (rank q * (n - 1)).
 */
int64_t
samplesBeyond(int64_t n, double q)
{
    if (n <= 0)
        return 0;
    const double rank = q * double(n - 1);
    return (n - 1) - int64_t(std::floor(rank + 1e-9));
}

/** A tail percentile is reported only with >= 10 samples beyond it. */
bool
tailSupported(int64_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

/** Time `body` `reps` times; median seconds. */
double
medianTime(int reps, const std::function<void()> &body)
{
    std::vector<double> t;
    t.reserve(size_t(reps));
    for (int i = 0; i < reps; ++i) {
        const double t0 = nowSeconds();
        body();
        t.push_back(nowSeconds() - t0);
    }
    return median(std::move(t));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// --- tracer ---------------------------------------------------------

/**
 * In-memory span store. Spans are complete (start and end known when
 * recorded), carry their parent's id and a request id, and are
 * written once at exit as Chrome trace-event JSON ("X" events), which
 * Perfetto and chrome://tracing open offline.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Record a span; returns its id (-1 when tracing is off). */
    int64_t
    span(const char *name, double start, double end,
         int64_t parent = -1, int64_t request = -1)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(Span{name, start, end, parent, request});
        return int64_t(spans_.size()) - 1;
    }

    size_t size() const { return spans_.size(); }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        char buf[512];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%lld,"
                          "\"request\":%lld}}\n",
                          i ? "," : "", s.name.c_str(), s.start * 1e6,
                          (s.end - s.start) * 1e6, i,
                          (long long)s.parent, (long long)s.request);
            out << buf;
        }
        out << "]}\n";
        return bool(out);
    }

  private:
    struct Span
    {
        std::string name;
        double start, end;
        int64_t parent, request;
    };
    const bool on_;
    std::mutex mutex_;
    std::vector<Span> spans_;
};

/** Scoped top-level span: records [construction, destruction). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name)
        : tracer_(tracer), name_(name), start_(nowSeconds())
    {
    }
    ~ScopedSpan() { tracer_.span(name_, start_, nowSeconds()); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &tracer_;
    const char *name_;
    double start_;
};

// --- workload generator ---------------------------------------------

/** One request as the generator describes it (inputs derive from it). */
struct RequestSpec
{
    int64_t promptTokens = 0;
    int64_t generateTokens = 0; //!< 0 for encoder sequences
    uint64_t promptSeed = 0;
};

uint64_t
mixSeed(uint64_t seed, uint64_t salt)
{
    // splitmix64 finalizer over (seed, salt)
    uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * The first `count` requests of a workload for a seed. chat_mixed is
 * drawn in decks of 16: one 1024-token prompt and 15 short prompts
 * stratified over [64, 256], with generate lengths stratified over
 * [64, 192] and both shuffled per deck, so every seed offers the same
 * mix of work in a different order.
 */
std::vector<RequestSpec>
makeRequests(Workload w, uint64_t seed, int64_t count)
{
    Rng rng(mixSeed(seed, 1));
    std::vector<RequestSpec> out;
    out.reserve(size_t(count));
    while (int64_t(out.size()) < count) {
        if (w != Workload::ChatMixed) {
            RequestSpec spec;
            spec.promptTokens =
                w == Workload::LongPrompt ? kLongPrompt : kEncoderLen;
            spec.generateTokens =
                w == Workload::LongPrompt ? kLongGenerate : 0;
            spec.promptSeed = rng.next();
            out.push_back(spec);
            continue;
        }
        std::vector<int64_t> prompts, gens;
        for (int64_t k = 0; k < kChatDeck; ++k) {
            const double u = (double(k) + rng.uniform()) / double(kChatDeck);
            gens.push_back(64 + int64_t(u * 128.0));
        }
        for (int64_t k = 0; k + 1 < kChatDeck; ++k) {
            const double u =
                (double(k) + rng.uniform()) / double(kChatDeck - 1);
            prompts.push_back(64 + int64_t(u * 192.0));
        }
        prompts.push_back(kChatLongPrompt);
        for (int64_t i = kChatDeck - 1; i > 0; --i) {
            std::swap(prompts[size_t(i)],
                      prompts[rng.uniformInt(uint64_t(i + 1))]);
            std::swap(gens[size_t(i)],
                      gens[rng.uniformInt(uint64_t(i + 1))]);
        }
        for (int64_t k = 0; k < kChatDeck && int64_t(out.size()) < count;
             ++k) {
            RequestSpec spec;
            spec.promptTokens = prompts[size_t(k)];
            spec.generateTokens = gens[size_t(k)];
            spec.promptSeed = rng.next();
            out.push_back(spec);
        }
    }
    return out;
}

Tensor<Half>
makePrompt(const RequestSpec &spec)
{
    Tensor<Half> prompt(Shape({spec.promptTokens, kDModel}));
    Rng rng(spec.promptSeed);
    fillNormal(prompt, rng, 0.0, 0.5);
    return prompt;
}

/**
 * Distinct inputs generated before timing; request i of the closed
 * loop uses input i % deck size. Sized so a run of the default length
 * rarely wraps, at a bounded memory cost.
 */
int64_t
deckSize(Workload w)
{
    switch (w) {
      case Workload::LongPrompt: return 32;
      case Workload::ChatMixed: return 256;
      case Workload::EncoderSdf: return 8;
    }
    return 1;
}

// --- the system under test ------------------------------------------

std::unique_ptr<DecoderStack>
makeStack()
{
    Rng rng(kWeightsSeed);
    auto stack = std::make_unique<DecoderStack>(
        DecoderStack::random(kDModel, kHeads, kDFf, kLayers, rng));
    // Pinned rather than taken from SOFTREC_ATTENTION: the workloads
    // define which attention path runs.
    stack->config.attention = AttentionBackend::Recomposed;
    stack->config.strategy = Strategy::Baseline;
    return stack;
}

FunctionalLayerConfig
encoderConfig(const DecoderStack &stack)
{
    FunctionalLayerConfig config = stack.config;
    config.causalMask = false;
    config.strategy = Strategy::Fused;
    return config;
}

ServeConfig
serveConfig(Workload w)
{
    ServeConfig config; // defaults, deliberately not fromEnv()
    if (w == Workload::ChatMixed)
        config.prefillChunkTokens = kChatChunk;
    return config;
}

Tensor<Half>
encode(const ExecContext &ctx, const DecoderStack &stack,
       const Tensor<Half> &input, Tensor<Half> *first_layer = nullptr)
{
    const FunctionalLayerConfig config = encoderConfig(stack);
    Tensor<Half> x = runEncoderLayer(ctx, config, stack.layers[0], input);
    if (first_layer != nullptr)
        *first_layer = x;
    return runEncoderLayer(ctx, config, stack.layers[1], x);
}

bool
allFinite(const Tensor<Half> &t)
{
    for (int64_t i = 0; i < t.numel(); ++i) {
        const uint16_t bits = t.data()[i].bits();
        if ((bits & 0x7c00) == 0x7c00)
            return false;
    }
    return true;
}

// --- run records ----------------------------------------------------

enum class Outcome
{
    Completed,
    Rejected,
    Cancelled,
};

struct RequestRecord
{
    int64_t index = 0;
    RequestSpec spec;
    Outcome outcome = Outcome::Completed;
    double submitAt = 0.0;
    double submitDone = 0.0;
    double firstAt = -1.0;
    double endAt = 0.0;
    std::vector<Half> rows; //!< streamed rows, kept for checked requests
};

/** What one closed-loop (or caller-loop) phase measured. */
struct PhaseResult
{
    double start = 0.0;
    double end = 0.0;
    std::vector<RequestRecord> requests;
    std::vector<double> itl; //!< seconds between streamed rows
    int64_t polls = 0;
    double pollSeconds = 0.0; //!< wall time covered by polls
    int64_t kvBlocksPeak = 0;
    ServeStats before, after;

    int64_t
    count(Outcome o) const
    {
        return int64_t(std::count_if(
            requests.begin(), requests.end(),
            [o](const RequestRecord &r) { return r.outcome == o; }));
    }
    double
    promptTokS() const
    {
        int64_t tokens = 0;
        for (const RequestRecord &r : requests)
            if (r.outcome == Outcome::Completed)
                tokens += r.spec.promptTokens;
        return double(tokens) / (end - start);
    }
    std::vector<double>
    ttft() const
    {
        // A rejected or cancelled request misses every latency limit.
        std::vector<double> out;
        for (const RequestRecord &r : requests)
            out.push_back(r.outcome == Outcome::Completed
                              ? r.firstAt - r.submitAt
                              : INFINITY);
        return out;
    }
};

/** Requests whose streamed rows are kept for the output check. */
constexpr int64_t kKeepRows = 32;

// --- decoder workloads: one client thread, closed loop --------------

struct Client
{
    bool busy = false;
    RequestRecord record;
    ServeSession session;
};

/**
 * Closed loop: each client resends when its stream ends. Submitting
 * stops at the first multiple of `whole` requests after `seconds`, so
 * every run serves whole chat decks and its work mix does not depend
 * on where the deadline fell.
 */
PhaseResult
runClosedLoop(ServeEngine &engine, const std::vector<RequestSpec> &specs,
              const std::vector<Tensor<Half>> &prompts, int64_t whole,
              int64_t *next_index, double seconds, Tracer &tracer)
{
    PhaseResult phase;
    phase.before = engine.stats();
    std::vector<Client> clients(static_cast<size_t>(kClients));
    const int64_t first_index = *next_index;
    Tensor<Half> row;
    double last_stats = 0.0;
    phase.start = nowSeconds();
    const double deadline = phase.start + seconds;
    double prev_poll = phase.start;

    auto finish = [&](Client &c, Outcome outcome, double at) {
        c.record.outcome = outcome;
        c.record.endAt = at;
        if (tracer.on()) {
            const int64_t id = tracer.span("request", c.record.submitAt, at,
                                           -1, c.record.index);
            tracer.span("serve.submit", c.record.submitAt,
                        c.record.submitDone, id, c.record.index);
            if (c.record.firstAt >= 0.0) {
                tracer.span("ttft", c.record.submitAt, c.record.firstAt, id,
                            c.record.index);
                tracer.span("decode", c.record.firstAt, at, id,
                            c.record.index);
            }
        }
        phase.requests.push_back(std::move(c.record));
        c.record = RequestRecord();
        c.session = ServeSession();
        c.busy = false;
    };

    auto sending = [&](double now) {
        return now < deadline || (*next_index - first_index) % whole != 0;
    };
    while (true) {
        const double now = nowSeconds();
        bool any_busy = false;
        for (Client &c : clients) {
            if (!c.busy && sending(now)) {
                const int64_t index = (*next_index)++;
                const size_t slot = size_t(index) % prompts.size();
                ServeRequest request;
                request.tenantId = 0;
                request.prompt = prompts[slot];
                request.generateTokens = specs[slot].generateTokens;
                c.record.index = index;
                c.record.spec = specs[slot];
                c.record.submitAt = nowSeconds();
                SubmitResult submit = engine.submit(std::move(request));
                c.record.submitDone = nowSeconds();
                if (!submit.decision.accepted) {
                    std::fprintf(stderr, "request %lld rejected: %s\n",
                                 (long long)index,
                                 submit.decision.reason.c_str());
                    finish(c, Outcome::Rejected, c.record.submitDone);
                    continue;
                }
                c.session = std::move(submit.session);
                c.busy = true;
            }
            while (c.busy) {
                const TokenStream::TryNext got =
                    c.session.stream().tryNext(row);
                if (got == TokenStream::TryNext::Pending)
                    break;
                const double at = nowSeconds();
                if (got == TokenStream::TryNext::End) {
                    finish(c,
                           c.session.stream().status() ==
                                   StreamStatus::Finished
                               ? Outcome::Completed
                               : Outcome::Cancelled,
                           at);
                    break;
                }
                if (c.record.firstAt < 0.0)
                    c.record.firstAt = at;
                else
                    phase.itl.push_back(at - c.record.endAt);
                c.record.endAt = at; // last row so far
                if (c.record.index - first_index < kKeepRows)
                    c.record.rows.insert(c.record.rows.end(), row.data(),
                                         row.data() + row.numel());
            }
            any_busy = any_busy || c.busy;
        }
        if (tracer.on() && now - last_stats > 2e-3) {
            phase.kvBlocksPeak =
                std::max(phase.kvBlocksPeak, engine.stats().kvBlocksInUse);
            last_stats = now;
        }
        if (!any_busy && !sending(now))
            break;
        std::this_thread::sleep_for(kPollSleep);
        const double after = nowSeconds();
        phase.pollSeconds += after - prev_poll;
        prev_poll = after;
        ++phase.polls;
    }
    phase.end = 0.0;
    for (const RequestRecord &r : phase.requests)
        phase.end = std::max(phase.end, r.endAt);
    phase.after = engine.stats();
    return phase;
}

// --- encoder workload: one caller, back to back ---------------------

struct EncoderKeep
{
    int64_t index = 0;
    Tensor<Half> layer1, out;
};

PhaseResult
runEncoderLoop(const ExecContext &ctx, const DecoderStack &stack,
               const std::vector<RequestSpec> &specs,
               const std::vector<Tensor<Half>> &inputs, int64_t *next_index,
               double seconds, Tracer &tracer,
               std::vector<EncoderKeep> *keep, bool *finite)
{
    PhaseResult phase;
    phase.start = nowSeconds();
    const double deadline = phase.start + seconds;
    Tensor<Half> layer1;
    while (nowSeconds() < deadline) {
        const int64_t index = (*next_index)++;
        const size_t slot = size_t(index) % inputs.size();
        RequestRecord record;
        record.index = index;
        record.spec = specs[slot];
        record.submitAt = nowSeconds();
        record.submitDone = record.submitAt;
        const Tensor<Half> out = encode(ctx, stack, inputs[slot], &layer1);
        record.firstAt = record.endAt = nowSeconds();
        tracer.span("encode", record.submitAt, record.endAt, -1, index);
        *finite = *finite && allFinite(out);
        if (keep != nullptr && int64_t(keep->size()) < 4)
            keep->push_back(EncoderKeep{index, layer1, out});
        phase.requests.push_back(std::move(record));
    }
    phase.end = phase.requests.back().endAt;
    return phase;
}

// --- output checks --------------------------------------------------

/**
 * Recompute a request alone (one-shot runPrefill, then one
 * runDecodeStepInto per token) and compare with the streamed rows bit
 * for bit -- the engine's batch-composition and chunking contract.
 */
bool
checkDecoderRequest(const ExecContext &ctx, const DecoderStack &stack,
                    const RequestRecord &record, const Tensor<Half> &prompt)
{
    KvSlab slab(serveConfig(Workload::LongPrompt).kvBlockTokens, kDModel);
    KvCache cache(slab, kLayers);
    const Tensor<Half> out = runPrefill(ctx, stack, prompt, cache);
    Tensor<Half> input(Shape({1, kDModel}));
    std::copy(out.rowPtr(out.shape().dim(0) - 1),
              out.rowPtr(out.shape().dim(0) - 1) + kDModel, input.data());
    const std::vector<KvCache *> caches = {&cache};
    DecodeStepWorkspace ws;
    Tensor<Half> step;
    const int64_t tokens = record.spec.generateTokens;
    if (int64_t(record.rows.size()) != tokens * kDModel)
        return false;
    for (int64_t t = 0; t < tokens; ++t) {
        runDecodeStepInto(ctx, stack, input, caches, ws, step);
        const Half *want = record.rows.data() + t * kDModel;
        for (int64_t j = 0; j < kDModel; ++j)
            if (step.data()[j].bits() != want[j].bits())
                return false;
        std::swap(input, step);
    }
    return true;
}

double
maxAbs(const Tensor<Half> &a, const Tensor<Half> &b)
{
    return maxAbsDiff(toFloat(a), toFloat(b));
}

// --- per-layer replays ----------------------------------------------

/** Fill a cache with `context` random rows in every layer. */
void
fillCache(KvCache &cache, int64_t context, Rng &rng)
{
    Tensor<Half> rows(Shape({context, kDModel}));
    fillNormal(rows, rng, 0.0, 0.5);
    for (int64_t layer = 0; layer < kLayers; ++layer)
        for (int64_t i = 0; i < context; ++i)
            cache.appendRow(layer, rows.rowPtr(i),
                            rows.rowPtr(context - 1 - i));
}

double
gemmGflops(const ExecContext &ctx, const EncoderLayerWeights &w,
           int64_t rows, int reps, Tracer &tracer)
{
    Rng rng(rows);
    Tensor<Half> x(Shape({rows, kDModel}));
    fillNormal(x, rng, 0.0, 0.5);
    Tensor<Half> out(Shape({rows, kDFf}));
    const double t = medianTime(reps, [&] {
        ScopedSpan s(tracer, "kernels.projectRowsInto");
        projectRowsInto(ctx, "ff.1", x, w.w1, w.b1, true, out);
    });
    return 2.0 * double(rows) * double(kDModel) * double(kDFf) / t / 1e9;
}

struct Observed
{
    int64_t decodeRows = 0;    //!< mean rows per decode step (rounded)
    int64_t decodeContext = 0; //!< mean context at a decode step
    int64_t chunkRows = 0;     //!< median resumable-prefill chunk rows
};

Observed
observe(Workload w, const PhaseResult &phase)
{
    Observed o;
    if (w == Workload::EncoderSdf)
        return o;
    const int64_t steps = phase.after.decodeSteps - phase.before.decodeSteps;
    const int64_t tokens =
        phase.after.tokensGenerated - phase.before.tokensGenerated;
    o.decodeRows = steps > 0 ? std::max<int64_t>(
                                   1, int64_t(std::lround(double(tokens) /
                                                          double(steps))))
                             : 0;
    double ctx_sum = 0.0, gen_sum = 0.0;
    std::vector<double> chunks;
    for (const RequestRecord &r : phase.requests) {
        const double p = double(r.spec.promptTokens);
        const double g = double(r.spec.generateTokens);
        ctx_sum += g * p + g * (g + 1.0) / 2.0;
        gen_sum += g;
        if (w == Workload::ChatMixed)
            for (int64_t done = 0; done < r.spec.promptTokens;
                 done += kChatChunk)
                chunks.push_back(double(
                    std::min(kChatChunk, r.spec.promptTokens - done)));
    }
    o.decodeContext = gen_sum > 0.0 ? int64_t(ctx_sum / gen_sum) : 0;
    o.chunkRows = chunks.empty() ? 0 : int64_t(median(chunks));
    return o;
}

// --- reporting ------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

void
printPercentile(const char *name, const std::vector<double> &seconds,
                double q, double scale, const char *unit)
{
    const int64_t n = int64_t(seconds.size());
    if (n == 0 || (q > 0.5 && !tailSupported(n, q))) {
        std::printf("# %-28s n/a %s (n=%lld, %lld beyond; needs >= 10)\n",
                    name, unit, (long long)n,
                    (long long)samplesBeyond(n, q));
        return;
    }
    std::printf("# %-28s %.4f %s (n=%lld, %lld beyond)\n", name,
                percentileSeconds(seconds, q) * scale, unit, (long long)n,
                (long long)samplesBeyond(n, q));
}

struct Options
{
    Workload workload = Workload::LongPrompt;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string traceDir = ".";
    std::string git = "unknown";
    bool dirty = false;
    bool selfTest = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner --workload "
                 "<long_prompt|chat_mixed|encoder_sdf> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-dir <dir>] "
                 "[--git <sha>] [--dirty <0|1>] | --self-test\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test") {
            o.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            if (!parseWorkload(value, &o.workload))
                usage(("unknown workload " + value).c_str());
            have_workload = true;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed must be a non-negative integer");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(o.seconds > 0.0) ||
                o.seconds > 600.0)
                usage("--seconds must be in (0, 600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (arg == "--trace-dir") {
            o.traceDir = value;
        } else if (arg == "--git") {
            o.git = value;
        } else if (arg == "--dirty") {
            o.dirty = value == "1";
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (!o.selfTest && !have_workload)
        usage("--workload is required");
    return o;
}

// --- self-test ------------------------------------------------------

int
selfTest()
{
    int failures = 0;
    auto expect = [&failures](bool ok, const char *what) {
        std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
        failures += ok ? 0 : 1;
    };

    for (Workload w : {Workload::LongPrompt, Workload::ChatMixed,
                       Workload::EncoderSdf}) {
        const auto a = makeRequests(w, 7, 64);
        const auto b = makeRequests(w, 7, 64);
        const auto c = makeRequests(w, 8, 64);
        bool same = true, differs = false;
        for (size_t i = 0; i < a.size(); ++i) {
            same = same && a[i].promptTokens == b[i].promptTokens &&
                   a[i].generateTokens == b[i].generateTokens &&
                   a[i].promptSeed == b[i].promptSeed;
            differs = differs || a[i].promptSeed != c[i].promptSeed ||
                      a[i].promptTokens != c[i].promptTokens;
        }
        const Tensor<Half> pa = makePrompt(a[3]), pb = makePrompt(b[3]);
        same = same && std::memcmp(pa.data(), pb.data(),
                                   size_t(pa.numel()) * sizeof(Half)) == 0;
        std::string what = std::string(workloadName(w)) +
                           ": same seed gives the same requests and inputs";
        expect(same, what.c_str());
        what = std::string(workloadName(w)) +
               ": another seed gives other inputs";
        expect(differs, what.c_str());
    }

    // chat_mixed decks: one long prompt per 16, the rest in range, and
    // nearly the same prompt work in every deck for every seed (each
    // short prompt is drawn inside its own 1/15 stratum of [64, 256]).
    {
        bool shape_ok = true, totals_ok = true;
        const double expected = double(kChatLongPrompt) + 15.0 * 64.0 +
                                192.0 / 15.0 * (105.0 + 7.5);
        for (uint64_t seed = 1; seed <= 5; ++seed) {
            const auto specs =
                makeRequests(Workload::ChatMixed, seed, 4 * kChatDeck);
            for (int64_t d = 0; d < 4; ++d) {
                int64_t longs = 0, total = 0;
                for (int64_t k = 0; k < kChatDeck; ++k) {
                    const RequestSpec &s = specs[size_t(d * kChatDeck + k)];
                    longs += s.promptTokens == kChatLongPrompt;
                    shape_ok = shape_ok &&
                               (s.promptTokens == kChatLongPrompt ||
                                (s.promptTokens >= 64 &&
                                 s.promptTokens <= 256)) &&
                               s.generateTokens >= 64 &&
                               s.generateTokens <= 192;
                    total += s.promptTokens;
                }
                shape_ok = shape_ok && longs == 1;
                totals_ok = totals_ok &&
                            std::fabs(double(total) - expected) <=
                                0.03 * expected;
            }
        }
        expect(shape_ok, "chat_mixed: 1 in 16 prompts is 1024 tokens, "
                         "the rest 64-256, generate 64-192");
        expect(totals_ok, "chat_mixed: every deck's prompt tokens are "
                          "within 3% of the stratified mean");
    }

    // Percentile rule: >= 10 samples strictly beyond the percentile.
    expect(samplesBeyond(100, 0.9) == 10 && tailSupported(100, 0.9),
           "p90 of 100 samples has 10 beyond");
    expect(samplesBeyond(91, 0.9) == 9 && !tailSupported(91, 0.9),
           "p90 of 91 samples has 9 beyond (not reported)");
    expect(samplesBeyond(11, 0.9) == 1, "p90 of 11 samples has 1 beyond");
    expect(tailSupported(902, 0.99) && !tailSupported(901, 0.99),
           "p99 needs 902 samples");
    expect(samplesBeyond(0, 0.5) == 0 && samplesBeyond(1, 0.5) == 0,
           "no samples beyond a percentile of 0 or 1 samples");
    {
        std::vector<double> v;
        for (int i = 1; i <= 100; ++i)
            v.push_back(double(i));
        const double p90 = percentileSeconds(v, 0.9);
        const int64_t beyond = std::count_if(
            v.begin(), v.end(), [p90](double x) { return x > p90; });
        expect(beyond == samplesBeyond(100, 0.9),
               "samplesBeyond matches a direct count");
    }

    std::printf("%s\n", failures == 0 ? "self-test passed"
                                      : "self-test FAILED");
    return failures == 0 ? 0 : 1;
}

// --- checks and replays of a finished run -------------------------

/** Outcome of the output check. */
struct CheckResult
{
    bool ok = true;
    int64_t checked = 0;
    std::vector<std::string> lines; //!< report lines
};

/**
 * Recompute a seeded sample of the phase's outputs: decoder requests
 * alone, bit for bit; one encoder sequence against Baseline per layer.
 */
CheckResult
checkOutputs(Workload w, const ExecContext &ctx, const DecoderStack &stack,
             const PhaseResult &phase, const std::vector<EncoderKeep> &keep,
             const std::vector<Tensor<Half>> &prompts, uint64_t seed,
             bool finite)
{
    CheckResult out;
    char line[256];
    Rng pick(mixSeed(seed, 3));
    if (w == Workload::EncoderSdf) {
        SOFTREC_ASSERT(!keep.empty(), "no encoder output kept");
        const EncoderKeep &k = keep[pick.uniformInt(keep.size())];
        FunctionalLayerConfig base = encoderConfig(stack);
        base.strategy = Strategy::Baseline;
        const Tensor<Half> &in = prompts[size_t(k.index) % prompts.size()];
        const double e1 = maxAbs(
            runEncoderLayer(ctx, base, stack.layers[0], in), k.layer1);
        const double e2 = maxAbs(
            runEncoderLayer(ctx, base, stack.layers[1], k.layer1), k.out);
        std::snprintf(line, sizeof(line),
                      "# check: sequence %lld SDF vs Baseline max-abs "
                      "layer1 %.3g layer2 %.3g (bound %.0e), all %s",
                      (long long)k.index, e1, e2, kSdfMaxAbs,
                      finite ? "finite" : "NOT finite");
        out.lines.push_back(line);
        out.ok = e1 <= kSdfMaxAbs && e2 <= kSdfMaxAbs;
        out.checked = 1;
    } else {
        std::vector<const RequestRecord *> pool_long, pool_short;
        for (const RequestRecord &r : phase.requests)
            if (r.outcome == Outcome::Completed &&
                int64_t(r.rows.size()) == r.spec.generateTokens * kDModel)
                (r.spec.promptTokens > kChatChunk ? pool_long
                                                   : pool_short)
                    .push_back(&r);
        std::vector<const RequestRecord *> sample;
        const size_t want_long = w == Workload::LongPrompt ? 2 : 1;
        const size_t want_short = w == Workload::LongPrompt ? 0 : 3;
        for (auto [pool_ptr, want] :
             {std::pair{&pool_long, want_long},
              std::pair{&pool_short, want_short}}) {
            for (size_t i = 0; i < want && !pool_ptr->empty(); ++i) {
                const size_t at = pick.uniformInt(pool_ptr->size());
                sample.push_back((*pool_ptr)[at]);
                pool_ptr->erase(pool_ptr->begin() + int64_t(at));
            }
        }
        out.ok = !sample.empty();
        for (const RequestRecord *r : sample) {
            const bool same = checkDecoderRequest(
                ctx, stack, *r, prompts[size_t(r->index) % prompts.size()]);
            std::snprintf(line, sizeof(line),
                          "# check: request %lld (prompt %lld, %lld "
                          "tokens) streamed rows %s the lone recompute",
                          (long long)r->index,
                          (long long)r->spec.promptTokens,
                          (long long)r->spec.generateTokens,
                          same ? "bit-identical to" : "DIFFER from");
            out.lines.push_back(line);
            out.ok = out.ok && same;
            ++out.checked;
        }
    }
    return out;
}

/**
 * Per-layer metrics of a traced run: time calls into each layer's
 * public functions at the shapes the traced phase produced, or at the
 * reference shape (marked in the report) where it has none.
 */
std::vector<Metric>
replayLayers(Workload w, const ExecContext &ctx, const DecoderStack &stack,
             const PhaseResult &untraced, const PhaseResult &traced,
             const std::vector<Tensor<Half>> &prompts, uint64_t seed,
             Tracer &tracer)
{
    std::vector<Metric> metrics;
    const Observed obs = observe(w, traced);
    ScopedSpan replay_span(tracer, "replay");
    ExecContext serial; // per-head kernels run inline in the layer
    const EncoderLayerWeights &w0 = stack.layers[0];
    Rng rng(mixSeed(seed, 4));
    auto ref = [](bool observed) { return observed ? "" : " (ref shape)"; };

    // Reference input for replays the workload has no shape for.
    RequestSpec ref_spec;
    ref_spec.promptTokens = kLongPrompt;
    ref_spec.promptSeed = mixSeed(seed, 5);
    const Tensor<Half> ref_long = w == Workload::ChatMixed
                                      ? makePrompt(ref_spec)
                                      : prompts[0];

    // model: prefill of sampled traced requests (queue wait) ...
    std::vector<double> prefill_ms, chunk_ms, wait_ms, enc_layer_ms;
    double prefill_s_per_tok = 0.0;
    {
        std::vector<const RequestRecord *> done;
        for (const RequestRecord &r : traced.requests)
            if (r.outcome == Outcome::Completed)
                done.push_back(&r);
        const size_t want = w == Workload::ChatMixed ? 8 : 3;
        double replay_s = 0.0, replay_tok = 0.0;
        for (size_t i = 0; i < want && !done.empty(); ++i) {
            const size_t at = rng.uniformInt(done.size());
            const RequestRecord &r = *done[at];
            done.erase(done.begin() + int64_t(at));
            const Tensor<Half> &prompt =
                prompts[size_t(r.index) % prompts.size()];
            double model_s = 0.0;
            if (w == Workload::EncoderSdf) {
                const FunctionalLayerConfig config = encoderConfig(stack);
                Tensor<Half> x = prompt;
                for (int64_t l = 0; l < kLayers; ++l) {
                    ScopedSpan s(tracer, "model.runEncoderLayer");
                    const double t0 = nowSeconds();
                    x = runEncoderLayer(ctx, config, stack.layers[size_t(l)], x);
                    const double dt = nowSeconds() - t0;
                    enc_layer_ms.push_back(dt * 1e3);
                    model_s += dt;
                }
            } else {
                KvSlab slab(64, kDModel);
                KvCache cache(slab, kLayers);
                ScopedSpan s(tracer, "model.runPrefill");
                if (w == Workload::LongPrompt) {
                    const double t0 = nowSeconds();
                    (void)runPrefill(ctx, stack, prompt, cache);
                    model_s = nowSeconds() - t0;
                    prefill_ms.push_back(model_s * 1e3);
                } else {
                    PrefillState state;
                    state.prepare(stack, r.spec.promptTokens);
                    DecodeStepWorkspace ws;
                    Tensor<Half> out;
                    while (!state.done()) {
                        const int64_t rows = std::min(
                            kChatChunk, state.promptTokens - state.rowsDone);
                        const double t0 = nowSeconds();
                        runPrefill(ctx, stack, prompt, rows, cache, state,
                                   ws, out);
                        const double dt = nowSeconds() - t0;
                        chunk_ms.push_back(dt * 1e3);
                        model_s += dt;
                    }
                }
            }
            wait_ms.push_back((r.firstAt - r.submitAt - model_s) * 1e3);
            replay_s += model_s;
            replay_tok += double(r.spec.promptTokens);
        }
        prefill_s_per_tok = replay_tok > 0 ? replay_s / replay_tok : 0.0;
    }
    // ... and at the reference shapes where the workload has none.
    if (prefill_ms.empty()) {
        for (int i = 0; i < 2; ++i) {
            KvSlab slab(64, kDModel);
            KvCache cache(slab, kLayers);
            ScopedSpan s(tracer, "model.runPrefill");
            const double t0 = nowSeconds();
            (void)runPrefill(ctx, stack, ref_long, cache);
            prefill_ms.push_back((nowSeconds() - t0) * 1e3);
        }
    }
    if (chunk_ms.empty()) {
        const Tensor<Half> &prompt = ref_long;
        for (int i = 0; i < 5; ++i) {
            KvSlab slab(64, kDModel);
            KvCache cache(slab, kLayers);
            PrefillState state;
            state.prepare(stack, prompt.shape().dim(0));
            DecodeStepWorkspace ws;
            Tensor<Half> out;
            ScopedSpan s(tracer, "model.runPrefill.chunk");
            const double t0 = nowSeconds();
            runPrefill(ctx, stack, prompt, kChatChunk, cache, state, ws,
                       out);
            chunk_ms.push_back((nowSeconds() - t0) * 1e3);
        }
    }
    if (enc_layer_ms.empty()) {
        const FunctionalLayerConfig config = encoderConfig(stack);
        const Tensor<Half> &in = ref_long;
        for (int i = 0; i < 3; ++i) {
            ScopedSpan s(tracer, "model.runEncoderLayer");
            const double t0 = nowSeconds();
            (void)runEncoderLayer(ctx, config, w0, in);
            enc_layer_ms.push_back((nowSeconds() - t0) * 1e3);
        }
    }

    // model: one decode step at the observed rows and context.
    const bool decodes = obs.decodeRows > 0;
    const int64_t rows_r = decodes ? obs.decodeRows : kClients;
    const int64_t ctx_c = decodes ? obs.decodeContext : kChatChunk;
    double decode_step_ms = 0.0, decode_attend_us = 0.0;
    {
        KvSlab slab(64, kDModel);
        std::vector<std::unique_ptr<KvCache>> caches;
        std::vector<KvCache *> ptrs;
        for (int64_t r = 0; r < rows_r; ++r) {
            caches.push_back(std::make_unique<KvCache>(slab, kLayers));
            fillCache(*caches.back(), ctx_c, rng);
            ptrs.push_back(caches.back().get());
        }
        Tensor<Half> inputs(Shape({rows_r, kDModel}));
        fillNormal(inputs, rng, 0.0, 0.5);
        DecodeStepWorkspace ws;
        Tensor<Half> outputs;
        runDecodeStepInto(ctx, stack, inputs, ptrs, ws, outputs);
        decode_step_ms =
            medianTime(15, [&] {
                ScopedSpan s(tracer, "model.runDecodeStepInto");
                runDecodeStepInto(ctx, stack, inputs, ptrs, ws, outputs);
            }) * 1e3;

        // kernels: one head's decode attention over that context.
        DecodeAttendDesc desc;
        desc.dHead = kDModel / kHeads;
        desc.scale = 1.0 / std::sqrt(double(desc.dHead));
        const KvRowsView k = caches[0]->kView(0);
        const KvRowsView v = caches[0]->vView(0);
        std::vector<Half> q(size_t(desc.dHead)), o(size_t(desc.dHead));
        for (Half &h : q)
            h = Half(float(rng.normal(0.0, 0.5)));
        DecodeAttendWorkspace aws;
        decodeAttendRun(serial, desc, q.data(), k, v, o.data(), &aws);
        ScopedSpan s(tracer, "kernels.decodeAttendRun x201");
        decode_attend_us =
            medianTime(201, [&] {
                decodeAttendRun(serial, desc, q.data(), k, v, o.data(),
                                &aws);
            }) * 1e6;
    }

    // core: one attention head as the layer runs it (inline).
    const bool fused = w == Workload::EncoderSdf;
    double attention_ms = 0.0;
    {
        SdaConfig sda;
        sda.heads = 1;
        sda.seqLen = kLongPrompt;
        sda.dHead = kDModel / kHeads;
        sda.causalMask = !fused;
        sda.subVector = stack.config.subVector;
        sda.attnTiling = stack.config.attnTiling;
        AttentionInputs in = makeAttentionInputs(sda);
        fillNormal(in.q, rng, 0.0, 1.0);
        fillNormal(in.k, rng, 0.0, 1.0);
        fillNormal(in.v, rng, 0.0, 1.0);
        attention_ms =
            medianTime(3, [&] {
                ScopedSpan s(tracer, "core.runAttention");
                (void)runAttention(serial, sda, in,
                                   fused ? Strategy::Fused
                                         : Strategy::Baseline);
            }) * 1e3;
    }

    // kernels: GEMMs, row softmax.
    const int64_t prefill_rows =
        w == Workload::ChatMixed && obs.chunkRows > 0 ? obs.chunkRows
                                                     : kLongPrompt;
    const double gemm_prefill =
        gemmGflops(ctx, w0, prefill_rows, 5, tracer);
    const double gemm_decode = gemmGflops(ctx, w0, rows_r, 201, tracer);
    double softmax_ns = 0.0;
    {
        SoftmaxShape shape;
        shape.rows = shape.cols = kLongPrompt;
        Tensor<Half> in(Shape({kLongPrompt, kLongPrompt}));
        fillNormal(in, rng, 0.0, 2.0);
        Tensor<Half> out(in.shape());
        softmax_ns = medianTime(5, [&] {
                         ScopedSpan s(tracer, "kernels.rowSoftmaxRun");
                         rowSoftmaxRun(serial, shape, in, out);
                     }) *
                     1e9 / double(in.numel());
    }

    // fp16: batch widening of one prefill activation tensor.
    double convert_gbs = 0.0;
    {
        Tensor<Half> src(Shape({prefill_rows, kDModel}));
        fillNormal(src, rng, 0.0, 1.0);
        std::vector<float> dst(size_t(src.numel()));
        const double t = medianTime(101, [&] {
            halfToFloat(src.data(), dst.data(), src.numel());
        });
        convert_gbs = double(src.numel()) * 6.0 / t / 1e9;
    }

    // common: an empty parallelFor dispatch on the pool.
    const double pfor_us =
        medianTime(2001, [&] {
            parallelFor(ctx, 0, kPoolThreads, 1, [](int64_t, int64_t) {});
        }) * 1e6;

    // serve: waits, batch rows, KV and the share of wall time not
    // covered by the replayed model calls.
    const double wall = traced.end - traced.start;
    double model_s = 0.0;
    double batch_rows = 1.0; // encoder: one sequence per model call
    int64_t kv_bytes = 0;
    if (w == Workload::EncoderSdf) {
        model_s = double(traced.requests.size()) * double(kLayers) *
                  median(enc_layer_ms) * 1e-3;
    } else {
        const int64_t steps =
            traced.after.decodeSteps - traced.before.decodeSteps;
        int64_t prompt_tokens = 0;
        for (const RequestRecord &r : traced.requests)
            prompt_tokens += r.spec.promptTokens;
        model_s = double(prompt_tokens) * prefill_s_per_tok +
                  double(steps) * decode_step_ms * 1e-3;
        batch_rows = steps > 0 ? double(traced.after.tokensGenerated -
                                        traced.before.tokensGenerated) /
                                     double(steps)
                               : 0.0;
        kv_bytes = traced.after.kvBytesReserved;
    }
    const double trace_overhead =
        100.0 * (untraced.promptTokS() - traced.promptTokS()) /
        untraced.promptTokS();

    metrics.push_back({"serve.queue_wait_ms_p50", median(wait_ms), "ms"});
    metrics.push_back({"serve.batch_rows_mean", batch_rows, "rows"});
    metrics.push_back({"serve.kv_blocks_peak", double(traced.kvBlocksPeak),
                       "count"});
    metrics.push_back({"serve.kv_bytes_reserved", double(kv_bytes), "B"});
    metrics.push_back({"serve.overhead_pct",
                       100.0 * (1.0 - model_s / wall), "%"});
    metrics.push_back({"model.prefill_ms", median(prefill_ms), "ms"});
    metrics.push_back({"model.prefill_chunk_ms", median(chunk_ms), "ms"});
    metrics.push_back({"model.decode_step_ms", decode_step_ms, "ms"});
    metrics.push_back({"model.encoder_layer_ms", median(enc_layer_ms), "ms"});
    metrics.push_back({"core.attention_ms", attention_ms, "ms"});
    metrics.push_back({"kernels.gemm_prefill_gflops", gemm_prefill,
                       "GFLOP/s"});
    metrics.push_back({"kernels.gemm_decode_gflops", gemm_decode,
                       "GFLOP/s"});
    metrics.push_back({"kernels.softmax_row_ns_per_elem", softmax_ns,
                       "ns"});
    metrics.push_back({"kernels.decode_attend_us", decode_attend_us, "us"});
    metrics.push_back({"fp16.convert_gbs", convert_gbs, "GB/s"});
    metrics.push_back({"common.parallel_for_us", pfor_us, "us"});
    metrics.push_back({"trace.overhead_pct", trace_overhead, "%"});

    const bool chat = w == Workload::ChatMixed;
    const bool lp = w == Workload::LongPrompt;
    const double dh = double(kDModel / kHeads);
    const double L = double(kLongPrompt);
    std::printf("# shapes: decode rows=%lld context=%lld%s, chunk rows=%lld, "
                "prefill rows=%lld\n",
                (long long)rows_r, (long long)ctx_c, ref(decodes),
                (long long)obs.chunkRows, (long long)prefill_rows);
    std::printf("# model.prefill_ms one-shot runPrefill, %lld tokens%s\n",
                (long long)kLongPrompt, ref(lp));
    std::printf("# model.prefill_chunk_ms resumable runPrefill chunk%s\n",
                ref(chat));
    std::printf("# model.encoder_layer_ms runEncoderLayer Fused, L=%lld%s\n",
                (long long)kEncoderLen, ref(fused));
    std::printf("# core.attention_ms one head %s L=%lld d_head=%.0f, "
                "serial; computed %.3g GFLOP%s\n",
                fused ? "Fused non-causal" : "Baseline causal",
                (long long)kLongPrompt, dh, 4.0 * L * L * dh / 1e9,
                ref(lp || fused));
    std::printf("# kernels.gemm_prefill_gflops projectRowsInto "
                "[%lld,%lld]x[%lld,%lld]; computed %.3g GFLOP, %.3g MB\n",
                (long long)prefill_rows, (long long)kDModel,
                (long long)kDModel, (long long)kDFf,
                2.0 * double(prefill_rows * kDModel * kDFf) / 1e9,
                2.0 * double(prefill_rows * kDModel + kDModel * kDFf +
                             prefill_rows * kDFf) / 1e6);
    std::printf("# kernels.gemm_decode_gflops projectRowsInto "
                "[%lld,%lld]x[%lld,%lld]; computed %.3g MFLOP, %.3g MB%s\n",
                (long long)rows_r, (long long)kDModel, (long long)kDModel,
                (long long)kDFf,
                2.0 * double(rows_r * kDModel * kDFf) / 1e6,
                2.0 * double(rows_r * kDModel + kDModel * kDFf +
                             rows_r * kDFf) / 1e6,
                ref(decodes));
    std::printf("# kernels.softmax_row_ns_per_elem rowSoftmaxRun "
                "[%lld,%lld], serial; computed %.3g MB moved%s\n",
                (long long)kLongPrompt, (long long)kLongPrompt,
                4.0 * L * L / 1e6, ref(lp));
    std::printf("# kernels.decode_attend_us decodeAttendRun one head, "
                "context %lld, serial; computed %.3g MFLOP, %.3g KB%s\n",
                (long long)ctx_c, 4.0 * double(ctx_c) * dh / 1e6,
                2.0 * 2.0 * double(ctx_c) * dh / 1e3, ref(decodes));
    std::printf("# fp16.convert_gbs halfToFloat of %lld elements, 6 B "
                "each (computed)\n",
                (long long)(prefill_rows * kDModel));
    std::printf("# serve.overhead_pct wall %.3f s, replayed model time "
                "%.3f s (estimated from replays)\n",
                wall, model_s);
    std::printf("# trace.overhead_pct untraced %.2f tok/s, traced %.2f "
                "tok/s; %zu spans\n",
                untraced.promptTokS(), traced.promptTokS(), tracer.size());
    return metrics;
}

// --- the run --------------------------------------------------------

int
run(const Options &opt)
{
    const Workload w = opt.workload;
    Tracer tracer(opt.trace);
    ThreadPool pool(kPoolThreads);
    ExecContext ctx;
    ctx.pool = &pool;

    // Inputs first: generating them is the benchmark's work, not the
    // system's set-up.
    const int64_t deck = deckSize(w);
    const std::vector<RequestSpec> specs = makeRequests(w, opt.seed, deck);
    std::vector<Tensor<Half>> prompts;
    prompts.reserve(size_t(deck));
    for (const RequestSpec &spec : specs)
        prompts.push_back(makePrompt(spec));
    RequestSpec warm_spec;
    warm_spec.promptTokens =
        w == Workload::ChatMixed ? kChatLongPrompt : kLongPrompt;
    warm_spec.generateTokens = w == Workload::EncoderSdf ? 0 : kLongGenerate;
    warm_spec.promptSeed = mixSeed(opt.seed, 2);
    const Tensor<Half> warm_prompt = makePrompt(warm_spec);

    // Set-up, several times; the last one is kept. Each includes the
    // stack weights, the engine, and one warm-up request.
    std::unique_ptr<DecoderStack> stack;
    std::unique_ptr<ServeEngine> engine;
    std::vector<double> setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        engine.reset();
        stack.reset();
        const double t0 = nowSeconds();
        stack = makeStack();
        if (w == Workload::EncoderSdf) {
            const Tensor<Half> out = encode(ctx, *stack, warm_prompt);
            SOFTREC_ASSERT(allFinite(out), "warm-up encode not finite");
        } else {
            engine = std::make_unique<ServeEngine>(ctx, *stack, serveConfig(w));
            engine->start();
            ServeRequest request;
            request.prompt = warm_prompt;
            request.generateTokens = warm_spec.generateTokens;
            SubmitResult submit = engine->submit(std::move(request));
            if (!submit.decision.accepted) {
                std::fprintf(stderr, "warm-up request rejected: %s\n",
                             submit.decision.reason.c_str());
                return 1;
            }
            Tensor<Half> row;
            while (submit.session.stream().next(row)) {
            }
            engine->waitIdle();
        }
        setup.push_back(nowSeconds() - t0);
        tracer.span("setup", t0, t0 + setup.back());
    }

    int64_t next_index = 0;
    std::vector<EncoderKeep> keep;
    bool finite = true;
    auto phase_run = [&](double seconds, Tracer &t,
                         std::vector<EncoderKeep> *k) {
        if (w == Workload::EncoderSdf)
            return runEncoderLoop(ctx, *stack, specs, prompts, &next_index,
                                  seconds, t, k, &finite);
        return runClosedLoop(*engine, specs, prompts,
                             w == Workload::ChatMixed ? kChatDeck : kClients,
                             &next_index, seconds, t);
    };

    // --trace 0: one untraced run. --trace 1: an untraced half, then a
    // traced half; the throughput difference is the tracing overhead.
    Tracer off(false);
    PhaseResult untraced, traced;
    if (!opt.trace) {
        untraced = phase_run(opt.seconds, off, &keep);
    } else {
        untraced = phase_run(opt.seconds / 2.0, off, nullptr);
        traced = phase_run(opt.seconds / 2.0, tracer, &keep);
    }
    const double rss_mb = peakRssMb();
    const PhaseResult &main_phase = opt.trace ? traced : untraced;
    if (engine != nullptr)
        engine->shutdown(); // frees the pool for the checks and replays

    // Accounting over every timed request.
    int64_t sent = 0, completed = 0, rejected = 0, cancelled = 0;
    for (const PhaseResult *p : {&untraced, &traced}) {
        sent += int64_t(p->requests.size());
        completed += p->count(Outcome::Completed);
        rejected += p->count(Outcome::Rejected);
        cancelled += p->count(Outcome::Cancelled);
    }

    // Output check on a seeded sample.
    CheckResult check;
    {
        ScopedSpan check_span(tracer, "check");
        check = checkOutputs(w, ctx, *stack, main_phase, keep, prompts,
                             opt.seed, finite);
    }
    bool correct = finite && check.ok;

    std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n",
                workloadName(w), (unsigned long long)opt.seed, opt.seconds,
                int(opt.trace));
    std::printf("# provenance: git=%s dirty=%d build=%s compiler=\"%s\" "
                "cpu=\"%s\" nproc=%u pool_threads=%d client_threads=%d "
                "simd=%s seed=%llu\n",
                opt.git.c_str(), int(opt.dirty), PERFBENCH_BUILD_TYPE,
                PERFBENCH_COMPILER, cpuModel().c_str(),
                std::thread::hardware_concurrency(), kPoolThreads,
                w == Workload::EncoderSdf ? 0 : 1,
                simdBackendName(simdBackend()),
                (unsigned long long)opt.seed);
    std::printf("# model: d_model=%lld heads=%lld d_ff=%lld layers=%lld "
                "d_head=%lld\n",
                (long long)kDModel, (long long)kHeads, (long long)kDFf,
                (long long)kLayers, (long long)(kDModel / kHeads));
    std::printf("# requests: sent=%lld completed=%lld rejected=%lld "
                "cancelled=%lld checked=%lld\n",
                (long long)sent, (long long)completed, (long long)rejected,
                (long long)cancelled, (long long)check.checked);
    for (const std::string &l : check.lines)
        std::printf("%s\n", l.c_str());

    std::vector<Metric> metrics;
    const int64_t failed = rejected + cancelled;
    if (!opt.trace) {
        const std::vector<double> ttft = untraced.ttft();
        const double ttft_p50 = percentileSeconds(ttft, 0.5);
        metrics.push_back({"ttft_p50_ms", ttft_p50 * 1e3, "ms"});
        metrics.push_back({"prompt_tok_s", untraced.promptTokS(), "tok/s"});
        metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
        metrics.push_back({"setup_s", median(setup), "s"});
        correct = correct && std::isfinite(ttft_p50);

        std::printf("# %-28s %.4f s (median of %d set-ups)\n", "setup_s",
                    median(setup), kSetupReps);
        printPercentile("ttft_p50_ms", ttft, 0.5, 1e3, "ms");
        std::printf("# %-28s %.2f tok/s (%lld completed in %.2f s)\n",
                    "prompt_tok_s", untraced.promptTokS(),
                    (long long)completed, untraced.end - untraced.start);
        std::printf("# %-28s %.1f MB\n", "peak_rss_mb", rss_mb);
        if (w != Workload::EncoderSdf) {
            // Decoder-only figures: printed, not part of the JSON (every
            // workload must report every JSON metric, and the encoder
            // generates no tokens).
            printPercentile("ttft_p90_ms", ttft, 0.9, 1e3, "ms");
            printPercentile("itl_p50_ms", untraced.itl, 0.5, 1e3, "ms");
            printPercentile("itl_p99_ms", untraced.itl, 0.99, 1e3, "ms");
            int64_t gen = 0;
            for (const RequestRecord &r : untraced.requests)
                if (r.outcome == Outcome::Completed)
                    gen += r.spec.generateTokens;
            std::printf("# %-28s %.2f tok/s\n", "gen_tok_s",
                        double(gen) / (untraced.end - untraced.start));
            std::printf("# %-28s %.1f us (mean client poll period)\n",
                        "itl_resolution_us",
                        untraced.polls ? untraced.pollSeconds /
                                             double(untraced.polls) * 1e6
                                       : 0.0);
        }
    } else {
        metrics = replayLayers(w, ctx, *stack, untraced, traced, prompts,
                               opt.seed, tracer);
    }

    if (opt.trace) {
        for (const Metric &m : metrics)
            std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        const std::string path = opt.traceDir + "/" + workloadName(w) +
                                 "-seed" + std::to_string(opt.seed) +
                                 ".trace.json";
        if (!tracer.write(path)) {
            std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
            return 1;
        }
        std::printf("# trace: %s (Chrome trace-event JSON; open in "
                    "Perfetto)\n",
                    path.c_str());
    }

    for (const Metric &m : metrics)
        correct = correct && std::isfinite(m.value);
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << sent << ", \"failed\": " << failed
         << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json << (i ? ", " : "") << '"' << jsonEscape(metrics[i].name)
             << "\": {\"value\": "
             << (std::isfinite(metrics[i].value) ? metrics[i].value : 0.0)
             << ", \"unit\": \"" << jsonEscape(metrics[i].unit) << "\"}";
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace softrec

int
main(int argc, char **argv)
{
    const softrec::Options opt = softrec::parseOptions(argc, argv);
    if (opt.selfTest)
        return softrec::selfTest();
    return softrec::run(opt);
}
