/**
 * @file
 * Tests of the continuous-batching serving engine: queue backpressure
 * (reject-with-reason, FIFO, thread safety), scheduler determinism
 * and token-budget enforcement, strict serve configuration, and the
 * batched-equals-serial bit-identity of a full submit-then-drain
 * trace through ServeEngine. (KvSlab/KvCache have their own suite in
 * test_kv_cache.cpp.)
 *
 * The drain traces run once per ServeMatrix case (KV dtype x prefill
 * chunk): the bit-identity claims hold in every
 * case because a request's KV content never depends on batch
 * composition.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/kv_cache.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_engine.hpp"
#include "test_matrix.hpp"

namespace softrec {
namespace {

constexpr int64_t kDm = 32;

Tensor<Half>
randomPrompt(Rng &rng, int64_t tokens, int64_t d_model = kDm)
{
    Tensor<Half> prompt(Shape({tokens, d_model}));
    for (int64_t i = 0; i < prompt.numel(); ++i)
        prompt.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return prompt;
}

ServeRequest
makeRequest(Rng &rng, int64_t id, int64_t prompt_tokens,
            int64_t generate_tokens)
{
    ServeRequest request;
    request.id = id;
    request.prompt = randomPrompt(rng, prompt_tokens);
    request.generateTokens = generate_tokens;
    return request;
}

/** RAII environment-variable override with restore. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *prev = std::getenv(name);
        had_ = prev != nullptr;
        if (had_)
            saved_ = prev;
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, saved_.c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    bool had_ = false;
    std::string saved_;
};

// --- RequestQueue -----------------------------------------------------

TEST(RequestQueue, RejectsWhenFullWithReason)
{
    Rng rng(1);
    RequestQueue queue(2);
    EXPECT_TRUE(queue.push(makeRequest(rng, 0, 3, 2)).accepted);
    EXPECT_TRUE(queue.push(makeRequest(rng, 1, 3, 2)).accepted);
    const AdmissionDecision full = queue.push(makeRequest(rng, 2, 3, 2));
    EXPECT_FALSE(full.accepted);
    EXPECT_NE(full.reason.find("queue full"), std::string::npos);
    EXPECT_NE(full.reason.find("capacity 2"), std::string::npos);
    EXPECT_EQ(queue.accepted(), 2);
    EXPECT_EQ(queue.rejected(), 1);
}

TEST(RequestQueue, RejectsInvalidRequestsWithReason)
{
    Rng rng(2);
    RequestQueue queue(4);

    ServeRequest empty_prompt = makeRequest(rng, 0, 3, 2);
    empty_prompt.prompt = Tensor<Half>();
    const AdmissionDecision bad_prompt = queue.push(std::move(empty_prompt));
    EXPECT_FALSE(bad_prompt.accepted);
    EXPECT_NE(bad_prompt.reason.find("prompt"), std::string::npos);

    ServeRequest no_tokens = makeRequest(rng, 1, 3, 2);
    no_tokens.generateTokens = 0;
    const AdmissionDecision bad_tokens = queue.push(std::move(no_tokens));
    EXPECT_FALSE(bad_tokens.accepted);
    EXPECT_NE(bad_tokens.reason.find("generateTokens"),
              std::string::npos);
    EXPECT_EQ(queue.size(), 0);
}

TEST(RequestQueue, PopsInFifoOrder)
{
    Rng rng(3);
    RequestQueue queue(8);
    for (int64_t id = 0; id < 5; ++id)
        ASSERT_TRUE(queue.push(makeRequest(rng, id, 2, 1)).accepted);
    for (int64_t id = 0; id < 5; ++id) {
        const auto popped = queue.pop();
        ASSERT_TRUE(popped.has_value());
        EXPECT_EQ(popped->id, id);
    }
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(RequestQueue, ConcurrentProducersNeverBlockOrDrop)
{
    // 4 producers x 16 requests into a 32-deep queue: every push must
    // return (accepted or rejected-with-reason), and accepted count
    // must equal what pop() can drain. Run under tsan in CI.
    RequestQueue queue(32);
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&queue, p] {
            Rng rng(100 + p);
            for (int i = 0; i < 16; ++i) {
                const AdmissionDecision result =
                    queue.push(makeRequest(rng, p * 16 + i, 2, 1));
                if (!result.accepted) {
                    EXPECT_FALSE(result.reason.empty());
                }
            }
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    int64_t drained = 0;
    while (queue.pop().has_value())
        ++drained;
    EXPECT_EQ(drained, queue.accepted());
    EXPECT_EQ(queue.accepted() + queue.rejected(), 64);
}

// --- BatchScheduler ---------------------------------------------------

TEST(BatchScheduler, AdmitsFifoIntoLowestSlots)
{
    Rng rng(4);
    RequestQueue queue(8);
    for (int64_t id = 0; id < 3; ++id)
        ASSERT_TRUE(queue.push(makeRequest(rng, id, 4, 2)).accepted);

    BatchScheduler scheduler(SchedulerConfig{4, 1024});
    std::vector<int64_t> admitted;
    scheduler.admitFrom(queue, &admitted);
    ASSERT_EQ(admitted.size(), 3u);
    for (int64_t s = 0; s < 3; ++s) {
        EXPECT_EQ(admitted[size_t(s)], s);
        EXPECT_EQ(scheduler.slot(s).request.id, s);
        // Admission reserves the footprint but charges nothing: KV
        // lands with prefill progress, not at admission.
        EXPECT_EQ(scheduler.slot(s).context, 0);
        EXPECT_EQ(scheduler.slot(s).promptTokens, 4);
        EXPECT_TRUE(scheduler.slot(s).prefilling());
        EXPECT_EQ(scheduler.slot(s).remaining, 2);
    }
    EXPECT_EQ(scheduler.activeTokens(), 0);
    EXPECT_EQ(scheduler.reservedTokens(), 18);
    for (int64_t s = 0; s < 3; ++s)
        scheduler.notePrefillProgress(s, 4);
    for (int64_t s = 0; s < 3; ++s) {
        EXPECT_EQ(scheduler.slot(s).context, 4);
        EXPECT_FALSE(scheduler.slot(s).prefilling());
    }
    EXPECT_EQ(scheduler.activeTokens(), 12);
}

TEST(BatchScheduler, HonorsTokenBudgetAndParksTheHead)
{
    Rng rng(5);
    RequestQueue queue(8);
    // Finishing footprints: 6+2=8, 6+2=8, 6+2=8; budget 20 admits two.
    for (int64_t id = 0; id < 3; ++id)
        ASSERT_TRUE(queue.push(makeRequest(rng, id, 6, 2)).accepted);

    BatchScheduler scheduler(SchedulerConfig{4, 20});
    std::vector<int64_t> admitted;
    std::vector<int64_t> evicted;
    scheduler.admitFrom(queue, &admitted);
    EXPECT_EQ(admitted.size(), 2u);
    EXPECT_FALSE(scheduler.idle()); // head parked, two active
    EXPECT_EQ(scheduler.reservedTokens(), 16);
    for (int64_t slot : admitted)
        scheduler.notePrefillProgress(slot, 6);

    // No room while both run; the parked head must not be lost.
    scheduler.admitFrom(queue, &admitted);
    EXPECT_TRUE(admitted.empty());

    // Both active requests finish after two steps; the parked head
    // is admitted on the next boundary, preserving FIFO order.
    scheduler.completeStep(&evicted);
    scheduler.completeStep(&evicted);
    EXPECT_EQ(evicted.size(), 2u);
    scheduler.admitFrom(queue, &admitted);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(scheduler.slot(admitted[0]).request.id, 2);
}

TEST(BatchScheduler, ContinuousAdmissionAfterEviction)
{
    Rng rng(6);
    RequestQueue queue(8);
    ASSERT_TRUE(queue.push(makeRequest(rng, 0, 2, 1)).accepted);
    ASSERT_TRUE(queue.push(makeRequest(rng, 1, 2, 3)).accepted);
    ASSERT_TRUE(queue.push(makeRequest(rng, 2, 2, 1)).accepted);

    BatchScheduler scheduler(SchedulerConfig{2, 1024});
    std::vector<int64_t> admitted;
    std::vector<int64_t> evicted;
    scheduler.admitFrom(queue, &admitted);
    EXPECT_EQ(admitted.size(), 2u);
    for (int64_t slot : admitted)
        scheduler.notePrefillProgress(slot, 2);
    // Step 1 finishes request 0; its slot frees for request 2 while
    // request 1 keeps running — continuous batching, no drain barrier.
    scheduler.completeStep(&evicted);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0);
    scheduler.admitFrom(queue, &admitted);
    ASSERT_EQ(admitted.size(), 1u);
    EXPECT_EQ(admitted[0], 0); // lowest free slot reused
    EXPECT_EQ(scheduler.slot(0).request.id, 2);
    EXPECT_EQ(scheduler.slot(1).request.id, 1);
}

TEST(BatchScheduler, DeterministicUnderAFixedArrivalTrace)
{
    // The same arrival trace must produce the same step-by-step batch
    // composition: replay and compare (slot, id) admission logs.
    auto replay = [] {
        Rng rng(7);
        RequestQueue queue(16);
        BatchScheduler scheduler(SchedulerConfig{3, 64});
        std::vector<std::pair<int64_t, int64_t>> admissions;
        std::vector<int64_t> admitted;
        std::vector<int64_t> active;
        std::vector<int64_t> evicted;
        int64_t next_id = 0;
        for (int64_t step = 0; step < 24; ++step) {
            if (step % 2 == 0 && next_id < 10) {
                const int64_t tokens = 3 + next_id % 4;
                EXPECT_TRUE(
                    queue.push(makeRequest(rng, next_id, tokens,
                                           1 + next_id % 3))
                        .accepted);
                ++next_id;
            }
            scheduler.admitFrom(queue, &admitted);
            for (int64_t slot : admitted) {
                admissions.emplace_back(
                    slot, scheduler.slot(slot).request.id);
                scheduler.notePrefillProgress(
                    slot, scheduler.slot(slot).promptTokens);
            }
            scheduler.activeSlots(&active);
            if (!active.empty())
                scheduler.completeStep(&evicted);
        }
        return admissions;
    };
    const auto first = replay();
    const auto second = replay();
    EXPECT_EQ(first, second);
    EXPECT_EQ(first.size(), 10u); // every request admitted once
}

TEST(BatchScheduler, PrefillProgressChargesKvAsChunksLand)
{
    Rng rng(8);
    RequestQueue queue(8);
    ASSERT_TRUE(queue.push(makeRequest(rng, 0, 32, 4)).accepted);
    BatchScheduler scheduler(SchedulerConfig{2, 1024});
    std::vector<int64_t> admitted;
    std::vector<int64_t> active;
    std::vector<int64_t> evicted;
    scheduler.admitFrom(queue, &admitted);
    ASSERT_EQ(admitted.size(), 1u);
    const int64_t s = admitted[0];
    // The full finishing footprint is reserved at admission; the
    // current KV charge follows the chunks as they land.
    EXPECT_EQ(scheduler.reservedTokens(), 36);
    EXPECT_EQ(scheduler.activeTokens(), 0);
    EXPECT_TRUE(scheduler.slot(s).prefilling());
    EXPECT_EQ(scheduler.prefillingRows(), 1);
    scheduler.activeSlots(&active);
    EXPECT_TRUE(active.empty()); // not decode-eligible yet
    // A decode boundary must not advance a slot that took no step.
    scheduler.completeStep(&evicted);
    EXPECT_TRUE(evicted.empty());
    EXPECT_EQ(scheduler.slot(s).remaining, 4);
    EXPECT_EQ(scheduler.slot(s).context, 0);
    scheduler.notePrefillProgress(s, 8);
    EXPECT_EQ(scheduler.activeTokens(), 8);
    EXPECT_EQ(scheduler.reservedTokens(), 36); // unchanged
    scheduler.notePrefillProgress(s, 24);
    EXPECT_FALSE(scheduler.slot(s).prefilling());
    EXPECT_EQ(scheduler.prefillingRows(), 0);
    scheduler.activeSlots(&active);
    ASSERT_EQ(active.size(), 1u);
    EXPECT_EQ(active[0], s);
}

TEST(BatchScheduler, MidDecodeArrivalNeverStallsActiveSlots)
{
    // A long prompt arriving mid-decode streams in chunk by chunk;
    // the already-active slot must stay decode-eligible and advance
    // by exactly one token at every step boundary — delayed by at
    // most the single chunk that runs before each step, never parked
    // behind the whole prompt.
    Rng rng(9);
    RequestQueue queue(8);
    ASSERT_TRUE(queue.push(makeRequest(rng, 0, 2, 8)).accepted);
    BatchScheduler scheduler(SchedulerConfig{2, 4096});
    std::vector<int64_t> admitted;
    std::vector<int64_t> active;
    std::vector<int64_t> evicted;
    scheduler.admitFrom(queue, &admitted);
    ASSERT_EQ(admitted.size(), 1u);
    const int64_t a = admitted[0];
    scheduler.notePrefillProgress(a, 2);
    scheduler.completeStep(&evicted);
    scheduler.completeStep(&evicted); // A is two tokens into decode
    // A 32-token prompt arrives; chunk size 8 -> four boundaries.
    ASSERT_TRUE(queue.push(makeRequest(rng, 1, 32, 2)).accepted);
    scheduler.admitFrom(queue, &admitted);
    ASSERT_EQ(admitted.size(), 1u);
    const int64_t b = admitted[0];
    for (int64_t chunk = 0; chunk < 4; ++chunk) {
        scheduler.notePrefillProgress(b, 8);
        scheduler.activeSlots(&active);
        ASSERT_TRUE(std::find(active.begin(), active.end(), a) !=
                    active.end());
        if (chunk < 3) {
            EXPECT_TRUE(std::find(active.begin(), active.end(), b) ==
                        active.end());
        }
        const int64_t before = scheduler.slot(a).remaining;
        scheduler.completeStep(&evicted);
        EXPECT_EQ(scheduler.slot(a).remaining, before - 1);
    }
    // B joins the batch exactly at the boundary after its last chunk.
    scheduler.activeSlots(&active);
    EXPECT_TRUE(std::find(active.begin(), active.end(), b) !=
                active.end());
}

// --- ServeConfig ------------------------------------------------------

TEST(ServeConfig, EnvOverridesApply)
{
    ScopedEnv rows("SOFTREC_SERVE_BATCH_ROWS", "8");
    ScopedEnv budget("SOFTREC_SERVE_TOKEN_BUDGET", "512");
    ScopedEnv cap("SOFTREC_SERVE_QUEUE_CAP", "5");
    ScopedEnv threads("SOFTREC_THREADS", nullptr);
    const ServeConfig config = ServeConfig::fromEnv();
    EXPECT_EQ(config.maxBatchRows, 8);
    EXPECT_EQ(config.tokenBudget, 512);
    EXPECT_EQ(config.queueCapacity, 5);
}

TEST(ServeConfig, MalformedValuesAreHardErrorsNotFallbacks)
{
    ScopedEnv threads("SOFTREC_THREADS", nullptr);
    {
        ScopedEnv rows("SOFTREC_SERVE_BATCH_ROWS", "lots");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
    {
        ScopedEnv budget("SOFTREC_SERVE_TOKEN_BUDGET", "0");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
    {
        ScopedEnv cap("SOFTREC_SERVE_QUEUE_CAP", "-3");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
}

TEST(ServeConfig, InvalidThreadsIsAStartupErrorNotSerialFallback)
{
    ScopedEnv threads("SOFTREC_THREADS", "sixteen");
    EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
}

TEST(ServeConfig, ModeAndTenantKnobsApply)
{
    ScopedEnv threads("SOFTREC_THREADS", nullptr);
    ScopedEnv soft("SOFTREC_SERVE_MODE_SOFT_PCT", "40");
    ScopedEnv hard("SOFTREC_SERVE_MODE_HARD_PCT", "80");
    ScopedEnv hyst("SOFTREC_SERVE_MODE_HYSTERESIS_PCT", "15");
    ScopedEnv tenant("SOFTREC_SERVE_TENANT_BUDGET", "4096");
    ScopedEnv prompt("SOFTREC_SERVE_SOFT_PROMPT_CAP", "128");
    ScopedEnv stream("SOFTREC_SERVE_STREAM_CAP", "7");
    const ServeConfig config = ServeConfig::fromEnv();
    EXPECT_EQ(config.admission.softEnterPct, 40);
    EXPECT_EQ(config.admission.hardEnterPct, 80);
    EXPECT_EQ(config.admission.hysteresisPct, 15);
    EXPECT_EQ(config.admission.tenantTokenBudget, 4096);
    EXPECT_EQ(config.admission.softPromptCapTokens, 128);
    EXPECT_EQ(config.streamCapacity, 7);
}

TEST(ServeConfig, BadModeKnobsAreHardErrorsNotFallbacks)
{
    ScopedEnv threads("SOFTREC_THREADS", nullptr);
    {
        // Percentages must stay in [1, 100].
        ScopedEnv soft("SOFTREC_SERVE_MODE_SOFT_PCT", "150");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
    {
        ScopedEnv hyst("SOFTREC_SERVE_MODE_HYSTERESIS_PCT", "0");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
    {
        ScopedEnv tenant("SOFTREC_SERVE_TENANT_BUDGET", "many");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
    {
        // Crossed thresholds would make soft mode unreachable.
        ScopedEnv soft("SOFTREC_SERVE_MODE_SOFT_PCT", "90");
        ScopedEnv hard("SOFTREC_SERVE_MODE_HARD_PCT", "50");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
}

TEST(ServeConfig, KvDtypeKnobParsesStrictly)
{
    ScopedEnv threads("SOFTREC_THREADS", nullptr);
    {
        ScopedEnv dtype("SOFTREC_SERVE_KV_DTYPE", nullptr);
        EXPECT_EQ(ServeConfig::fromEnv().kvDtype, KvDtype::F16);
    }
    {
        ScopedEnv dtype("SOFTREC_SERVE_KV_DTYPE", "f16");
        EXPECT_EQ(ServeConfig::fromEnv().kvDtype, KvDtype::F16);
    }
    {
        ScopedEnv dtype("SOFTREC_SERVE_KV_DTYPE", "int8");
        EXPECT_EQ(ServeConfig::fromEnv().kvDtype, KvDtype::I8);
    }
    {
        // No silent fallback for typos in a capacity-doubling knob.
        ScopedEnv dtype("SOFTREC_SERVE_KV_DTYPE", "fp4");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
}

TEST(ServeConfig, PrefillChunkKnobParsesStrictly)
{
    ScopedEnv threads("SOFTREC_THREADS", nullptr);
    {
        ScopedEnv chunk("SOFTREC_SERVE_PREFILL_CHUNK", nullptr);
        EXPECT_EQ(ServeConfig::fromEnv().prefillChunkTokens, 0);
    }
    {
        ScopedEnv chunk("SOFTREC_SERVE_PREFILL_CHUNK", "7");
        EXPECT_EQ(ServeConfig::fromEnv().prefillChunkTokens, 7);
    }
    {
        // Garbage must stop the server, not silently run unchunked.
        ScopedEnv chunk("SOFTREC_SERVE_PREFILL_CHUNK", "weasel");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
    {
        // An explicit 0 is also rejected: only *unset* selects the
        // unchunked path, so a deployment can't half-spell the knob.
        ScopedEnv chunk("SOFTREC_SERVE_PREFILL_CHUNK", "0");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
    {
        ScopedEnv chunk("SOFTREC_SERVE_PREFILL_CHUNK", "-4");
        EXPECT_THROW(ServeConfig::fromEnv(), std::runtime_error);
    }
}

TEST(ServeConfig, ValidateRejectsUnusableLimits)
{
    // samplePressure divides by tokenBudget and queueCapacity every
    // step boundary: a zeroed config must be a startup error (panic
    // from validate), never a divide-by-zero later.
    ServeConfig config;
    config.validate(); // defaults are usable
    {
        ServeConfig bad = config;
        bad.tokenBudget = 0;
        EXPECT_THROW(bad.validate(), std::logic_error);
    }
    {
        ServeConfig bad = config;
        bad.queueCapacity = 0;
        EXPECT_THROW(bad.validate(), std::logic_error);
    }
    {
        ServeConfig bad = config;
        bad.maxBatchRows = 0;
        EXPECT_THROW(bad.validate(), std::logic_error);
    }
    {
        ServeConfig bad = config;
        bad.kvBlockTokens = 0;
        EXPECT_THROW(bad.validate(), std::logic_error);
    }
    {
        ServeConfig bad = config;
        bad.streamCapacity = 0;
        EXPECT_THROW(bad.validate(), std::logic_error);
    }
    {
        ServeConfig bad = config;
        bad.prefillChunkTokens = -1;
        EXPECT_THROW(bad.validate(), std::logic_error);
    }
}

// --- ServeEngine drain traces -----------------------------------------

DecoderStack
testStack(uint64_t seed = 19)
{
    Rng rng(seed);
    return DecoderStack::random(kDm, /*num_heads=*/2, /*d_ff=*/48,
                                /*num_layers=*/2, rng);
}

/** One drained request: submit order, latency clock, last token. */
struct DrainedRequest
{
    int64_t id = 0; //!< trace position, not the engine-assigned id
    double arrivalSeconds = 0.0;
    double finishSeconds = 0.0;
    Tensor<Half> finalRow;
    double latencySeconds() const
    {
        return finishSeconds - arrivalSeconds;
    }
};

/** Aggregate results of one submit-then-drain trace. */
struct DrainSummary
{
    int64_t requestsServed = 0;
    int64_t tokensGenerated = 0;
    int64_t decodeSteps = 0;
    double tokensPerSecond = 0.0;
    double p50LatencySeconds = 0.0;
    double p95LatencySeconds = 0.0;
    std::vector<DrainedRequest> requests;
};

/**
 * Drain every pending session with a round-robin non-blocking sweep.
 * A blocking per-stream drain would deadlock on rings shallower than
 * generateTokens (engine blocked pushing stream k while we wait on
 * stream j), so each sweep takes whatever every stream has buffered.
 */
struct PendingSession
{
    ServeSession session;
    DrainedRequest record;
    bool done = false;
};

void
drainRoundRobin(std::vector<PendingSession> &pending)
{
    size_t remaining = pending.size();
    Tensor<Half> row;
    while (remaining > 0) {
        bool progressed = false;
        for (PendingSession &p : pending) {
            if (p.done)
                continue;
            TokenStream &stream = p.session.stream();
            TokenStream::TryNext outcome = stream.tryNext(row);
            while (outcome == TokenStream::TryNext::Token) {
                p.record.finalRow = row;
                progressed = true;
                outcome = stream.tryNext(row);
            }
            if (outcome == TokenStream::TryNext::End) {
                EXPECT_EQ(stream.status(), StreamStatus::Finished);
                p.record.finishSeconds = stream.finishSeconds();
                p.done = true;
                --remaining;
                progressed = true;
            }
        }
        // Tokens arrive at decode-step cadence; sleep, don't spin.
        if (!progressed)
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
    }
}

/**
 * Submit the same 5-request trace and drain it through the engine,
 * `batch_rows` wide, on `config`'s KV dtype and prefill chunk.
 */
DrainSummary
drainTrace(const DecoderStack &stack, ServeConfig config,
           int64_t batch_rows)
{
    config.maxBatchRows = batch_rows;
    config.tokenBudget = 1024;
    config.kvBlockTokens = 4;
    ServeEngine engine(ExecContext(), stack, config);
    Rng rng(21); // identical prompts in every run
    std::vector<PendingSession> pending;
    for (int64_t id = 0; id < 5; ++id) {
        PendingSession p;
        p.record.id = id;
        p.record.arrivalSeconds = engine.nowSeconds();
        SubmitResult result = engine.submit(
            makeRequest(rng, id, 3 + id % 3, 2 + id % 2));
        EXPECT_TRUE(result.decision.accepted) << result.decision.reason;
        p.session = std::move(result.session);
        pending.push_back(std::move(p));
    }

    const double start = engine.nowSeconds();
    engine.start();
    drainRoundRobin(pending);
    engine.waitIdle(); // let the step counters settle

    DrainSummary summary;
    const ServeStats stats = engine.stats();
    summary.requestsServed = stats.requestsServed;
    summary.tokensGenerated = stats.tokensGenerated;
    summary.decodeSteps = stats.decodeSteps;
    const double seconds = engine.nowSeconds() - start;
    summary.tokensPerSecond =
        seconds > 0.0 ? double(summary.tokensGenerated) / seconds : 0.0;
    std::vector<double> latencies;
    latencies.reserve(pending.size());
    for (PendingSession &p : pending) {
        latencies.push_back(p.record.latencySeconds());
        summary.requests.push_back(std::move(p.record));
    }
    summary.p50LatencySeconds = percentileSeconds(latencies, 0.50);
    summary.p95LatencySeconds = percentileSeconds(latencies, 0.95);
    return summary;
}

using ServeEngineDrain = ServeMatrix;

TEST_P(ServeEngineDrain, DrainsEveryRequestAndReportsThroughput)
{
    const DecoderStack stack = testStack();
    const DrainSummary summary =
        drainTrace(stack, onCase(ServeConfig()), 4);
    EXPECT_EQ(summary.requestsServed, 5);
    // Σ generateTokens for ids 0..4: 2+3+2+3+2.
    EXPECT_EQ(summary.tokensGenerated, 12);
    EXPECT_GT(summary.decodeSteps, 0);
    EXPECT_GT(summary.tokensPerSecond, 0.0);
    EXPECT_GE(summary.p95LatencySeconds, summary.p50LatencySeconds);
    ASSERT_EQ(summary.requests.size(), 5u);
    for (const DrainedRequest &stats : summary.requests) {
        EXPECT_GE(stats.latencySeconds(), 0.0);
        EXPECT_EQ(stats.finalRow.shape(), Shape({1, kDm}));
    }
}

TEST_P(ServeEngineDrain, BatchedServingIsBitIdenticalToSerial)
{
    // The same trace served one-at-a-time and continuously batched
    // must generate identical final rows: batching is a scheduling
    // decision, never a numerics decision.
    const DecoderStack stack = testStack();
    auto rows_by_id = [](const DrainSummary &summary) {
        std::map<int64_t, std::vector<uint16_t>> rows;
        for (const DrainedRequest &stats : summary.requests) {
            std::vector<uint16_t> bits;
            for (int64_t j = 0; j < kDm; ++j)
                bits.push_back(stats.finalRow.at(0, j).bits());
            rows[stats.id] = bits;
        }
        return rows;
    };
    const ServeConfig config = onCase(ServeConfig());
    const auto serial = rows_by_id(drainTrace(stack, config, 1));
    const auto batched = rows_by_id(drainTrace(stack, config, 4));
    ASSERT_EQ(serial.size(), 5u);
    EXPECT_EQ(serial, batched);
}

TEST(ServeEngineSetup, SubmitRejectsImpossibleRequests)
{
    const DecoderStack stack = testStack();
    ServeConfig config;
    config.tokenBudget = 16;
    // f16 KV only: the rejection below asserts against the
    // f16-denominated budget; int8 would rebase it upward.
    ServeEngine engine(ExecContext(), stack, config);
    Rng rng(31);

    const SubmitResult too_big =
        engine.submit(makeRequest(rng, 0, 14, 4));
    EXPECT_FALSE(too_big.decision.accepted);
    EXPECT_NE(too_big.decision.reason.find("token budget"),
              std::string::npos);

    ServeRequest wrong_width = makeRequest(rng, 1, 3, 1);
    wrong_width.prompt = randomPrompt(rng, 3, kDm * 2);
    const SubmitResult mismatched =
        engine.submit(std::move(wrong_width));
    EXPECT_FALSE(mismatched.decision.accepted);
    EXPECT_NE(mismatched.decision.reason.find("dModel"),
              std::string::npos);
}

TEST_P(ServeEngineDrain, SlabDrainsBackToZeroAfterRun)
{
    const DecoderStack stack = testStack();
    ServeConfig config = onCase(ServeConfig());
    config.maxBatchRows = 3;
    config.tokenBudget = 1024;
    config.kvBlockTokens = 2;
    ServeEngine engine(ExecContext(), stack, config);
    Rng rng(37);
    std::vector<PendingSession> pending;
    for (int64_t id = 0; id < 4; ++id) {
        PendingSession p;
        SubmitResult result =
            engine.submit(makeRequest(rng, id, 4, 2));
        ASSERT_TRUE(result.decision.accepted)
            << result.decision.reason;
        p.session = std::move(result.session);
        pending.push_back(std::move(p));
    }
    engine.start();
    drainRoundRobin(pending);
    engine.waitIdle();
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.requestsServed, 4);
    EXPECT_EQ(stats.kvBlocksInUse, 0);
    EXPECT_GT(stats.kvBlocksReserved, 0);
    EXPECT_EQ(stats.queueDepth, 0);
    EXPECT_EQ(stats.activeRows, 0);
    EXPECT_EQ(stats.reservedKvTokens, 0);
}

TEST(ServeEngineSetup, ZeroedConfigIsAStartupError)
{
    // The engine proves the pressure-sample divisors at construction
    // (ServeConfig::validate): a zeroed limit must never reach the
    // first step boundary.
    const DecoderStack stack = testStack();
    {
        ServeConfig config;
        config.tokenBudget = 0;
        EXPECT_THROW(ServeEngine(ExecContext(), stack, config),
                     std::logic_error);
    }
    {
        ServeConfig config;
        config.queueCapacity = 0;
        EXPECT_THROW(ServeEngine(ExecContext(), stack, config),
                     std::logic_error);
    }
    {
        ServeConfig config;
        config.prefillChunkTokens = -2;
        EXPECT_THROW(ServeEngine(ExecContext(), stack, config),
                     std::logic_error);
    }
}

TEST(ServeEngineSetup, UnsupportedStackIsAStartupError)
{
    // The functional KV path runs only causal dense Baseline stacks.
    // Any other stack must fail where the engine is built, not on the
    // serving thread at the first admitted request.
    {
        DecoderStack stack = testStack();
        stack.config.strategy = Strategy::Fused;
        EXPECT_THROW(ServeEngine(ExecContext(), stack, ServeConfig()),
                     std::logic_error);
    }
    {
        DecoderStack stack = testStack();
        stack.config.causalMask = false;
        EXPECT_THROW(ServeEngine(ExecContext(), stack, ServeConfig()),
                     std::logic_error);
    }
}

INSTANTIATE_TEST_SUITE_P(Serve, ServeEngineDrain,
                         testing::ValuesIn(serveCases()), serveCaseName);

} // namespace
} // namespace softrec
