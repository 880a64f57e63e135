/**
 * @file
 * Async serve engine tests: TokenStream channel semantics, streaming
 * to completion through ServeSession, batch-composition bit-identity,
 * per-tenant budget enforcement end to end, abandoned-session
 * cancellation, structured rejections, and a multi-producer stress
 * test (every submitted request either streams to completion or gets
 * a reasoned rejection). Runs under tsan in CI.
 *
 * Every engine test that serves tokens runs once per ServeMatrix case
 * (KV dtype x prefill chunk); the admission tests
 * that never run the model stay plain TESTs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/rng.hpp"
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
makeRequest(Rng &rng, int64_t prompt_tokens, int64_t generate_tokens,
            int64_t tenant = 0)
{
    ServeRequest request;
    request.tenantId = tenant;
    request.prompt = randomPrompt(rng, prompt_tokens);
    request.generateTokens = generate_tokens;
    return request;
}

DecoderStack
testStack(uint64_t seed = 19)
{
    Rng rng(seed);
    return DecoderStack::random(kDm, /*num_heads=*/2, /*d_ff=*/48,
                                /*num_layers=*/2, rng);
}

/** Engine config sized so tests never block on stream capacity. */
ServeConfig
testConfig(int64_t batch_rows = 4)
{
    ServeConfig config;
    config.maxBatchRows = batch_rows;
    config.tokenBudget = 1024;
    config.queueCapacity = 64;
    config.kvBlockTokens = 4;
    config.streamCapacity = 64;
    return config;
}

using ServeEngineMatrix = ServeMatrix;

// --- TokenStream ------------------------------------------------------

TEST(TokenStream, DeliversTokensInOrderThenFinishes)
{
    TokenStream stream(/*capacity=*/4, /*row_width=*/kDm);
    std::vector<Half> row(static_cast<size_t>(kDm));
    for (int t = 0; t < 3; ++t) {
        for (int64_t j = 0; j < kDm; ++j)
            row[size_t(j)] = Half(float(t * 100 + j));
        ASSERT_TRUE(stream.push(row.data()));
    }
    stream.finish(1.5);

    Tensor<Half> out;
    for (int t = 0; t < 3; ++t) {
        ASSERT_TRUE(stream.next(out));
        ASSERT_EQ(out.shape(), Shape({1, kDm}));
        for (int64_t j = 0; j < kDm; ++j)
            EXPECT_EQ(out.at(0, j).bits(),
                      Half(float(t * 100 + j)).bits());
    }
    // Terminal and drained: next() reports end-of-stream.
    EXPECT_FALSE(stream.next(out));
    EXPECT_EQ(stream.status(), StreamStatus::Finished);
    EXPECT_EQ(stream.tokensDelivered(), 3);
    EXPECT_EQ(stream.finishSeconds(), 1.5);
}

TEST(TokenStream, TryNextDistinguishesPendingFromEnd)
{
    TokenStream stream(4, kDm);
    Tensor<Half> out;
    EXPECT_EQ(stream.tryNext(out), TokenStream::TryNext::Pending);
    std::vector<Half> row(static_cast<size_t>(kDm));
    ASSERT_TRUE(stream.push(row.data()));
    EXPECT_EQ(stream.tryNext(out), TokenStream::TryNext::Token);
    EXPECT_EQ(stream.tryNext(out), TokenStream::TryNext::Pending);
    stream.cancel("overload", 2.0);
    EXPECT_EQ(stream.tryNext(out), TokenStream::TryNext::End);
    EXPECT_EQ(stream.status(), StreamStatus::Cancelled);
    EXPECT_EQ(stream.cancelReason(), "overload");
}

TEST(TokenStream, BoundedRingBlocksProducerUntilConsumerPops)
{
    // Capacity-1 ring: the producer can only run ahead by one token,
    // so a slow consumer paces it (bounded-channel backpressure).
    TokenStream stream(1, kDm);
    std::atomic<int> pushed{0};
    std::thread producer([&stream, &pushed] {
        std::vector<Half> row(static_cast<size_t>(kDm));
        for (int t = 0; t < 16; ++t) {
            row[0] = Half(float(t));
            ASSERT_TRUE(stream.push(row.data()));
            pushed.fetch_add(1);
        }
        stream.finish(0.0);
    });
    Tensor<Half> out;
    for (int t = 0; t < 16; ++t) {
        ASSERT_TRUE(stream.next(out));
        EXPECT_EQ(out.at(0, 0).bits(), Half(float(t)).bits());
        EXPECT_LE(pushed.load(), t + 2); // never ran ahead of the ring
    }
    EXPECT_FALSE(stream.next(out));
    producer.join();
}

TEST(TokenStream, CloseMakesPushFailAndUnblocksTheProducer)
{
    TokenStream stream(1, kDm);
    std::vector<Half> row(static_cast<size_t>(kDm));
    ASSERT_TRUE(stream.push(row.data())); // ring now full
    std::thread producer([&stream, &row] {
        // Blocks on the full ring until close(), then fails.
        EXPECT_FALSE(stream.push(row.data()));
    });
    stream.close();
    producer.join();
    EXPECT_FALSE(stream.push(row.data())); // stays closed
}

TEST(TokenStream, AbortPushFailsOnlyWhenTheRingIsFull)
{
    TokenStream stream(1, kDm);
    std::vector<Half> row(static_cast<size_t>(kDm));
    stream.abortPush();
    // Space in the ring: pushes keep succeeding after an abort, so a
    // consumer that is draining still finishes during shutdown.
    ASSERT_TRUE(stream.push(row.data()));
    // Full ring after an abort: fail instead of blocking forever.
    EXPECT_FALSE(stream.push(row.data()));
    Tensor<Half> out;
    ASSERT_EQ(stream.tryNext(out), TokenStream::TryNext::Token);
    ASSERT_TRUE(stream.push(row.data()));
}

TEST(TokenStream, AbortPushWakesABlockedProducer)
{
    TokenStream stream(1, kDm);
    std::vector<Half> row(static_cast<size_t>(kDm));
    ASSERT_TRUE(stream.push(row.data())); // ring now full
    std::thread producer([&stream, &row] {
        // Blocks on the full ring until abortPush(), then fails.
        EXPECT_FALSE(stream.push(row.data()));
    });
    stream.abortPush();
    producer.join();
}

TEST(ServeSession, DroppingTheHandleClosesTheStream)
{
    auto stream = std::make_shared<TokenStream>(4, kDm);
    {
        ServeSession session(7, 3, stream);
        EXPECT_TRUE(session.valid());
        EXPECT_EQ(session.id(), 7);
        EXPECT_EQ(session.tenantId(), 3);
    }
    std::vector<Half> row(static_cast<size_t>(kDm));
    EXPECT_FALSE(stream->push(row.data()));
}

// --- ServeEngine ------------------------------------------------------

TEST_P(ServeEngineMatrix, StreamsEveryRequestToCompletion)
{
    const DecoderStack stack = testStack();
    ServeEngine engine(ExecContext(), stack, onCase(testConfig()));
    engine.start();

    Rng rng(21);
    std::vector<ServeSession> sessions;
    std::vector<int64_t> want;
    for (int64_t i = 0; i < 5; ++i) {
        SubmitResult result =
            engine.submit(makeRequest(rng, 3 + i % 3, 2 + i % 2));
        ASSERT_TRUE(result.decision.accepted)
            << result.decision.reason;
        EXPECT_GT(result.session.id(), 0); // engine-assigned
        sessions.push_back(std::move(result.session));
        want.push_back(2 + i % 2);
    }

    Tensor<Half> row;
    for (size_t i = 0; i < sessions.size(); ++i) {
        int64_t tokens = 0;
        while (sessions[i].stream().next(row)) {
            EXPECT_EQ(row.shape(), Shape({1, kDm}));
            ++tokens;
        }
        EXPECT_EQ(tokens, want[i]);
        EXPECT_EQ(sessions[i].stream().status(),
                  StreamStatus::Finished);
        EXPECT_GT(sessions[i].stream().finishSeconds(), 0.0);
    }

    engine.waitIdle();
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.requestsServed, 5);
    EXPECT_EQ(stats.requestsCancelled, 0);
    EXPECT_EQ(stats.tokensGenerated, 2 + 3 + 2 + 3 + 2);
    EXPECT_GT(stats.decodeSteps, 0);
    EXPECT_EQ(stats.activeRows, 0);
    EXPECT_EQ(stats.kvBlocksInUse, 0);
    EXPECT_EQ(stats.queueDepth, 0);
}

TEST_P(ServeEngineMatrix, BatchCompositionNeverChangesTheTokens)
{
    // The same requests served with batch width 1 and 4 must stream
    // bit-identical final rows: batching is a scheduling decision,
    // never a numerics decision — the engine inherits the decode
    // path's row-local math.
    const DecoderStack stack = testStack();
    auto serve = [&stack](int64_t batch_rows) {
        ServeEngine engine(ExecContext(), stack,
                           onCase(testConfig(batch_rows)));
        engine.start();
        Rng rng(23);
        std::vector<ServeSession> sessions;
        for (int64_t i = 0; i < 5; ++i) {
            SubmitResult result =
                engine.submit(makeRequest(rng, 3 + i % 3, 2 + i % 2));
            EXPECT_TRUE(result.decision.accepted);
            sessions.push_back(std::move(result.session));
        }
        std::map<int64_t, std::vector<uint16_t>> final_rows;
        Tensor<Half> row;
        for (ServeSession &session : sessions) {
            while (session.stream().next(row)) {
            }
            std::vector<uint16_t> bits;
            for (int64_t j = 0; j < kDm; ++j)
                bits.push_back(row.at(0, j).bits());
            final_rows[session.id()] = bits;
        }
        return final_rows;
    };
    const auto serial = serve(1);
    const auto batched = serve(4);
    ASSERT_EQ(serial.size(), 5u);
    EXPECT_EQ(serial, batched);
}

using ServeEngineChunking = ServeMatrix;

TEST_P(ServeEngineChunking, ChunkedPrefillNeverChangesTheTokens)
{
    // Interleaving prefill with decode is also only a scheduling
    // decision: the same requests served unchunked and with a chunk
    // smaller than every prompt must stream bit-identical final rows
    // and the same completion accounting. Prompts are long enough
    // that each one spans several chunks.
    const DecoderStack stack = testStack();
    auto serve = [&stack](int64_t chunk_tokens) {
        ServeConfig config = onCase(testConfig());
        config.prefillChunkTokens = chunk_tokens;
        ServeEngine engine(ExecContext(), stack, config);
        engine.start();
        Rng rng(47);
        std::vector<ServeSession> sessions;
        for (int64_t i = 0; i < 5; ++i) {
            SubmitResult result = engine.submit(
                makeRequest(rng, 9 + i % 5, 2 + i % 2));
            EXPECT_TRUE(result.decision.accepted)
                << result.decision.reason;
            sessions.push_back(std::move(result.session));
        }
        std::map<int64_t, std::vector<uint16_t>> final_rows;
        Tensor<Half> row;
        for (ServeSession &session : sessions) {
            while (session.stream().next(row)) {
            }
            EXPECT_EQ(session.stream().status(),
                      StreamStatus::Finished);
            std::vector<uint16_t> bits;
            for (int64_t j = 0; j < kDm; ++j)
                bits.push_back(row.at(0, j).bits());
            final_rows[session.id()] = bits;
        }
        engine.waitIdle();
        const ServeStats stats = engine.stats();
        EXPECT_EQ(stats.requestsServed, 5);
        EXPECT_EQ(stats.prefillingRows, 0); // all prefills retired
        EXPECT_EQ(stats.kvBlocksInUse, 0);
        return final_rows;
    };
    const auto unchunked = serve(0);
    const auto chunked = serve(GetParam().prefillChunkTokens);
    ASSERT_EQ(unchunked.size(), 5u);
    EXPECT_EQ(unchunked, chunked);
}

TEST(Percentile, InterpolatesBetweenSortedSamples)
{
    const std::vector<double> samples{4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(percentileSeconds(samples, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentileSeconds(samples, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(percentileSeconds(samples, 1.0), 4.0);
    // A single sample is every percentile of itself.
    EXPECT_DOUBLE_EQ(percentileSeconds({5.0}, 0.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileSeconds({5.0}, 0.95), 5.0);
}

TEST(Percentile, EmptySamplesAndBadQuantilesAreHardErrors)
{
    // A percentile of nothing is meaningless; returning 0.0 here once
    // let empty benchmark arms report perfect latency.
    EXPECT_THROW(percentileSeconds({}, 0.5), std::logic_error);
    EXPECT_THROW(percentileSeconds({1.0}, -0.01), std::logic_error);
    EXPECT_THROW(percentileSeconds({1.0}, 1.01), std::logic_error);
}

TEST_P(ServeEngineMatrix, TenantBudgetIsEnforcedAcrossInFlightRequests)
{
    const DecoderStack stack = testStack();
    ServeConfig config = onCase(testConfig());
    config.admission.tenantTokenBudget = 24;
    ServeEngine engine(ExecContext(), stack, config);
    // Not started: the first request stays in flight while the second
    // is decided, making the outcome deterministic.

    Rng rng(29);
    SubmitResult first =
        engine.submit(makeRequest(rng, 8, 8, /*tenant=*/5));
    ASSERT_TRUE(first.decision.accepted) << first.decision.reason;

    SubmitResult second =
        engine.submit(makeRequest(rng, 8, 8, /*tenant=*/5));
    EXPECT_FALSE(second.decision.accepted);
    EXPECT_EQ(second.decision.metric, "tenant_inflight_tokens");
    EXPECT_EQ(second.decision.value, 32.0);
    EXPECT_EQ(second.decision.threshold, 24.0);

    // A different tenant is not collateral damage.
    SubmitResult other =
        engine.submit(makeRequest(rng, 8, 8, /*tenant=*/6));
    EXPECT_TRUE(other.decision.accepted) << other.decision.reason;

    // Once tenant 5's request finishes, its budget reopens.
    engine.start();
    Tensor<Half> row;
    while (first.session.stream().next(row)) {
    }
    while (other.session.stream().next(row)) {
    }
    engine.waitIdle();
    SubmitResult again =
        engine.submit(makeRequest(rng, 8, 8, /*tenant=*/5));
    EXPECT_TRUE(again.decision.accepted) << again.decision.reason;
    while (again.session.stream().next(row)) {
    }
    engine.waitIdle();
}

TEST_P(ServeEngineMatrix, AbandonedSessionIsCancelledAndReclaimed)
{
    const DecoderStack stack = testStack();
    ServeConfig config = onCase(testConfig());
    config.streamCapacity = 2; // engine outruns the consumer quickly
    ServeEngine engine(ExecContext(), stack, config);
    engine.start();

    Rng rng(31);
    {
        SubmitResult result = engine.submit(
            makeRequest(rng, 4, /*generate_tokens=*/200, /*tenant=*/9));
        ASSERT_TRUE(result.decision.accepted);
        // Read one token, then drop the session: the consumer went
        // away mid-generation.
        Tensor<Half> row;
        ASSERT_TRUE(result.session.stream().next(row));
    }
    engine.waitIdle();

    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.requestsCancelled, 1);
    EXPECT_EQ(stats.requestsServed, 0);
    EXPECT_EQ(stats.activeRows, 0);
    EXPECT_EQ(stats.kvBlocksInUse, 0); // KV blocks reclaimed
    // The tenant's budget was released, so it can submit again.
    SubmitResult again =
        engine.submit(makeRequest(rng, 4, 2, /*tenant=*/9));
    EXPECT_TRUE(again.decision.accepted) << again.decision.reason;
    Tensor<Half> row;
    while (again.session.stream().next(row)) {
    }
    engine.waitIdle();
}

TEST_P(ServeEngineMatrix, ShutdownDoesNotHangOnAStalledConsumer)
{
    const DecoderStack stack = testStack();
    ServeConfig config = onCase(testConfig());
    config.streamCapacity = 2; // engine outruns the consumer quickly
    ServeEngine engine(ExecContext(), stack, config);
    engine.start();

    Rng rng(43);
    SubmitResult result = engine.submit(
        makeRequest(rng, 4, /*generate_tokens=*/200));
    ASSERT_TRUE(result.decision.accepted);
    // Read one token, then stop draining WITHOUT dropping the
    // session: the serving thread ends up blocked pushing into the
    // full ring, which shutdown() must interrupt rather than hang in
    // join().
    Tensor<Half> row;
    ASSERT_TRUE(result.session.stream().next(row));
    engine.shutdown();

    EXPECT_EQ(result.session.stream().status(),
              StreamStatus::Cancelled);
    EXPECT_NE(result.session.stream().cancelReason().find("shut down"),
              std::string::npos);
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.requestsCancelled, 1);
    EXPECT_EQ(stats.requestsServed, 0);
    EXPECT_EQ(stats.kvBlocksInUse, 0);
}

TEST(ServeEngine, RejectsImpossibleAndMalformedRequestsWithReasons)
{
    const DecoderStack stack = testStack();
    ServeConfig config = testConfig();
    config.tokenBudget = 16;
    // f16 KV only: value/threshold below assert the f16-denominated
    // budget verbatim; int8 would rebase 16 tokens to ~31 and admit
    // this.
    ServeEngine engine(ExecContext(), stack, config);
    Rng rng(37);

    SubmitResult too_big = engine.submit(makeRequest(rng, 14, 4));
    EXPECT_FALSE(too_big.decision.accepted);
    EXPECT_EQ(too_big.decision.metric, "request_kv_tokens");
    EXPECT_EQ(too_big.decision.value, 18.0);
    EXPECT_EQ(too_big.decision.threshold, 16.0);
    EXPECT_FALSE(too_big.session.valid());

    ServeRequest wrong_width;
    wrong_width.prompt = randomPrompt(rng, 3, kDm * 2);
    wrong_width.generateTokens = 1;
    SubmitResult mismatched = engine.submit(std::move(wrong_width));
    EXPECT_FALSE(mismatched.decision.accepted);
    EXPECT_NE(mismatched.decision.reason.find("dModel"),
              std::string::npos);

    SubmitResult no_tokens = engine.submit(makeRequest(rng, 3, 1));
    ASSERT_TRUE(no_tokens.decision.accepted);
    (void)no_tokens; // dropped: cancelled at shutdown
}

TEST(ServeEngine, QueueOverflowIsAStructuredRejection)
{
    const DecoderStack stack = testStack();
    ServeConfig config = testConfig();
    config.queueCapacity = 2;
    // Never started: the queue cannot drain, so the third accept-able
    // submit must come back with the queue_depth metric.
    ServeEngine engine(ExecContext(), stack, config);
    Rng rng(41);
    SubmitResult a = engine.submit(makeRequest(rng, 3, 2));
    SubmitResult b = engine.submit(makeRequest(rng, 3, 2));
    ASSERT_TRUE(a.decision.accepted);
    ASSERT_TRUE(b.decision.accepted);
    SubmitResult c = engine.submit(makeRequest(rng, 3, 2));
    EXPECT_FALSE(c.decision.accepted);
    EXPECT_EQ(c.decision.metric, "queue_depth");
    EXPECT_EQ(c.decision.value, 2.0);
    EXPECT_EQ(c.decision.threshold, 2.0);
    // Shutdown without start cancels what was queued, with a reason.
    engine.shutdown();
    EXPECT_EQ(a.session.stream().status(), StreamStatus::Cancelled);
    EXPECT_NE(a.session.stream().cancelReason().find("shut down"),
              std::string::npos);
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.requestsCancelled, 2);
}

TEST_P(ServeEngineMatrix, MultiProducerStressCompletesOrRejectsEverything)
{
    // 4 producers x 12 mixed-size requests against a small queue and
    // tight thresholds: every submit must return a decision, every
    // accepted request must stream to a terminal state, and the
    // accounting must balance. Run under tsan in CI.
    const DecoderStack stack = testStack();
    ServeConfig config = onCase(testConfig());
    config.queueCapacity = 8;
    config.tokenBudget = 256;
    config.admission.softEnterPct = 40;
    config.admission.hardEnterPct = 85;
    config.admission.hysteresisPct = 10;
    config.admission.tenantTokenBudget = 128;
    config.admission.softPromptCapTokens = 6;
    ServeEngine engine(ExecContext(), stack, config);
    engine.start();

    std::atomic<int64_t> streamed{0};
    std::atomic<int64_t> rejected{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&engine, &streamed, &rejected, p] {
            Rng rng(100 + p);
            Tensor<Half> row;
            for (int i = 0; i < 12; ++i) {
                const int64_t prompt_tokens = 2 + (p + i) % 7;
                const int64_t generate = 1 + (p * 5 + i) % 9;
                ServeRequest request;
                request.tenantId = p % 2;
                request.prompt =
                    randomPrompt(rng, prompt_tokens);
                request.generateTokens = generate;
                SubmitResult result =
                    engine.submit(std::move(request));
                if (!result.decision.accepted) {
                    // Reasoned rejection: human text plus the
                    // machine-readable metric.
                    EXPECT_FALSE(result.decision.reason.empty());
                    EXPECT_FALSE(result.decision.metric.empty());
                    rejected.fetch_add(1);
                    continue;
                }
                int64_t tokens = 0;
                while (result.session.stream().next(row))
                    ++tokens;
                EXPECT_EQ(result.session.stream().status(),
                          StreamStatus::Finished);
                EXPECT_EQ(tokens, generate);
                streamed.fetch_add(1);
            }
        });
    }
    for (std::thread &producer : producers)
        producer.join();
    engine.waitIdle();

    const ServeStats stats = engine.stats();
    EXPECT_EQ(streamed.load() + rejected.load(), 48);
    EXPECT_EQ(stats.requestsServed, streamed.load());
    EXPECT_EQ(stats.requestsCancelled, 0);
    EXPECT_EQ(stats.activeRows, 0);
    EXPECT_EQ(stats.kvBlocksInUse, 0);
    EXPECT_EQ(stats.queueDepth, 0);
    // Every decode step took a pressure sample (idle boundary steps
    // sample too, so updates can exceed decode steps).
    const AdmissionController::Residency residency = stats.residency;
    EXPECT_GE(residency.updatesInMode[0] + residency.updatesInMode[1] +
                  residency.updatesInMode[2],
              stats.decodeSteps);
}

INSTANTIATE_TEST_SUITE_P(Serve, ServeEngineMatrix,
                         testing::ValuesIn(serveCases()), serveCaseName);
INSTANTIATE_TEST_SUITE_P(Serve, ServeEngineChunking,
                         testing::ValuesIn(serveCases({3})),
                         serveCaseName);

} // namespace
} // namespace softrec
