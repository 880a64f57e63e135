/**
 * @file
 * Async serve engine implementation.
 */

#include "serve/serve_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "common/profiler.hpp"

namespace softrec {

namespace {

/**
 * Rebase the configured (fp16-denominated) token budget on actual
 * per-format block bytes: the same slab byte budget holds
 * proportionally more tokens in a compressed format. Exactly
 * config.tokenBudget for F16 (identical numerator and denominator).
 */
int64_t
effectiveKvTokenBudget(const ServeConfig &config, int64_t row_width)
{
    const int64_t f16_bytes =
        kvBlockBytes(KvDtype::F16, config.kvBlockTokens, row_width);
    const int64_t fmt_bytes =
        kvBlockBytes(config.kvDtype, config.kvBlockTokens, row_width);
    return config.tokenBudget * f16_bytes / fmt_bytes;
}

} // namespace

double
percentileSeconds(std::vector<double> samples, double q)
{
    SOFTREC_ASSERT(!samples.empty(),
                   "percentile of an empty sample set (guard the "
                   "call and emit a sentinel instead)");
    SOFTREC_ASSERT(q >= 0.0 && q <= 1.0,
                   "percentile q=%g outside [0, 1]", q);
    std::sort(samples.begin(), samples.end());
    const double rank = q * double(samples.size() - 1);
    const size_t lo = size_t(std::floor(rank));
    const size_t hi = size_t(std::ceil(rank));
    const double frac = rank - double(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

ServeEngine::ServeEngine(const ExecContext &ctx,
                         const DecoderStack &stack,
                         const ServeConfig &config)
    : ctx_(ctx), stack_(stack), config_(config),
      kvTokenBudget_(
          effectiveKvTokenBudget(config, stack.config.dModel)),
      controller_(config.admission), queue_(config.queueCapacity),
      scheduler_(SchedulerConfig{config.maxBatchRows,
                                 kvTokenBudget_}),
      slab_(config.kvBlockTokens, stack.config.dModel, 64,
            config.kvDtype),
      slots_(size_t(config.maxBatchRows)),
      epoch_(std::chrono::steady_clock::now())
{
    // Startup-time proof that the stack is one the serving thread can
    // run and that every limit the engine divides by or sizes storage
    // with is usable — samplePressure's divisions by kvTokenBudget_
    // and queueCapacity rely on it.
    checkFunctionalStack(stack);
    config.validate();
    mirror_.queueCapacity = config.queueCapacity;
    mirror_.tokenBudget = kvTokenBudget_;
    mirror_.kvDtype = config.kvDtype;
}

ServeEngine::~ServeEngine()
{
    shutdown();
}

double
ServeEngine::nowSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
ServeEngine::start()
{
    SOFTREC_ASSERT(!started_, "ServeEngine::start may be called once");
    started_ = true;
    thread_ = std::thread([this] { threadMain(); });
}

SubmitResult
ServeEngine::submit(ServeRequest request)
{
    SubmitResult result;
    if (shuttingDown_.load(std::memory_order_acquire)) {
        result.decision = AdmissionDecision::rejected(
            "engine is shutting down; no new requests accepted");
        return result;
    }
    if (request.prompt.shape().rank() != 2 ||
        request.prompt.shape().dim(0) < 1) {
        result.decision = AdmissionDecision::rejected(
            "prompt must be a [tokens, dModel] tensor with at least "
            "one token");
        return result;
    }
    if (request.prompt.shape().dim(1) != stack_.config.dModel) {
        result.decision = AdmissionDecision::rejected(
            "prompt width " +
            std::to_string(request.prompt.shape().dim(1)) +
            " does not match the model (dModel " +
            std::to_string(stack_.config.dModel) + ")");
        return result;
    }
    if (request.generateTokens < 1) {
        result.decision =
            AdmissionDecision::rejected("generateTokens must be >= 1");
        return result;
    }

    const int64_t prompt_tokens = request.prompt.shape().dim(0);
    const int64_t footprint = prompt_tokens + request.generateTokens;
    if (footprint > kvTokenBudget_) {
        result.decision = AdmissionDecision::rejected(
            controller_.mode(), "request_kv_tokens", double(footprint),
            double(kvTokenBudget_),
            "request needs " + std::to_string(footprint) +
                " KV tokens but the token budget is " +
                std::to_string(kvTokenBudget_) +
                "; it could never be scheduled");
        return result;
    }

    AdmissionCandidate candidate;
    candidate.tenantId = request.tenantId;
    candidate.promptTokens = prompt_tokens;
    candidate.footprintTokens = footprint;
    const AdmissionDecision reserve =
        controller_.admitReserve(candidate);
    if (!reserve.accepted) {
        result.decision = reserve;
        return result;
    }

    if (request.id == 0)
        request.id = nextId_.fetch_add(1);
    request.arrivalSeconds = nowSeconds();
    auto stream = std::make_shared<TokenStream>(config_.streamCapacity,
                                                stack_.config.dModel);
    request.stream = stream;
    registerStream(stream);
    const int64_t id = request.id;
    const int64_t tenant = request.tenantId;

    // Count the submit before the push: once the request is in the
    // queue the serving thread may finish it at any moment, and a
    // completion must never observe completed_ > submitted_ (waitIdle
    // would wake early or, worse, miss its notify and hang).
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++submitted_;
    }
    AdmissionDecision pushed = queue_.push(std::move(request));
    if (!pushed.accepted) {
        controller_.release(tenant, footprint);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            --submitted_;
            if (completed_ == submitted_)
                idleCv_.notify_all();
        }
        // The queue is regime-agnostic; stamp the regime the decision
        // was actually taken under.
        pushed.mode = reserve.mode;
        result.decision = std::move(pushed);
        return result;
    }

    // The pending-work flag is written under wakeMutex_, so the
    // serving thread either sees it in its wait predicate or is
    // already blocked when the notify fires — the wakeup cannot fall
    // between predicate evaluation and the block and get lost.
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        workPending_ = true;
    }
    wakeCv_.notify_one();
    result.decision = AdmissionDecision::ok(reserve.mode);
    result.session = ServeSession(id, tenant, std::move(stream));
    return result;
}

void
ServeEngine::waitIdle()
{
    std::unique_lock<std::mutex> lock(statsMutex_);
    idleCv_.wait(lock, [this] { return completed_ == submitted_; });
}

void
ServeEngine::shutdown()
{
    shuttingDown_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(wakeMutex_);
        stopRequested_ = true;
    }
    wakeCv_.notify_all();
    // Wake any push() blocked on a full ring before joining: a
    // consumer that stopped draining without dropping its session
    // must not pin the serving thread (and this join) forever.
    // Consumers still draining keep receiving tokens and finish.
    {
        std::lock_guard<std::mutex> lock(streamsMutex_);
        abortingPushes_ = true;
        for (const std::weak_ptr<TokenStream> &weak : liveStreams_) {
            if (std::shared_ptr<TokenStream> stream = weak.lock())
                stream->abortPush();
        }
        liveStreams_.clear();
    }
    if (thread_.joinable())
        thread_.join();
    // Only reachable with queued items when the engine never started.
    drainQueueCancelling("engine shut down before the request was "
                         "admitted");
}

ServeStats
ServeEngine::stats() const
{
    ServeStats out;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        out = mirror_;
    }
    out.queueDepth = queue_.size();
    out.queueCapacity = queue_.capacity();
    out.queueAccepted = queue_.accepted();
    out.queueRejected = queue_.rejected();
    out.tokenBudget = kvTokenBudget_;
    out.mode = controller_.mode();
    out.residency = controller_.residency();
    return out;
}

void
ServeEngine::threadMain()
{
    while (true) {
        {
            std::unique_lock<std::mutex> lock(wakeMutex_);
            // workPending_ (under wakeMutex_) is the lost-wakeup-free
            // submit signal; the queue/scheduler reads are extra
            // triggers so a step that left work behind re-runs
            // without waiting for another submit.
            wakeCv_.wait(lock, [this] {
                return stopRequested_ || workPending_ ||
                       queue_.size() > 0 || !scheduler_.idle();
            });
            workPending_ = false;
        }
        serveStep();
        {
            std::lock_guard<std::mutex> lock(wakeMutex_);
            if (stopRequested_ && queue_.size() == 0 &&
                scheduler_.idle())
                break;
        }
    }
}

void
ServeEngine::serveStep()
{
    prof::Scope scope(ctx_, "serve.step");
    samplePressure();
    admitAndPrefill(); // fills active_ and composes the step inputs
    if (!active_.empty()) {
        runDecodeStepInto(ctx_, stack_, stepInputs_, stepCaches_,
                          stepWs_, stepOutputs_);
        ++decodeSteps_;
        tokensGenerated_ += int64_t(active_.size());
        streamStepOutputs();
        completeAndFinish();
    }
    publishStats();
}

void
ServeEngine::samplePressure()
{
    // Divisions are guard-free by construction: ServeConfig::validate
    // proved tokenBudget and queueCapacity >= 1 at startup (and the
    // effective budget only rebases tokenBudget upward).
    lastSample_.kvOccupancyPct = 100.0 *
                                 double(scheduler_.reservedTokens()) /
                                 double(kvTokenBudget_);
    lastSample_.queueDepthPct = 100.0 * double(queue_.size()) /
                                double(config_.queueCapacity);
    if (controller_.updatePressure(lastSample_))
        prof::event(ctx_, "serve.mode_transition");
}

void
ServeEngine::admitAndPrefill()
{
    scheduler_.admitFrom(queue_, &admitted_);
    for (int64_t slot_index : admitted_)
        prefillSlot(slot_index);
    advancePrefills();
    // Slot membership settles before the inputs are composed, so the
    // batch a step runs is exactly the batch the scheduler reports.
    scheduler_.activeSlots(&active_);
    if (!active_.empty())
        gatherStepInputs();
}

void
ServeEngine::prefillSlot(int64_t slot_index)
{
    prof::Scope scope(ctx_, "serve.prefill");
    const BatchSlot &slot = scheduler_.slot(slot_index);
    SlotState &state = slots_[size_t(slot_index)];
    state.cache = std::make_unique<KvCache>(
        slab_, int64_t(stack_.layers.size()));
    state.stream = slot.request.stream;
    state.tenantId = slot.request.tenantId;
    const int64_t prompt_tokens = slot.request.prompt.shape().dim(0);
    state.footprintTokens = prompt_tokens +
                            slot.request.generateTokens;
    state.nextInput = Tensor<Half>(Shape({1, stack_.config.dModel}));
    // advancePrefills feeds the prompt in, starting this same step.
    state.prefill = std::make_unique<PrefillState>();
    state.prefill->prepare(stack_, prompt_tokens);
    prefilling_.push_back(slot_index);
}

void
ServeEngine::advancePrefills()
{
    if (prefilling_.empty())
        return;
    prof::Scope scope(ctx_, "serve.prefill");
    size_t keep = 0;
    for (size_t i = 0; i < prefilling_.size(); ++i) {
        const int64_t slot_index = prefilling_[i];
        SlotState &state = slots_[size_t(slot_index)];
        PrefillState &prefill = *state.prefill;
        // Chunking off (0) runs the whole prompt as one chunk.
        const int64_t chunk = config_.prefillChunkTokens > 0
                                  ? config_.prefillChunkTokens
                                  : prefill.promptTokens;
        const int64_t rows =
            std::min(chunk, prefill.promptTokens - prefill.rowsDone);
        runPrefill(ctx_, stack_,
                   scheduler_.slot(slot_index).request.prompt, rows,
                   *state.cache, prefill, stepWs_, prefillOut_);
        // The budget was reserved at admission; this charges the KV
        // rows that just landed.
        scheduler_.notePrefillProgress(slot_index, rows);
        if (!prefill.done()) {
            prefilling_[keep++] = slot_index;
            continue;
        }
        seedNextInput(state, prefillOut_);
        state.prefill.reset(); // staging frees once the prompt landed
    }
    prefilling_.resize(keep);
}

void
ServeEngine::seedNextInput(SlotState &state, const Tensor<Half> &out)
{
    // Pseudo-sampling: the prompt's last output row is the first
    // decode input (no vocabulary head in this model).
    const int64_t dm = stack_.config.dModel;
    const int64_t last = out.shape().dim(0) - 1;
    std::copy(out.rowPtr(last), out.rowPtr(last) + dm,
              state.nextInput.rowPtr(0));
}

void
ServeEngine::gatherStepInputs()
{
    // One continuous-batching step: concatenate every active slot's
    // pending input row (slot order keeps the composition
    // deterministic). The buffers are members, so the resizes below
    // only touch the allocator while the active-row count is still
    // climbing toward its high-water mark.
    const int64_t dm = stack_.config.dModel;
    stepInputs_.resize(Shape({int64_t(active_.size()), dm}));
    stepCaches_.resize(active_.size());
    for (size_t r = 0; r < active_.size(); ++r) {
        const SlotState &state = slots_[size_t(active_[r])];
        std::copy(state.nextInput.rowPtr(0),
                  state.nextInput.rowPtr(0) + dm,
                  stepInputs_.rowPtr(int64_t(r)));
        stepCaches_[r] = state.cache.get();
    }
}

void
ServeEngine::streamStepOutputs()
{
    const int64_t dm = stack_.config.dModel;
    cancelled_.clear();
    for (size_t r = 0; r < active_.size(); ++r) {
        SlotState &state = slots_[size_t(active_[r])];
        std::copy(stepOutputs_.rowPtr(int64_t(r)),
                  stepOutputs_.rowPtr(int64_t(r)) + dm,
                  state.nextInput.rowPtr(0));
        // push blocks while the consumer's ring is full (bounded
        // channel = decode paced by the slowest consumer in the
        // batch) and fails once the consumer closed.
        if (!state.stream->push(stepOutputs_.rowPtr(int64_t(r))))
            cancelled_.push_back(active_[r]);
    }
}

void
ServeEngine::completeAndFinish()
{
    scheduler_.completeStep(&finished_);
    // A slot whose consumer closed on its final token still finished
    // its generation; the close only means nobody reads the result.
    for (int64_t slot_index : finished_)
        finishSlot(slot_index);
    const char *why = shuttingDown_.load(std::memory_order_acquire)
                          ? "engine shut down while the stream was "
                            "stalled"
                          : "consumer closed the stream";
    for (int64_t slot_index : cancelled_) {
        if (std::find(finished_.begin(), finished_.end(),
                      slot_index) != finished_.end())
            continue;
        scheduler_.releaseSlot(slot_index);
        cancelSlot(slot_index, why);
    }
}

void
ServeEngine::finishSlot(int64_t slot_index)
{
    SlotState &state = slots_[size_t(slot_index)];
    state.stream->finish(nowSeconds());
    controller_.release(state.tenantId, state.footprintTokens);
    state.cache.reset(); // blocks return to the slab now
    state.stream.reset();
    state.nextInput = Tensor<Half>();
    ++requestsServed_;
    bumpCompleted();
}

void
ServeEngine::cancelSlot(int64_t slot_index, const char *why)
{
    SlotState &state = slots_[size_t(slot_index)];
    state.stream->cancel(why, nowSeconds());
    controller_.release(state.tenantId, state.footprintTokens);
    state.cache.reset();
    state.stream.reset();
    state.nextInput = Tensor<Half>();
    ++requestsCancelled_;
    prof::event(ctx_, "serve.cancel");
    bumpCompleted();
}

void
ServeEngine::publishStats()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    mirror_.activeRows = scheduler_.activeRows();
    mirror_.prefillingRows = scheduler_.prefillingRows();
    mirror_.reservedKvTokens = scheduler_.reservedTokens();
    mirror_.kvBlocksInUse = slab_.blocksInUse();
    mirror_.kvBlocksReserved = slab_.blocksReserved();
    mirror_.kvBytesReserved = slab_.bytesReserved();
    mirror_.kvOccupancyPct = lastSample_.kvOccupancyPct;
    mirror_.queueDepthPct = lastSample_.queueDepthPct;
    mirror_.requestsServed = requestsServed_;
    mirror_.requestsCancelled = requestsCancelled_;
    mirror_.tokensGenerated = tokensGenerated_;
    mirror_.decodeSteps = decodeSteps_;
    // Idle is announced here, not in bumpCompleted, so a waiter that
    // wakes always sees the settled mirror of the finishing step.
    if (completed_ == submitted_)
        idleCv_.notify_all();
}

void
ServeEngine::bumpCompleted()
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++completed_;
}

void
ServeEngine::registerStream(const std::shared_ptr<TokenStream> &stream)
{
    std::lock_guard<std::mutex> lock(streamsMutex_);
    if (abortingPushes_) {
        // Raced past the shuttingDown_ gate in submit(): make sure
        // this stream can never block the serving thread either.
        stream->abortPush();
        return;
    }
    // Entries expire once both the batch slot and the consumer drop
    // the stream; pruning here keeps the registry sized to in-flight
    // requests rather than everything ever submitted.
    liveStreams_.erase(
        std::remove_if(liveStreams_.begin(), liveStreams_.end(),
                       [](const std::weak_ptr<TokenStream> &weak) {
                           return weak.expired();
                       }),
        liveStreams_.end());
    liveStreams_.push_back(stream);
}

void
ServeEngine::drainQueueCancelling(const char *why)
{
    while (std::optional<ServeRequest> request = queue_.pop()) {
        if (request->stream != nullptr)
            request->stream->cancel(why, nowSeconds());
        controller_.release(request->tenantId,
                            request->prompt.shape().dim(0) +
                                request->generateTokens);
        ++requestsCancelled_;
        bumpCompleted();
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        mirror_.requestsCancelled = requestsCancelled_;
        if (completed_ == submitted_)
            idleCv_.notify_all();
    }
}

} // namespace softrec
