/**
 * @file
 * Async streaming serve engine.
 *
 * ServeEngine is a front-end that owns a background serving thread:
 * producers submit()
 * from any thread and immediately get back a structured
 * AdmissionDecision plus (on accept) a ServeSession whose TokenStream
 * delivers generated tokens as decode steps complete — admission
 * overlaps decode instead of alternating with it.
 *
 * Concurrency contract:
 *  - submit() / stats() / mode() are thread-safe (any producer).
 *  - Lifecycle calls — start(), shutdown(), waitIdle(), destruction —
 *    belong to the single owner thread, and producers must be quiesced
 *    before shutdown().
 *  - All decode work runs on the serving thread, which is the only
 *    external submitter into the ExecContext's ThreadPool (the pool
 *    forbids concurrent top-level submission) and the only toucher of
 *    the scheduler, the KV slab, and the step buffers.
 *
 * Backpressure: every decode-step boundary samples KV-budget
 * occupancy and queue depth into the AdmissionController, whose
 * three-regime state machine (normal / soft-throttled /
 * hard-fail-fast, with hysteresis — see admission.hpp) decides what
 * submit() may accept. A consumer that abandons its session is
 * detected at the next token push; the engine cancels the request and
 * reclaims its KV blocks and tenant budget.
 *
 * Determinism: decode math is row-local, so the tokens a request
 * streams are bit-identical regardless of batch composition, thread
 * count, or SIMD backend — only timing and admission outcomes depend
 * on load.
 */

#ifndef SOFTREC_SERVE_SERVE_ENGINE_HPP
#define SOFTREC_SERVE_SERVE_ENGINE_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/exec_context.hpp"
#include "model/decode.hpp"
#include "serve/admission.hpp"
#include "serve/batch_scheduler.hpp"
#include "serve/kv_cache.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_config.hpp"
#include "serve/token_stream.hpp"

namespace softrec {

/**
 * Read-only snapshot of the engine's state. Scheduler-derived fields
 * are mirrored by the serving thread at step boundaries (so reading
 * them never touches serving-thread-owned structures); queue counters
 * and admission mode/residency are read live from their own locks.
 */
struct ServeStats
{
    int64_t queueDepth = 0;
    int64_t queueCapacity = 0;
    int64_t queueAccepted = 0;
    int64_t queueRejected = 0;
    int64_t activeRows = 0;        //!< batch rows in flight
    int64_t prefillingRows = 0;    //!< rows still streaming prefill in
    int64_t reservedKvTokens = 0;  //!< committed finishing footprints
    int64_t tokenBudget = 0;
    int64_t kvBlocksInUse = 0;     //!< slab blocks held by live caches
    int64_t kvBlocksReserved = 0;  //!< slab high-water reservation
    int64_t kvBytesReserved = 0;   //!< actual per-format slab bytes
    KvDtype kvDtype = KvDtype::F16; //!< KV storage format
    double kvOccupancyPct = 0.0;   //!< last step-boundary pressure
    double queueDepthPct = 0.0;    //!< last step-boundary pressure
    AdmissionMode mode = AdmissionMode::Normal;
    AdmissionController::Residency residency;
    int64_t requestsServed = 0;    //!< streamed to completion
    int64_t requestsCancelled = 0; //!< abandoned / shut down
    int64_t tokensGenerated = 0;
    int64_t decodeSteps = 0;
};

/** What submit() hands back. */
struct SubmitResult
{
    AdmissionDecision decision;
    //! Valid only when decision.accepted; dropping it cancels the
    //! request.
    ServeSession session;
};

/** Background-thread continuous-batching serve engine. */
class ServeEngine
{
  public:
    ServeEngine(const ExecContext &ctx, const DecoderStack &stack,
                const ServeConfig &config);
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /** Spawn the serving thread. Call exactly once. */
    void start();

    /**
     * Decide and (on accept) enqueue one request. Fills in
     * request.arrivalSeconds and, when request.id == 0, a fresh id.
     * The decision is structured: a rejection names the regime,
     * metric, value, and threshold that failed. Thread-safe; never
     * blocks on decode.
     *
     * The tenant's finishing footprint (prompt + generate tokens) is
     * reserved atomically with the decision and released when the
     * request finishes, is cancelled, or fails to enqueue.
     */
    SubmitResult submit(ServeRequest request);

    /**
     * Block until every accepted request has finished or been
     * cancelled. Consumers must be draining their streams (or the
     * per-request channels must be deep enough) or the serving thread
     * blocks on a full ring and idle never arrives.
     */
    void waitIdle();

    /**
     * Stop accepting, drain every already-accepted request, join the
     * serving thread, and cancel anything left queued (only possible
     * when start() was never called). A request whose consumer is
     * draining still streams to completion; one stalled on a full
     * ring is cancelled rather than allowed to block the join
     * forever. Idempotent; the destructor calls it.
     */
    void shutdown();

    /** Snapshot of queue / batch / admission state. */
    ServeStats stats() const;

    /** Current admission regime. */
    AdmissionMode mode() const { return controller_.mode(); }

    /** Seconds since construction (the arrival/finish clock). */
    double nowSeconds() const;

    const ServeConfig &config() const { return config_; }

  private:
    struct SlotState
    {
        std::unique_ptr<KvCache> cache;
        Tensor<Half> nextInput; //!< [1, dModel] pending step input
        std::shared_ptr<TokenStream> stream;
        int64_t tenantId = 0;
        int64_t footprintTokens = 0; //!< tenant-ledger reservation
        //! Resumable-prefill progress; non-null only while the slot
        //! is streaming its prompt in.
        std::unique_ptr<PrefillState> prefill;
    };

    void threadMain();
    //! One decode-step boundary: pressure sample, admission, batch
    //! decode, token streaming, eviction, stats publication. Hot:
    //! steady-state allocation lives in the helpers, not here.
    void serveStep();
    void samplePressure();
    //! Admission plus prefill progress for the step: newly admitted
    //! slots join the prefilling set, every slot mid-prefill
    //! advances by one chunk, then the decode-eligible batch is
    //! composed.
    void admitAndPrefill();
    //! Set up a freshly admitted slot and register it in prefilling_
    //! for advancePrefills.
    void prefillSlot(int64_t slot_index);
    //! One chunk for every slot mid-prefill (admission order), so an
    //! arriving long prompt displaces active decode streams by at
    //! most one chunk per step and per prefilling request. With
    //! chunking off the chunk is the whole prompt, so a slot admitted
    //! this step finishes its prefill this step.
    void advancePrefills();
    //! Seed the first decode input from the prompt's last output row.
    void seedNextInput(SlotState &state, const Tensor<Half> &out);
    void gatherStepInputs();
    //! Copy each active row's output into its slot and stream it;
    //! rows whose consumer closed land in cancelled_.
    void streamStepOutputs();
    void completeAndFinish();
    void finishSlot(int64_t slot_index);
    void cancelSlot(int64_t slot_index, const char *why);
    void publishStats();
    void bumpCompleted();
    void registerStream(const std::shared_ptr<TokenStream> &stream);
    void drainQueueCancelling(const char *why);

    //! Copied, not referenced: callers may pass a temporary context.
    ExecContext ctx_;
    const DecoderStack &stack_;
    const ServeConfig config_;
    //! Scheduler/admission budget in *stored* tokens: the configured
    //! fp16-denominated tokenBudget rebased on actual per-format block
    //! bytes, so a compressed KV format admits proportionally more
    //! tokens at the same slab byte budget (exactly tokenBudget for
    //! F16).
    const int64_t kvTokenBudget_;
    AdmissionController controller_;
    RequestQueue queue_;
    BatchScheduler scheduler_;
    KvSlab slab_;
    std::vector<SlotState> slots_;
    std::chrono::steady_clock::time_point epoch_;

    std::atomic<int64_t> nextId_{1};
    std::atomic<bool> shuttingDown_{false};

    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
    bool stopRequested_ = false; //!< under wakeMutex_
    bool workPending_ = false;   //!< under wakeMutex_; submit signal
    bool started_ = false;       //!< owner thread only
    std::thread thread_;

    //! Streams the engine may be pushing into; shutdown() aborts any
    //! push blocked on a full ring before joining the serving thread.
    std::mutex streamsMutex_;
    std::vector<std::weak_ptr<TokenStream>> liveStreams_;
    bool abortingPushes_ = false; //!< under streamsMutex_

    //! Mirror + idle accounting; see ServeStats docs.
    mutable std::mutex statsMutex_;
    std::condition_variable idleCv_;
    ServeStats mirror_;      //!< under statsMutex_
    int64_t submitted_ = 0;  //!< accepted submits, under statsMutex_
    int64_t completed_ = 0;  //!< finished + cancelled, under statsMutex_

    //! Serving-thread-only step state, reused across steps: the
    //! activation and attention buffers stop growing at the
    //! high-water batch shape. The step still allocates: every GEMM
    //! packs its panels and scratch per call. A runtime allocation
    //! gate is ROADMAP item 2.
    PressureSample lastSample_;
    int64_t requestsServed_ = 0;
    int64_t requestsCancelled_ = 0;
    int64_t tokensGenerated_ = 0;
    int64_t decodeSteps_ = 0;
    std::vector<int64_t> admitted_;
    //! Slots mid-prefill, in admission order (served one chunk per
    //! step each until their prompt has fully landed).
    std::vector<int64_t> prefilling_;
    std::vector<int64_t> active_;
    std::vector<int64_t> finished_;
    std::vector<int64_t> cancelled_;
    std::vector<KvCache *> stepCaches_;
    Tensor<Half> stepInputs_;
    Tensor<Half> stepOutputs_;
    //! Chunk output scratch for advancePrefills (swap-consumed and
    //! reused across chunks; only the final chunk's last row is
    //! read, as the first decode input).
    Tensor<Half> prefillOut_;
    DecodeStepWorkspace stepWs_;
};

/**
 * Sorted-sample percentile (linear interpolation on a copy).
 * Hard-errors (panic) on an empty sample set or q outside [0, 1]:
 * a percentile of nothing is not 0, and silently returning one made
 * an all-rejected bench arm look infinitely fast. Callers whose
 * sample sets can legitimately be empty must guard and emit an
 * explicit sentinel instead. Exposed for the serve benches and
 * tests.
 */
double percentileSeconds(std::vector<double> samples, double q);

} // namespace softrec

#endif // SOFTREC_SERVE_SERVE_ENGINE_HPP
