/**
 * @file
 * Autoregressive generation (prefill + KV-cache decode) for
 * decoder-only models.
 *
 * The paper evaluates full-sequence inference, which is exactly the
 * *prefill* phase of autoregressive serving. This module adds the
 * decode phase — one query token per step attending over a growing
 * key/value cache — so the library can quantify where softmax
 * recomposition matters in a generation workload: the attention
 * "matrix" of a decode step is a single 1 x C row per head, so there
 * is nothing for recomposition to save there; the benefit lives
 * entirely in the prefill.
 *
 * Two decode paths live here: the GPU cost-model simulation
 * (buildDecodeStep/runGeneration) and the *functional* KV-cached path
 * (DecoderStack/runPrefill/runDecodeStepInto) that actually computes
 * tokens on the CPU for the serving engine, bit-identical to
 * recomputing the full prefix through runEncoderLayer at every step.
 *
 * runEncoderLayer, both runPrefill overloads and runDecodeStepInto
 * share one layer body (decode.cpp), which runs the layer over R
 * rows in a DecodeStepWorkspace. Only attention depends on where the
 * rows sit: rows starting at position 0 (an encoder call, a first
 * prefill chunk) attend over their own projections with the batch
 * kernels; rows past position 0 (later chunks, decode steps) run the
 * decode kernel per (row, head) over the K/V rows before them.
 */

#ifndef SOFTREC_MODEL_DECODE_HPP
#define SOFTREC_MODEL_DECODE_HPP

#include <vector>

#include "core/attention_exec.hpp"
#include "kernels/decode_attention.hpp"
#include "model/engine.hpp"
#include "model/functional_layer.hpp"
#include "serve/kv_cache.hpp"

namespace softrec {

/** One generation request. */
struct DecodeRun
{
    int64_t promptLen = 4096;    //!< prefill (context) length
    int64_t generateTokens = 64; //!< tokens produced step by step
    int64_t batch = 1;
    /** Softmax strategy for the prefill phase. */
    Strategy prefillStrategy = Strategy::Baseline;
};

/** Measurements of one generation request. */
struct DecodeResult
{
    double prefillSeconds = 0.0;  //!< full-context forward pass
    double decodeSeconds = 0.0;   //!< all generation steps
    uint64_t prefillBytes = 0;    //!< prefill off-chip traffic
    uint64_t decodeBytes = 0;     //!< decode off-chip traffic
    int64_t kernelLaunches = 0;

    /** Total request latency. */
    double totalSeconds() const
    {
        return prefillSeconds + decodeSeconds;
    }
    /** Mean decode latency per generated token. */
    double secondsPerToken(int64_t tokens) const
    {
        return tokens > 0 ? decodeSeconds / double(tokens) : 0.0;
    }
};

/**
 * Kernels of one decode step at context length `context`: QKV/output
 * projections and FF GEMVs (weight-bound), the KV-cache attention
 * read, and the per-row softmax.
 */
std::vector<KernelProfile> buildDecodeStep(const GpuSpec &spec,
                                           const ModelConfig &model,
                                           int64_t batch,
                                           int64_t context);

/**
 * Run prefill + decode for a causal (decoder-only) model.
 */
DecodeResult runGeneration(const GpuSpec &spec,
                           const ModelConfig &model,
                           const DecodeRun &run);

/**
 * A functional decoder-only model: a causal FunctionalLayerConfig
 * plus one EncoderLayerWeights per layer, executed for real on the
 * CPU. The serving engine runs these; the bit-identity contract
 * (incremental decode == full-prefix recompute at every step)
 * requires dense Baseline-strategy attention, which
 * runPrefill/runDecodeStepInto assert.
 */
struct DecoderStack
{
    FunctionalLayerConfig config;
    std::vector<EncoderLayerWeights> layers;

    /** Randomly initialized stack with a causal dense config. */
    static DecoderStack random(int64_t d_model, int64_t num_heads,
                               int64_t d_ff, int64_t num_layers,
                               Rng &rng);
};

/**
 * Reject a stack the functional KV path does not support: it must be
 * causal, dense, Baseline-strategy, have layers, and have heads that
 * divide dModel. Throws std::logic_error. The model entry points call
 * this, and so does ServeEngine's constructor, so a bad stack fails
 * when the engine is built rather than on its serving thread.
 */
void checkFunctionalStack(const DecoderStack &stack);

/**
 * Full-context forward pass over the prompt, seeding `cache` with
 * every layer's K/V rows for all prompt tokens: one resumable-prefill
 * chunk covering the whole prompt. The cache must be empty and sized
 * for the stack's layer count.
 *
 * @param prompt [promptTokens, dModel] fp16
 * @return the stack's output, [promptTokens, dModel]; its last row is
 *         the input of the first decode step
 */
Tensor<Half> runPrefill(const ExecContext &ctx,
                        const DecoderStack &stack,
                        const Tensor<Half> &prompt, KvCache &cache);

/**
 * Resumable-prefill progress for one request: how many prompt rows
 * have been processed, plus per-layer staging of the *exact* fp16
 * K/V rows produced so far.
 *
 * The staging exists for bit-identity: a whole-prompt chunk attends
 * over the projection outputs directly, before the KV cache stores
 * them — so on a quantized cache a later chunk must not read earlier
 * rows back through the cache (that would fold the quantization
 * error of its own prompt into the prefill math). A split prompt
 * therefore attends over this exact staging and *also* appends every
 * row to the cache in the same per-layer order as a whole-prompt
 * chunk, which keeps the cache contents (including per-block
 * quantization decisions) identical too. A whole-prompt chunk never
 * reads the staging, so it is only sized by the first chunk of a
 * split prompt.
 */
struct PrefillState
{
    int64_t promptTokens = 0; //!< total prompt rows
    int64_t rowsDone = 0;     //!< rows already processed
    //! Exact fp16 K/V rows per layer, [promptTokens, dModel] once a
    //! split prompt's first chunk sized them.
    std::vector<Tensor<Half>> k, v;
    //! Stable single-pseudo-block base pointers into k/v for the
    //! contiguousKvView reads (one cell per layer).
    std::vector<const std::byte *> kBlock, vBlock;

    /** Set up for a prompt and reset progress to row 0. */
    void prepare(const DecoderStack &stack, int64_t prompt_tokens);
    /** True once every prompt row has been processed. */
    bool
    done() const
    {
        return rowsDone == promptTokens;
    }
};

/**
 * One worker slot's buffers for a head whose rows start at position 0
 * (attendOwnRows): the head's Q/K/V slices, its output and the
 * runAttention workspace. That workspace holds no L x L matrix: the
 * head's strips run serially on this slot, so it holds K and V packed
 * once (~R x dHead x 4 bytes each) and one strip of attnTiling.tileM
 * rows of scores/probabilities or X' plus m'/d'/r' (64 KiB per fp16
 * strip matrix at R = 2048 and 16-row strips).
 */
struct OwnRowsSlot
{
    AttentionWorkspace attn;
    AttentionInputs head; //!< Q/K/V slices, each [R, dHead]
    Tensor<Half> out;     //!< head output, [R, dHead]
};

/**
 * Buffers of the shared layer body: the layer input/output, the
 * projections, the attention output and the FF hidden activations,
 * plus, per worker slot, one DecodeAttendWorkspace (rows past
 * position 0) and one OwnRowsSlot (rows at position 0: a head's
 * Q/K/V slices, output, packed K/V and one attention strip). A
 * stage's output goes to a buffer whose contents are dead by then, so
 * the workspace holds only what attention needs live; sizing it up
 * front then costs an encoder call no more peak memory than
 * allocating each stage on use. The attention buffers of all slots
 * together stay below one R x R fp16 matrix at serving shapes (a
 * runtime gate in tests/test_decode.cpp checks a 2048-row causal
 * prefill and a non-causal SDF encoder layer on four threads). A
 * serving loop keeps one of these across its whole drain, for prefill
 * chunks and decode steps alike; after the buffers reach their
 * high-water shape (max rows, max context), stepping allocates no
 * activation or attention buffer.
 */
struct DecodeStepWorkspace
{
    Tensor<Half> x; //!< layer input/output, [R, dModel]
    //! Projections, [R, dModel]. Once attention has read them, q
    //! takes the fc.out result and then the layer output, v the
    //! post-attention Add & LayerNorm.
    Tensor<Half> q, k, v;
    //! Concatenated head outputs, [R, dModel]; then the ff.2 result.
    Tensor<Half> attention;
    Tensor<Half> ff1; //!< [R, dFf]
    //! One attention staging workspace per worker slot, indexed by
    //! ExecContext::currentThreadSlot() inside the head loop.
    std::vector<DecodeAttendWorkspace> attend;
    //! One whole-sequence attention workspace per worker slot, for
    //! rows that start at position 0 (attendOwnRows), indexed the
    //! same way.
    std::vector<OwnRowsSlot> ownRows;

    /** Size every buffer for an R-row layer of `config`. */
    void prepare(const FunctionalLayerConfig &config, int64_t rows);
};

/**
 * runEncoderLayer through a caller-kept workspace: the layer's output
 * is left in ws.x ([L, dModel]). The returning overload in
 * functional_layer.hpp wraps this with a fresh workspace.
 */
void runEncoderLayer(const ExecContext &ctx,
                     const FunctionalLayerConfig &config,
                     const EncoderLayerWeights &weights,
                     const Tensor<Half> &input, DecodeStepWorkspace &ws);

/**
 * Process the next `rows` prompt rows of a resumable prefill:
 * rows [state.rowsDone, state.rowsDone + rows) run through the
 * stack, their K/V land in `state`'s exact staging and in `cache`,
 * and `outputs` receives the stack output for exactly those rows
 * ([rows, dModel], via buffer swap). After the final chunk the last
 * output row is the first decode input, exactly as with the
 * one-shot overload.
 *
 * Bit-identity with the one-shot runPrefill, for every chunk split:
 * the projections are row-independent batched GEMMs; the first chunk
 * runs causal batch attention over its own rows, whose row i equals
 * the whole-prompt row i; every later row runs decodeAttendRun over
 * the exact staged prefix, which is pinned bit-identical to the batch
 * prefill row at the same position; and the post-attention stages are
 * row-local. Cache
 * appends happen row-ascending per layer, the same order as the
 * one-shot path, so the stored blocks (and their quantization
 * headers) match bit for bit as well.
 *
 * @param rows chunk size; 1 <= rows <= promptTokens - rowsDone
 * @param ws   step buffers reused across chunks and decode steps
 */
void runPrefill(const ExecContext &ctx, const DecoderStack &stack,
                const Tensor<Half> &prompt, int64_t rows,
                KvCache &cache, PrefillState &state,
                DecodeStepWorkspace &ws, Tensor<Half> &outputs);

/**
 * One decode step for a batch of R independent requests: row r of
 * `inputs` is request r's current token embedding and `caches[r]` its
 * KV cache. Appends each request's new K/V rows, attends over the
 * cached prefix in place (no recompute), and leaves the next token
 * embedding per request, [R, dModel], in `outputs`.
 *
 * Bit-identity: the projections run as one batched GEMM over all R
 * rows, which the packed GEMM computes row-independently, and every
 * per-request stage (cached attention, residual, LayerNorm, FF) is
 * row-local — so each row equals the last row of a full-prefix
 * recompute of that request alone, bit for bit, for any batch
 * composition, thread count, and SIMD backend. The workspace only
 * carries scratch buffers, never values across steps, so reusing it
 * cannot change results.
 *
 * @param ws      step buffers, resized (capacity-reusing) here
 * @param outputs receives the step result via buffer swap; any prior
 *                shape/contents are consumed as scratch
 */
void runDecodeStepInto(const ExecContext &ctx,
                       const DecoderStack &stack,
                       const Tensor<Half> &inputs,
                       const std::vector<KvCache *> &caches,
                       DecodeStepWorkspace &ws, Tensor<Half> &outputs);

} // namespace softrec

#endif // SOFTREC_MODEL_DECODE_HPP
