/**
 * @file
 * Generation (prefill + decode) implementation.
 */

#include "model/decode.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "core/attention_exec.hpp"
#include "kernels/decode_attention.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/softmax_kernels.hpp"

namespace softrec {

std::vector<KernelProfile>
buildDecodeStep(const GpuSpec &spec, const ModelConfig &model,
                int64_t batch, int64_t context)
{
    SOFTREC_ASSERT(context > 0 && batch > 0, "empty decode step");
    const int64_t dm = model.dModel;
    std::vector<KernelProfile> step;

    auto add_gemv = [&](const std::string &name, KernelCategory cat,
                        int64_t n, int64_t k) {
        // One token per sequence: a GEMV, not a GEMM. Real libraries
        // launch one thread block per slice of output rows so the
        // N x K weight matrix streams from DRAM at full rate; tensor
        // cores are useless at M = 1.
        KernelProfile prof;
        prof.name = name;
        prof.category = cat;
        const uint64_t weight_bytes = uint64_t(n * k) * kFp16Bytes;
        prof.geom.numBlocks =
            std::max<int64_t>(1, int64_t(weight_bytes) / 4096);
        prof.geom.block.threads = 256;
        prof.geom.block.regsPerThread = 32;
        prof.dramReadBytes =
            weight_bytes + uint64_t(batch * k) * kFp16Bytes +
            uint64_t(n) * kFp32Bytes; // weights + x + bias
        prof.dramWriteBytes = uint64_t(batch * n) * kFp16Bytes;
        prof.cudaFlops = 2.0 * double(batch) * double(n) * double(k);
        step.push_back(prof);
    };

    add_gemv("dec.fc.q", KernelCategory::Fc, dm, dm);
    add_gemv("dec.fc.k", KernelCategory::Fc, dm, dm);
    add_gemv("dec.fc.v", KernelCategory::Fc, dm, dm);

    // Attention over the KV cache: per head, a 1 x C score row, its
    // softmax, and the 1 x C times C x dHead reduction. All three are
    // bound by streaming the K and V cache (C x D_m fp16 each).
    {
        // Flash-decoding style: each head's 1 x C reduction is split
        // across context chunks so the cache streams at full rate.
        KernelProfile attn;
        attn.name = "dec.attn";
        attn.category = KernelCategory::SdaMatMul;
        attn.geom.numBlocks =
            batch * model.numHeads * ceilDiv(context, 256);
        attn.geom.block.threads = 256;
        attn.geom.block.smemBytes =
            uint64_t(context) * kFp32Bytes; // score row staging
        attn.geom.block.regsPerThread = 64;
        const uint64_t cache_bytes =
            uint64_t(2 * batch * context * dm) * kFp16Bytes;
        attn.dramReadBytes =
            cache_bytes + uint64_t(batch * dm) * kFp16Bytes;
        attn.dramWriteBytes = uint64_t(batch * dm) * kFp16Bytes;
        attn.cudaFlops = 4.0 * double(batch) * double(context) *
                         double(dm);
        attn.sfuOps =
            double(batch * model.numHeads) * double(context);
        step.push_back(attn);
    }

    add_gemv("dec.fc.out", KernelCategory::Fc, dm, dm);
    step.push_back(
        residualAddProfile(spec, "dec.mha.residual", batch * dm));
    step.push_back(layerNormProfile(spec, "dec.mha.ln", batch, dm));
    add_gemv("dec.ff.1", KernelCategory::FeedForward, model.dFf, dm);
    add_gemv("dec.ff.2", KernelCategory::FeedForward, dm, model.dFf);
    step.push_back(
        residualAddProfile(spec, "dec.ff.residual", batch * dm));
    step.push_back(layerNormProfile(spec, "dec.ff.ln", batch, dm));
    return step;
}

DecodeResult
runGeneration(const GpuSpec &spec, const ModelConfig &model,
              const DecodeRun &run)
{
    SOFTREC_ASSERT(model.causalMask,
                   "generation needs a causal (decoder-only) model");
    SOFTREC_ASSERT(run.promptLen > 0 && run.generateTokens >= 0,
                   "empty generation request");

    DecodeResult result;

    // Prefill: the full-context forward pass the paper evaluates.
    RunConfig prefill;
    prefill.seqLen = run.promptLen;
    prefill.batch = run.batch;
    prefill.strategy = run.prefillStrategy;
    const InferenceResult prefill_result =
        runInference(spec, model, prefill);
    result.prefillSeconds = prefill_result.seconds;
    result.prefillBytes = prefill_result.dramBytes();
    result.kernelLaunches = prefill_result.kernelLaunches;

    // Decode: one token at a time over the growing cache.
    Gpu gpu(spec);
    for (int64_t t = 0; t < run.generateTokens; ++t) {
        const int64_t context = run.promptLen + t + 1;
        const auto step =
            buildDecodeStep(spec, model, run.batch, context);
        for (int64_t layer = 0; layer < model.numLayers; ++layer)
            for (const KernelProfile &prof : step)
                gpu.launch(prof);
    }
    result.decodeSeconds = gpu.totalSeconds();
    result.decodeBytes = gpu.totalDramBytes();
    result.kernelLaunches += int64_t(gpu.timeline().size());
    return result;
}

namespace {

/** Copy head columns [h*dh, (h+1)*dh) of x into out, [L, dh]. */
void
sliceHeadInto(const Tensor<Half> &x, int64_t head, int64_t d_head,
              Tensor<Half> &out)
{
    const int64_t rows = x.shape().dim(0);
    out.resize(Shape({rows, d_head}));
    for (int64_t i = 0; i < rows; ++i)
        std::copy(x.rowPtr(i) + head * d_head,
                  x.rowPtr(i) + (head + 1) * d_head, out.rowPtr(i));
}

/**
 * Attention for rows that start at position 0: the rows are the whole
 * sequence so far, so each head runs the batch kernel of the
 * configured strategy over the rows' own Q/K/V, causal or not as
 * configured. Heads are independent problems writing disjoint
 * column bands of ws.attention, so they parallelize at grain 1; the
 * kernels inside each head then run inline (nested regions degrade
 * to serial), keeping the math order head-local and the result
 * bit-identical for any thread count. Each head stages its slices
 * and intermediates in the worker slot's OwnRowsSlot: heads on
 * the same worker run one after another, so a slot is never shared.
 */
void
attendOwnRows(const ExecContext &ctx,
              const FunctionalLayerConfig &config,
              DecodeStepWorkspace &ws)
{
    const int64_t rows = ws.q.shape().dim(0);
    const int64_t dh = config.dHead();
    SdaConfig sda;
    sda.seqLen = rows;
    sda.dHead = dh;
    sda.causalMask = config.causalMask;
    sda.layout = config.layout;
    sda.subVector = config.subVector;
    sda.attnTiling = config.attnTiling;

    parallelFor(ctx, 0, config.numHeads, 1,
                [&](int64_t head0, int64_t head1) {
        OwnRowsSlot &slot = ws.ownRows[size_t(currentThreadSlot())];
        for (int64_t head = head0; head < head1; ++head) {
            sliceHeadInto(ws.q, head, dh, slot.head.q);
            sliceHeadInto(ws.k, head, dh, slot.head.k);
            sliceHeadInto(ws.v, head, dh, slot.head.v);
            runAttention(ctx, sda, slot.head, config.strategy,
                         slot.attn, slot.out);
            for (int64_t i = 0; i < rows; ++i)
                std::copy(slot.out.rowPtr(i), slot.out.rowPtr(i) + dh,
                          ws.attention.rowPtr(i) + head * dh);
        }
    });
}

/**
 * The layer body, the only place a transformer layer is computed:
 * LayerNorm(x + MHA(x)), then LayerNorm(h + FF(h)), over the R rows
 * in ws.x, leaving the result in ws.x.
 *
 * `start` is the sequence position of row 0 and picks the attention
 * path. At 0 the rows are the whole sequence so far and attend over
 * themselves (attendOwnRows). Past 0 each (row, head) runs
 * decodeAttendRun over `prefix_kv(r, k, v)`, the K/V rows row r
 * attends to, which must already hold row r itself.
 * `store_kv(k, v)` sees the layer's fresh K/V projections before
 * attention runs, so callers stage or append them there.
 *
 * Bit-identity across callers rests on three facts: the packed GEMMs
 * compute each output row independently, the decode kernel replicates
 * the batch row at the same position exactly (its GEMM epilogue and
 * row softmax are the strip path's own primitives), and the fused
 * residual Add & LayerNorm and GELU are row-local: a row's bits do not
 * depend on which rows share its 16-row block or call.
 */
template <typename StoreKv, typename PrefixKv>
void
runLayer(const ExecContext &ctx, const FunctionalLayerConfig &config,
         const EncoderLayerWeights &w, int64_t start,
         DecodeStepWorkspace &ws, const StoreKv &store_kv,
         const PrefixKv &prefix_kv)
{
    projectRowsInto(ctx, "fc.q", ws.x, w.wq, w.bq, false, ws.q);
    projectRowsInto(ctx, "fc.k", ws.x, w.wk, w.bk, false, ws.k);
    projectRowsInto(ctx, "fc.v", ws.x, w.wv, w.bv, false, ws.v);
    store_kv(ws.k, ws.v);

    if (start == 0) {
        attendOwnRows(ctx, config, ws);
    } else {
        const int64_t heads = config.numHeads;
        const int64_t dh = config.dHead();
        DecodeAttendDesc attend;
        attend.dHead = dh;
        attend.scale = 1.0 / std::sqrt(double(dh));
        // (row, head) attention problems are independent and write
        // disjoint output slices; grain 1 mirrors the per-head
        // parallelism of the batch path. Staging comes from the
        // per-worker-slot pool: chunks on the same worker run
        // sequentially, so a slot's workspace is never shared.
        parallelFor(ctx, 0, ws.q.shape().dim(0) * heads, 1,
                    [&](int64_t i0, int64_t i1) {
            DecodeAttendWorkspace &attend_ws =
                ws.attend[size_t(currentThreadSlot())];
            for (int64_t i = i0; i < i1; ++i) {
                const int64_t r = i / heads;
                const int64_t h = i % heads;
                DecodeAttendDesc head = attend;
                head.headOffset = h * dh;
                KvRowsView k_view, v_view;
                prefix_kv(r, k_view, v_view);
                decodeAttendRun(ctx, head, ws.q.rowPtr(r) + h * dh,
                                k_view, v_view,
                                ws.attention.rowPtr(r) + h * dh,
                                &attend_ws);
            }
        });
    }

    // Each output below lands in a buffer nothing reads any more.
    Tensor<Half> &projected = ws.q;
    Tensor<Half> &hidden = ws.v;
    projectRowsInto(ctx, "fc.out", ws.attention, w.wo, w.bo, false,
                    projected);
    residualLayerNormRun(ctx, ws.x, projected, w.gamma1, w.beta1, hidden);

    Tensor<Half> &ff2 = ws.attention;
    Tensor<Half> &out = ws.q;
    projectRowsInto(ctx, "ff.1", hidden, w.w1, w.b1, /*gelu=*/true,
                    ws.ff1);
    projectRowsInto(ctx, "ff.2", ws.ff1, w.w2, w.b2, false, ff2);
    residualLayerNormRun(ctx, hidden, ff2, w.gamma2, w.beta2, out);
    std::swap(ws.x, out);
}

} // namespace

Tensor<Half>
runEncoderLayer(const ExecContext &ctx,
                const FunctionalLayerConfig &config,
                const EncoderLayerWeights &weights,
                const Tensor<Half> &input)
{
    DecodeStepWorkspace ws;
    runEncoderLayer(ctx, config, weights, input, ws);
    return std::move(ws.x);
}

void
runEncoderLayer(const ExecContext &ctx,
                const FunctionalLayerConfig &config,
                const EncoderLayerWeights &weights,
                const Tensor<Half> &input, DecodeStepWorkspace &ws)
{
    SOFTREC_ASSERT(input.shape().rank() == 2 &&
                   input.shape().dim(1) == config.dModel,
                   "input must be [L, dModel]");
    SOFTREC_ASSERT(config.dModel % config.numHeads == 0,
                   "heads must divide dModel");

    // Time-only summary scope around the whole layer.
    prof::Scope scope(ctx, "layer.encoder");
    ws.prepare(config, input.shape().dim(0));
    std::copy(input.data(), input.data() + input.numel(), ws.x.data());
    // The rows are the whole sequence and no K/V outlives the call.
    runLayer(ctx, config, weights, /*start=*/0, ws,
             [](const Tensor<Half> &, const Tensor<Half> &) {},
             [](int64_t, KvRowsView &, KvRowsView &) {});
}

void
checkFunctionalStack(const DecoderStack &stack)
{
    SOFTREC_ASSERT(stack.config.causalMask,
                   "KV-cached decode needs a causal stack");
    SOFTREC_ASSERT(stack.config.layout == nullptr &&
                   stack.config.strategy == Strategy::Baseline,
                   "the decode bit-identity contract covers dense "
                   "Baseline-strategy attention only");
    SOFTREC_ASSERT(!stack.layers.empty(),
                   "decoder stack has no layers");
    SOFTREC_ASSERT(stack.config.dModel % stack.config.numHeads == 0,
                   "heads must divide dModel");
}

DecoderStack
DecoderStack::random(int64_t d_model, int64_t num_heads, int64_t d_ff,
                     int64_t num_layers, Rng &rng)
{
    SOFTREC_ASSERT(num_layers > 0, "stack needs at least one layer");
    DecoderStack stack;
    stack.config.dModel = d_model;
    stack.config.numHeads = num_heads;
    stack.config.dFf = d_ff;
    stack.config.causalMask = true;
    stack.layers.reserve(size_t(num_layers));
    for (int64_t l = 0; l < num_layers; ++l)
        stack.layers.push_back(
            EncoderLayerWeights::random(d_model, d_ff, rng));
    return stack;
}

Tensor<Half>
runPrefill(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &prompt, KvCache &cache)
{
    SOFTREC_ASSERT(prompt.shape().rank() == 2,
                   "prompt must be [tokens, dModel]");
    PrefillState state;
    state.prepare(stack, prompt.shape().dim(0));
    DecodeStepWorkspace ws;
    Tensor<Half> out;
    runPrefill(ctx, stack, prompt, state.promptTokens, cache, state, ws,
               out);
    return out;
}

void
PrefillState::prepare(const DecoderStack &stack,
                      int64_t prompt_tokens)
{
    SOFTREC_ASSERT(prompt_tokens >= 1,
                   "prefill needs at least one prompt row");
    promptTokens = prompt_tokens;
    rowsDone = 0;
    const size_t num_layers = stack.layers.size();
    k.resize(num_layers);
    v.resize(num_layers);
    kBlock.resize(num_layers);
    vBlock.resize(num_layers);
}

void
runPrefill(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &prompt, int64_t rows, KvCache &cache,
           PrefillState &state, DecodeStepWorkspace &ws,
           Tensor<Half> &outputs)
{
    checkFunctionalStack(stack);
    const int64_t dm = stack.config.dModel;
    SOFTREC_ASSERT(prompt.shape().rank() == 2 &&
                       prompt.shape().dim(0) == state.promptTokens &&
                       prompt.shape().dim(1) == dm,
                   "prompt must be [promptTokens, dModel] and match "
                   "the prepared state");
    SOFTREC_ASSERT(rows >= 1 &&
                       state.rowsDone + rows <= state.promptTokens,
                   "chunk of %lld rows does not fit: %lld of %lld "
                   "prompt rows done",
                   (long long)rows, (long long)state.rowsDone,
                   (long long)state.promptTokens);
    SOFTREC_ASSERT(cache.numLayers() == int64_t(stack.layers.size()) &&
                       cache.context() == state.rowsDone,
                   "cache context (%lld) must equal the rows already "
                   "prefilled (%lld)",
                   (long long)cache.context(),
                   (long long)state.rowsDone);

    prof::Scope scope(ctx, "decode.prefill");
    const int64_t c0 = state.rowsDone;
    // Later chunks read earlier rows back, so a split prompt stages
    // the exact rows; a whole-prompt chunk attends over its own
    // projections and never touches the staging.
    const bool staged = rows < state.promptTokens;
    if (staged && c0 == 0) {
        for (size_t l = 0; l < stack.layers.size(); ++l) {
            state.k[l].resize(Shape({state.promptTokens, dm}));
            state.v[l].resize(Shape({state.promptTokens, dm}));
            state.kBlock[l] =
                reinterpret_cast<const std::byte *>(state.k[l].data());
            state.vBlock[l] =
                reinterpret_cast<const std::byte *>(state.v[l].data());
        }
    }

    ws.prepare(stack.config, rows);
    std::copy(prompt.rowPtr(c0), prompt.rowPtr(c0) + rows * dm,
              ws.x.data());
    for (size_t l = 0; l < stack.layers.size(); ++l) {
        // Appends run row-ascending per layer whatever the split, so
        // a quantized cache makes identical per-block decisions.
        const auto store = [&](const Tensor<Half> &k,
                               const Tensor<Half> &v) {
            if (staged) {
                std::copy(k.data(), k.data() + rows * dm,
                          state.k[l].rowPtr(c0));
                std::copy(v.data(), v.data() + rows * dm,
                          state.v[l].rowPtr(c0));
            }
            for (int64_t r = 0; r < rows; ++r)
                cache.appendRow(int64_t(l), k.rowPtr(r), v.rowPtr(r));
        };
        // Row r (position c0 + r) attends causally over the exact
        // staged prefix [0, c0 + r].
        const auto prefix = [&](int64_t r, KvRowsView &k,
                                KvRowsView &v) {
            k = contiguousKvView(&state.kBlock[l], state.promptTokens,
                                 dm, c0 + r + 1);
            v = contiguousKvView(&state.vBlock[l], state.promptTokens,
                                 dm, c0 + r + 1);
        };
        runLayer(ctx, stack.config, stack.layers[l], c0, ws, store,
                 prefix);
    }
    state.rowsDone += rows;
    std::swap(outputs, ws.x);
}

void
DecodeStepWorkspace::prepare(const FunctionalLayerConfig &config,
                             int64_t rows)
{
    const Shape rd({rows, config.dModel});
    x.resize(rd);
    q.resize(rd);
    k.resize(rd);
    v.resize(rd);
    attention.resize(rd);
    ff1.resize(Shape({rows, config.dFf}));
    if (int64_t(attend.size()) < int64_t(maxThreadSlots()))
        attend.resize(size_t(maxThreadSlots()));
    if (int64_t(ownRows.size()) < int64_t(maxThreadSlots()))
        ownRows.resize(size_t(maxThreadSlots()));
}

void
runDecodeStepInto(const ExecContext &ctx, const DecoderStack &stack,
                  const Tensor<Half> &inputs,
                  const std::vector<KvCache *> &caches,
                  DecodeStepWorkspace &ws, Tensor<Half> &outputs)
{
    checkFunctionalStack(stack);
    const int64_t rows = inputs.shape().dim(0);
    SOFTREC_ASSERT(inputs.shape().rank() == 2 &&
                   inputs.shape().dim(1) == stack.config.dModel &&
                   rows >= 1,
                   "decode inputs must be [R, dModel]");
    SOFTREC_ASSERT(int64_t(caches.size()) == rows,
                   "one KvCache per batch row (%lld != %lld)",
                   (long long)caches.size(), (long long)rows);
    for (const KvCache *cache : caches)
        SOFTREC_ASSERT(cache != nullptr &&
                       cache->numLayers() ==
                           int64_t(stack.layers.size()) &&
                       cache->context() >= 1,
                       "decode needs prefilled caches");

    prof::Scope scope(ctx, "decode.step");
    ws.prepare(stack.config, rows);
    std::copy(inputs.data(), inputs.data() + inputs.numel(),
              ws.x.data());
    // Every row sits past position 0: its cache holds the prompt.
    const int64_t start = caches[0]->context();
    for (size_t l = 0; l < stack.layers.size(); ++l) {
        const auto append = [&](const Tensor<Half> &k,
                                const Tensor<Half> &v) {
            for (int64_t r = 0; r < rows; ++r)
                caches[size_t(r)]->appendRow(int64_t(l), k.rowPtr(r),
                                             v.rowPtr(r));
        };
        // Each request attends over its own cache, new row included.
        const auto cached = [&](int64_t r, KvRowsView &k,
                                KvRowsView &v) {
            k = caches[size_t(r)]->kView(int64_t(l));
            v = caches[size_t(r)]->vView(int64_t(l));
        };
        runLayer(ctx, stack.config, stack.layers[l], start, ws, append,
                 cached);
    }
    // Hand the result storage to the caller and keep its old buffer
    // as next step's scratch — no copy, no allocation.
    std::swap(outputs, ws.x);
}

} // namespace softrec
