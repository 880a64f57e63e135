/**
 * @file
 * Serving configuration: engine limits plus admission thresholds.
 *
 * This is the single module allowed to read SOFTREC_SERVE_* from the
 * environment (enforced by the analyzer's env-registry rule). Every
 * malformed value is a hard startup error naming the variable, the
 * offending text, and the accepted range — a serving engine that
 * silently fell back to defaults would hide capacity regressions.
 */

#ifndef SOFTREC_SERVE_SERVE_CONFIG_HPP
#define SOFTREC_SERVE_SERVE_CONFIG_HPP

#include <cstdint>

#include "kernels/decode_attention.hpp"
#include "serve/admission.hpp"

namespace softrec {

/** Serving engine limits (see fromEnv for the environment knobs). */
struct ServeConfig
{
    int64_t maxBatchRows = 16;     //!< concurrent requests per step
    int64_t tokenBudget = 1 << 16; //!< max total KV tokens in flight
    int64_t queueCapacity = 64;    //!< bounded queue depth
    int64_t kvBlockTokens = 64;    //!< cached rows per slab block
    //! KV-cache storage format. tokenBudget is denominated in *fp16*
    //! tokens: a compressed format admits proportionally more tokens
    //! at the same slab byte budget (ServeEngine rebases the
    //! scheduler's effective budget on actual per-format block bytes).
    KvDtype kvDtype = KvDtype::F16;
    //! Per-request TokenStream ring depth (tokens buffered before the
    //! serving thread blocks on a slow consumer).
    int64_t streamCapacity = 64;
    //! Prompt rows processed per serve step during prefill. 0 runs
    //! the whole prompt as one chunk in the step that admits it; a
    //! positive value bounds how long an arriving prompt can
    //! displace active decode streams to one chunk per step, at
    //! bit-identical outputs (see runPrefill's resumable overload).
    int64_t prefillChunkTokens = 0;
    //! Mode thresholds and per-tenant budgets for the admission
    //! controller (see admission.hpp for the regime semantics).
    AdmissionThresholds admission;

    /**
     * Read overrides from the environment and validate SOFTREC_THREADS
     * eagerly. Knobs (all strict positive integers; fatal() on any
     * malformed value):
     *
     *   SOFTREC_SERVE_BATCH_ROWS          maxBatchRows
     *   SOFTREC_SERVE_TOKEN_BUDGET        tokenBudget
     *   SOFTREC_SERVE_QUEUE_CAP           queueCapacity
     *   SOFTREC_SERVE_STREAM_CAP          streamCapacity
     *   SOFTREC_SERVE_MODE_SOFT_PCT       admission.softEnterPct
     *   SOFTREC_SERVE_MODE_HARD_PCT      admission.hardEnterPct
     *   SOFTREC_SERVE_MODE_HYSTERESIS_PCT admission.hysteresisPct
     *   SOFTREC_SERVE_TENANT_BUDGET       admission.tenantTokenBudget
     *   SOFTREC_SERVE_SOFT_PROMPT_CAP     admission.softPromptCapTokens
     *
     * plus SOFTREC_SERVE_KV_DTYPE -> kvDtype (unset/empty means
     * f16; "f16" or "int8", anything else is fatal) and
     * SOFTREC_SERVE_PREFILL_CHUNK -> prefillChunkTokens (unset/empty
     * means 0, one-shot prefill at admission; otherwise a strict
     * positive integer, and an explicit 0 is fatal too).
     *
     * Cross-field rule: the soft threshold must stay strictly below
     * the hard threshold (also a hard error, since a crossed pair
     * would make the state machine unreachable-by-construction).
     */
    static ServeConfig fromEnv();

    /**
     * Hard-error (panic) unless every limit is usable: the engine
     * divides by tokenBudget and queueCapacity at every pressure
     * sample and sizes storage from the others, so all of
     * maxBatchRows, tokenBudget, queueCapacity, kvBlockTokens, and
     * streamCapacity must be >= 1, and prefillChunkTokens >= 0
     * (0 = whole prompt as one chunk). ServeEngine validates at construction so a
     * zeroed config is a startup error, not a divide-by-zero at the
     * first step boundary.
     */
    void validate() const;
};

} // namespace softrec

#endif // SOFTREC_SERVE_SERVE_CONFIG_HPP
