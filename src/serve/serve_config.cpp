/**
 * @file
 * Serving configuration environment parsing.
 */

#include "serve/serve_config.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "common/exec_context.hpp"
#include "common/logging.hpp"

namespace softrec {

namespace {

/**
 * Strict positive-integer environment knob: unset returns `fallback`,
 * anything else must parse exactly as an integer in [1, max]. No
 * silent fallback — a typo in a capacity knob must stop the server.
 */
int64_t
serveEnvInt(const char *var, int64_t fallback, int64_t max)
{
    const char *text = std::getenv(var);
    if (text == nullptr || *text == '\0')
        return fallback;
    char *end = nullptr;
    const long long parsed = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || parsed < 1 || parsed > max)
        fatal("%s='%s' is invalid: expected an integer in [1, %lld]; "
              "unset it to use the default (%lld)",
              var, text, (long long)max, (long long)fallback);
    return parsed;
}

/** SOFTREC_SERVE_KV_DTYPE: "f16" (the default) or "int8". */
KvDtype
kvDtypeFromEnv()
{
    const char *text = std::getenv("SOFTREC_SERVE_KV_DTYPE");
    if (text == nullptr || *text == '\0')
        return KvDtype::F16;
    if (std::strcmp(text, "f16") == 0)
        return KvDtype::F16;
    if (std::strcmp(text, "int8") == 0)
        return KvDtype::I8;
    fatal("SOFTREC_SERVE_KV_DTYPE='%s' is invalid: expected 'f16' or "
          "'int8'; unset it to use the default (f16)", text);
}

/** SOFTREC_SERVE_PREFILL_CHUNK: rows per prefill chunk, 0 = one shot. */
int64_t
prefillChunkTokensFromEnv()
{
    // serveEnvInt accepts [1, max] or unset: an explicit 0 (or any
    // garbage) is fatal, and only *unset* selects whole-prompt
    // prefill.
    return serveEnvInt("SOFTREC_SERVE_PREFILL_CHUNK", 0, 1 << 20);
}

} // namespace

ServeConfig
ServeConfig::fromEnv()
{
    ServeConfig config;
    config.maxBatchRows = serveEnvInt("SOFTREC_SERVE_BATCH_ROWS",
                                      config.maxBatchRows, 4096);
    config.tokenBudget = serveEnvInt("SOFTREC_SERVE_TOKEN_BUDGET",
                                     config.tokenBudget,
                                     int64_t(1) << 40);
    config.queueCapacity = serveEnvInt("SOFTREC_SERVE_QUEUE_CAP",
                                       config.queueCapacity, 1 << 20);
    config.streamCapacity = serveEnvInt("SOFTREC_SERVE_STREAM_CAP",
                                        config.streamCapacity, 1 << 20);
    config.kvDtype = kvDtypeFromEnv();
    config.prefillChunkTokens = prefillChunkTokensFromEnv();
    config.admission.softEnterPct =
        serveEnvInt("SOFTREC_SERVE_MODE_SOFT_PCT",
                    config.admission.softEnterPct, 100);
    config.admission.hardEnterPct =
        serveEnvInt("SOFTREC_SERVE_MODE_HARD_PCT",
                    config.admission.hardEnterPct, 100);
    config.admission.hysteresisPct =
        serveEnvInt("SOFTREC_SERVE_MODE_HYSTERESIS_PCT",
                    config.admission.hysteresisPct, 100);
    config.admission.tenantTokenBudget =
        serveEnvInt("SOFTREC_SERVE_TENANT_BUDGET",
                    config.admission.tenantTokenBudget,
                    int64_t(1) << 40);
    config.admission.softPromptCapTokens =
        serveEnvInt("SOFTREC_SERVE_SOFT_PROMPT_CAP",
                    config.admission.softPromptCapTokens,
                    int64_t(1) << 40);
    if (config.admission.softEnterPct >= config.admission.hardEnterPct)
        fatal("SOFTREC_SERVE_MODE_SOFT_PCT (%lld) must be strictly "
              "below SOFTREC_SERVE_MODE_HARD_PCT (%lld): the soft "
              "regime must be reachable before the hard one",
              (long long)config.admission.softEnterPct,
              (long long)config.admission.hardEnterPct);
    // Threads are latched by ExecContext::fromEnv; validate the value
    // eagerly so a malformed SOFTREC_THREADS is a startup error here
    // rather than a warning-and-serial-fallback deep in the pool.
    std::string why;
    if (!tryParseThreadCount(std::getenv("SOFTREC_THREADS"), &why)
             .has_value())
        fatal("%s; fix or unset SOFTREC_THREADS before serving "
              "(a silent serial fallback would mask a capacity "
              "regression)", why.c_str());
    return config;
}

void
ServeConfig::validate() const
{
    // The pressure sampler divides by tokenBudget and queueCapacity
    // at every step boundary; proving both >= 1 here is what makes
    // those divisions guard-free.
    SOFTREC_ASSERT(maxBatchRows >= 1,
                   "maxBatchRows must be >= 1 (got %lld)",
                   (long long)maxBatchRows);
    SOFTREC_ASSERT(tokenBudget >= 1,
                   "tokenBudget must be >= 1 (got %lld)",
                   (long long)tokenBudget);
    SOFTREC_ASSERT(queueCapacity >= 1,
                   "queueCapacity must be >= 1 (got %lld)",
                   (long long)queueCapacity);
    SOFTREC_ASSERT(kvBlockTokens >= 1,
                   "kvBlockTokens must be >= 1 (got %lld)",
                   (long long)kvBlockTokens);
    SOFTREC_ASSERT(streamCapacity >= 1,
                   "streamCapacity must be >= 1 (got %lld)",
                   (long long)streamCapacity);
    SOFTREC_ASSERT(prefillChunkTokens >= 0,
                   "prefillChunkTokens must be >= 0, 0 = whole prompt "
                   "as one chunk (got %lld)",
                   (long long)prefillChunkTokens);
}

} // namespace softrec
