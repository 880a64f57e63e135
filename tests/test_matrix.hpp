/**
 * @file
 * The test configuration matrix. Every configuration axis is an
 * explicit gtest parameter, so a plain ctest run covers each case by
 * name and no test takes its configuration from a SOFTREC_* variable:
 *
 *  - ExecMatrix: thread count x SIMD backend, for entry points whose
 *    bits no named invariance test covers. Cases: serial on every
 *    available backend, and 4 threads on the detected one.
 *  - ServeMatrix: KV dtype x prefill chunk, for the serving-contract
 *    tests.
 *
 * Case names read like "threads4_f16c_avx512" and "int8_chunk3".
 */

#ifndef SOFTREC_TESTS_TEST_MATRIX_HPP
#define SOFTREC_TESTS_TEST_MATRIX_HPP

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"
#include "serve/kv_cache.hpp"
#include "serve/serve_config.hpp"

namespace softrec {

/** One execution configuration: thread count and SIMD backend. */
struct ExecCase
{
    int threads = 1;
    SimdBackend simd = SimdBackend::Scalar;
};

/** Serial on every available backend, then 4 threads on the detected one. */
inline std::vector<ExecCase>
execCases()
{
    std::vector<ExecCase> cases;
    for (const SimdBackend simd : availableSimdBackends())
        cases.push_back({1, simd});
    cases.push_back({4, detectedSimdBackend()});
    return cases;
}

/** The case's name, e.g. "threads4_f16c_avx512". */
inline std::string
execCaseString(const ExecCase &c)
{
    std::string name = "threads" + std::to_string(c.threads) + "_" +
                       simdBackendName(c.simd);
    std::replace(name.begin(), name.end(), '-', '_');
    return name;
}

inline std::string
execCaseName(const testing::TestParamInfo<ExecCase> &info)
{
    return execCaseString(info.param);
}

/** gtest's printer for an ExecCase: the case name, not its bytes. */
inline void
PrintTo(const ExecCase &c, std::ostream *os)
{
    *os << execCaseString(c);
}

/**
 * Fixture of an ExecMatrix suite: the test body runs on the case's
 * SIMD backend, and ctx() carries the case's thread count.
 */
class ExecMatrix : public testing::TestWithParam<ExecCase>
{
  protected:
    ExecMatrix() : pool_(GetParam().threads)
    {
        if (GetParam().threads > 1)
            ctx_.pool = &pool_;
    }
    void SetUp() override { saved_ = setSimdBackend(GetParam().simd); }
    void TearDown() override { setSimdBackend(saved_); }

    const ExecContext &ctx() const { return ctx_; }

  private:
    ThreadPool pool_;
    ExecContext ctx_;
    SimdBackend saved_ = SimdBackend::Scalar;
};

/** One serving configuration. */
struct ServeCase
{
    KvDtype kvDtype = KvDtype::F16;
    int64_t prefillChunkTokens = 0; //!< 0 = one-shot prefill
};

/** Both KV dtypes x each of `chunks`. */
inline std::vector<ServeCase>
serveCases(std::initializer_list<int64_t> chunks = {0, 3})
{
    std::vector<ServeCase> cases;
    for (const KvDtype dtype : {KvDtype::F16, KvDtype::I8})
        for (const int64_t chunk : chunks)
            cases.push_back({dtype, chunk});
    return cases;
}

/** The case's name, e.g. "int8_chunk3". */
inline std::string
serveCaseString(const ServeCase &c)
{
    return std::string(kvDtypeName(c.kvDtype)) + "_chunk" +
           std::to_string(c.prefillChunkTokens);
}

inline std::string
serveCaseName(const testing::TestParamInfo<ServeCase> &info)
{
    return serveCaseString(info.param);
}

/**
 * gtest's printer for a ServeCase, found by argument-dependent lookup:
 * the case name, where the default would dump the struct's bytes,
 * padding included.
 */
inline void
PrintTo(const ServeCase &c, std::ostream *os)
{
    *os << serveCaseString(c);
}

/**
 * Fixture of a ServeMatrix suite: onCase() moves a config to the
 * case's KV dtype and chunk.
 */
class ServeMatrix : public testing::TestWithParam<ServeCase>
{
  protected:
    static ServeConfig onCase(ServeConfig config)
    {
        config.kvDtype = GetParam().kvDtype;
        config.prefillChunkTokens = GetParam().prefillChunkTokens;
        return config;
    }
};

} // namespace softrec

#endif // SOFTREC_TESTS_TEST_MATRIX_HPP
