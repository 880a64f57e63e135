/**
 * @file
 * Machine-readable benchmark reports: every bench writes a
 * `BENCH_<name>.json` so the perf trajectory is tracked across PRs
 * (validated by tools/check_bench_json.py).
 *
 * Schema "softrec-bench-v1":
 *
 *     {
 *       "schema": "softrec-bench-v1",
 *       "name": "<bench name>",
 *       "config": { "<key>": <string|number|bool>, ... },
 *       "kernels": [
 *         { "name": "<scope>", "ms": <number>,
 *           ["ms_min": <number>, "ms_max": <number>,]
 *           "bytes_read": <integer>, "bytes_written": <integer>,
 *           "calls": <integer>, "threads": <integer> }, ...
 *       ],
 *       "derived": { "<key>": <number>, ... }
 *     }
 *
 * A row whose ms summarizes repeated runs (a median) may carry the
 * spread of those runs as ms_min/ms_max; the checker requires both or
 * neither and ms_min <= ms <= ms_max.
 *
 * All numbers are emitted with std::to_chars, so the output is
 * locale-independent by construction.
 */

#ifndef SOFTREC_COMMON_BENCH_REPORT_HPP
#define SOFTREC_COMMON_BENCH_REPORT_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/profiler.hpp"

namespace softrec {

/** One per-kernel row of a benchmark report. */
struct BenchKernelRow
{
    std::string name;
    double ms = 0.0;
    //! Fastest and slowest of the runs `ms` summarizes, when repeated.
    std::optional<double> msMin;
    std::optional<double> msMax;
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    int64_t calls = 0;
    int threads = 1;
};

/** Builder for one BENCH_<name>.json document. */
class BenchReport
{
  public:
    explicit BenchReport(std::string name);

    /** Record a config entry (insertion order is preserved). */
    void setConfig(const std::string &key, const std::string &value);
    void setConfig(const std::string &key, const char *value);
    void setConfig(const std::string &key, int64_t value);
    void setConfig(const std::string &key, double value);
    void setConfig(const std::string &key, bool value);

    /** Append one kernel row. */
    void addKernel(const BenchKernelRow &row);

    /** Append every scope of a profiler snapshot, sorted by name. */
    void addKernels(const prof::Profiler &profiler);

    /** Record a derived metric (speedup, traffic ratio, ...). */
    void setDerived(const std::string &key, double value);

    /** Render the JSON document (trailing newline included). */
    std::string render() const;

    /** Render to `path`; warns and returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /**
     * Conventional output path: `BENCH_<name>.json`, placed under
     * $SOFTREC_BENCH_DIR when that is set (CI points it at the repo
     * root so the perf trajectory accumulates there instead of being
     * stranded inside throwaway build trees).
     */
    std::string defaultPath() const;

  private:
    std::string name_;
    //! key -> already-rendered JSON value
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<BenchKernelRow> kernels_;
    std::vector<std::pair<std::string, double>> derived_;
};

/** Locale-independent shortest-round-trip JSON number. */
std::string jsonNumber(double value);

/** JSON string literal, quotes included. */
std::string jsonQuote(const std::string &text);

} // namespace softrec

#endif // SOFTREC_COMMON_BENCH_REPORT_HPP
