/**
 * @file
 * Unit tests of the BenchReport JSON emitter and its primitives:
 * schema fields, jsonNumber/jsonQuote correctness, locale
 * independence of the formatting paths, and round-tripping a
 * profiler snapshot into kernel rows.
 */

#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/bench_report.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"

namespace softrec {
namespace {

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

TEST(JsonNumber, IntegersAndFractions)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-3.0), "-3");
    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(jsonNumber(1.25), "1.25");
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "null");
}

TEST(JsonQuote, EscapesSpecials)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(jsonQuote("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(jsonQuote("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(jsonQuote(std::string("a\x01") + "b"),
              "\"a\\u0001b\"");
}

TEST(BenchReport, EmitsSchemaAndSections)
{
    BenchReport report("unit");
    report.setConfig("seq_len", int64_t(512));
    report.setConfig("gpu", "A100");
    report.setConfig("checked", false);
    report.setConfig("scale", 0.125);
    BenchKernelRow row;
    row.name = "softmax.row";
    row.ms = 1.5;
    row.bytesRead = 1024;
    row.bytesWritten = 2048;
    row.calls = 3;
    row.threads = 4;
    report.addKernel(row);
    report.setDerived("speedup", 1.25);

    const std::string json = report.render();
    EXPECT_TRUE(contains(json, "\"schema\": \"softrec-bench-v1\""));
    EXPECT_TRUE(contains(json, "\"name\": \"unit\""));
    EXPECT_TRUE(contains(json, "\"seq_len\": 512"));
    EXPECT_TRUE(contains(json, "\"gpu\": \"A100\""));
    EXPECT_TRUE(contains(json, "\"checked\": false"));
    EXPECT_TRUE(contains(json, "\"scale\": 0.125"));
    EXPECT_TRUE(contains(json, "\"name\": \"softmax.row\""));
    EXPECT_TRUE(contains(json, "\"ms\": 1.5"));
    EXPECT_TRUE(contains(json, "\"bytes_read\": 1024"));
    EXPECT_TRUE(contains(json, "\"bytes_written\": 2048"));
    EXPECT_TRUE(contains(json, "\"calls\": 3"));
    EXPECT_TRUE(contains(json, "\"threads\": 4"));
    EXPECT_TRUE(contains(json, "\"speedup\": 1.25"));
    EXPECT_FALSE(contains(json, "ms_min"));
    EXPECT_EQ(json.back(), '\n');
}

TEST(BenchReport, RowSpreadFollowsTheMedian)
{
    BenchReport report("unit");
    BenchKernelRow row;
    row.name = "sdf/sda.qk";
    row.ms = 2.5;
    row.msMin = 2.25;
    row.msMax = 5.0;
    report.addKernel(row);
    EXPECT_TRUE(contains(report.render(),
                         "\"ms\": 2.5, \"ms_min\": 2.25, "
                         "\"ms_max\": 5, \"bytes_read\""));
}

TEST(BenchReport, DefaultPathUsesName)
{
    const char *saved = std::getenv("SOFTREC_BENCH_DIR");
    unsetenv("SOFTREC_BENCH_DIR");
    BenchReport report("micro_kernels");
    EXPECT_EQ(report.defaultPath(), "BENCH_micro_kernels.json");
    if (saved != nullptr)
        setenv("SOFTREC_BENCH_DIR", saved, 1);
}

TEST(BenchReport, BenchDirOverridesTheReportDirectory)
{
    const char *previous = std::getenv("SOFTREC_BENCH_DIR");
    const std::string saved = previous != nullptr ? previous : "";

    BenchReport report("serve_throughput");
    setenv("SOFTREC_BENCH_DIR", "/tmp/reports", 1);
    EXPECT_EQ(report.defaultPath(),
              "/tmp/reports/BENCH_serve_throughput.json");
    // A trailing slash must not produce a double separator.
    setenv("SOFTREC_BENCH_DIR", "/tmp/reports/", 1);
    EXPECT_EQ(report.defaultPath(),
              "/tmp/reports/BENCH_serve_throughput.json");
    // Empty behaves like unset: current working directory.
    setenv("SOFTREC_BENCH_DIR", "", 1);
    EXPECT_EQ(report.defaultPath(), "BENCH_serve_throughput.json");
    unsetenv("SOFTREC_BENCH_DIR");
    EXPECT_EQ(report.defaultPath(), "BENCH_serve_throughput.json");

    if (previous != nullptr)
        setenv("SOFTREC_BENCH_DIR", saved.c_str(), 1);
}

TEST(BenchReport, AddKernelsFromProfiler)
{
    prof::Profiler profiler;
    ExecContext ctx;
    ctx.profiler = &profiler;
    {
        prof::Scope scope(ctx, "kernel.b");
        scope.addWrite(64);
    }
    {
        prof::Scope scope(ctx, "kernel.a");
        scope.addRead(32);
    }
    BenchReport report("unit");
    report.addKernels(profiler);
    const std::string json = report.render();
    EXPECT_TRUE(contains(json, "\"name\": \"kernel.a\""));
    EXPECT_TRUE(contains(json, "\"name\": \"kernel.b\""));
    // Snapshot is a std::map, so rows arrive sorted by name.
    EXPECT_LT(json.find("kernel.a"), json.find("kernel.b"));
}

/**
 * The whole point of std::to_chars + the C-locale vsnprintf guard: a
 * comma-decimal locale must not leak into JSON numbers or any
 * strprintf-formatted float. de_DE may be absent in minimal
 * containers; setlocale then returns nullptr and the test silently
 * degrades to re-checking the C locale, which is still a valid run.
 */
TEST(BenchReport, LocaleIndependentFormatting)
{
    const char *previous = std::setlocale(LC_ALL, nullptr);
    const std::string saved = previous != nullptr ? previous : "C";
    std::setlocale(LC_ALL, "de_DE.UTF-8");

    EXPECT_EQ(jsonNumber(0.5), "0.5");
    EXPECT_EQ(strprintf("%.2f", 1.25), "1.25");
    BenchReport report("locale");
    report.setConfig("scale", 0.125);
    report.setDerived("ratio", 2.5);
    const std::string json = report.render();
    EXPECT_TRUE(contains(json, "\"scale\": 0.125"));
    EXPECT_TRUE(contains(json, "\"ratio\": 2.5"));
    EXPECT_FALSE(contains(json, "0,125"));

    std::setlocale(LC_ALL, saved.c_str());
}

} // namespace
} // namespace softrec
