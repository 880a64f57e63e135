/**
 * @file
 * Benchmark JSON report implementation.
 */

#include "common/bench_report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"

namespace softrec {

std::string
jsonNumber(double value)
{
    // JSON has no inf/nan literals; they only arise from degenerate
    // inputs (e.g. a zero-traffic ratio), so emit null and let the
    // schema checker flag any row where it matters.
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
jsonQuote(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x", c);
                out += esc;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {}

void
BenchReport::setConfig(const std::string &key, const std::string &value)
{
    config_.emplace_back(key, jsonQuote(value));
}

void
BenchReport::setConfig(const std::string &key, const char *value)
{
    setConfig(key, std::string(value));
}

void
BenchReport::setConfig(const std::string &key, int64_t value)
{
    config_.emplace_back(key, std::to_string(value));
}

void
BenchReport::setConfig(const std::string &key, double value)
{
    config_.emplace_back(key, jsonNumber(value));
}

void
BenchReport::setConfig(const std::string &key, bool value)
{
    config_.emplace_back(key, value ? "true" : "false");
}

void
BenchReport::addKernel(const BenchKernelRow &row)
{
    kernels_.push_back(row);
}

void
BenchReport::addKernels(const prof::Profiler &profiler)
{
    for (const auto &[name, stats] : profiler.snapshot()) {
        BenchKernelRow row;
        row.name = name;
        row.ms = stats.seconds * 1e3;
        row.bytesRead = stats.bytesRead;
        row.bytesWritten = stats.bytesWritten;
        row.calls = stats.calls;
        row.threads = stats.maxThreads;
        kernels_.push_back(row);
    }
}

void
BenchReport::setDerived(const std::string &key, double value)
{
    derived_.emplace_back(key, value);
}

std::string
BenchReport::render() const
{
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"softrec-bench-v1\",\n";
    out << "  \"name\": " << jsonQuote(name_) << ",\n";

    out << "  \"config\": {";
    for (size_t i = 0; i < config_.size(); ++i) {
        out << (i ? ",\n    " : "\n    ")
            << jsonQuote(config_[i].first) << ": "
            << config_[i].second;
    }
    out << (config_.empty() ? "" : "\n  ") << "},\n";

    out << "  \"kernels\": [";
    for (size_t i = 0; i < kernels_.size(); ++i) {
        const BenchKernelRow &row = kernels_[i];
        out << (i ? ",\n    " : "\n    ") << "{\"name\": "
            << jsonQuote(row.name)
            << ", \"ms\": " << jsonNumber(row.ms);
        if (row.msMin && row.msMax) {
            out << ", \"ms_min\": " << jsonNumber(*row.msMin)
                << ", \"ms_max\": " << jsonNumber(*row.msMax);
        }
        out << ", \"bytes_read\": " << row.bytesRead
            << ", \"bytes_written\": " << row.bytesWritten
            << ", \"calls\": " << row.calls
            << ", \"threads\": " << row.threads << "}";
    }
    out << (kernels_.empty() ? "" : "\n  ") << "],\n";

    out << "  \"derived\": {";
    for (size_t i = 0; i < derived_.size(); ++i) {
        out << (i ? ",\n    " : "\n    ")
            << jsonQuote(derived_[i].first) << ": "
            << jsonNumber(derived_[i].second);
    }
    out << (derived_.empty() ? "" : "\n  ") << "}\n";
    out << "}\n";
    return out.str();
}

bool
BenchReport::writeFile(const std::string &path) const
{
    std::ofstream file(path);
    if (!file) {
        warn("cannot write bench report to %s", path.c_str());
        return false;
    }
    file << render();
    return bool(file);
}

std::string
BenchReport::defaultPath() const
{
    std::string file = "BENCH_" + name_ + ".json";
    const char *dir = std::getenv("SOFTREC_BENCH_DIR");
    if (dir == nullptr || *dir == '\0')
        return file;
    std::string prefix(dir);
    if (prefix.back() != '/')
        prefix += '/';
    return prefix + file;
}

} // namespace softrec
