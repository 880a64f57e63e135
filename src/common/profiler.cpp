/**
 * @file
 * Profiler implementation: scope lifecycle and locked aggregation.
 */

#include "common/profiler.hpp"

#include <algorithm>

namespace softrec {
namespace prof {

void
Profiler::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.clear();
}

std::map<std::string, ScopeStats>
Profiler::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

ScopeStats
Profiler::statsFor(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = stats_.find(name);
    return it == stats_.end() ? ScopeStats{} : it->second;
}

void
Profiler::addEvent(const char *name, int64_t count)
{
    ScopeStats delta;
    delta.calls = count;
    merge(name, delta);
}

void
Profiler::merge(const char *name, const ScopeStats &delta)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ScopeStats &total = stats_[name];
    total.seconds += delta.seconds;
    total.bytesRead += delta.bytesRead;
    total.bytesWritten += delta.bytesWritten;
    total.calls += delta.calls;
    total.maxThreads = std::max(total.maxThreads, delta.maxThreads);
}

Scope::Scope(const ExecContext &ctx, const char *name, Kind kind)
{
    if (ctx.profiler == nullptr)
        return;
    profiler_ = ctx.profiler;
    name_ = name;
    kind_ = kind;
    threads_ = ctx.threads();
    // Sized for every slot any thread in the process can report
    // under, so nested scopes running inside worker chunks (which see
    // the worker's slot, not slot 0) always index in bounds.
    slots_.resize(size_t(maxThreadSlots()));
    if (kind_ == Kind::Timed)
        start_ = std::chrono::steady_clock::now();
}

Scope::~Scope()
{
    if (profiler_ == nullptr)
        return;
    ScopeStats delta;
    if (kind_ == Kind::Timed) {
        const auto stop = std::chrono::steady_clock::now();
        delta.seconds =
            std::chrono::duration<double>(stop - start_).count();
    }
    // The pool's completion handshake (ThreadPool::run returns only
    // after every worker left drain(), under the pool mutex) ordered
    // all worker slot writes before this read.
    for (const Slot &slot : slots_) {
        delta.bytesRead += slot.read;
        delta.bytesWritten += slot.written;
        if (kind_ == Kind::Segmented)
            delta.seconds = std::max(delta.seconds, slot.seconds);
    }
    delta.calls = 1;
    delta.maxThreads = threads_;
    profiler_->merge(name_, delta);
}

} // namespace prof
} // namespace softrec
