/**
 * @file
 * Low-overhead kernel profiler: named scopes recording wall time and
 * byte traffic (reads/writes issued by each functional kernel), with
 * race-free aggregation under the ThreadPool.
 *
 * Usage: attach a Profiler to an ExecContext (`ctx.profiler = &prof`)
 * and wrap each kernel body in a `prof::Scope`. Chunk bodies report
 * traffic through `addRead`/`addWrite`, which accumulate into a
 * cache-line-padded per-thread slot (indexed by currentThreadSlot())
 * — no atomics or locks on the hot path. The Scope destructor merges
 * the slots into the Profiler under a mutex; the pool's completion
 * handshake orders every worker's slot writes before the merge, so
 * the whole scheme is clean under ThreadSanitizer.
 *
 * When no profiler is attached (`ctx.profiler == nullptr`, the
 * default) a Scope is inert: no clock read, no allocation, and
 * `active()` is false so instrumented hot loops skip the counter
 * calls entirely.
 *
 * Traffic semantics: counters record the *unique operand bytes* a
 * kernel invocation touches (inputs read once, outputs written once),
 * mirroring the modeled DRAM traffic of `src/sim` under the paper's
 * on-chip-staging assumption — not the raw number of load/store
 * instructions. See docs/ARCHITECTURE.md "Observability".
 */

#ifndef SOFTREC_COMMON_PROFILER_HPP
#define SOFTREC_COMMON_PROFILER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.hpp"

namespace softrec {
namespace prof {

/** Aggregated totals for one named scope. */
struct ScopeStats
{
    //! summed wall time of Timed scopes (a Segmented scope adds its
    //! busiest thread's segment time)
    double seconds = 0.0;
    uint64_t bytesRead = 0;     //!< operand bytes read
    uint64_t bytesWritten = 0;  //!< operand bytes written
    int64_t calls = 0;          //!< scope entries (kernel invocations)
    int maxThreads = 1;         //!< widest concurrency seen
};

/**
 * Aggregation sink. Thread-safe: merge/snapshot/reset may be called
 * concurrently (Scope destructors merge from whichever thread runs
 * them). Scopes hold a pointer to the Profiler, so it must outlive
 * every ExecContext that references it.
 */
class Profiler
{
  public:
    /** Drop all accumulated stats. */
    void reset();

    /** Copy of all per-scope totals, keyed (and sorted) by name. */
    std::map<std::string, ScopeStats> snapshot() const;

    /** Totals for one scope; default ScopeStats if never entered. */
    ScopeStats statsFor(const std::string &name) const;

    /**
     * Record `count` occurrences of a named event (admission-mode
     * transitions, stream cancellations, …): bumps the scope's call
     * counter with zero time and zero traffic, so events share the
     * report plumbing with kernel scopes. `name` must outlive the
     * profiler (string literals in practice).
     */
    void addEvent(const char *name, int64_t count = 1);

  private:
    friend class Scope;
    void merge(const char *name, const ScopeStats &delta);

    mutable std::mutex mutex_;
    std::map<std::string, ScopeStats> stats_;
};

/**
 * RAII scope: construction notes the start time, destruction merges
 * elapsed wall time plus the per-thread traffic slots into the
 * context's profiler. A BytesOnly scope merges traffic and call count
 * but zero seconds — used for the fused-LS/GS byte attribution inside
 * GEMM epilogues/prologues, whose time is already counted by the
 * enclosing GEMM scope. A Segmented scope is entered once around a
 * loop that interleaves several stages (the strip loop of dense
 * attention) and times only the Segments run under it, on whichever
 * threads run them; it reports the busiest thread's summed segment
 * time, which is the stage's whole time when one thread runs the loop
 * and its share of the wall time when a pool splits it.
 *
 * `name` must outlive the scope (string literals in practice).
 */
class Scope
{
  public:
    enum class Kind { Timed, BytesOnly, Segmented };

    Scope(const ExecContext &ctx, const char *name,
          Kind kind = Kind::Timed);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** True when a profiler is attached and counters are recorded. */
    bool active() const { return profiler_ != nullptr; }

    /** Credit `bytes` of operand reads to the calling thread's slot. */
    void addRead(uint64_t bytes)
    {
        if (profiler_ != nullptr)
            slots_[size_t(currentThreadSlot())].read += bytes;
    }

    /** Credit `bytes` of operand writes to the calling thread's slot. */
    void addWrite(uint64_t bytes)
    {
        if (profiler_ != nullptr)
            slots_[size_t(currentThreadSlot())].written += bytes;
    }

  private:
    friend class Segment;

    /**
     * Padded to a cache line so two threads bumping adjacent slots
     * never false-share.
     */
    struct alignas(64) Slot
    {
        uint64_t read = 0;
        uint64_t written = 0;
        double seconds = 0.0; //!< Segmented scopes only
    };

    Profiler *profiler_ = nullptr; //!< nullptr = inert scope
    const char *name_ = nullptr;
    Kind kind_ = Kind::Timed;
    int threads_ = 1;
    std::chrono::steady_clock::time_point start_;
    std::vector<Slot> slots_;
};

/**
 * RAII timer of one piece of work under a Segmented scope: adds its
 * elapsed time to the calling thread's slot. Inert under a Timed or
 * BytesOnly scope (which time themselves, or not at all) and when no
 * profiler is attached, so a kernel body can open one on whatever
 * scope its caller hands it.
 */
class Segment
{
  public:
    explicit Segment(Scope &scope)
    {
        if (scope.profiler_ != nullptr &&
            scope.kind_ == Scope::Kind::Segmented) {
            scope_ = &scope;
            start_ = std::chrono::steady_clock::now();
        }
    }
    ~Segment()
    {
        if (scope_ != nullptr) {
            const auto stop = std::chrono::steady_clock::now();
            scope_->slots_[size_t(currentThreadSlot())].seconds +=
                std::chrono::duration<double>(stop - start_).count();
        }
    }
    Segment(const Segment &) = delete;
    Segment &operator=(const Segment &) = delete;

  private:
    Scope *scope_ = nullptr;
    std::chrono::steady_clock::time_point start_;
};

/**
 * Count an event against the context's profiler (inert, like Scope,
 * when none is attached).
 */
inline void
event(const ExecContext &ctx, const char *name, int64_t count = 1)
{
    if (ctx.profiler != nullptr)
        ctx.profiler->addEvent(name, count);
}

} // namespace prof
} // namespace softrec

#endif // SOFTREC_COMMON_PROFILER_HPP
