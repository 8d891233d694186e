/**
 * @file
 * Host-side sampling profiler: where does *wall-clock* time go while
 * the simulator runs? Strictly separated from the deterministic
 * outputs — everything recorded here is steady_clock host time and
 * is only ever written to `--prof` NDJSON sidecars (schema
 * smtsim-prof-v1), the merged Chrome-trace host tracks, and the
 * explicitly-nondeterministic hostProfile JSON block. No value from
 * this file may flow into golden-checked, journaled, or telemetry
 * output.
 *
 * Usage contract:
 *  - Register every scope with scope() *before* worker threads
 *    start (registration is single-threaded); the returned id is
 *    stable for the profiler's lifetime.
 *  - add() is thread-safe (relaxed atomics) and cheap: one or two
 *    steady_clock reads per timed region. Tick-granular call sites
 *    additionally decimate 1-in-sampleEvery() ticks so the profiler
 *    never dominates the hot loop, and register their scopes as
 *    sampled so reports can scale them back to estimated totals.
 *  - Zero overhead when off: no HostProfiler object exists unless
 *    --prof was given, and every hook is guarded by a null check.
 */

#ifndef DCRA_SMT_PROF_HOST_PROFILER_HH
#define DCRA_SMT_PROF_HOST_PROFILER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "prof/host_info.hh"

namespace smt {

class HostProfiler
{
  public:
    /**
     * sampleEvery: tick-granular call sites time 1 in N ticks.
     * maxSpans: bound on the per-span buffer (spans are only kept
     * when enableSpans(true), i.e. a Chrome-trace merge is wanted);
     * overflow increments droppedSpans instead of growing.
     */
    explicit HostProfiler(std::uint64_t sampleEvery = 64,
                          std::size_t maxSpans = 1u << 18);

    std::uint64_t sampleEvery() const { return every; }

    /**
     * Register (or look up) a named scope and return its id. A
     * @p sampled scope is timed on 1 in sampleEvery() ticks, an exact
     * one on every hit; the scope line's "every" field says which, so
     * reports can scale sampled totals. Single-threaded: call before
     * worker threads start.
     */
    int scope(const std::string &name, bool sampled = false);

    /** Monotonic host ns since profiler construction. */
    std::uint64_t
    nowNs() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - epoch)
                .count());
    }

    /**
     * Attribute [startNs, endNs) to a scope. Thread-safe; also
     * appends a span when span recording is on.
     */
    void add(int id, std::uint64_t startNs, std::uint64_t endNs);

    /** Keep per-event spans for the Chrome-trace merge. */
    void enableSpans(bool on) { spansOn = on; }

    /**
     * Append one free-form NDJSON record (a complete one-line JSON
     * object, e.g. the wavefront per-core summary). Thread-safe.
     */
    void record(std::string jsonObjectLine);

    /** @name Introspection (tests, report aggregation) */
    /** @{ */
    std::size_t scopeCount() const { return scopes.size(); }
    const std::string &scopeName(int id) const;
    /** 1 for exact scopes, sampleEvery() for sampled ones. */
    std::uint64_t scopeEvery(int id) const;
    std::uint64_t scopeHits(int id) const;
    std::uint64_t scopeNs(int id) const;
    std::uint64_t scopeMaxNs(int id) const;
    std::size_t spanCount() const;
    std::uint64_t droppedSpanCount() const;
    /** @} */

    /**
     * Render the whole profile as smtsim-prof-v1 NDJSON: a header
     * line (schema, source tag, sample divisor, host facts incl.
     * load average, build provenance), one "scope" line per
     * registered scope (hits, ns, maxNs, every), every record() line
     * verbatim, and a footer with counts. Call after worker threads
     * have joined.
     */
    std::string renderNdjson(const std::string &source) const;

    /**
     * Render recorded spans as Chrome-trace events (no enclosing
     * array, records joined by ",\n") for splicing into the
     * telemetry Perfetto export: "X" complete events under pid 1
     * with host-microsecond timestamps, plus cumulative "C" counter
     * samples for the wavefront gate scopes. Empty when no spans
     * were kept.
     */
    std::string chromeTraceEvents() const;

  private:
    struct ScopeSlot
    {
        ScopeSlot(std::string n, std::uint64_t e)
            : name(std::move(n)), every(e)
        {
        }
        std::string name;
        std::uint64_t every; //!< 1 = exact, else the sampling divisor
        std::atomic<std::uint64_t> hits{0};
        std::atomic<std::uint64_t> ns{0};
        std::atomic<std::uint64_t> maxNs{0};
    };

    struct Span
    {
        int id;
        std::uint64_t startNs;
        std::uint64_t durNs;
    };

    std::chrono::steady_clock::time_point epoch;
    std::uint64_t every;
    HostInfo host; //!< snapshotted at construction ("load at start")

    // deque: slots hold atomics (not movable); deque never relocates
    // existing elements on growth.
    std::deque<ScopeSlot> scopes;

    bool spansOn = false;
    std::size_t maxSpans;
    mutable std::mutex mu;
    std::vector<Span> spans;
    std::uint64_t droppedSpans = 0;
    std::vector<std::string> records;
};

/** RAII scope timer; a null profiler makes it a no-op. */
class ProfScope
{
  public:
    ProfScope(HostProfiler *prof, int scopeId)
        : p(prof), id(scopeId), t0(prof ? prof->nowNs() : 0)
    {
    }

    ~ProfScope()
    {
        if (p)
            p->add(id, t0, p->nowNs());
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    HostProfiler *p;
    int id;
    std::uint64_t t0;
};

/**
 * Write prof.renderNdjson(source) to base + ".prof.ndjson".
 * Returns false (with a stderr message) on I/O failure.
 */
bool writeHostProfile(const HostProfiler &prof,
                      const std::string &base,
                      const std::string &source);

/** Sidecar base for job jobIndex under a --prof prefix. */
std::string profFileBase(const std::string &prefix, int jobIndex);

} // namespace smt

#endif // DCRA_SMT_PROF_HOST_PROFILER_HH
