/**
 * @file
 * The full memory hierarchy the SMT core talks to: shared L1I / L1D /
 * L2 caches, per-thread I/D TLBs, MSHR files, and main memory
 * latency. All paper Table 2 parameters are configurable, including
 * the (memory latency, L2 latency) pairs swept in Figure 7 and the
 * perfect-L1D mode used by Figure 2.
 */

#ifndef DCRA_SMT_MEM_MEMORY_SYSTEM_HH
#define DCRA_SMT_MEM_MEMORY_SYSTEM_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"
#include "mem/shared_cache.hh"
#include "mem/tlb.hh"

namespace smt {

class TelemetryHub;

/** Hierarchy-wide configuration (paper Table 2 defaults). */
struct MemParams
{
    CacheParams l1i{"l1i", 64 * 1024, 2, 64, 8};
    CacheParams l1d{"l1d", 64 * 1024, 2, 64, 8};
    CacheParams l2{"l2", 512 * 1024, 8, 64, 8};
    TlbParams itlb{128, 4, 8 * 1024};
    TlbParams dtlb{1024, 4, 8 * 1024};
    Cycle l1Latency = 1;
    Cycle l2Latency = 20;
    Cycle memLatency = 300;
    Cycle tlbMissPenalty = 160;
    int l1dMshrs = 32;
    int l1iMshrs = 8;
    /** Figure 2 mode: every data access hits L1 in one cycle. */
    bool perfectDcache = false;
};

/** Outcome of a data-side access. */
struct MemAccessResult
{
    bool accepted = false;  //!< false: bank/MSHR conflict, retry
    Cycle ready = 0;        //!< cycle the data is available
    ServiceLevel level = ServiceLevel::L1;
    bool dtlbMiss = false;
};

/** Outcome of an instruction fetch probe. */
struct FetchAccessResult
{
    bool accepted = false;  //!< false: I-MSHR full, retry next cycle
    bool hit = false;       //!< line present, fetch proceeds now
    Cycle ready = 0;        //!< on a miss: cycle the line arrives
};

/**
 * Shared memory hierarchy for up to maxThreads contexts.
 */
class MemorySystem
{
  public:
    /**
     * @param params hierarchy configuration.
     * @param numThreads number of hardware contexts.
     */
    MemorySystem(const MemParams &params, int numThreads);

    /**
     * Perform a load or store data access.
     *
     * @param tid requesting thread.
     * @param addr effective byte address (thread-offset already
     *        applied by the caller).
     * @param isLoad true for loads; stores never retry and are
     *        counted separately.
     * @param now current cycle.
     */
    MemAccessResult dataAccess(ThreadID tid, Addr addr, bool isLoad,
                               Cycle now);

    /** Probe the I-side for the line containing pc. */
    FetchAccessResult instFetch(ThreadID tid, Addr pc, Cycle now);

    /** Retire completed misses; call once per cycle. Inline: with
     *  the MSHR earliest-ready gate this is usually two compares.
     *  @return true when any entry retired. */
    bool
    tick(Cycle now)
    {
        return mshrD.retire(now) + mshrI.retire(now) != 0;
    }

    /** Earliest cycle an outstanding D- or I-side miss fills
     *  (neverCycle when none is out): until then tick() is a no-op
     *  and the MSHR counts stay put, unless a new miss allocates. */
    Cycle
    nextFill() const
    {
        return std::min(mshrD.nextFill(), mshrI.nextFill());
    }

    /** Zero all statistics; cache/TLB contents are untouched. */
    void resetStats();

    /**
     * Register this hierarchy's time-series channels (per-thread
     * L1D/L2 miss-rate ratios, MSHR occupancy and outstanding-miss
     * gauges) under @p prefix. Telemetry-only path; readers are
     * sampled from the main thread between cycles.
     */
    void registerTelemetry(TelemetryHub &hub,
                           const std::string &prefix);

    /** Outstanding L1D *load* misses (any level) for a thread.
     *  Inline: polled per thread per cycle (DCRA phase test and the
     *  run loop's phase metrics). */
    int
    pendingL1DLoads(ThreadID tid) const
    {
        return mshrD.pendingLoads(tid, ServiceLevel::L2);
    }

    /** Outstanding memory-level (L2-missing) loads for a thread. */
    int
    pendingL2DLoads(ThreadID tid) const
    {
        return mshrD.outstandingLoads(tid, ServiceLevel::Memory);
    }

    /** Outstanding memory-level loads across all threads (MLP). */
    int
    outstandingMemLoads() const
    {
        return mshrD.outstandingMemLoads();
    }

    /** @name Per-thread data-side statistics */
    /** @{ */
    std::uint64_t l1dAccesses(ThreadID t) const { return sL1dAcc[t]; }
    std::uint64_t l1dMisses(ThreadID t) const { return sL1dMiss[t]; }
    std::uint64_t l2DataAccesses(ThreadID t) const
    {
        return sL2Acc[t];
    }
    std::uint64_t l2DataMisses(ThreadID t) const { return sL2Miss[t]; }
    /** @} */

    /** Underlying caches, exposed for tests and reporting. */
    Cache &l1i() { return *l1iCache; }
    Cache &l1d() { return *l1dCache; }
    Cache &l2() { return *l2Cache; }

    /** Per-thread TLBs, exposed for tests and pre-warming. */
    Tlb &itlb(ThreadID t) { return itlbs[t]; }
    Tlb &dtlb(ThreadID t) { return dtlbs[t]; }

    /** Configuration. */
    const MemParams &params() const { return p; }

    /**
     * Wire this core's private hierarchy onto a chip-shared LLC:
     * private-L2 misses (data and instruction side) are serviced by
     * @p llc as core @p coreId instead of being charged the flat
     * memLatency. Never called in single-core configurations, so
     * their timing is exactly the pre-CMP model.
     */
    void
    attachLlc(SharedCache *llc_, int coreId_)
    {
        llc = llc_;
        coreId = coreId_;
    }

  private:
    MemParams p;
    int nThreads;

    /** Chip-shared next level; null in single-core configurations. */
    SharedCache *llc = nullptr;
    int coreId = 0;

    std::unique_ptr<Cache> l1iCache;
    std::unique_ptr<Cache> l1dCache;
    std::unique_ptr<Cache> l2Cache;
    MshrFile mshrD;
    MshrFile mshrI;
    std::vector<Tlb> itlbs;
    std::vector<Tlb> dtlbs;

    std::vector<std::uint64_t> sL1dAcc;
    std::vector<std::uint64_t> sL1dMiss;
    std::vector<std::uint64_t> sL2Acc;
    std::vector<std::uint64_t> sL2Miss;
};

} // namespace smt

#endif // DCRA_SMT_MEM_MEMORY_SYSTEM_HH
