/**
 * @file
 * Synchronization core of the parallel chip tick ("wavefront"
 * execution): the N cores of a ChipSimulator tick concurrently on
 * worker threads in K-cycle *quanta*, and determinism at the
 * shared-LLC boundary is preserved by *ordering*, not buffering.
 *
 * Quanta. The main thread publishes a quantum end E; every worker
 * then ticks its cores cycle-major (for T up to E: for each of its
 * cores c, ascending: tick c) and marks each (T, c) done. The main
 * thread's between-cycle work (commit/warmup checks, epochs,
 * migrations, audits, phase/MLP sampling) runs once per quantum,
 * after every core finished E: the workers leave a per-core,
 * per-cycle record of what that work samples, and the main thread
 * replays the records in cycle order. K is never configured; it is
 * the conservative lookahead horizon of quantumLength() below — the
 * number of cycles in which no main-thread event can fall.
 *
 * Gate rule. The serial loop ticks (cycle, core) pairs in
 * lexicographic order, and the cores only interact through the
 * SharedCache. So a core's first LLC access in its cycle-T tick
 * blocks until every lower-id core has finished T *and* every
 * higher-id core has finished T-1: exactly the pairs that precede
 * (T, c) in the serial order. Every pair after it waits on (T, c) in
 * turn, so the global sequence of SharedCache accesses is the serial
 * sequence, across cycle boundaries as well as within one. LLC
 * results (hit/ready) are consumed synchronously mid-tick, so the
 * whole simulation stays byte-identical to --chip-jobs 1 (pinned by
 * the parallel-vs-serial golden tests). SharedCache::access's `now`
 * is a ready time, not the tick cycle, so the gate takes a core's
 * cycle from the core's own completion counter, which only that
 * core's worker writes.
 *
 * Deadlock freedom: every wait points to a pair that is strictly
 * smaller in (cycle, core) order, and each worker ticks its own pairs
 * in increasing order. The smallest unfinished pair therefore waits
 * on nothing, so some worker always makes progress.
 *
 * Skipped cycles. A core whose coming ticks are provably dead
 * (Pipeline::idleThrough) jumps over them and marks the whole span
 * done at once: it makes no LLC access in it, so nothing can be
 * ordered after those pairs, and the early completion only lets
 * gates open sooner.
 *
 * Telemetry pins K to 1: the hub's main-thread events (migrations,
 * phase flips, samples) and its LLC-stream events (gate follows,
 * arbiter re-deals) append to one ordered vector, and only per-cycle
 * quanta interleave the two streams in serial order.
 *
 * All waits spin briefly and then yield: a simulated cycle is
 * microseconds of host work, but the host may have fewer free CPUs
 * than workers, and a pure spin would burn the very scheduling
 * quantum the awaited worker needs.
 */

#ifndef DCRA_SMT_SOC_TICK_WAVEFRONT_HH
#define DCRA_SMT_SOC_TICK_WAVEFRONT_HH

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/shared_cache.hh"

namespace smt {

class HostProfiler;

/** Capacity, in cycles, of the per-core record rings: the longest
 *  quantum the main thread can replay. */
constexpr Cycle quantumRing = 2048;

/** What the main thread knows at a quantum boundary. A zero epochAt
 *  or auditPeriod means "no such event". */
struct QuantumBounds
{
    Cycle now = 0;                  //!< last completed chip cycle
    std::uint64_t commitLimit = 0;  //!< warmup or run commit target
    std::uint64_t maxCommitted = 0; //!< most any thread has committed
    int commitWidth = 1;            //!< most commits per core cycle
    Cycle maxCycles = 0;            //!< run() cycle cap
    Cycle epochAt = 0;              //!< next allocator epoch boundary
    Cycle auditPeriod = 0;          //!< audit every N cycles
    bool draining = false;          //!< a migration is draining
    bool telemetry = false;         //!< a TelemetryHub is attached
};

/**
 * Length of the next quantum (>= 1): the commit horizon
 * ceil((commitLimit - maxCommitted) / commitWidth), capped by the
 * next epoch, the next audit, maxCycles and quantumRing; 1 while a
 * migration drains or telemetry is attached. The quantum's last cycle
 * is the first one on which any main-thread event can happen.
 */
Cycle quantumLength(const QuantumBounds &b);

class TickWavefront : public LlcAccessGate
{
  public:
    /** awaitQuantum() result meaning "shut down" (requestStop()). */
    static constexpr Cycle stopCycle = ~Cycle(0);

    /** @p start is the chip cycle every core has completed. */
    TickWavefront(int numCores, Cycle start);

    /** Publish quantum end @p end and release the workers. Main
     *  thread only, after awaitAll() of the previous quantum. */
    void beginQuantum(Cycle end);

    /** Block until a quantum end newer than @p last is published;
     *  returns it (stopCycle after requestStop()). Worker threads. */
    Cycle awaitQuantum(Cycle last) const;

    /** Mark @p core's tick for cycle @p t complete. */
    void coreDone(int core, Cycle t);

    /** Block until every core has completed cycle @p t. */
    void awaitAll(Cycle t) const;

    /** Publish the poison end: workers return stopCycle from
     *  awaitQuantum and exit. Main thread, after awaitAll(). */
    void requestStop();

    /**
     * LlcAccessGate: called by SharedCache::access on the worker
     * ticking @p core; the first call of a core's cycle-T tick blocks
     * until lower-id cores finished T and higher-id cores finished
     * T-1, later calls in the same tick return immediately.
     */
    void enter(int core) override;

    /**
     * @name Host contention accounting (--prof)
     *
     * Per-core gate-wait counters, mutated only by the worker that
     * owns the core (one plain store per *blocked* enter(), after
     * the wait resolves) and read only after the workers joined.
     * With no profiler attached enter() reads no clock and stores
     * no counter.
     */
    /** @{ */
    struct WaveStats
    {
        std::uint64_t gateWaits = 0; //!< enter() calls that blocked
        std::uint64_t spinIters = 0; //!< pause-loop iterations
        std::uint64_t yieldIters = 0; //!< iterations past the spin
                                      //!< budget (each one yielded)
        std::uint64_t yieldTransitions = 0; //!< waits that escalated
                                            //!< from spin to yield
        std::uint64_t waitNs = 0; //!< host wall time blocked
        std::vector<std::uint64_t> awaited; //!< waits first blocked
                                            //!< on core [k]
    };

    /** Attach the profiler; registers the wave.c<k>.gate scopes.
     *  Call before the workers start. */
    void setHostProfiler(HostProfiler *prof);

    /** Per-core wait totals; valid after the workers joined. */
    const WaveStats &waveStats(int core) const
    {
        return stats[static_cast<std::size_t>(core)];
    }
    /** @} */

  private:
    /** One cache line per core: its completion counter plus the
     *  owning worker's gate-grant cache, false-sharing-free. */
    struct alignas(64) CoreSync
    {
        std::atomic<Cycle> done{0}; //!< last fully ticked cycle
        Cycle granted = 0; //!< cycle enter() last granted (owning
                           //!< worker only; no concurrent access)
    };

    /** Spin for a few iterations, then yield the host CPU. */
    static void backoff(unsigned &spins);

    /** Cycle core @p k must have finished before core @p core's
     *  cycle-@p t LLC traffic may start. */
    static Cycle
    needFrom(int k, int core, Cycle t)
    {
        return k < core ? t : t - 1;
    }

    int nCores;
    std::vector<CoreSync> cs;
    std::atomic<Cycle> go; //!< published quantum end

    HostProfiler *hprof = nullptr;
    std::vector<WaveStats> stats;   //!< per core, owner-written
    std::vector<int> gateScope;     //!< wave.c<k>.gate scope ids
};

} // namespace smt

#endif // DCRA_SMT_SOC_TICK_WAVEFRONT_HH
