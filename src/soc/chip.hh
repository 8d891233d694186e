/**
 * @file
 * The simulated machine (CMP): N independent SMT cores — each a full
 * Pipeline with its own policy instance, private L1s/L2, TLBs and
 * branch predictor — in front of a shared last-level cache and bus,
 * plus a ThreadToCoreAllocator that decides which software threads
 * share a core and periodically reallocates them via a
 * drain-squash-migrate handoff.
 *
 * Determinism: cores tick in core-id order inside every chip cycle,
 * migrations execute between ticks in thread-id order, and every
 * allocator breaks ties deterministically, so a chip run is
 * bit-reproducible (and independent of any host parallelism in the
 * sweep runner, which runs whole chips per job).
 *
 * One core is the paper's machine: a single SMT core whose context
 * count follows the workload, with no LLC interposed and nothing to
 * migrate. Every single-core run (smtsim, sweep jobs, Hmean
 * baselines, the figure binaries) is a 1-core ChipSimulator, pinned
 * by the single-core golden test (tests/test_golden_stats.cc).
 */

#ifndef DCRA_SMT_SOC_CHIP_HH
#define DCRA_SMT_SOC_CHIP_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bpred/predictor.hh"
#include "core/pipeline.hh"
#include "mem/memory_system.hh"
#include "mem/shared_cache.hh"
#include "policy/factory.hh"
#include "sim/simulator.hh"
#include "soc/allocator.hh"
#include "soc/tick_wavefront.hh"
#include "trace/generator.hh"

namespace smt {

/**
 * One simulation instance. Construct, run once, read the result.
 */
class ChipSimulator
{
  public:
    /** Builds one core's intra-core policy; called once per core. */
    using PolicyMaker = std::function<std::unique_ptr<Policy>()>;

    /**
     * @param cfg full configuration; cfg.soc shapes the chip. With
     *        numCores == 1 the context count is forced to the
     *        workload size and no LLC is interposed.
     * @param benches one profile name per software thread; at most
     *        numCores x contextsPerCore.
     * @param policyKind intra-core policy, instantiated per core.
     * @param allocator thread-to-core allocator (tests inject one);
     *        null builds cfg.soc.allocator.
     */
    ChipSimulator(const SimConfig &cfg,
                  const std::vector<std::string> &benches,
                  PolicyKind policyKind,
                  std::unique_ptr<ThreadToCoreAllocator> allocator =
                      nullptr);

    /**
     * Same, but each core's policy comes from @p policyMaker — a
     * user-provided implementation (see examples/custom_policy.cpp).
     */
    ChipSimulator(const SimConfig &cfg,
                  const std::vector<std::string> &benches,
                  const PolicyMaker &policyMaker,
                  std::unique_ptr<ThreadToCoreAllocator> allocator =
                      nullptr);

    ~ChipSimulator();

    /**
     * Run until the first software thread commits commitLimit
     * instructions or maxCycles elapse (whichever is first).
     *
     * @param warmupCommits commits (first thread) executed before
     *        statistics collection starts; caches, predictors and
     *        policy state stay warm across the reset.
     */
    SimResult run(std::uint64_t commitLimit,
                  Cycle maxCycles = 50'000'000,
                  std::uint64_t warmupCommits = 0);

    /** Audit every core's pipeline plus the chip-level placement
     *  bookkeeping and LLC arbitration; panics on violation. */
    void auditInvariants() const;

    /**
     * Attach a telemetry hub (nullptr detaches). Registers every
     * core's pipeline channels under "c<N>.", chip-level per-thread
     * IPC (migration-proof: reads committedOf), the shared LLC's
     * channels and the arbiter's event stream; run() then samples
     * every interval and records allocator epochs, migrations and
     * phase transitions as events. All emissions happen on the main
     * thread between cycles (an attached hub pins every quantum to
     * one cycle), or inside the LLC access stream whose total order
     * the wavefront gate reproduces, so the files are byte-identical
     * for every --chip-jobs value. Call before run().
     */
    void setTelemetry(TelemetryHub *hub);

    /**
     * Attach the host wall-clock profiler (--prof; nullptr
     * detaches). Registers per-core tick scopes ("c<N>.tick"),
     * every pipeline's stage scopes ("c<N>.stage.*"), the LLC
     * access/epoch scopes and the chip epoch/migration scopes; a
     * parallel run adds the wavefront gate scopes, per-worker idle
     * scopes and the main thread's await scope, and stopTickWorkers
     * harvests the per-core gate-wait records. Core ticks are timed
     * on the chip cycles divisible by prof->sampleEvery() (all cores
     * sample the same cycles). Host times never touch SimResult.
     * Call before run().
     */
    void setHostProfiler(HostProfiler *prof);

    /** @name Introspection for tests */
    /** @{ */
    int numCores() const { return nCores; }
    int contextsPerCore() const { return nCtx; }
    Pipeline &pipeline(int core) { return *cores[core].pipe; }
    MemorySystem &memory(int core) { return *cores[core].mem; }
    Policy &policy(int core) { return *cores[core].pol; }
    SharedCache *llcOrNull() { return llc.get(); }
    /** Core each software thread currently runs on. */
    const std::vector<int> &placement() const { return coreOf; }
    /** Completed drain-squash-migrate handoffs (threads moved). */
    std::uint64_t migrations() const { return nMigrations; }
    /** Allocator epochs actually run (= allocator invocations after
     *  the cold start; zero-length intervals consume none). */
    std::uint64_t epochsRun() const { return epoch; }
    /** Invoke the epoch machinery immediately (tests): exactly what
     *  run() does at an epoch boundary, including the zero-length
     *  interval guard. */
    void runEpochNow() { runEpoch(); }
    /** Audit every auditEvery cycles during run() (0 = off). */
    void setAuditInterval(Cycle auditEvery) { auditPeriod = auditEvery; }
    /** Longest quantum run() ticked between two main-thread steps. */
    Cycle longestQuantum() const { return maxQuantum; }
    /** Cycles divisible by the profiler's sampleEvery() that core
     *  @p core skipped (Pipeline::skipTo) rather than ticked: its
     *  c<N>.tick and stage scopes hit once per sampled cycle it
     *  ticked, so hits plus these make every sampled cycle. Zero
     *  without a profiler. */
    std::uint64_t
    sampledCyclesSkipped(int core) const
    {
        return sampledSkips.empty()
            ? 0
            : sampledSkips[static_cast<std::size_t>(core)];
    }
    /** @} */

  private:
    struct Core
    {
        std::unique_ptr<MemorySystem> mem;
        std::unique_ptr<BranchPredictor> bpred;
        std::unique_ptr<Policy> pol;
        std::unique_ptr<Pipeline> pipe;
    };

    /** Where a software thread lives and what it accrued. */
    struct ThreadHome
    {
        int core = 0;
        int ctx = 0;
        ThreadCounters accum;    //!< totals from previous homes
        ThreadCounters attachAt; //!< current home's counters at attach
    };

    void buildChip(const PolicyMaker &policyMaker);
    void prewarmChip();
    void resetAllStats();

    /** @name Quantum tick
     * Worker w of W ticks cores {w, w + W, ...}, cycle-major and in
     * ascending core order, through each published quantum; the main
     * thread is worker 0 and runs everything between quanta
     * (migrations, epochs, sampling) alone. With W == 1 there is no
     * TickWavefront and this is the serial loop. Determinism comes
     * from the TickWavefront gate in the SharedCache — see
     * soc/tick_wavefront.hh for the ordering argument. After a dead
     * tick a core jumps to the last cycle before its next wake,
     * capped at the quantum end (Pipeline::idleThrough, skipTo); a
     * telemetry run's one-cycle quanta never leave room to skip.
     */
    /** @{ */
    /** What the main thread samples of one core after one cycle. */
    struct CycleRecord
    {
        std::uint32_t slowCtx = 0;  //!< contexts with L1D loads out
        std::uint32_t memLoads = 0; //!< outstandingMemLoads()

        bool
        operator==(const CycleRecord &o) const
        {
            return slowCtx == o.slowCtx && memLoads == o.memLoads;
        }
    };

    /** Tick every core through the next quantum (quantumLength()
     *  toward @p commitTarget) and advance cycle to its end. */
    void tickQuantum(std::uint64_t commitTarget, Cycle maxCycles);
    void startTickWorkers();
    void stopTickWorkers();
    void workerLoop(int w, Cycle start);
    /** Worker @p w's cores through cycles (from, end]. */
    void tickCores(int w, Cycle from, Cycle end);
    CycleRecord &cycleRecord(int core, Cycle t)
    {
        return ring[static_cast<std::size_t>(core) * quantumRing +
                    t % quantumRing];
    }
    /** Do cycles @p a and @p b hold the same record on every core? */
    bool sameRecords(Cycle a, Cycle b);
    /** @} */

    /** The one mapping from a context's PipelineStats and
     *  MemorySystem counters to the reported ThreadCounters. */
    ThreadCounters readCtx(int core, int ctx) const;
    /** A software thread's counters summed over all its homes. */
    ThreadCounters totalsOf(int thread) const;

    /** Just the committed count — the run loop polls this for every
     *  thread every quantum, so it must not assemble every counter
     *  the way totalsOf() does. */
    std::uint64_t
    committedOf(int thread) const
    {
        const ThreadHome &h = homes[thread];
        return h.accum.committed +
            cores[h.core].pipe->stats().committed[h.ctx] -
            h.attachAt.committed;
    }

    /** The most any software thread has committed. */
    std::uint64_t maxCommitted() const;

    /** Collect interval metrics and consult the allocator; starts a
     *  migration (drain phase) when the placement changes. */
    void runEpoch();
    /** Detach every drained mover and attach it to its new home. */
    void completeMigration();

    SimConfig cfg;
    std::vector<std::string> benchNames;
    int nThreads;
    int nCores;
    int nCtx;

    std::vector<std::unique_ptr<SyntheticTraceGenerator>> gens;
    std::unique_ptr<SharedCache> llc;
    std::vector<Core> cores;
    std::unique_ptr<ThreadToCoreAllocator> alloc;

    std::vector<int> coreOf;  //!< placement: thread -> core
    std::vector<int> ctxOf;   //!< thread -> context on its core
    std::vector<ThreadHome> homes;

    /** @name Epoch / migration state machine */
    /** @{ */
    std::uint64_t epoch = 0;
    Cycle nextEpochAt = 0;
    std::vector<ThreadCounters> intervalBase; //!< totals at last epoch
    Cycle intervalStart = 0;
    bool migrating = false;
    Cycle drainDeadline = 0;
    std::vector<int> pendingPlacement;
    /** Debounce: a changed placement must be proposed in two
     *  consecutive epochs before the chip pays for the migration. */
    std::vector<int> lastProposal;
    std::uint64_t nMigrations = 0;
    /** @} */

    Cycle cycle = 0;
    Cycle auditPeriod = 0;
    Cycle maxQuantum = 0;

    /** @name Quantum-tick state (wavefront/workers empty in serial
     *  runs; the ring is allocated by run()) */
    /** @{ */
    int nTickWorkers = 1;
    std::unique_ptr<TickWavefront> wavefront;
    std::vector<std::thread> workers;
    /** Per-core record rings, nCores x quantumRing: each core's own
     *  worker writes its slots, the main thread reads them after the
     *  quantum's awaitAll. */
    std::vector<CycleRecord> ring;
    /** @} */

    /** @name Telemetry (null/empty unless setTelemetry ran) */
    /** @{ */
    TelemetryHub *telem = nullptr;
    int allocTrack = 0;
    std::vector<int> coreTracks;
    std::vector<bool> telemSlow; //!< per-thread slow-phase latch
    /** @} */

    /** @name Host profiling (null/zero unless setHostProfiler ran) */
    /** @{ */
    HostProfiler *hprof = nullptr;
    std::uint64_t hprofEvery = 0;  //!< cached sampleEvery()
    std::vector<int> hsCoreTick;   //!< c<i>.tick scope ids
    int hsEpoch = 0;               //!< chip.epoch scope
    int hsMigrate = 0;             //!< chip.migrate scope
    int hsMainAwait = 0;           //!< wave.main.await scope
    std::vector<int> hsWorkerIdle; //!< wave.w<i>.idle (workers 1..)
    /** Per core: sampled cycles skipped (owning worker writes, read
     *  after the run). */
    std::vector<std::uint64_t> sampledSkips;
    /** @} */
};

/**
 * Pre-load one core's caches/TLBs with the hot regions of @p benches
 * (one per hardware context, with @p addrBases giving each program's
 * address-region base). Every core is warmed this way, over the
 * threads initially placed on it. Ends with mem.resetStats().
 */
void prewarmMemory(MemorySystem &mem,
                   const std::vector<std::string> &benches,
                   const std::vector<Addr> &addrBases);

} // namespace smt

#endif // DCRA_SMT_SOC_CHIP_HH
