/**
 * @file
 * The SMT out-of-order pipeline: per-cycle fetch (ICOUNT.2.8 style),
 * decode/rename with shared resource allocation, three issue queues,
 * completion wheel, in-order per-thread commit from a shared ROB,
 * wrong-path execution and squash/recovery. Policies plug in through
 * the Policy interface and the ResourceTracker counters.
 */

#ifndef DCRA_SMT_CORE_PIPELINE_HH
#define DCRA_SMT_CORE_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "common/types.hh"
#include "core/dyn_inst.hh"
#include "core/exec_units.hh"
#include "core/handle_ring.hh"
#include "core/issue_queue.hh"
#include "core/regfile.hh"
#include "core/resource_tracker.hh"
#include "core/rob.hh"
#include "core/smt_config.hh"
#include "core/store_set.hh"
#include "core/wakeup.hh"
#include "mem/memory_system.hh"
#include "policy/policy.hh"
#include "trace/generator.hh"

namespace smt {

class TelemetryHub;
class HostProfiler;

/** Aggregate per-run pipeline statistics. */
struct PipelineStats
{
    Cycle cycles = 0;

    /**
     * Rolling hash of each thread's committed (pc, op) stream,
     * snapshotted every 1024 commits. The committed stream must be
     * identical under every policy (squash and refetch may never
     * change architectural execution), which integration tests
     * verify by comparing milestone prefixes across policies.
     */
    std::vector<std::uint64_t> commitMilestones[maxThreads];
    std::uint64_t commitHash[maxThreads] = {};

    std::uint64_t fetched[maxThreads] = {};
    std::uint64_t fetchedWrongPath[maxThreads] = {};
    std::uint64_t issued[maxThreads] = {};
    std::uint64_t committed[maxThreads] = {};
    std::uint64_t squashed[maxThreads] = {};
    std::uint64_t condBranches[maxThreads] = {};
    std::uint64_t mispredicts[maxThreads] = {};
    std::uint64_t storeForwards[maxThreads] = {};
    std::uint64_t flushes[maxThreads] = {};

    /** Committed IPC of one thread. */
    double
    ipc(ThreadID t) const
    {
        return cycles ? static_cast<double>(committed[t]) /
                static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * One SMT core instance wired to a memory system, branch predictor
 * and policy.
 */
class Pipeline
{
  public:
    /** What one hardware context executes. A null trace marks an
     *  idle context (no software thread attached); the chip layer
     *  populates it later via attachThread(). */
    struct ThreadProgram
    {
        TraceSource *trace = nullptr;
        const BenchProfile *profile = nullptr;
        /**
         * Base of the program's address region. The sentinel means
         * "context id x threadAddrStride" (the single-core layout);
         * the chip layer passes the software thread's own base so a
         * program keeps its addresses when it migrates between
         * cores (the shared LLC is indexed by address).
         */
        Addr addrBase = ~0ull;
    };

    /**
     * @param cfg core configuration (validated here).
     * @param mem shared memory hierarchy (numThreads must match).
     * @param bpred shared branch unit.
     * @param policy fetch/allocation policy (bound here).
     * @param programs one entry per hardware context.
     */
    Pipeline(const SmtConfig &cfg, MemorySystem &mem,
             BranchPredictor &bpred, Policy &policy,
             std::vector<ThreadProgram> programs);

    /** Advance one cycle. */
    void tick();

    /**
     * @name Skipping dead cycles
     * A dead tick fetches, renames, issues, writes back, commits and
     * squashes nothing, and no MSHR entry fills. It leaves every
     * structure the stages read as it found it, so the ticks after
     * it are dead too, until the first cycle on which time alone can
     * change an answer: an MSHR fill, a completion-wheel bucket, a
     * context's fetchResumeCycle, a fetch-queue head clearing the
     * front-end latency, or the policy's quietThrough() bound.
     */
    /** @{ */
    /**
     * Last cycle, at most @p cap, through which the coming ticks are
     * provably dead: now() unless the last tick was dead, else the
     * cycle before the first wake.
     */
    Cycle idleThrough(Cycle cap) const;

    /**
     * Advance to cycle @p to in one step, exactly as (to - now())
     * dead ticks would: rotate the round-robin pointers, count the
     * cycles and charge the policy (Policy::skipCycles). Asserts
     * that idleThrough(to) reaches @p to.
     */
    void skipTo(Cycle to);
    /** @} */

    /**
     * Zero the run statistics (warmup support). The machine state
     * (caches, predictors, in-flight instructions) is untouched;
     * stats().cycles counts from this point on. Commit milestones
     * are preserved (the committed stream is cumulative).
     */
    void resetStats();

    /**
     * Verify the cross-structure bookkeeping invariants (tracker
     * occupancy vs real queue contents, register free-list
     * accounting, pre-issue counts, ROB sizes); panics on violation.
     * Used by the property-based tests.
     */
    void auditInvariants() const;

    /** Current cycle. */
    Cycle now() const { return cycle; }

    /**
     * Register this core's time-series channels (per-thread IPC /
     * fetch / issue rates, ROB/IQ/reg occupancy gauges) under
     * @p prefix (e.g. "" single-core, "c0." per chip core) and
     * forward to the policy's own channels. Called only when
     * telemetry is enabled; readers are sampled from the main thread
     * between cycles.
     */
    void registerTelemetry(TelemetryHub &hub,
                           const std::string &prefix);

    /**
     * Attach the host wall-clock profiler (--prof). Registers the
     * per-stage scopes under @p prefix ("" single-core, "c0." per
     * chip core); tick() then times its stages on the cycles
     * divisible by prof->sampleEvery() (a skipped cycle is not a
     * tick, so it is not timed). Null detaches. Must be called
     * before the run starts (scope registration is
     * single-threaded); with no profiler attached tick() pays one
     * pointer test and nothing else.
     */
    void setHostProfiler(HostProfiler *prof,
                         const std::string &prefix);

    /** Run statistics. */
    const PipelineStats &stats() const { return pstats; }

    /** Hardware usage counters (also what policies see). */
    const ResourceTracker &tracker() const { return rtracker; }

    /** @name Thread-migration hooks (chip layer)
     * The drain-squash-migrate handoff: beginDrain() stops fetch for
     * a context while its in-flight instructions keep committing;
     * once drainComplete() (or on a drain timeout) detachThread()
     * squashes any leftovers, rewinds the trace to the architectural
     * point and frees the context; attachThread() later binds a
     * program (usually on another core's pipeline) to an idle
     * context. All four are deterministic.
     */
    /** @{ */
    /** Does this context have a software thread attached? */
    bool contextActive(ThreadID t) const
    {
        return threads[t].trace != nullptr;
    }

    /** Is this context draining (fetch stopped for migration)? */
    bool draining(ThreadID t) const { return threads[t].draining; }

    /** Stop fetching for t; in-flight instructions keep going. */
    void beginDrain(ThreadID t);

    /** True once a draining context has nothing left in flight. */
    bool
    drainComplete(ThreadID t) const
    {
        return robBuf.empty(t) && threads[t].fetchQ.empty();
    }

    /**
     * Detach the software thread from a draining context: squash
     * anything still in flight, rewind the trace so its next
     * instruction is the architecturally next one, and mark the
     * context idle. The caller re-attaches the same TraceSource
     * elsewhere. Outstanding MSHR entries tagged with this context
     * simply retire by time (documented modeling artifact).
     */
    void detachThread(ThreadID t);

    /** Bind a program to an idle context; fetch resumes next cycle.
     *  prog.addrBase must be the software thread's own base. */
    void attachThread(ThreadID t, const ThreadProgram &prog);
    /** @} */

    /** @name Introspection for tests */
    /** @{ */
    const Rob &rob() const { return robBuf; }
    const IssueQueue &iq(QueueClass qc) const
    {
        return iqs[static_cast<int>(qc)];
    }
    const RegFiles &regs() const { return regFiles; }
    int numThreads() const { return cfg.numThreads; }
    const SmtConfig &config() const { return cfg; }

    /** Instructions on one queue's ready list (wakeup tests). */
    int readyCount(QueueClass qc) const;

    /** The last cycle before each wake idleThrough() takes the
     *  minimum of, as the state stands (neverCycle: none pending).
     *  Meaningful after a dead tick. */
    struct Wakes
    {
        Cycle mshrFill = neverCycle;    //!< an MSHR entry fills
        Cycle completion = neverCycle;  //!< a wheel bucket writes back
        Cycle fetchResume = neverCycle; //!< a context may fetch again
        Cycle frontEnd = neverCycle;    //!< a fetch-queue head may rename
        Cycle policy = neverCycle;      //!< Policy::quietThrough()
    };
    Wakes wakes() const;

    /** Cycles skipTo() advanced over since construction. */
    std::uint64_t cyclesSkipped() const { return skippedTotal; }
    /** @} */

  private:
    struct ThreadState
    {
        TraceSource *trace = nullptr;
        const BenchProfile *prof = nullptr;
        /** Profile-precomputed wrong-path synthesis (hot path). */
        WrongPathSynth wpSynth;
        Addr addrBase = 0;
        bool wrongPathMode = false;
        /** Migration drain: fetch suppressed until detach/attach. */
        bool draining = false;
        InstSeqNum wpTriggerSeq = 0;
        Addr fetchPc = 0;
        std::uint64_t wpSalt = 0;
        Cycle fetchResumeCycle = 0;
        /** Fetch buffer (bounded by fetchQueueSize) and in-flight
         *  store FIFO (bounded by ROB residency): both touched per
         *  instruction, so they are allocation-free rings. */
        HandleRing fetchQ;
        HandleRing storeList;

        /**
         * dword -> youngest in-flight store, with older same-dword
         * stores chained behind it through DynInst::storePrev: the
         * store-forwarding lookup touches only the stores that could
         * actually forward instead of walking the whole storeList
         * youngest-first. Maintained in lockstep with storeList
         * (rename pushes, commit pops oldest, squash pops youngest).
         */
        StoreSet storeSet;
    };

    /** Result of a squash walk, for repair and trace rewind. */
    struct SquashInfo
    {
        bool any = false;
        bool anyCorrectPath = false;
        InstSeqNum oldestSeq = 0;
        std::uint64_t oldestTraceIdx = ~0ull;
        Addr oldestPc = 0;
        BpredSnapshot oldestSnap;
    };

    /** One fetch-arbitration candidate (reusable buffer below). */
    struct FetchCand
    {
        int prio;
        int rr;
        ThreadID t;
    };

    /** The stages; each returns whether it did anything (the tick
     *  is dead when none did). */
    bool commitStage();
    bool writebackStage();
    bool issueStage();
    bool processFlushRequests();
    bool renameStage();
    bool fetchStage();
    void fetchFrom(ThreadID t, int &budget);

    /** Cycle of the first pending completion-wheel bucket after the
     *  current cycle; neverCycle when the wheel is empty. */
    Cycle nextCompletion() const;

    /** Squash everything of t strictly younger than seq. */
    SquashInfo squashAfter(ThreadID t, InstSeqNum seq);

    bool operandsReady(const DynInst &d) const;
    InstHandle findForwardingStore(const DynInst &load) const;
    bool capBlocked(ThreadID t, ResourceType r) const;
    void pushWheel(InstHandle h, Cycle finish);
    /** Point context t at a program. Asserts that the trace can
     *  rewind as far as a squash of t can reach. */
    void bindProgram(ThreadID t, const ThreadProgram &prog,
                     Addr addrBase);

    /** @name Event-driven issue bookkeeping */
    /** @{ */
    /** Insert a now-ready IQ entry into its queue's ready list,
     *  keeping the list sorted by insertion stamp (age order). */
    void enqueueReady(InstHandle h);
    /** Remove a squashed entry from a ready list (stamp bsearch). */
    void readyListErase(int qi, InstHandle h);
    /** O(1) queue removal; patches the swapped entry's iqSlot. */
    void iqRemove(int qi, InstHandle h);
    /** Unlink the oldest (commit) or youngest (squash) in-flight
     *  store from its dword chain and the StoreSet. */
    void storeChainUnlink(ThreadState &ts, InstHandle h, bool oldest);
    /** @} */

    static constexpr std::size_t wheelSize = 2048;

    /**
     * In-flight instruction records are bounded by ROB residency
     * plus the per-thread fetch buffers; issued-but-squashed
     * zombies parked in the completion wheel can transiently stack
     * a few ROB's worth on top (flush storms under long memory
     * latency). Sizing the pool from the configuration instead of a
     * flat 16384 keeps the slab small enough to stay cache-resident
     * — the pool is touched by every stage — while leaving several
     * times the worst occupancy ever observed under stress
     * (~1.3 x robSize). Exhaustion is a loud panic, never silent.
     */
    static std::size_t
    poolCapacity(const SmtConfig &cfg)
    {
        return 6 * static_cast<std::size_t>(cfg.robSize) +
            2 * static_cast<std::size_t>(cfg.numThreads) *
            static_cast<std::size_t>(cfg.fetchQueueSize);
    }

    SmtConfig cfg;
    MemorySystem &mem;
    BranchPredictor &bpred;
    Policy &policy;

    InstPool pool;
    RegFiles regFiles;
    Rob robBuf;
    std::vector<IssueQueue> iqs;
    ResourceTracker rtracker;
    FuPool fuPool;
    WakeupTable wakeup;

    /**
     * One ready-list entry. The insertion stamp is duplicated from
     * the DynInst so ordering operations stay inside the (small,
     * hot) list instead of chasing handles into the instruction
     * pool.
     */
    struct ReadyEnt
    {
        std::uint64_t stamp;
        InstHandle h;
    };

    /**
     * Per-queue list of IQ entries whose operands are all ready,
     * sorted ascending by DynInst::iqStamp so the issue walk sees
     * exactly the order the old full-queue poll saw. Rename appends
     * (newest stamp), writeback wakeups insert in stamp order,
     * squash erases by stamp.
     *
     * `head` marks the first live entry: the issue walk consumes an
     * age-ordered prefix (oldest first until the FUs or the budget
     * run out), so advancing head replaces the per-cycle tail
     * compaction — only replayed loads that must stay behind get
     * copied, and wakeup inserts near the front can shift the short
     * prefix into the slack instead of the whole tail right.
     */
    struct ReadyList
    {
        std::vector<ReadyEnt> v;
        std::size_t head = 0;

        std::size_t size() const { return v.size() - head; }
        bool empty() const { return v.size() == head; }
    };

    ReadyList readyLists[numQueueClasses];

    /** Monotonic dispatch stamp backing the age order. */
    std::uint64_t iqStampCounter = 0;

    /** @name Policy fast-path flags (fixed at construction) */
    /** @{ */
    bool policyGatesAlloc = true; //!< policy.gatesAllocation()
    unsigned policyEvents = EvAllEvents; //!< policy.eventMask()
    bool anyResourceCap = false;  //!< any cfg.resourceCap[r] >= 0
    /** @} */

    std::vector<ThreadState> threads;
    std::vector<std::vector<InstHandle>> wheel;

    /** One bit per wheel bucket, set while the bucket is non-empty:
     *  nextCompletion() scans 32 words instead of 2048 buckets. */
    static constexpr std::size_t wheelWords = wheelSize / 64;
    std::uint64_t wheelBusy[wheelWords] = {};

    /** Reused every cycle by fetchStage (no per-cycle allocation). */
    std::vector<FetchCand> fetchCands;

    /** Rejected (replayed) loads of the current issue walk; reused
     *  every cycle so stitching them back never allocates. */
    std::vector<ReadyEnt> replayScratch;

    Cycle cycle = 0;

    /** The last tick did nothing (see idleThrough()). */
    bool lastTickDead = false;
    std::uint64_t skippedTotal = 0; //!< see cyclesSkipped()

    /**
     * cycle % numThreads and cycle % numQueueClasses, maintained
     * incrementally: the round-robin rotations in commit, rename,
     * fetch and issue would otherwise each pay a 64-bit division by
     * a runtime divisor every cycle.
     */
    int rrThread = 0;
    int rrQueue = 0;

    Cycle statsStartCycle = 0;
    InstSeqNum seqCounter = 0;
    PipelineStats pstats;

    /** @name Host profiling (all null/zero unless --prof) */
    /** @{ */
    HostProfiler *hprof = nullptr;
    std::uint64_t hprofEvery = 0;  //!< cached sampleEvery()
    enum HsStage
    {
        HsMem,
        HsPolicy,
        HsCommit,
        HsWriteback,
        HsIssue,
        HsFlush,
        HsRename,
        HsFetch,
        HsStageCount
    };
    int hsStage[HsStageCount] = {};
    /** @} */
};

} // namespace smt

#endif // DCRA_SMT_CORE_PIPELINE_HH
