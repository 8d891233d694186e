/**
 * @file
 * The policy interface the SMT core consults every cycle.
 *
 * A Policy in this library generalises both of the paper's
 * categories:
 *
 *  - I-fetch policies (ICOUNT, STALL, FLUSH, FLUSH++, DG, PDG)
 *    control only the fetch stage: ordering via fetchPriority() and
 *    gating via fetchAllowed(); FLUSH-class policies additionally
 *    request squashes via takeFlushRequest().
 *  - resource allocation policies (SRA, DCRA) additionally gate
 *    resource allocation: SRA through hard per-thread caps at rename
 *    (allocAllowed()), DCRA by fetch-stalling slow threads that
 *    exceed their dynamically computed share (fetchAllowed()).
 *
 * The pipeline pushes events (data accesses, load completion/squash,
 * fetched loads, commits) into the policy; the policy reads the
 * hardware usage counters (the core's ResourceTracker) through the
 * PolicyContext. The chip-level LLC arbiters (alloc/arbiter.hh) are
 * a separate API.
 */

#ifndef DCRA_SMT_POLICY_POLICY_HH
#define DCRA_SMT_POLICY_POLICY_HH

#include <string>

#include "common/types.hh"
#include "core/resource_tracker.hh"
#include "core/resources.hh"
#include "core/smt_config.hh"
#include "mem/memory_system.hh"

namespace smt {

class TelemetryHub;

/** Read-only state a policy may inspect. */
struct PolicyContext
{
    const SmtConfig *cfg = nullptr;
    const ResourceTracker *tracker = nullptr;
    const MemorySystem *mem = nullptr;
};

/** @name Per-instruction pipeline events a policy may consume.
 * Policy::eventMask() declares which of the on*() hooks below a
 * policy actually implements; the pipeline skips the virtual
 * dispatch for everything else (the hooks fire per instruction on
 * the hottest paths).
 */
/** @{ */
enum PolicyEvent : unsigned {
    EvDataAccess = 1u << 0,   //!< onDataAccess()
    EvLoadComplete = 1u << 1, //!< onLoadComplete()
    EvLoadSquashed = 1u << 2, //!< onLoadSquashed()
    EvFetchLoad = 1u << 3,    //!< onFetchLoad()
    EvCommit = 1u << 4,       //!< onCommit()
    EvAllEvents = 0x1f,
};
/** @} */

/**
 * Abstract fetch / resource-allocation policy.
 */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Human-readable policy name ("DCRA", "FLUSH++", ...). */
    virtual const char *name() const = 0;

    /** Attach to a core; called once before simulation. */
    void
    bind(const PolicyContext &c)
    {
        ctx = c;
        onBind();
    }

    /**
     * Entries of resource @p kind thread @p c is entitled to. The
     * default is the machine total (fetch-ordering policies never
     * partition anything); SRA and DCRA override with their
     * caps/limits.
     */
    virtual int
    shareOf(int c, int kind) const
    {
        (void)c;
        return ctx.cfg->resourceTotal(static_cast<ResourceType>(kind));
    }

    /** Called at the start of every cycle before any stage runs. */
    virtual void beginCycle(Cycle now) { (void)now; }

    /**
     * Last cycle through which this policy's gates (fetchAllowed(),
     * allocAllowed()) and flush requests provably keep the answers
     * they give at @p now, as long as its core issues, commits and
     * squashes nothing and no MSHR entry fills. Called between
     * ticks, after beginCycle(now); the core may skip the cycles up
     * to it (Pipeline::skipTo). The default, @p now, never lets the
     * core skip, so it is never skipped past a context this policy
     * gates.
     */
    virtual Cycle quietThrough(Cycle now) const { return now; }

    /**
     * The core skipped cycles (@p from, @p to]: bring the per-cycle
     * state up to date. The default calls beginCycle() once per
     * skipped cycle, in order.
     */
    virtual void
    skipCycles(Cycle from, Cycle to)
    {
        for (Cycle c = from + 1; c <= to; ++c)
            beginCycle(c);
    }

    /**
     * Opt into telemetry: register policy-specific time-series
     * channels (e.g. DCRA's per-thread fast/slow flip counters)
     * under @p prefix. The default policy exposes nothing. Readers
     * are sampled from the main thread between cycles, so policies
     * must only expose plain counters they update during their own
     * core's tick — never push events from here (per-core policy
     * code runs inside the --chip-jobs worker-parallel region).
     */
    virtual void
    registerTelemetry(TelemetryHub &hub, const std::string &prefix)
    {
        (void)hub;
        (void)prefix;
    }

    /**
     * May thread t fetch this cycle? Policies stall threads here
     * (STALL/FLUSH on L2 misses, DG/PDG on L1 misses, DCRA on
     * exceeded shares).
     */
    virtual bool
    fetchAllowed(ThreadID t, Cycle now)
    {
        (void)t;
        (void)now;
        return true;
    }

    /**
     * Fetch priority; lower values fetch first. The default is
     * ICOUNT ordering (fewest pre-issue instructions first), which
     * every policy in the paper except ROUND-ROBIN builds on.
     */
    virtual int
    fetchPriority(ThreadID t, Cycle now) const
    {
        (void)now;
        return ctx.tracker->preIssue(t);
    }

    /**
     * May thread t allocate one more entry of resource r at rename?
     * Hard static partitioning (SRA) lives here.
     */
    virtual bool
    allocAllowed(ThreadID t, ResourceType r)
    {
        (void)t;
        (void)r;
        return true;
    }

    /**
     * Does this policy ever gate rename-stage allocation? Queried
     * once at bind: when false, the pipeline skips the two
     * per-dispatch allocAllowed() virtual calls entirely. The
     * default is true (conservative — custom policies overriding
     * allocAllowed() are always consulted); the built-in fetch-level
     * policies return false.
     */
    virtual bool gatesAllocation() const { return true; }

    /**
     * Which per-instruction pipeline events this policy consumes
     * (a PolicyEvent bitmask). Queried once at bind: the pipeline
     * skips the virtual dispatch of every hook not in the mask.
     * Defaults to all events (conservative, same reasoning as
     * gatesAllocation()); built-in policies declare exactly what
     * they implement.
     */
    virtual unsigned eventMask() const { return EvAllEvents; }

    /** @name Pipeline events */
    /** @{ */

    /** A load or store accessed the data hierarchy at issue. */
    virtual void
    onDataAccess(ThreadID t, InstSeqNum seq, Addr pc,
                 ServiceLevel level, Cycle ready, bool wrongPath)
    {
        (void)t; (void)seq; (void)pc; (void)level; (void)ready;
        (void)wrongPath;
    }

    /** A load wrote back. */
    virtual void onLoadComplete(ThreadID t, InstSeqNum seq)
    {
        (void)t;
        (void)seq;
    }

    /** A load was squashed before completing. */
    virtual void onLoadSquashed(ThreadID t, InstSeqNum seq)
    {
        (void)t;
        (void)seq;
    }

    /** A load was fetched (PDG predicts misses at this point). */
    virtual void onFetchLoad(ThreadID t, InstSeqNum seq, Addr pc)
    {
        (void)t;
        (void)seq;
        (void)pc;
    }

    /** One instruction of thread t committed. */
    virtual void onCommit(ThreadID t) { (void)t; }

    /** @} */

    /**
     * FLUSH-style squash request. When this returns true the core
     * squashes every instruction of thread t younger than seq,
     * rewinds the thread's trace and refetches.
     */
    virtual bool
    takeFlushRequest(ThreadID &t, InstSeqNum &seq)
    {
        (void)t;
        (void)seq;
        return false;
    }

  protected:
    /** Hook for subclasses needing setup after bind(). */
    virtual void onBind() {}

    PolicyContext ctx;
};

} // namespace smt

#endif // DCRA_SMT_POLICY_POLICY_HH
