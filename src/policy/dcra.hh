/**
 * @file
 * DCRA: Dynamically Controlled Resource Allocation (the paper's
 * contribution, section 3).
 *
 * Every cycle, for each of the five shared resources:
 *
 *  1. classify threads by phase: *slow* if the thread has a pending
 *     L1 data cache miss, *fast* otherwise (section 3.1.1);
 *  2. classify threads by usage: *active* for the resource if they
 *     allocated an entry of it in the last Y = 256 cycles. In the
 *     paper's hardware only the fp issue queue and fp registers
 *     carry activity counters; the integer resources treat every
 *     thread as active (sections 3.1.2, 3.4);
 *  3. compute the slow-active entitlement E_slow with the sharing
 *     model (section 3.2) from the (F_A, S_A) counts;
 *  4. fetch-stall every slow-active thread whose occupancy of any
 *     resource exceeds its entitlement, until it drains below the
 *     limit. Fast threads are never gated; inactive threads are not
 *     allocating anyway.
 *
 * Fetch priority among allowed threads remains ICOUNT.
 */

#ifndef DCRA_SMT_POLICY_DCRA_HH
#define DCRA_SMT_POLICY_DCRA_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "policy/policy_params.hh"
#include "policy/policy.hh"
#include "policy/sharing_model.hh"

namespace smt {

/** The dynamic resource allocation policy. */
class DcraPolicy : public Policy
{
  public:
    /** @param pp sharing factors, activity window, ablations. */
    explicit DcraPolicy(const PolicyParams &pp);

    const char *name() const override { return "DCRA"; }

    /** Reads the usage counters directly; the pipeline's per-
     *  instruction event stream is unused. */
    unsigned eventMask() const override { return 0; }

    /** Gates fetch at most; rename allocation is never vetoed. */
    bool gatesAllocation() const override { return false; }

    void beginCycle(Cycle now) override;

    /** Phases follow the MSHR counts and occupancies follow pipeline
     *  events; with time alone only an activity window can close
     *  (at lastAlloc + Y), which can move a limit. */
    Cycle quietThrough(Cycle now) const override;

    /** beginCycle() is a pure function of the cycle and the counters
     *  it reads, none of which moves in a skipped span before an
     *  activity window closes: one evaluation at the span's last
     *  cycle leaves the state n evaluations would. */
    void skipCycles(Cycle from, Cycle to) override
    {
        (void)from;
        beginCycle(to);
    }

    bool fetchAllowed(ThreadID t, Cycle now) override;

    /**
     * The dynamic entitlements: a slow thread active for a
     * resource is entitled to the sharing model's E_slow; everyone
     * else is unconstrained (the machine total), the paper's
     * asymmetry. Valid after the first beginCycle().
     */
    int
    shareOf(int c, int kind) const override
    {
        if (slow[c] && active[kind][c])
            return limit[kind];
        return ctx.cfg->resourceTotal(
            static_cast<ResourceType>(kind));
    }

    /** @name Introspection (tests, the phase-explorer example) */
    /** @{ */

    /** Was t classified slow in the current cycle? */
    bool isSlow(ThreadID t) const { return slow[t]; }

    /** Is t active for resource r in the current cycle? */
    bool isActive(ResourceType r, ThreadID t) const
    {
        return active[r][t];
    }

    /** Current E_slow for a resource. */
    int slowLimit(ResourceType r) const { return limit[r]; }

    /** Is t currently fetch-gated? */
    bool isGated(ThreadID t) const { return gatedMask[t]; }

    /** @} */

    /** Expose per-thread phase-flip counters as telemetry channels.
     *  Flip counting itself is armed here — off (zero cost) in
     *  ordinary runs. */
    void registerTelemetry(TelemetryHub &hub,
                           const std::string &prefix) override;

  protected:
    void onBind() override;

  private:
    /** Evaluate the activity classification for one (r, t). */
    bool computeActive(ResourceType r, ThreadID t, Cycle now) const;

    PolicyParams params;
    /** E_slow by (F_A, S_A), one table per resource, built at bind. */
    std::vector<SharingModelTable> tables;

    bool slow[maxThreads] = {};
    bool active[NumResourceTypes][maxThreads] = {};
    int limit[NumResourceTypes] = {};
    bool gatedMask[maxThreads] = {};

    /** @name Telemetry-only phase-flip tracking (countFlips arms it;
     *  the default beginCycle path never touches these). */
    /** @{ */
    bool countFlips = false;
    bool prevSlow[maxThreads] = {};
    std::uint64_t flips[maxThreads] = {};
    /** @} */
};

} // namespace smt

#endif // DCRA_SMT_POLICY_DCRA_HH
