/**
 * @file
 * ROUND-ROBIN fetch (Tullsen et al., ISCA'96): rotate fetch priority
 * among threads every cycle, ignoring resource usage entirely.
 */

#ifndef DCRA_SMT_POLICY_ROUND_ROBIN_HH
#define DCRA_SMT_POLICY_ROUND_ROBIN_HH

#include "policy/policy.hh"

namespace smt {

/** Baseline rotating-priority fetch policy. */
class RoundRobinPolicy : public Policy
{
  public:
    const char *name() const override { return "ROUND-ROBIN"; }

    /** Reads the usage counters directly; the pipeline's per-
     *  instruction event stream is unused. */
    unsigned eventMask() const override { return 0; }

    /** Gates fetch at most; rename allocation is never vetoed. */
    bool gatesAllocation() const override { return false; }

    /** Never gates and never flushes: nothing moves with time. */
    Cycle quietThrough(Cycle) const override { return neverCycle; }

    int
    fetchPriority(ThreadID t, Cycle now) const override
    {
        const int n = ctx.cfg->numThreads;
        return static_cast<int>(
            (static_cast<Cycle>(t) + n - (now % n)) %
            static_cast<Cycle>(n));
    }
};

} // namespace smt

#endif // DCRA_SMT_POLICY_ROUND_ROBIN_HH
