/**
 * @file
 * STALL (Tullsen & Brown, MICRO'01): ICOUNT ordering plus a fetch
 * gate while a thread has a pending L2 data miss, so a blocked
 * thread stops accumulating shared resources.
 */

#ifndef DCRA_SMT_POLICY_STALL_HH
#define DCRA_SMT_POLICY_STALL_HH

#include "policy/policy.hh"
#include "policy/policy_params.hh"

namespace smt {

/** ICOUNT + fetch-stall on outstanding L2 data misses. */
class StallPolicy : public Policy
{
  public:
    /** @param pp policy knobs (l2MissGateThreshold). */
    explicit StallPolicy(const PolicyParams &pp = PolicyParams{})
        : threshold(pp.l2MissGateThreshold)
    {
    }

    const char *name() const override { return "STALL"; }

    /** Reads the usage counters directly; the pipeline's per-
     *  instruction event stream is unused. */
    unsigned eventMask() const override { return 0; }

    /** Gates fetch at most; rename allocation is never vetoed. */
    bool gatesAllocation() const override { return false; }

    /** The gate follows the MSHR counts. */
    Cycle quietThrough(Cycle) const override { return neverCycle; }

    bool
    fetchAllowed(ThreadID t, Cycle now) override
    {
        (void)now;
        return ctx.mem->pendingL2DLoads(t) < threshold;
    }

  private:
    int threshold;
};

} // namespace smt

#endif // DCRA_SMT_POLICY_STALL_HH
