/**
 * @file
 * Static Resource Allocation (the Pentium-4-style sharing model the
 * paper compares against): every thread is entitled to exactly 1/T
 * of each shared resource, enforced as a hard cap at rename. Fetch
 * ordering stays ICOUNT.
 */

#ifndef DCRA_SMT_POLICY_SRA_HH
#define DCRA_SMT_POLICY_SRA_HH

#include "policy/policy.hh"

namespace smt {

/** Even static partitioning of the five shared resources. */
class SraPolicy : public Policy
{
  public:
    const char *name() const override { return "SRA"; }

    /** Reads the usage counters directly; the pipeline's per-
     *  instruction event stream is unused. */
    unsigned eventMask() const override { return 0; }

    /** The caps follow occupancy, which moves only with pipeline
     *  events. */
    Cycle quietThrough(Cycle) const override { return neverCycle; }

    bool
    allocAllowed(ThreadID t, ResourceType r) override
    {
        return ctx.tracker->occupancy(r, t) < share[r];
    }

    /** The hard 1/T entitlement. */
    int
    shareOf(int c, int kind) const override
    {
        (void)c;
        return share[kind];
    }

  protected:
    void
    onBind() override
    {
        // The 1/T entitlements are configuration constants; computed
        // once so the per-dispatch check is a counter compare.
        for (int r = 0; r < NumResourceTypes; ++r) {
            share[r] =
                ctx.cfg->resourceTotal(static_cast<ResourceType>(r)) /
                ctx.cfg->numThreads;
        }
    }

  private:
    int share[NumResourceTypes] = {};
};

} // namespace smt

#endif // DCRA_SMT_POLICY_SRA_HH
