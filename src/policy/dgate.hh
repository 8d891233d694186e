/**
 * @file
 * Data Gating (El-Moursy & Albonesi, HPCA'03): gate a thread's fetch
 * whenever it has pending L1 data misses, on the theory that such
 * threads are about to clog the queues. The paper under reproduction
 * notes this is too aggressive: fewer than half of L1 misses become
 * L2 misses.
 */

#ifndef DCRA_SMT_POLICY_DGATE_HH
#define DCRA_SMT_POLICY_DGATE_HH

#include "policy/policy_params.hh"
#include "policy/policy.hh"

namespace smt {

/** ICOUNT + fetch-stall on outstanding L1 data load misses. */
class DataGatingPolicy : public Policy
{
  public:
    /** @param pp policy knobs (dgMissThreshold). */
    explicit DataGatingPolicy(const PolicyParams &pp)
        : threshold(pp.dgMissThreshold)
    {
    }

    const char *name() const override { return "DG"; }

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
        return ctx.mem->pendingL1DLoads(t) < threshold;
    }

  private:
    int threshold;
};

} // namespace smt

#endif // DCRA_SMT_POLICY_DGATE_HH
