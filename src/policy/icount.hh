/**
 * @file
 * ICOUNT fetch (Tullsen et al., ISCA'96): prioritise the threads
 * with the fewest instructions in the pre-issue stages. This is the
 * Policy base-class default, so the class only contributes a name;
 * it exists so experiments can instantiate plain ICOUNT explicitly.
 */

#ifndef DCRA_SMT_POLICY_ICOUNT_HH
#define DCRA_SMT_POLICY_ICOUNT_HH

#include "policy/policy.hh"

namespace smt {

/** Pure ICOUNT: priority ordering only, no gating. */
class IcountPolicy : public Policy
{
  public:
    const char *name() const override { return "ICOUNT"; }

    /** Reads the usage counters directly; the pipeline's per-
     *  instruction event stream is unused. */
    unsigned eventMask() const override { return 0; }

    /** Gates fetch at most; rename allocation is never vetoed. */
    bool gatesAllocation() const override { return false; }

    /** Never gates and never flushes: nothing moves with time. */
    Cycle quietThrough(Cycle) const override { return neverCycle; }
};

} // namespace smt

#endif // DCRA_SMT_POLICY_ICOUNT_HH
