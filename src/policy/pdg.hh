/**
 * @file
 * Predictive Data Gating (El-Moursy & Albonesi, HPCA'03): like DG,
 * but a thread is gated as soon as a fetched load is *predicted* to
 * miss, instead of waiting for the miss to happen. The predictor is
 * a table of 2-bit saturating counters indexed by load PC, trained
 * with actual L1 outcomes at execute. The paper under reproduction
 * notes cache misses are hard to predict, which limits PDG.
 */

#ifndef DCRA_SMT_POLICY_PDG_HH
#define DCRA_SMT_POLICY_PDG_HH

#include <cstdint>
#include <vector>

#include "policy/policy_params.hh"
#include "policy/policy.hh"

namespace smt {

/** Miss-predicting fetch gate. */
class PdgPolicy : public Policy
{
  public:
    /** @param pp policy knobs (pdgTableEntries). */
    explicit PdgPolicy(const PolicyParams &pp);

    const char *name() const override { return "PDG"; }

    /** Tracks loads from fetch to completion/squash. */
    unsigned eventMask() const override
    {
        return EvDataAccess | EvLoadComplete |
            EvLoadSquashed | EvFetchLoad;
    }

    /** Gates fetch at most; rename allocation is never vetoed. */
    bool gatesAllocation() const override { return false; }

    /** A gate opens and closes only on pipeline events. */
    Cycle quietThrough(Cycle) const override { return neverCycle; }

    bool fetchAllowed(ThreadID t, Cycle now) override;
    void onFetchLoad(ThreadID t, InstSeqNum seq, Addr pc) override;
    void onDataAccess(ThreadID t, InstSeqNum seq, Addr pc,
                      ServiceLevel level, Cycle ready,
                      bool wrongPath) override;
    void onLoadComplete(ThreadID t, InstSeqNum seq) override;
    void onLoadSquashed(ThreadID t, InstSeqNum seq) override;

    /** Predictor state for a PC (tests). */
    bool predictsMiss(Addr pc) const;

  private:
    std::size_t indexOf(Addr pc) const;
    void ungateIf(ThreadID t, InstSeqNum seq);

    std::vector<std::uint8_t> table;
    bool gated[maxThreads] = {};
    InstSeqNum gateSeq[maxThreads] = {};
};

} // namespace smt

#endif // DCRA_SMT_POLICY_PDG_HH
