/**
 * @file
 * FLUSH (Tullsen & Brown, MICRO'01): when a load is detected missing
 * in L2, squash every younger instruction of that thread so its
 * resources go back to the pool, and fetch-stall the thread until
 * the miss is serviced. The squashed work must be refetched, which
 * is the front-end overhead DCRA's evaluation quantifies.
 */

#ifndef DCRA_SMT_POLICY_FLUSH_HH
#define DCRA_SMT_POLICY_FLUSH_HH

#include <cstdint>
#include <deque>

#include "policy/policy.hh"
#include "policy/policy_params.hh"

namespace smt {

/** ICOUNT + squash-and-stall on L2 data misses. */
class FlushPolicy : public Policy
{
  public:
    /** @param pp policy knobs (l2MissGateThreshold). */
    explicit FlushPolicy(const PolicyParams &pp = PolicyParams{})
        : threshold(pp.l2MissGateThreshold)
    {
    }

    const char *name() const override { return "FLUSH"; }

    /** Consumes only the data-access event (miss detection). */
    unsigned eventMask() const override { return EvDataAccess; }

    /** Gates fetch at most; rename allocation is never vetoed. */
    bool gatesAllocation() const override { return false; }

    void beginCycle(Cycle now) override;
    /** A stalled thread's gate opens at its stallUntil; otherwise the
     *  gate follows the MSHR counts (STALL mode) and flushes come
     *  only from data accesses. */
    Cycle quietThrough(Cycle now) const override;
    bool fetchAllowed(ThreadID t, Cycle now) override;
    void onDataAccess(ThreadID t, InstSeqNum seq, Addr pc,
                      ServiceLevel level, Cycle ready,
                      bool wrongPath) override;
    bool takeFlushRequest(ThreadID &t, InstSeqNum &seq) override;

    /** Number of flushes triggered so far (for tests). */
    std::uint64_t flushesTriggered() const { return nFlushes; }

  protected:
    /**
     * Subclass hook (FLUSH++): when false, behave like STALL --
     * gate on pending L2 misses but never squash.
     */
    virtual bool flushModeActive() const { return true; }

  protected:
    /** Outstanding-L2-miss count at which the policy acts. */
    int threshold;

  private:
    struct Req { ThreadID tid; InstSeqNum seq; };

    bool flushing[maxThreads] = {};
    Cycle stallUntil[maxThreads] = {};
    std::deque<Req> requests;
    std::uint64_t nFlushes = 0;
};

} // namespace smt

#endif // DCRA_SMT_POLICY_FLUSH_HH
