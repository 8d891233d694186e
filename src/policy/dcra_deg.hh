/**
 * @file
 * DCRA-DEG: DCRA plus degenerate-case detection -- the extension the
 * paper's section 5.2 leaves as future work:
 *
 *   "Future work will try to detect these degenerate cases in which
 *    assigning more resources to a thread does not contribute at all
 *    to increased overall results."
 *
 * The detector samples each thread's committed-instruction rate over
 * fixed cycle windows. A thread that spent most of a window slow,
 * held at least its equal share of some resource, and still
 * progressed below the configured IPC floor is marked *degenerate*
 * for the next window: it keeps its equal share but loses the right
 * to borrow (its effective sharing factor becomes C = 0). A window
 * of adequate progress rehabilitates it.
 */

#ifndef DCRA_SMT_POLICY_DCRA_DEG_HH
#define DCRA_SMT_POLICY_DCRA_DEG_HH

#include "policy/dcra.hh"

#include <algorithm>
#include <cstdint>

namespace smt {

/** DCRA with mcf-style degenerate threads denied borrowing. */
class DcraDegPolicy : public DcraPolicy
{
  public:
    /** @param pp DCRA knobs plus degWindowCycles / degIpcFloor. */
    explicit DcraDegPolicy(const PolicyParams &pp)
        : DcraPolicy(pp), windowCycles(pp.degWindowCycles),
          ipcFloor(pp.degIpcFloor)
    {
    }

    const char *name() const override { return "DCRA-DEG"; }

    void
    beginCycle(Cycle now) override
    {
        if (now >= windowEnd) {
            for (int t = 0; t < ctx.cfg->numThreads; ++t) {
                const std::uint64_t commits =
                    ctx.tracker->committed(t);
                const double ipc =
                    static_cast<double>(commits - lastCommits[t]) /
                    static_cast<double>(windowCycles);
                const double slowFrac =
                    static_cast<double>(slowCycles[t]) /
                    static_cast<double>(windowCycles);
                degenerate[t] = slowFrac > 0.5 && ipc < ipcFloor;
                lastCommits[t] = commits;
                slowCycles[t] = 0;
            }
            windowEnd = now + windowCycles;
        }
        DcraPolicy::beginCycle(now);
        for (int t = 0; t < ctx.cfg->numThreads; ++t) {
            if (isSlow(t))
                ++slowCycles[t];
        }
    }

    /** A window also closes at windowEnd. */
    Cycle
    quietThrough(Cycle now) const override
    {
        return std::min(DcraPolicy::quietThrough(now),
                        std::max(windowEnd, now + 1) - 1);
    }

    /** The window counts slow cycles one by one. */
    void
    skipCycles(Cycle from, Cycle to) override
    {
        Policy::skipCycles(from, to);
    }

    /** Is t currently classified degenerate? (tests, examples) */
    bool isDegenerate(ThreadID t) const { return degenerate[t]; }

  protected:
    bool
    borrowAllowed(ThreadID t) const override
    {
        return !degenerate[t];
    }

  private:
    Cycle windowCycles;
    double ipcFloor;
    Cycle windowEnd = 0;
    std::uint64_t lastCommits[maxThreads] = {};
    std::uint64_t slowCycles[maxThreads] = {};
    bool degenerate[maxThreads] = {};
};

} // namespace smt

#endif // DCRA_SMT_POLICY_DCRA_DEG_HH
