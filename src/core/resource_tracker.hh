/**
 * @file
 * Per-thread hardware usage counters, the exact counter set the
 * paper's DCRA implementation adds to the processor (section 3.4,
 * figure 3): occupancy of the three issue queues and the two rename
 * register pools (incremented at rename, decremented at issue /
 * commit respectively), a pre-issue instruction count for ICOUNT
 * ordering, and per-resource last-allocation cycles from which the
 * activity classification is derived.
 *
 * The tracker reuses ResourceDomain's counters and audit
 * (alloc/resource_domain.hh), the same storage the shared LLC counts
 * its per-core usage in: hardware contexts are the claimants and the
 * five shared resources are the kinds. The typed accessors
 * (ResourceType-first argument order) are the pipeline's and the
 * policies' entry points; they hide the base's (claimant, kind)
 * overloads, which remain reachable through a ResourceDomain
 * reference.
 */

#ifndef DCRA_SMT_CORE_RESOURCE_TRACKER_HH
#define DCRA_SMT_CORE_RESOURCE_TRACKER_HH

#include <cstdint>
#include <vector>

#include "alloc/resource_domain.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "core/resources.hh"

namespace smt {

/** The five core resource kinds, in ResourceType order. */
inline std::vector<ResourceKind>
coreResourceKinds()
{
    std::vector<ResourceKind> kinds;
    kinds.reserve(NumResourceTypes);
    for (int r = 0; r < NumResourceTypes; ++r) {
        // Capacities live in SmtConfig (resourceTotal) because they
        // depend on the run configuration; the domain only counts.
        kinds.push_back({resourceName(static_cast<ResourceType>(r)),
                         0});
    }
    return kinds;
}

/**
 * Counter block shared by the pipeline (writer) and policies
 * (readers).
 */
class ResourceTracker : public ResourceDomain
{
  public:
    /** @param numThreads hardware contexts. */
    explicit ResourceTracker(int numThreads)
        : ResourceDomain("core", numThreads, coreResourceKinds())
    {
        for (int t = 0; t < maxThreads; ++t) {
            preIssueCount[t] = 0;
            committedCount[t] = 0;
        }
    }

    /** Record allocation of one entry of a resource. */
    void
    allocate(ResourceType r, ThreadID t, Cycle now)
    {
        acquire(t, r, now);
    }

    /** Record release of one entry of a resource. */
    void
    release(ResourceType r, ThreadID t)
    {
        ResourceDomain::release(t, r);
    }

    /** Entries of resource r currently held by thread t. */
    int occupancy(ResourceType r, ThreadID t) const
    {
        return ResourceDomain::occupancy(t, r);
    }

    /** Cycle of thread t's most recent allocation of resource r. */
    Cycle lastAlloc(ResourceType r, ThreadID t) const
    {
        return lastAcquire(t, r);
    }

    /** @name ICOUNT pre-issue instruction counting */
    /** @{ */
    void preIssueInc(ThreadID t) { ++preIssueCount[t]; }
    void
    preIssueDec(ThreadID t)
    {
        SMT_ASSERT(preIssueCount[t] > 0, "pre-issue count underflow");
        --preIssueCount[t];
    }
    int preIssue(ThreadID t) const { return preIssueCount[t]; }
    /** @} */

    /** @name Commit counting */
    /** @{ */
    void commitInc(ThreadID t) { ++committedCount[t]; }
    std::uint64_t committed(ThreadID t) const
    {
        return committedCount[t];
    }
    /** @} */

    /** Number of contexts. */
    int numThreads() const { return numClaimants(); }

  private:
    int preIssueCount[maxThreads];
    std::uint64_t committedCount[maxThreads];
};

} // namespace smt

#endif // DCRA_SMT_CORE_RESOURCE_TRACKER_HH
