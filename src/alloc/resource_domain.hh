/**
 * @file
 * ResourceDomain: a named pool of claimants x resource kinds with
 * usage counters — the state side of the chip-level allocation
 * API. A *claimant* is whoever competes for the pool's entries
 * (hardware contexts inside one core, whole cores on the chip) and
 * a *kind* is one shared resource the pool tracks (an issue queue,
 * a register file, LLC MSHRs, bus slots, LLC ways).
 *
 * Two instances exist today:
 *
 *  - the core's counters: ResourceTracker (core/resource_tracker.hh)
 *    derives from this class to reuse its storage, so the counters
 *    the paper's DCRA implementation adds to the processor are a
 *    ResourceDomain over (hardware context) x (iq-int, iq-fp, iq-ls,
 *    regs-int, regs-fp); policies read them directly;
 *  - the chip-level domain: SharedCache (mem/shared_cache.hh) owns a
 *    domain over (core) x (llc-mshr, llc-bus, llc-way), which its
 *    ResourceArbiter (alloc/arbiter.hh) reads to decide per-core
 *    shares.
 *
 * The domain itself never polices anything; it only counts.
 */

#ifndef DCRA_SMT_ALLOC_RESOURCE_DOMAIN_HH
#define DCRA_SMT_ALLOC_RESOURCE_DOMAIN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace smt {

/** One resource kind a domain tracks. */
struct ResourceKind
{
    std::string name;  //!< printable ("iq-int", "llc-mshr", ...)
    int capacity = 0;  //!< pool size; 0 = unknown/not enforced here
};

/**
 * Usage counters for one pool of claimants x kinds. Writers are the
 * hardware models (pipeline rename/commit, LLC miss handling);
 * readers are the arbiters.
 *
 * Storage is inline with a compile-time pow2 claimant stride: the
 * acquire/release/occupancy accessors run per rename slot on the
 * core's hottest path, so cell addressing must stay shift+add with
 * no heap indirection (the counters sit inside the owning tracker,
 * next to its other per-cycle state).
 */
class ResourceDomain
{
  public:
    /** Compile-time bounds (pow2 stride keeps indexing branch-free).
     * 32 claimants cover 8 hardware contexts and any realistic core
     * count; 8 kinds cover the core's 5 and the LLC's 3. */
    static constexpr int maxDomainClaimants = 32;
    static constexpr int maxDomainKinds = 8;
    /**
     * @param name domain name ("core", "llc", ...).
     * @param numClaimants competing entities (contexts or cores).
     * @param kinds the resource kinds tracked, in index order.
     */
    ResourceDomain(std::string name, int numClaimants,
                   std::vector<ResourceKind> kinds)
        : dName(std::move(name)), nClaimants(numClaimants),
          kindTable(std::move(kinds))
    {
        SMT_ASSERT(nClaimants >= 1 &&
                   nClaimants <= maxDomainClaimants,
                   "domain '%s': claimant count %d out of 1..%d",
                   dName.c_str(), nClaimants, maxDomainClaimants);
        SMT_ASSERT(!kindTable.empty() &&
                   static_cast<int>(kindTable.size()) <=
                       maxDomainKinds,
                   "domain '%s': kind count %zu out of 1..%d",
                   dName.c_str(), kindTable.size(), maxDomainKinds);
        for (std::size_t i = 0; i < sizeof(occCount) /
                 sizeof(occCount[0]); ++i) {
            occCount[i] = 0;
            lastAcq[i] = 0;
        }
        for (int k = 0; k < maxDomainKinds; ++k)
            inUseCount[k] = 0;
    }

    /** Record acquisition of one entry of @p kind by @p claimant. */
    void
    acquire(int claimant, int kind, Cycle now)
    {
        const std::size_t i = cell(claimant, kind);
        ++occCount[i];
        lastAcq[i] = now;
        ++inUseCount[static_cast<std::size_t>(kind)];
    }

    /** Record release of one entry of @p kind by @p claimant. */
    void
    release(int claimant, int kind)
    {
        const std::size_t i = cell(claimant, kind);
        SMT_ASSERT(occCount[i] > 0,
                   "domain '%s': release of %s below zero "
                   "(claimant %d)",
                   dName.c_str(), kindName(kind), claimant);
        --occCount[i];
        --inUseCount[static_cast<std::size_t>(kind)];
    }

    /** Entries of @p kind currently held by @p claimant. */
    int
    occupancy(int claimant, int kind) const
    {
        return occCount[cell(claimant, kind)];
    }

    /** Cycle of @p claimant's most recent acquisition of @p kind. */
    Cycle
    lastAcquire(int claimant, int kind) const
    {
        return lastAcq[cell(claimant, kind)];
    }

    /** Entries of @p kind held across all claimants. */
    int inUse(int kind) const
    {
        return inUseCount[static_cast<std::size_t>(kind)];
    }

    /** Pool size of @p kind (0 = unknown). */
    int capacity(int kind) const
    {
        return kindTable[static_cast<std::size_t>(kind)].capacity;
    }

    /** Printable kind name. */
    const char *kindName(int kind) const
    {
        return kindTable[static_cast<std::size_t>(kind)].name.c_str();
    }

    int numClaimants() const { return nClaimants; }
    int numKinds() const { return static_cast<int>(kindTable.size()); }

    /**
     * Conservation audit: per-kind occupancies are non-negative and
     * sum to the kind's in-use total; a kind with a known capacity
     * never holds more than it. Panics on violation.
     */
    void
    auditDomain() const
    {
        for (int k = 0; k < numKinds(); ++k) {
            long long sum = 0;
            for (int c = 0; c < nClaimants; ++c) {
                const int o = occupancy(c, k);
                SMT_ASSERT(o >= 0, "domain '%s': negative %s count",
                           dName.c_str(), kindName(k));
                sum += o;
            }
            SMT_ASSERT(sum == inUse(k),
                       "domain '%s': %s occupancies sum to %lld but "
                       "in-use says %d",
                       dName.c_str(), kindName(k), sum, inUse(k));
            SMT_ASSERT(capacity(k) == 0 || inUse(k) <= capacity(k),
                       "domain '%s': %s in-use %d exceeds capacity %d",
                       dName.c_str(), kindName(k), inUse(k),
                       capacity(k));
        }
    }

  private:
    /** Kind-major (kind, claimant) cell index; pure shift+add. */
    static std::size_t
    cell(int claimant, int kind)
    {
        return (static_cast<std::size_t>(kind)
                << 5) + // log2(maxDomainClaimants)
            static_cast<std::size_t>(claimant);
    }
    static_assert(maxDomainClaimants == 1 << 5,
                  "cell() shift must match maxDomainClaimants");

    std::string dName;
    int nClaimants;
    std::vector<ResourceKind> kindTable;
    /** Kind-major occupancy counters. */
    int occCount[maxDomainKinds * maxDomainClaimants];
    /** Kind-major last-acquire cycles. */
    Cycle lastAcq[maxDomainKinds * maxDomainClaimants];
    /** Per-kind totals. */
    int inUseCount[maxDomainKinds];
};

} // namespace smt

#endif // DCRA_SMT_ALLOC_RESOURCE_DOMAIN_HH
