/**
 * @file
 * ResourceArbiter: the decision side of the chip-level allocation
 * API. An arbiter watches the shared LLC's ResourceDomain (LLC
 * MSHRs, bus slots, cache ways; whole cores as the claimants) and
 * answers, for any (core, kind), "how many entries is this core
 * entitled to right now?" (shareOf), recomputed every arbitration
 * epoch. SharedCache (mem/shared_cache.hh) is the one host; the
 * concrete arbiters live in alloc/chip_arbiters.hh.
 *
 * Inside one core, the paper's fetch and allocation policies
 * (policy/policy.hh) read the core's ResourceTracker directly; they
 * are not arbiters.
 */

#ifndef DCRA_SMT_ALLOC_ARBITER_HH
#define DCRA_SMT_ALLOC_ARBITER_HH

#include <cstdint>
#include <limits>

#include "alloc/resource_domain.hh"
#include "common/types.hh"

namespace smt {

class TelemetryHub;

/** shareOf() value meaning "no cap for this claimant". */
constexpr int shareUnlimited = std::numeric_limits<int>::max();

/** Read-only state an arbiter may inspect. */
struct ArbiterContext
{
    const ResourceDomain *domain = nullptr;
};

/**
 * Abstract resource arbiter over one ResourceDomain.
 */
class ResourceArbiter
{
  public:
    virtual ~ResourceArbiter() = default;

    /** Human-readable arbiter name ("static", "chip-dcra", ...). */
    virtual const char *name() const = 0;

    /** Attach to a domain; called once before simulation. */
    void bindDomain(const ArbiterContext &c) { actx = c; }

    /** Recompute shares at an arbitration-epoch boundary. */
    virtual void
    beginEpoch(std::uint64_t epoch, Cycle now)
    {
        (void)epoch;
        (void)now;
    }

    /**
     * Entries of @p kind claimant @p c is currently entitled to.
     * shareUnlimited means the claimant is not capped (DCRA's fast
     * cores are never gated).
     */
    virtual int
    shareOf(int c, int kind) const
    {
        (void)c;
        (void)kind;
        return shareUnlimited;
    }

    /** Claimant @p c acquired one entry of @p kind (one call per
     *  LLC bus transaction and per LLC miss). */
    virtual void onClaim(int c, int kind, Cycle now)
    {
        (void)c;
        (void)kind;
        (void)now;
    }

    /**
     * Epoch boundaries at which this arbiter changed at least one
     * claimant's share. Dynamic arbiters (chip-dcra, way-util)
     * override; static ones never reassign.
     */
    virtual std::uint64_t reassignments() const { return 0; }

    /**
     * Opt into telemetry: record decision events (share
     * reassignments, fast/slow transitions, way re-deals) on
     * @p eventTrack of @p hub. Called only when telemetry is
     * enabled; the default arbiter emits nothing. Emissions must
     * happen only inside beginEpoch()/onClaim(), whose invocation
     * order is deterministic for every worker count.
     */
    virtual void attachTelemetry(TelemetryHub *hub, int eventTrack)
    {
        (void)hub;
        (void)eventTrack;
    }

  protected:
    ArbiterContext actx;
};

} // namespace smt

#endif // DCRA_SMT_ALLOC_ARBITER_HH
