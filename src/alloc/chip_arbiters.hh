/**
 * @file
 * Chip-level resource arbiters, the implementations of the
 * ResourceArbiter API. They arbitrate the SharedCache's domain —
 * LLC MSHRs, shared-bus slots and LLC ways, with whole cores as the
 * claimants:
 *
 *  - "static"    the pre-existing fixed per-core MSHR quota; never
 *                reassigns anything (byte-identical to the quota
 *                hard-coded in SharedCache before this layer).
 *  - "chip-dcra" the paper's DCRA algorithm transposed one level up:
 *                cores are classified fast/slow from their L2-miss
 *                activity (pending LLC-level misses in the domain),
 *                and slow active cores get a sharing-model E_slow
 *                entitlement of the MSHR pool and of bus slots per
 *                window; fast cores are never gated — exactly the
 *                paper's asymmetry, with (core, LLC MSHR/bus)
 *                substituted for (context, issue queue/registers).
 *  - "way-equal" static equal way partitioning of the LLC: each
 *                core may fill/evict only its own ways.
 *  - "way-util"  utility-driven way partitioning: way counts are
 *                re-dealt every epoch proportional to each core's
 *                demand (LLC accesses), largest-remainder rounding,
 *                at least one way per core.
 *
 * All arbiters are deterministic pure functions of the domain state
 * and their own event counters, preserving the chip's
 * bit-reproducibility guarantee.
 */

#ifndef DCRA_SMT_ALLOC_CHIP_ARBITERS_HH
#define DCRA_SMT_ALLOC_CHIP_ARBITERS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/arbiter.hh"
#include "policy/sharing_model.hh"

namespace smt {

/** Resource kinds of the chip-level (LLC) domain. */
enum ChipResource : int {
    ChipMshr = 0, //!< outstanding LLC->memory misses
    ChipBus = 1,  //!< bus transactions per accounting window
    ChipWay = 2,  //!< LLC ways a core may fill/evict
    NumChipResources = 3
};

/** Printable chip-resource name. */
const char *chipResourceName(ChipResource r);

/** Everything an LLC arbiter needs to size its shares. */
struct LlcArbiterConfig
{
    int numCores = 1;
    int mshrsPerCore = 16;     //!< the static quota
    int mshrsTotal = 64;       //!< shared pool dynamic arbiters deal
    int ways = 8;              //!< LLC associativity
    int busSlotsPerWindow = 16;
    Cycle activityWindow = 256; //!< DCRA-style activity horizon
    SharingFactorMode sharing = SharingFactorMode::OverActivePlus4;
};

/** "static": the fixed per-core MSHR quota, nothing else. */
class StaticQuotaArbiter : public ResourceArbiter
{
  public:
    explicit StaticQuotaArbiter(const LlcArbiterConfig &cfg)
        : quota(cfg.mshrsPerCore)
    {
    }

    const char *name() const override { return "static"; }

    int
    shareOf(int c, int kind) const override
    {
        (void)c;
        return kind == ChipMshr ? quota : shareUnlimited;
    }

  private:
    int quota;
};

/**
 * "chip-dcra": dynamic per-core shares of the LLC MSHR pool and of
 * bus slots, recomputed at every arbitration epoch from the domain's
 * occupancy (slow = pending LLC-level misses) and recency (active =
 * acquired within the activity window) — the paper's section 3
 * algorithm with cores as the threads.
 */
class ChipDcraArbiter : public ResourceArbiter
{
  public:
    explicit ChipDcraArbiter(const LlcArbiterConfig &cfg);

    const char *name() const override { return "chip-dcra"; }

    void beginEpoch(std::uint64_t epoch, Cycle now) override;

    int
    shareOf(int c, int kind) const override
    {
        switch (kind) {
          case ChipMshr:
            return mshrShare[static_cast<std::size_t>(c)];
          case ChipBus:
            return busShare[static_cast<std::size_t>(c)];
          default:
            return shareUnlimited;
        }
    }

    std::uint64_t reassignments() const override { return nReassigned; }

    /** Per-core share gauges plus slow/fast-transition and share-
     *  reassignment events at epoch boundaries (the LLC's
     *  deterministic access stream drives the epochs). */
    void attachTelemetry(TelemetryHub *hub, int eventTrack) override;

    /** @name Introspection (tests) */
    /** @{ */
    bool isSlow(int c) const { return slowMask[static_cast<std::size_t>(c)]; }
    /** @} */

  private:
    LlcArbiterConfig p;
    SharingModel model;
    std::vector<int> mshrShare; //!< per-core entitlement
    std::vector<int> busShare;  //!< per-core bus slots per window
    std::vector<bool> slowMask;
    std::uint64_t nReassigned = 0;
    TelemetryHub *tlm = nullptr;
    int tlmTrack = 0;
};

/**
 * "way-equal" / "way-util": way partitioning of the LLC. Equal mode
 * fixes an even deal at bind; util mode re-deals every epoch
 * proportional to per-core demand. MSHRs keep the static quota and
 * the bus is never gated, so way effects are isolated.
 */
class WayPartitionArbiter : public ResourceArbiter
{
  public:
    WayPartitionArbiter(const LlcArbiterConfig &cfg, bool utilDriven);

    const char *name() const override
    {
        return util ? "way-util" : "way-equal";
    }

    void beginEpoch(std::uint64_t epoch, Cycle now) override;

    /** Util mode meters demand through bus-slot claims (one per LLC
     *  transaction); equal mode consumes nothing. */
    void
    onClaim(int c, int kind, Cycle now) override
    {
        (void)now;
        if (util && kind == ChipBus)
            ++epochAccesses[static_cast<std::size_t>(c)];
    }

    int
    shareOf(int c, int kind) const override
    {
        switch (kind) {
          case ChipMshr:
            return p.mshrsPerCore;
          case ChipWay:
            return wayCount[static_cast<std::size_t>(c)];
          default:
            return shareUnlimited;
        }
    }

    std::uint64_t reassignments() const override { return nReassigned; }

    /** Way-re-deal events (util mode) at epoch boundaries. */
    void attachTelemetry(TelemetryHub *hub, int eventTrack) override;

  private:
    /** Even deal: ways / cores each, remainder to the low cores. */
    std::vector<int> equalDeal() const;

    LlcArbiterConfig p;
    bool util;
    std::vector<int> wayCount;
    std::vector<std::uint64_t> epochAccesses;
    std::uint64_t nReassigned = 0;
    TelemetryHub *tlm = nullptr;
    int tlmTrack = 0;
};

/**
 * Instantiate an LLC arbiter by registered name; fatal() on an
 * unknown one. The registry is shared infrastructure with the
 * policy factory (alloc/registry.hh).
 */
std::unique_ptr<ResourceArbiter> makeLlcArbiter(
    const std::string &name, const LlcArbiterConfig &cfg);

/** Registered LLC-arbiter names (registration order). */
std::vector<const char *> llcArbiterNames();

/** Is @p name a registered LLC arbiter? */
bool isLlcArbiterName(const std::string &name);

} // namespace smt

#endif // DCRA_SMT_ALLOC_CHIP_ARBITERS_HH
