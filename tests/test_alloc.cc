/**
 * @file
 * Tests for the allocation layer (src/alloc/): the
 * ResourceDomain accounting contract (conservation, recency,
 * audits), the name-keyed registries shared by policies and LLC
 * arbiters, the policies' per-thread shares (shareOf and
 * allocAllowed backed by SRA state), way-mask enforcement on
 * cache victim selection, chip-DCRA share recomputation at epoch
 * boundaries, way-partitioning occupancy effects, and a checked-in
 * 2-core ChipDCRA golden with per-core commit-stream hashes.
 *
 * Regenerating the ChipDCRA golden after an intentional change:
 *
 *     SMT_PRINT_GOLDEN=1 ./test_alloc --gtest_filter='*PrintCurrent*'
 *
 * and paste the emitted values over chipDcraGolden() below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc/arbiter.hh"
#include "alloc/chip_arbiters.hh"
#include "alloc/resource_domain.hh"
#include "mem/shared_cache.hh"
#include "policy/factory.hh"
#include "policy/icount.hh"
#include "policy/sharing_model.hh"
#include "policy/sra.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "support/same_result.hh"

namespace {

using namespace smt;
using smt::test::expectSameResult;

// ---------------------------------------------------------------
// ResourceDomain
// ---------------------------------------------------------------

ResourceDomain
twoByTwoDomain()
{
    return ResourceDomain("test", 2,
                          {{"alpha", 4}, {"beta", 0}});
}

TEST(ResourceDomain, AccountingConservation)
{
    ResourceDomain dom = twoByTwoDomain();
    EXPECT_EQ(dom.numClaimants(), 2);
    EXPECT_EQ(dom.numKinds(), 2);
    EXPECT_EQ(dom.capacity(0), 4);
    EXPECT_EQ(dom.capacity(1), 0);
    EXPECT_STREQ(dom.kindName(0), "alpha");

    dom.acquire(0, 0, 10);
    dom.acquire(0, 0, 12);
    dom.acquire(1, 0, 15);
    dom.acquire(1, 1, 20);
    EXPECT_EQ(dom.occupancy(0, 0), 2);
    EXPECT_EQ(dom.occupancy(1, 0), 1);
    EXPECT_EQ(dom.occupancy(0, 1), 0);
    EXPECT_EQ(dom.inUse(0), 3);
    EXPECT_EQ(dom.inUse(1), 1);
    dom.auditDomain(); // occupancies sum to in-use, within capacity

    dom.release(0, 0);
    EXPECT_EQ(dom.occupancy(0, 0), 1);
    EXPECT_EQ(dom.inUse(0), 2);
    dom.auditDomain();

    dom.release(0, 0);
    dom.release(1, 0);
    dom.release(1, 1);
    EXPECT_EQ(dom.inUse(0), 0);
    EXPECT_EQ(dom.inUse(1), 0);
    dom.auditDomain();
}

TEST(ResourceDomain, LastAcquireTracksRecency)
{
    ResourceDomain dom = twoByTwoDomain();
    EXPECT_EQ(dom.lastAcquire(0, 0), 0u);
    dom.acquire(0, 0, 100);
    dom.acquire(0, 0, 250);
    EXPECT_EQ(dom.lastAcquire(0, 0), 250u);
    dom.release(0, 0); // releases do not touch recency
    EXPECT_EQ(dom.lastAcquire(0, 0), 250u);
    EXPECT_EQ(dom.lastAcquire(1, 0), 0u);
}

TEST(ResourceDomain, TrackerIsTheCoreLevelInstance)
{
    // The pipeline's ResourceTracker is a ResourceDomain over
    // (context) x (the five shared resources): the typed hot-path
    // accessors and the generic domain view must agree.
    ResourceTracker tracker(2);
    ResourceDomain &dom = tracker;
    EXPECT_EQ(dom.numClaimants(), 2);
    EXPECT_EQ(dom.numKinds(), NumResourceTypes);
    EXPECT_STREQ(dom.kindName(ResIqInt), "iq-int");
    EXPECT_STREQ(dom.kindName(ResRegFp), "regs-fp");

    tracker.allocate(ResIqInt, 1, 42);
    tracker.allocate(ResRegFp, 1, 43);
    EXPECT_EQ(tracker.occupancy(ResIqInt, 1), 1);
    EXPECT_EQ(dom.occupancy(1, ResIqInt), 1);
    EXPECT_EQ(tracker.lastAlloc(ResIqInt, 1), 42u);
    EXPECT_EQ(dom.lastAcquire(1, ResIqInt), 42u);
    EXPECT_EQ(dom.inUse(ResRegFp), 1);
    dom.auditDomain();

    tracker.release(ResIqInt, 1);
    tracker.release(ResRegFp, 1);
    EXPECT_EQ(dom.inUse(ResIqInt), 0);
    dom.auditDomain();
}

// ---------------------------------------------------------------
// registries
// ---------------------------------------------------------------

TEST(Registry, PolicyNamesRoundTrip)
{
    const std::vector<const char *> names = policyNames();
    EXPECT_EQ(names.size(), 9u);
    for (const char *n : names) {
        const PolicyKind k = parsePolicyKind(n);
        EXPECT_STREQ(policyKindName(k), n);
    }
    // The paper's spellings survive the registry rework.
    EXPECT_EQ(parsePolicyKind("DCRA"), PolicyKind::Dcra);
    EXPECT_EQ(parsePolicyKind("FLUSH++"), PolicyKind::FlushPp);
    EXPECT_STREQ(policyKindName(PolicyKind::RoundRobin),
                 "ROUND-ROBIN");
}

TEST(Registry, ArbiterNames)
{
    const std::vector<const char *> names = llcArbiterNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_STREQ(names[0], "static"); // the default comes first
    EXPECT_TRUE(isLlcArbiterName("chip-dcra"));
    EXPECT_TRUE(isLlcArbiterName("way-equal"));
    EXPECT_TRUE(isLlcArbiterName("way-util"));
    EXPECT_FALSE(isLlcArbiterName("nosuch"));

    LlcArbiterConfig cfg;
    cfg.numCores = 2;
    for (const char *n : names)
        EXPECT_STREQ(makeLlcArbiter(n, cfg)->name(), n);
}

// ---------------------------------------------------------------
// policy shares and allocation caps
// ---------------------------------------------------------------

TEST(PolicyArbiter, SraSharesAreTheHardCaps)
{
    SmtConfig cfg;
    cfg.numThreads = 4;
    MemParams mp;
    MemorySystem mem(mp, cfg.numThreads);
    ResourceTracker tracker(cfg.numThreads);

    SraPolicy sra;
    Policy &pol = sra; // the generic view
    sra.bind({&cfg, &tracker, &mem});

    for (int r = 0; r < NumResourceTypes; ++r) {
        const auto rt = static_cast<ResourceType>(r);
        const int want = cfg.resourceTotal(rt) / cfg.numThreads;
        EXPECT_EQ(pol.shareOf(0, r), want) << resourceName(rt);
        EXPECT_EQ(pol.shareOf(3, r), want) << resourceName(rt);
    }
    EXPECT_TRUE(pol.gatesAllocation());

    // The share is the allocAllowed cap: fill thread 0 to its int-IQ
    // share and its next allocation must flip to denied.
    const int cap = pol.shareOf(0, ResIqInt);
    for (int i = 0; i < cap; ++i) {
        EXPECT_TRUE(pol.allocAllowed(0, ResIqInt));
        tracker.allocate(ResIqInt, 0, 1);
    }
    EXPECT_FALSE(pol.allocAllowed(0, ResIqInt));
    EXPECT_TRUE(pol.allocAllowed(1, ResIqInt));
}

TEST(PolicyArbiter, FetchPoliciesNeverPartition)
{
    SmtConfig cfg;
    cfg.numThreads = 2;
    MemParams mp;
    MemorySystem mem(mp, cfg.numThreads);
    ResourceTracker tracker(cfg.numThreads);

    IcountPolicy icount;
    icount.bind({&cfg, &tracker, &mem});
    Policy &pol = icount;
    EXPECT_FALSE(pol.gatesAllocation()); // fast-path contract
    for (int r = 0; r < NumResourceTypes; ++r) {
        const auto rt = static_cast<ResourceType>(r);
        EXPECT_EQ(pol.shareOf(0, r), cfg.resourceTotal(rt));
        EXPECT_TRUE(pol.allocAllowed(0, rt));
    }
}

// ---------------------------------------------------------------
// way-mask enforcement on victim selection
// ---------------------------------------------------------------

TEST(WayMask, FillRespectsTheMask)
{
    // 4 sets x 4 ways of 64B lines.
    CacheParams cp{"wp", 4 * 4 * 64, 4, 64, 1};
    Cache cache(cp);
    const Addr setStride =
        static_cast<Addr>(cp.lineSize) * cache.numSets();

    // Claimant A owns ways {0,1}, claimant B ways {2,3}; all four
    // addresses map to set 0.
    const Addr a0 = 0, a1 = setStride, a2 = 2 * setStride;
    const Addr b0 = 3 * setStride, b1 = 4 * setStride;
    const std::uint32_t maskA = 0x3, maskB = 0xc;

    EXPECT_LT(cache.fillWays(a0, maskA), 2);
    EXPECT_LT(cache.fillWays(a1, maskA), 2);
    EXPECT_GE(cache.fillWays(b0, maskB), 2);
    EXPECT_GE(cache.fillWays(b1, maskB), 2);

    // A's partition is full: a third A-line must evict A's LRU
    // victim (a0), never B's lines.
    EXPECT_LT(cache.fillWays(a2, maskA), 2);
    EXPECT_FALSE(cache.probe(a0));
    EXPECT_TRUE(cache.probe(a1));
    EXPECT_TRUE(cache.probe(a2));
    EXPECT_TRUE(cache.probe(b0));
    EXPECT_TRUE(cache.probe(b1));
}

TEST(WayMask, PresentLineRefreshesRegardlessOfMask)
{
    CacheParams cp{"wp2", 4 * 4 * 64, 4, 64, 1};
    Cache cache(cp);
    const int slot = cache.fillWays(0x0, 0x3);
    // Partition moved: the line stays where it is (partitioning
    // restricts eviction, not lookup) and the same slot is
    // reported.
    EXPECT_EQ(cache.fillWays(0x0, 0xc), slot);
    EXPECT_TRUE(cache.probe(0x0));
}

TEST(WayMask, FullMaskMatchesPlainFill)
{
    CacheParams cp{"wp3", 4 * 4 * 64, 4, 64, 1};
    Cache masked(cp), plain(cp);
    const Addr setStride =
        static_cast<Addr>(cp.lineSize) * masked.numSets();
    // Overfill one set both ways; the surviving tags must agree
    // (fill() is defined as fillWays with the full mask).
    for (int i = 0; i < 6; ++i) {
        masked.fillWays(i * setStride, Cache::allWays);
        plain.fill(i * setStride);
    }
    for (int i = 0; i < 6; ++i) {
        EXPECT_EQ(masked.probe(i * setStride),
                  plain.probe(i * setStride))
            << i;
    }
}

// ---------------------------------------------------------------
// chip-DCRA share recomputation at epoch boundaries
// ---------------------------------------------------------------

/** A SharedCache with an injected chip-dcra arbiter. */
SharedCache
dcraLlc(const LlcArbiterConfig &ac, const SharedCacheParams &p)
{
    return SharedCache(p, ac.numCores,
                       makeLlcArbiter("chip-dcra", ac));
}

TEST(ChipDcra, SlowActiveCoreGetsESlowAtEpochBoundary)
{
    SharedCacheParams p;
    p.arbEpoch = 1000;
    LlcArbiterConfig ac;
    ac.numCores = 2;
    ac.mshrsTotal = p.mshrsTotal;
    ac.busSlotsPerWindow =
        static_cast<int>(p.busWindow / p.busLatency);
    ac.activityWindow = 500;
    SharedCache llc = dcraLlc(ac, p);

    // Before the first epoch nobody is gated.
    EXPECT_EQ(llc.mshrShareOf(0), -1);
    EXPECT_EQ(llc.mshrShareOf(1), -1);

    // Core 1: one miss that retires before the boundary (fast but
    // recently active); core 0: misses still outstanding at the
    // boundary (slow active). Unique line addresses = all misses.
    llc.access(1, 0x100000, 650);
    llc.access(0, 0x200000, 900);
    llc.access(0, 0x300000, 950);

    // Core 1's miss retires (ready 650+30+300 = 980 <= 995) on its
    // next access — still pre-boundary — and the access at 1005
    // crosses the boundary, triggering the share recompute.
    llc.access(1, 0x100000, 995);
    llc.access(1, 0x100000, 1005);

    // Core 0 is slow (outstanding misses) and active; core 1 is
    // fast. The slow share is the sharing model's E_slow over the
    // MSHR pool with one fast and one slow active core.
    const SharingModel model(ac.sharing);
    const int eSlow = model.slowLimit(ac.mshrsTotal, 1, 1);
    EXPECT_EQ(llc.mshrShareOf(0), eSlow);
    EXPECT_EQ(llc.mshrShareOf(1), -1); // fast cores are never gated
    EXPECT_LT(eSlow, ac.mshrsTotal);
    EXPECT_GE(llc.shareReassignments(), 1u);

    const auto *dcra = dynamic_cast<const ChipDcraArbiter *>(
        &llc.arbiter());
    ASSERT_NE(dcra, nullptr);
    EXPECT_TRUE(dcra->isSlow(0));
    EXPECT_FALSE(dcra->isSlow(1));
    llc.auditInvariants();
}

TEST(ChipDcra, StaticArbiterNeverReassigns)
{
    SharedCacheParams p;
    p.arbEpoch = 100;
    SharedCache llc(p, 2); // default: the static quota arbiter
    for (int i = 0; i < 50; ++i)
        llc.access(i % 2, 0x100000 + 0x1000 * i, 10 + 40 * i);
    EXPECT_EQ(llc.shareReassignments(), 0u);
    EXPECT_EQ(llc.mshrShareOf(0), p.mshrsPerCore);
    EXPECT_EQ(llc.mshrShareOf(1), p.mshrsPerCore);
    llc.auditInvariants();
}

TEST(ChipDcra, AuditSurvivesPoolOverflowByUngatedCore)
{
    // MSHR shares are soft entitlements: before any epoch
    // classifies it, a memory-bound core may hold more outstanding
    // misses than the nominal dealing pool, and the domain audit
    // must treat that as legal (no hard capacity on llc-mshr).
    SharedCacheParams p;
    p.arbEpoch = 0; // never classify: the core stays ungated
    LlcArbiterConfig ac;
    ac.numCores = 2;
    ac.mshrsTotal = p.mshrsTotal;
    SharedCache llc = dcraLlc(ac, p);
    for (int i = 0; i < 70; ++i)
        llc.access(0, 0x100000 + 0x10000 * i, 10 + i);
    llc.auditInvariants();
    EXPECT_GT(llc.domain().inUse(ChipMshr), p.mshrsTotal);
}

// ---------------------------------------------------------------
// bus-slot windows
// ---------------------------------------------------------------

/** Test arbiter capping every core to one bus slot per window. */
class BusCapArbiter : public ResourceArbiter
{
  public:
    const char *name() const override { return "bus-cap"; }

    int
    shareOf(int c, int kind) const override
    {
        (void)c;
        return kind == ChipBus ? 1 : shareUnlimited;
    }
};

TEST(BusWindow, ExhaustedWindowNeverRollsBack)
{
    SharedCacheParams p;
    p.busWindow = 8;
    p.busLatency = 4;
    p.arbEpoch = 0;
    SharedCache llc(p, 2, std::make_unique<BusCapArbiter>());

    // Window 2 spans cycles 16..23 with one slot per window.
    const LlcResult r0 = llc.access(0, 0x1000, 16);
    EXPECT_EQ(r0.ready, 16 + p.latency + p.memLatency); // slot of w2

    // Same cycle: window 2 is spent, so the transaction starts at
    // window 3's boundary (cycle 24).
    const LlcResult r1 = llc.access(0, 0x2000, 16);
    EXPECT_EQ(r1.ready, 24 + p.latency + p.memLatency);

    // An earlier-cycle request must not roll the accounting window
    // back to 2 and reuse its spent slot: window 3 is also taken,
    // so it lands in window 4 (cycle 32).
    const LlcResult r2 = llc.access(0, 0x3000, 17);
    EXPECT_EQ(r2.ready, 32 + p.latency + p.memLatency);
    llc.auditInvariants();
}

// ---------------------------------------------------------------
// way partitioning through the SharedCache
// ---------------------------------------------------------------

TEST(WayPartition, UtilArbiterReDealsTowardDemand)
{
    SharedCacheParams p;
    p.arbEpoch = 1000;
    LlcArbiterConfig ac;
    ac.numCores = 2;
    ac.ways = p.tags.assoc;
    SharedCache llc(p, 2, makeLlcArbiter("way-util", ac));

    // Start: the equal deal, mirrored into the domain.
    EXPECT_EQ(llc.wayCountOf(0), p.tags.assoc / 2);
    EXPECT_EQ(llc.wayCountOf(1), p.tags.assoc / 2);
    EXPECT_EQ(llc.domain().occupancy(0, ChipWay),
              llc.wayCountOf(0));

    // Core 0 generates 9x the demand of core 1 in epoch 1; the
    // re-deal at the boundary must shift ways toward core 0 while
    // keeping core 1's one-way floor and dealing every way.
    Cycle now = 10;
    for (int i = 0; i < 27; ++i, now += 30)
        llc.access(0, 0x100000 + 0x10000 * i, now);
    for (int i = 0; i < 3; ++i, now += 30)
        llc.access(1, 0x900000 + 0x10000 * i, now);
    llc.access(0, 0xa00000, 1100); // crosses the epoch boundary

    EXPECT_GT(llc.wayCountOf(0), llc.wayCountOf(1));
    EXPECT_GE(llc.wayCountOf(1), 1);
    EXPECT_EQ(llc.wayCountOf(0) + llc.wayCountOf(1), p.tags.assoc);
    EXPECT_GE(llc.shareReassignments(), 1u);
    EXPECT_EQ(llc.domain().occupancy(0, ChipWay),
              llc.wayCountOf(0));
    EXPECT_EQ(llc.domain().occupancy(1, ChipWay),
              llc.wayCountOf(1));
    llc.auditInvariants();
}

// ---------------------------------------------------------------
// chip-level end-to-end: 2-core ChipDCRA golden
// ---------------------------------------------------------------

SimConfig
chipDcraConfig()
{
    SimConfig cfg;
    cfg.soc.numCores = 2;
    cfg.soc.contextsPerCore = 2;
    cfg.soc.allocator = AllocatorKind::RoundRobin;
    cfg.soc.epochCycles = 0; // no migrations: isolate arbitration
    cfg.soc.llcArbiter = "chip-dcra";
    // Short LLC epochs so the ~2.5k-cycle golden run crosses many
    // share-recompute boundaries.
    cfg.soc.llc.arbEpoch = 250;
    return cfg;
}

const std::vector<std::string> &
chipDcraBenches()
{
    // Two memory hogs on core 0, two high-ILP threads on core 1
    // (round-robin cold spread of this order): the asymmetric LLC
    // pressure chip-DCRA is built to arbitrate.
    static const std::vector<std::string> b = {"mcf", "gzip", "art",
                                               "crafty"};
    return b;
}

struct ChipDcraGoldenRow
{
    Cycle cycles;
    std::uint64_t reassignments;
    std::uint64_t coreHash[2];
};

/** Regenerate with SMT_PRINT_GOLDEN=1 (see file header). */
ChipDcraGoldenRow
chipDcraGolden()
{
    return {2054, 2, {0x9488bd105ae16921ull, 0x8769fe34dc69b02dull}};
}

SimResult
runChipDcra()
{
    ChipSimulator chip(chipDcraConfig(), chipDcraBenches(),
                       PolicyKind::Dcra);
    return chip.run(3000, 2'000'000);
}

TEST(ChipDcraGolden, MatchesCheckedInGolden)
{
    const ChipDcraGoldenRow want = chipDcraGolden();
    const SimResult r = runChipDcra();
    EXPECT_EQ(r.cycles, want.cycles);
    EXPECT_EQ(r.llcShareReassignments, want.reassignments);
    ASSERT_EQ(r.coreCommitHashes.size(), 2u);
    EXPECT_EQ(r.coreCommitHashes[0], want.coreHash[0]);
    EXPECT_EQ(r.coreCommitHashes[1], want.coreHash[1]);
    EXPECT_EQ(r.llcArbiter, "chip-dcra");
}

TEST(ChipDcraGolden, ReassignsAtLeastOneShare)
{
    // The acceptance bar: a 2-core ChipDCRA run demonstrably
    // reassigns shares at epoch boundaries.
    const SimResult r = runChipDcra();
    EXPECT_GE(r.llcShareReassignments, 1u);
    ASSERT_EQ(r.llcPerCore.size(), 2u);
    // The memory-hog core ends the run MSHR-gated; the ILP core is
    // never gated.
    EXPECT_NE(r.llcPerCore[0].mshrShare, -1);
}

TEST(ChipDcraGolden, BitDeterministicAcrossRuns)
{
    const SimResult a = runChipDcra();
    const SimResult b = runChipDcra();
    expectSameResult(a, b, "2-core chip-dcra");
}

TEST(ChipDcraGolden, PrintCurrent)
{
    // smtlint:allow(D1): opt-in golden-regeneration gate, prints to a human terminal only
    if (std::getenv("SMT_PRINT_GOLDEN") == nullptr) {
        SUCCEED();
        return;
    }
    const SimResult r = runChipDcra();
    std::printf("    return {%llu, %llu, {0x%016llxull, "
                "0x%016llxull}};\n",
                static_cast<unsigned long long>(r.cycles),
                static_cast<unsigned long long>(
                    r.llcShareReassignments),
                static_cast<unsigned long long>(
                    r.coreCommitHashes[0]),
                static_cast<unsigned long long>(
                    r.coreCommitHashes[1]));
}

// ---------------------------------------------------------------
// way-partitioned chip run: occupancy lands in the soc block
// ---------------------------------------------------------------

TEST(WayPartitionChip, NonEqualOccupancyReachesTheSocBlock)
{
    SimConfig cfg;
    cfg.soc.numCores = 2;
    cfg.soc.contextsPerCore = 2;
    cfg.soc.allocator = AllocatorKind::RoundRobin;
    cfg.soc.epochCycles = 0;
    cfg.soc.llcArbiter = "way-util";
    cfg.soc.llc.arbEpoch = 250;

    SweepSpec spec;
    spec.name = "way-partition";
    spec.base = cfg;
    spec.commits = 2500;
    spec.warmup = 0;
    spec.computeHmean = false;
    spec.workloads = {adHocWorkload(chipDcraBenches())};
    spec.policies = {PolicyKind::Dcra};
    SweepRunner runner(std::move(spec), 1);
    const SweepResults results = runner.run();

    const SimResult &raw = results.results[0].summary.raw;
    ASSERT_EQ(raw.llcPerCore.size(), 2u);
    // The memory-hog core owns more of the LLC than the ILP core.
    EXPECT_NE(raw.llcPerCore[0].linesOwned,
              raw.llcPerCore[1].linesOwned);
    EXPECT_NE(raw.llcPerCore[0].ways, raw.llcPerCore[1].ways);
    EXPECT_EQ(raw.llcPerCore[0].ways + raw.llcPerCore[1].ways,
              cfg.soc.llc.tags.assoc);

    // ... and the sweep JSON document reports it.
    const std::string doc = JsonSink().render(results);
    EXPECT_NE(doc.find("\"llcPerCore\""), std::string::npos);
    EXPECT_NE(doc.find("\"llcArbiter\": \"way-util\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"linesOwned\""), std::string::npos);
}

} // anonymous namespace
