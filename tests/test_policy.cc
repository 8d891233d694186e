/**
 * @file
 * Unit tests for the fetch/allocation policies other than DCRA:
 * factory round-trips, ICOUNT ordering, gating conditions of STALL /
 * DG / PDG, FLUSH squash requests, FLUSH++ mode switching and SRA
 * caps. Policies are exercised against a real simulator where
 * event wiring matters and against hand-built contexts where not.
 */

#include <gtest/gtest.h>

#include <memory>

#include "policy/dgate.hh"
#include "policy/factory.hh"
#include "policy/flush.hh"
#include "policy/flushpp.hh"
#include "policy/icount.hh"
#include "policy/pdg.hh"
#include "policy/round_robin.hh"
#include "policy/sra.hh"
#include "policy/stall.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;

TEST(PolicyFactory, NamesRoundTrip)
{
    const PolicyKind kinds[] = {
        PolicyKind::RoundRobin, PolicyKind::Icount, PolicyKind::Stall,
        PolicyKind::Flush, PolicyKind::FlushPp,
        PolicyKind::DataGating, PolicyKind::Pdg, PolicyKind::Sra,
        PolicyKind::Dcra,
    };
    PolicyParams pp;
    for (PolicyKind k : kinds) {
        EXPECT_EQ(parsePolicyKind(policyKindName(k)), k);
        auto p = makePolicy(k, pp);
        ASSERT_NE(p, nullptr);
        EXPECT_STREQ(p->name(), policyKindName(k));
    }
}

/** Harness exposing a bound policy over a real (tiny) machine. */
class PolicyHarness
{
  public:
    PolicyHarness()
        : mem(MemParams{}, 2), tracker(2)
    {
        cfg.numThreads = 2;
        ctx.cfg = &cfg;
        ctx.tracker = &tracker;
        ctx.mem = &mem;
    }

    void
    bind(Policy &p)
    {
        p.bind(ctx);
    }

    SmtConfig cfg;
    MemorySystem mem;
    ResourceTracker tracker;
    PolicyContext ctx;
};

TEST(Icount, PriorityTracksPreIssueCount)
{
    PolicyHarness h;
    IcountPolicy p;
    h.bind(p);
    h.tracker.preIssueInc(0);
    h.tracker.preIssueInc(0);
    h.tracker.preIssueInc(1);
    EXPECT_GT(p.fetchPriority(0, 1), p.fetchPriority(1, 1));
    EXPECT_TRUE(p.fetchAllowed(0, 1));
    EXPECT_TRUE(p.fetchAllowed(1, 1));
}

TEST(RoundRobin, RotatesEveryCycle)
{
    PolicyHarness h;
    RoundRobinPolicy p;
    h.bind(p);
    const int p0c0 = p.fetchPriority(0, 0);
    const int p1c0 = p.fetchPriority(1, 0);
    const int p0c1 = p.fetchPriority(0, 1);
    const int p1c1 = p.fetchPriority(1, 1);
    EXPECT_NE(p0c0 < p1c0, p0c1 < p1c1);
}

TEST(Stall, GatesOnPendingL2Miss)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1; // classic first-miss trigger
    StallPolicy p(pp);
    h.bind(p);
    EXPECT_TRUE(p.fetchAllowed(0, 10));
    // Inject a memory-level load miss for thread 0.
    const MemAccessResult r = h.mem.dataAccess(0, 0x10000, true, 10);
    ASSERT_EQ(r.level, ServiceLevel::Memory);
    EXPECT_FALSE(p.fetchAllowed(0, 11));
    EXPECT_TRUE(p.fetchAllowed(1, 11));
    h.mem.tick(r.ready);
    EXPECT_TRUE(p.fetchAllowed(0, r.ready));
}

TEST(Stall, SecondMissTriggerPreservesPairwiseMlp)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 2; // Tullsen & Brown's variant
    StallPolicy p(pp);
    h.bind(p);
    const MemAccessResult a = h.mem.dataAccess(0, 0x10000, true, 10);
    ASSERT_EQ(a.level, ServiceLevel::Memory);
    EXPECT_TRUE(p.fetchAllowed(0, 11)) << "one miss may proceed";
    const MemAccessResult b = h.mem.dataAccess(0, 0x90000, true, 11);
    ASSERT_EQ(b.level, ServiceLevel::Memory);
    EXPECT_FALSE(p.fetchAllowed(0, 12)) << "second miss gates";
}

TEST(DataGating, GatesOnPendingL1Miss)
{
    PolicyHarness h;
    PolicyParams pp;
    DataGatingPolicy p(pp);
    h.bind(p);
    // L2-hit (L1 miss) is already enough for DG, unlike STALL.
    h.mem.l2().fill(0x10000);
    const MemAccessResult r = h.mem.dataAccess(0, 0x10000, true, 10);
    ASSERT_EQ(r.level, ServiceLevel::L2);
    EXPECT_FALSE(p.fetchAllowed(0, 11));
    EXPECT_TRUE(p.fetchAllowed(1, 11));
    h.mem.tick(r.ready);
    EXPECT_TRUE(p.fetchAllowed(0, r.ready));
}

TEST(Flush, RequestsSquashOnL2Miss)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1;
    FlushPolicy p(pp);
    h.bind(p);
    // The trigger consults the real outstanding-miss count.
    h.mem.dataAccess(0, 0x10000, true, 9);
    p.onDataAccess(0, 77, 0x4000, ServiceLevel::Memory, 500, false);
    ThreadID t = invalidThread;
    InstSeqNum s = 0;
    ASSERT_TRUE(p.takeFlushRequest(t, s));
    EXPECT_EQ(t, 0);
    EXPECT_EQ(s, 77u);
    EXPECT_FALSE(p.takeFlushRequest(t, s));
    // gated until the fill arrives
    EXPECT_FALSE(p.fetchAllowed(0, 100));
    p.beginCycle(500);
    EXPECT_TRUE(p.fetchAllowed(0, 500));
    EXPECT_EQ(p.flushesTriggered(), 1u);
}

TEST(Flush, SecondMissExtendsStallWithoutSecondSquash)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1;
    FlushPolicy p(pp);
    h.bind(p);
    h.mem.dataAccess(0, 0x10000, true, 9);
    p.onDataAccess(0, 10, 0x4000, ServiceLevel::Memory, 300, false);
    p.onDataAccess(0, 8, 0x4100, ServiceLevel::Memory, 600, false);
    ThreadID t;
    InstSeqNum s;
    ASSERT_TRUE(p.takeFlushRequest(t, s));
    EXPECT_EQ(s, 10u);
    EXPECT_FALSE(p.takeFlushRequest(t, s));
    p.beginCycle(301);
    EXPECT_FALSE(p.fetchAllowed(0, 301)) << "stall extended to 600";
    p.beginCycle(600);
    EXPECT_TRUE(p.fetchAllowed(0, 600));
}

TEST(Flush, StallUntilBoundsTheSkip)
{
    // Between ticks a flushed thread's gate holds through the cycle
    // before its stall ends, and no longer: the core may skip to
    // there and must tick the cycle the gate opens.
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1;
    FlushPolicy p(pp);
    h.bind(p);
    EXPECT_EQ(p.quietThrough(9), neverCycle);
    h.mem.dataAccess(0, 0x10000, true, 9);
    p.onDataAccess(0, 10, 0x4000, ServiceLevel::Memory, 300, false);
    ThreadID t;
    InstSeqNum s;
    ASSERT_TRUE(p.takeFlushRequest(t, s));
    EXPECT_EQ(p.quietThrough(9), 299u);
    ASSERT_TRUE(h.mem.dataAccess(1, 0x50000, true, 10).accepted);
    p.onDataAccess(1, 11, 0x4100, ServiceLevel::Memory, 250, false);
    ASSERT_TRUE(p.takeFlushRequest(t, s));
    EXPECT_EQ(p.quietThrough(9), 249u) << "the earlier stall ends first";
    p.skipCycles(9, 249);
    EXPECT_FALSE(p.fetchAllowed(1, 249));
    p.beginCycle(250);
    EXPECT_TRUE(p.fetchAllowed(1, 250));
    EXPECT_EQ(p.quietThrough(250), 299u);
    p.beginCycle(300);
    EXPECT_TRUE(p.fetchAllowed(0, 300));
    EXPECT_EQ(p.quietThrough(300), neverCycle);
}

TEST(Policy, TheDefaultBoundNeverSkips)
{
    // A policy that does not say how long its gates hold could gate a
    // context on any cycle, so its core never skips.
    class Plain : public Policy
    {
      public:
        const char *name() const override { return "plain"; }
    };
    PolicyHarness h;
    Plain p;
    h.bind(p);
    EXPECT_EQ(p.quietThrough(42), 42u);
    // The built-in policies without time-driven gates never bound.
    for (const PolicyKind k :
         {PolicyKind::RoundRobin, PolicyKind::Icount, PolicyKind::Stall,
          PolicyKind::DataGating, PolicyKind::Pdg, PolicyKind::Sra}) {
        const std::unique_ptr<Policy> q = makePolicy(k, PolicyParams{});
        h.bind(*q);
        EXPECT_EQ(q->quietThrough(42), neverCycle) << q->name();
    }
}

TEST(Flush, L2HitsDoNotTrigger)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1;
    FlushPolicy p(pp);
    h.bind(p);
    p.onDataAccess(0, 5, 0x4000, ServiceLevel::L2, 30, false);
    ThreadID t;
    InstSeqNum s;
    EXPECT_FALSE(p.takeFlushRequest(t, s));
}

TEST(FlushPp, StartsInStallMode)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1;
    FlushPpPolicy p(pp);
    h.bind(p);
    EXPECT_FALSE(p.inFlushMode());
    // Create a real memory-level load miss (the STALL-mode gate
    // reads the MSHR state) and report it to the policy.
    const MemAccessResult r = h.mem.dataAccess(0, 0x10000, true, 9);
    ASSERT_EQ(r.level, ServiceLevel::Memory);
    p.onDataAccess(0, 5, 0x4000, r.level, r.ready, false);
    // In STALL mode an L2 miss must not request a squash...
    ThreadID t;
    InstSeqNum s;
    EXPECT_FALSE(p.takeFlushRequest(t, s));
    // ...but the pending L2 miss gates fetch, like STALL.
    EXPECT_FALSE(p.fetchAllowed(0, 10));
    h.mem.tick(r.ready);
    EXPECT_TRUE(p.fetchAllowed(0, r.ready));
}

TEST(FlushPp, SwitchesToFlushUnderMemPressure)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1;
    pp.flushppWindow = 100; // small window for the test
    pp.flushppMemThreads = 2;
    FlushPpPolicy p(pp);
    h.bind(p);
    // Real pending miss so the flush trigger's occupancy check holds.
    h.mem.dataAccess(0, 0x10000, true, 9);

    // Make both threads look memory-bounded: >1% L2 misses/commit.
    for (int t = 0; t < 2; ++t) {
        for (int i = 0; i < 5; ++i) {
            p.onDataAccess(t, 1000 + i, 0x4000,
                           ServiceLevel::Memory, 500, false);
        }
        for (int i = 0; i < 100; ++i)
            p.onCommit(t);
    }
    EXPECT_TRUE(p.inFlushMode());

    // Now an L2 miss does request a squash.
    p.onDataAccess(0, 42, 0x4000, ServiceLevel::Memory, 900, false);
    ThreadID t;
    InstSeqNum s;
    ASSERT_TRUE(p.takeFlushRequest(t, s));
    EXPECT_EQ(s, 42u);
}

TEST(FlushPp, RevertsToStallWhenPressureDrops)
{
    PolicyHarness h;
    PolicyParams pp;
    pp.l2MissGateThreshold = 1;
    pp.flushppWindow = 100;
    FlushPpPolicy p(pp);
    h.bind(p);
    h.mem.dataAccess(0, 0x10000, true, 9);
    for (int t = 0; t < 2; ++t) {
        for (int i = 0; i < 5; ++i)
            p.onDataAccess(t, i, 0x4000, ServiceLevel::Memory, 500,
                           false);
        for (int i = 0; i < 100; ++i)
            p.onCommit(t);
    }
    ASSERT_TRUE(p.inFlushMode());
    // A clean window for both threads drops the pressure.
    for (int t = 0; t < 2; ++t) {
        for (int i = 0; i < 100; ++i)
            p.onCommit(t);
    }
    EXPECT_FALSE(p.inFlushMode());
}

TEST(Pdg, GatesOnPredictedMissUntilLoadCompletes)
{
    PolicyHarness h;
    PolicyParams pp;
    PdgPolicy p(pp);
    h.bind(p);
    const Addr pc = 0x4444;

    // train the predictor: this pc misses
    for (int i = 0; i < 3; ++i)
        p.onDataAccess(0, 1, pc, ServiceLevel::Memory, 100, false);
    ASSERT_TRUE(p.predictsMiss(pc));

    p.onFetchLoad(0, 55, pc);
    EXPECT_FALSE(p.fetchAllowed(0, 10));
    EXPECT_TRUE(p.fetchAllowed(1, 10));
    p.onLoadComplete(0, 55);
    EXPECT_TRUE(p.fetchAllowed(0, 11));
}

TEST(Pdg, SquashedGateLoadUngates)
{
    PolicyHarness h;
    PolicyParams pp;
    PdgPolicy p(pp);
    h.bind(p);
    const Addr pc = 0x4444;
    for (int i = 0; i < 3; ++i)
        p.onDataAccess(0, 1, pc, ServiceLevel::Memory, 100, false);
    p.onFetchLoad(0, 55, pc);
    ASSERT_FALSE(p.fetchAllowed(0, 10));
    p.onLoadSquashed(0, 55);
    EXPECT_TRUE(p.fetchAllowed(0, 11));
}

TEST(Pdg, HitsUntrainThePredictor)
{
    PolicyHarness h;
    PolicyParams pp;
    PdgPolicy p(pp);
    h.bind(p);
    const Addr pc = 0x8888;
    for (int i = 0; i < 3; ++i)
        p.onDataAccess(0, 1, pc, ServiceLevel::Memory, 100, false);
    ASSERT_TRUE(p.predictsMiss(pc));
    for (int i = 0; i < 4; ++i)
        p.onDataAccess(0, 1, pc, ServiceLevel::L1, 2, false);
    EXPECT_FALSE(p.predictsMiss(pc));
}

TEST(Sra, CapsEveryResourceAtEqualShare)
{
    PolicyHarness h;
    SraPolicy p;
    h.bind(p);
    // 2 threads: IQ share 40, reg share (352-80)/2 = 136.
    for (int i = 0; i < 40; ++i)
        h.tracker.allocate(ResIqInt, 0, 1);
    EXPECT_FALSE(p.allocAllowed(0, ResIqInt));
    EXPECT_TRUE(p.allocAllowed(1, ResIqInt));
    EXPECT_TRUE(p.allocAllowed(0, ResIqFp));
    for (int i = 0; i < 136; ++i)
        h.tracker.allocate(ResRegInt, 1, 1);
    EXPECT_FALSE(p.allocAllowed(1, ResRegInt));
    h.tracker.release(ResRegInt, 1);
    EXPECT_TRUE(p.allocAllowed(1, ResRegInt));
}

TEST(Sra, NeverGatesFetch)
{
    PolicyHarness h;
    SraPolicy p;
    h.bind(p);
    EXPECT_TRUE(p.fetchAllowed(0, 5));
}

// ---------------- end-to-end sanity of gating policies ----------

TEST(PolicyEndToEnd, StallReducesMemThreadResourceHold)
{
    SimConfig cfg;
    cfg.seed = 5;
    ChipSimulator icount(cfg, {"eon", "mcf"}, PolicyKind::Icount);
    ChipSimulator stall(cfg, {"eon", "mcf"}, PolicyKind::Stall);

    auto avgOcc = [](ChipSimulator &s) {
        Pipeline &pipe = s.pipeline(0);
        double occ = 0.0;
        const int n = 30000;
        for (int i = 0; i < n; ++i) {
            pipe.tick();
            occ += pipe.tracker().occupancy(ResIqLs, 1);
        }
        return occ / n;
    };
    const double occIcount = avgOcc(icount);
    const double occStall = avgOcc(stall);
    EXPECT_LT(occStall, occIcount * 0.8)
        << "STALL should shrink mcf's ld/st queue hold";
}

TEST(PolicyEndToEnd, FlushSquashesAndRefetches)
{
    SimConfig cfg;
    cfg.seed = 6;
    ChipSimulator sim(cfg, {"eon", "mcf"}, PolicyKind::Flush);
    const SimResult r = sim.run(8000, 2'000'000);
    // mcf has many L2 misses -> flushes must have happened
    EXPECT_GT(r.threads[1].flushes, 10u);
    // flushed correct-path work is refetched: fetched > committed +
    // wrong-path by a visible margin for mcf
    const ThreadResult &t = r.threads[1];
    EXPECT_GT(t.fetched,
              t.committed + t.fetchedWrongPath);
}

} // anonymous namespace
