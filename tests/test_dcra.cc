/**
 * @file
 * Tests for the paper's contribution: the sharing model (pinned to
 * the exact values of paper Table 1), the formula/lookup-table
 * equivalence, the thread phase and activity classifications, and
 * the fetch-gating behaviour of the DCRA policy.
 */

#include <gtest/gtest.h>

#include "policy/dcra.hh"
#include "policy/sharing_model.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;

// ---------------- sharing model ----------------

TEST(SharingModel, PaperTable1Exact)
{
    // Table 1: 32-entry resource, 4-thread processor, C=1/(FA+SA).
    const SharingModel m(SharingFactorMode::OverActive);
    struct Row { int fa, sa, eSlow; };
    const Row rows[] = {
        {0, 1, 32}, {1, 1, 24}, {0, 2, 16}, {2, 1, 18}, {1, 2, 14},
        {0, 3, 11}, {3, 1, 14}, {2, 2, 12}, {1, 3, 10}, {0, 4, 8},
    };
    for (const Row &r : rows) {
        EXPECT_EQ(m.slowLimit(32, r.fa, r.sa), r.eSlow)
            << "FA=" << r.fa << " SA=" << r.sa;
    }
}

TEST(SharingModel, NoSlowThreadsMeansNoLimit)
{
    const SharingModel m(SharingFactorMode::OverActivePlus4);
    EXPECT_EQ(m.slowLimit(80, 4, 0), 80);
    EXPECT_EQ(m.slowLimit(80, 0, 0), 80);
}

TEST(SharingModel, ZeroFactorGivesEqualShareOfActive)
{
    const SharingModel m(SharingFactorMode::Zero);
    EXPECT_EQ(m.slowLimit(80, 2, 2), 20);
    EXPECT_EQ(m.slowLimit(80, 0, 4), 20);
    EXPECT_EQ(m.slowLimit(80, 3, 1), 20);
}

TEST(SharingModel, Plus4FactorMatchesFormula)
{
    const SharingModel m(SharingFactorMode::OverActivePlus4);
    // FA=3, SA=1, R=80: 80/4 * (1 + 3/8) = 27.5 -> 28
    EXPECT_EQ(m.slowLimit(80, 3, 1), 28);
    // FA=1, SA=1, R=80: 40 * (1 + 1/6) = 46.67 -> 47
    EXPECT_EQ(m.slowLimit(80, 1, 1), 47);
}

TEST(SharingModel, SlowOnlyThreadsSplitEvenly)
{
    for (const auto mode : {SharingFactorMode::OverActive,
                            SharingFactorMode::OverActivePlus4,
                            SharingFactorMode::Zero}) {
        const SharingModel m(mode);
        EXPECT_EQ(m.slowLimit(80, 0, 4), 20);
        EXPECT_EQ(m.slowLimit(80, 0, 2), 40);
    }
}

TEST(SharingModel, LimitNeverExceedsTotal)
{
    const SharingModel m(SharingFactorMode::OverActive);
    for (int fa = 0; fa <= 4; ++fa) {
        for (int sa = 0; sa <= 4 - fa; ++sa) {
            const int lim = m.slowLimit(32, fa, sa);
            EXPECT_LE(lim, 32);
            EXPECT_GE(lim, 0);
        }
    }
}

TEST(SharingModel, MoreFastThreadsMeanLargerSlowShare)
{
    const SharingModel m(SharingFactorMode::OverActivePlus4);
    // With SA fixed, growing FA grows the borrowed share relative to
    // the plain split R/(FA+SA)*1.
    for (int sa = 1; sa <= 3; ++sa) {
        for (int fa = 1; fa <= 4 - sa; ++fa) {
            const int with = m.slowLimit(80, fa, sa);
            const double plain = 80.0 / (fa + sa);
            EXPECT_GT(with, plain - 1) << fa << "," << sa;
        }
    }
}

TEST(SharingModelTable, MatchesFormulaEverywhere)
{
    for (const auto mode : {SharingFactorMode::OverActive,
                            SharingFactorMode::OverActivePlus4,
                            SharingFactorMode::Zero}) {
        for (const int total : {32, 80, 160, 272}) {
            const SharingModel m(mode);
            const SharingModelTable t(mode, total, 4);
            for (int fa = 0; fa <= 4; ++fa) {
                for (int sa = 0; sa <= 4 - fa; ++sa) {
                    EXPECT_EQ(t.slowLimit(fa, sa),
                              m.slowLimit(total, fa, sa))
                        << total << " " << fa << " " << sa;
                }
            }
        }
    }
}

TEST(SharingModelTable, PaperSizeIsTenEntries)
{
    // "For a 4-context processor, this table would have 10 entries."
    const SharingModelTable t(SharingFactorMode::OverActive, 32, 4);
    EXPECT_EQ(t.populatedEntries(), 10);
}

// ---------------- DCRA classification & gating ----------------

class DcraHarness
{
  public:
    explicit DcraHarness(int threads = 2)
        : mem(MemParams{}, threads), tracker(threads)
    {
        cfg.numThreads = threads;
        ctx.cfg = &cfg;
        ctx.tracker = &tracker;
        ctx.mem = &mem;
    }

    DcraPolicy
    make(PolicyParams pp = PolicyParams{})
    {
        DcraPolicy p(pp);
        p.bind(ctx);
        return p;
    }

    /** Give thread t a pending L1D (memory-level) load miss. */
    Cycle
    makeSlow(ThreadID t, Cycle now)
    {
        const MemAccessResult r =
            mem.dataAccess(t, 0x10000 + 0x100000 * t, true, now);
        EXPECT_TRUE(r.accepted);
        return r.ready;
    }

    SmtConfig cfg;
    MemorySystem mem;
    ResourceTracker tracker;
    PolicyContext ctx;
};

TEST(Dcra, PhaseClassificationFollowsPendingL1Misses)
{
    DcraHarness h;
    DcraPolicy p = h.make();
    p.beginCycle(1);
    EXPECT_FALSE(p.isSlow(0));
    EXPECT_FALSE(p.isSlow(1));

    const Cycle ready = h.makeSlow(0, 1);
    p.beginCycle(2);
    EXPECT_TRUE(p.isSlow(0));
    EXPECT_FALSE(p.isSlow(1));

    h.mem.tick(ready);
    p.beginCycle(ready + 1);
    EXPECT_FALSE(p.isSlow(0));
}

TEST(Dcra, IntResourcesAlwaysActiveByDefault)
{
    DcraHarness h;
    DcraPolicy p = h.make();
    p.beginCycle(100000);
    EXPECT_TRUE(p.isActive(ResIqInt, 0));
    EXPECT_TRUE(p.isActive(ResIqLs, 0));
    EXPECT_TRUE(p.isActive(ResRegInt, 0));
}

TEST(Dcra, FpResourcesGoInactiveAfterThreshold)
{
    DcraHarness h;
    PolicyParams pp;
    pp.activityThreshold = 256;
    DcraPolicy p = h.make(pp);

    h.tracker.allocate(ResIqFp, 0, 10);
    p.beginCycle(11);
    EXPECT_TRUE(p.isActive(ResIqFp, 0));
    p.beginCycle(10 + 256);
    EXPECT_TRUE(p.isActive(ResIqFp, 0));
    p.beginCycle(10 + 257);
    EXPECT_FALSE(p.isActive(ResIqFp, 0));

    // A new allocation reactivates (counter reset to Y).
    h.tracker.allocate(ResIqFp, 0, 10 + 300);
    p.beginCycle(10 + 301);
    EXPECT_TRUE(p.isActive(ResIqFp, 0));
}

TEST(Dcra, ActivityExpiryBoundsTheSkip)
{
    // By time alone DCRA changes only when an fp activity window
    // closes: its bound is the last cycle the window is still open,
    // and skipping to it leaves the state per-cycle evaluation does.
    DcraHarness h;
    PolicyParams pp;
    pp.activityThreshold = 256;
    DcraPolicy p = h.make(pp);
    DcraPolicy ref = h.make(pp);
    // Every window starts open at cycle 0.
    p.beginCycle(5);
    EXPECT_EQ(p.quietThrough(5), 256u);
    p.beginCycle(257);
    EXPECT_EQ(p.quietThrough(257), neverCycle) << "no fp activity";

    h.tracker.allocate(ResRegFp, 1, 340);
    h.tracker.allocate(ResIqFp, 0, 310);
    h.tracker.allocate(ResIqInt, 0, 310); // always active: no bound
    h.makeSlow(0, 310);
    p.beginCycle(311);
    ref.beginCycle(311);
    EXPECT_EQ(p.quietThrough(311), 310u + 256u);

    p.skipCycles(311, 310 + 256);
    for (Cycle c = 312; c <= 310 + 256; ++c)
        ref.beginCycle(c);
    for (ThreadID t = 0; t < 2; ++t) {
        EXPECT_EQ(p.isSlow(t), ref.isSlow(t));
        EXPECT_EQ(p.isGated(t), ref.isGated(t));
        for (int r = 0; r < NumResourceTypes; ++r) {
            const auto rt = static_cast<ResourceType>(r);
            EXPECT_EQ(p.isActive(rt, t), ref.isActive(rt, t));
            EXPECT_EQ(p.slowLimit(rt), ref.slowLimit(rt));
        }
    }
    EXPECT_TRUE(p.isActive(ResIqFp, 0));
    p.beginCycle(310 + 257);
    EXPECT_FALSE(p.isActive(ResIqFp, 0)) << "the window closed";
    EXPECT_EQ(p.quietThrough(310 + 257), 340u + 256u);
}

TEST(Dcra, SlowActiveThreadOverLimitIsGated)
{
    DcraHarness h;
    DcraPolicy p = h.make();

    h.makeSlow(0, 1);
    // 2 threads, both int-active, thread 0 slow:
    // E_slow(iq-int) = 80/2 * (1 + 1/6) = 46.67 -> 47
    for (int i = 0; i < 48; ++i)
        h.tracker.allocate(ResIqInt, 0, 2);
    p.beginCycle(3);
    EXPECT_EQ(p.slowLimit(ResIqInt), 47);
    EXPECT_TRUE(p.isGated(0));
    EXPECT_FALSE(p.fetchAllowed(0, 3));
    EXPECT_TRUE(p.fetchAllowed(1, 3));
}

TEST(Dcra, SlowThreadAtLimitIsNotGated)
{
    DcraHarness h;
    DcraPolicy p = h.make();
    h.makeSlow(0, 1);
    for (int i = 0; i < 47; ++i)
        h.tracker.allocate(ResIqInt, 0, 2);
    p.beginCycle(3);
    EXPECT_FALSE(p.isGated(0)) << "limit is inclusive";
}

TEST(Dcra, FastThreadsAreNeverGated)
{
    DcraHarness h;
    DcraPolicy p = h.make();
    // Thread 0 fast but huge occupancy: DCRA leaves it alone.
    for (int i = 0; i < 80; ++i)
        h.tracker.allocate(ResIqInt, 0, 2);
    p.beginCycle(3);
    EXPECT_FALSE(p.isGated(0));
}

TEST(Dcra, GateClearsWhenOccupancyDrains)
{
    DcraHarness h;
    DcraPolicy p = h.make();
    const Cycle ready = h.makeSlow(0, 1);
    (void)ready;
    for (int i = 0; i < 50; ++i)
        h.tracker.allocate(ResIqInt, 0, 2);
    p.beginCycle(3);
    ASSERT_TRUE(p.isGated(0));
    for (int i = 0; i < 4; ++i)
        h.tracker.release(ResIqInt, 0);
    p.beginCycle(4);
    EXPECT_FALSE(p.isGated(0)) << "46 <= 47";
}

TEST(Dcra, AllThreadsStartActive)
{
    // The paper initialises activity counters to Y=256, so at reset
    // every thread is considered active for every resource.
    DcraHarness h(4);
    DcraPolicy p = h.make();
    p.beginCycle(3);
    for (int r = 0; r < NumResourceTypes; ++r) {
        for (ThreadID t = 0; t < 4; ++t)
            EXPECT_TRUE(p.isActive(static_cast<ResourceType>(r), t));
    }
}

TEST(Dcra, InactiveThreadsDonateTheirShare)
{
    DcraHarness h(4);
    PolicyParams pp;
    DcraPolicy p(pp);
    p.bind(h.ctx);

    // Let the int threads' initial fp-activity window (Y=256) expire,
    // then make thread 3 fp-active and slow.
    const Cycle now = 1000;
    h.tracker.allocate(ResIqFp, 3, now - 2);
    h.makeSlow(3, now - 1);
    p.beginCycle(now);
    ASSERT_TRUE(p.isSlow(3));
    ASSERT_FALSE(p.isActive(ResIqFp, 0));
    // For the fp IQ: threads 0..2 inactive, FA=0, SA=1 -> the slow
    // fp thread may use the whole queue.
    EXPECT_EQ(p.slowLimit(ResIqFp), 80);
    // The int IQ still splits among all four (always active).
    EXPECT_LT(p.slowLimit(ResIqInt), 40);
}

TEST(Dcra, LimitSharpensAsMoreThreadsCompete)
{
    DcraHarness h(4);
    DcraPolicy p = h.make();
    h.makeSlow(0, 1);
    p.beginCycle(2);
    const int limit1 = p.slowLimit(ResIqInt); // FA=3, SA=1
    h.makeSlow(1, 2);
    p.beginCycle(3);
    const int limit2 = p.slowLimit(ResIqInt); // FA=2, SA=2
    EXPECT_LT(limit2, limit1);
}

TEST(Dcra, RegisterLimitsUseRenamePool)
{
    DcraHarness h;
    DcraPolicy p = h.make();
    h.makeSlow(0, 1);
    p.beginCycle(2);
    // rename pool = 352 - 2*40 = 272; FA=1 SA=1 plus4:
    // 272/2 * (1 + 1/6) = 158.67 -> 159
    EXPECT_EQ(p.slowLimit(ResRegInt), 159);
}

// ---------------- end-to-end ----------------

TEST(DcraEndToEnd, GatesMemThreadInMixedWorkload)
{
    SimConfig cfg;
    cfg.seed = 17;
    ChipSimulator sim(cfg, {"eon", "mcf"}, PolicyKind::Dcra);
    Pipeline &pipe = sim.pipeline(0);
    auto &dcra = static_cast<DcraPolicy &>(sim.policy(0));

    std::uint64_t gatedMcf = 0, gatedEon = 0, slowMcf = 0;
    const int n = 60000;
    for (int i = 0; i < n; ++i) {
        pipe.tick();
        if (dcra.isGated(1))
            ++gatedMcf;
        if (dcra.isGated(0))
            ++gatedEon;
        if (dcra.isSlow(1))
            ++slowMcf;
    }
    EXPECT_GT(slowMcf, static_cast<std::uint64_t>(n / 4))
        << "mcf should be in a slow phase much of the time";
    EXPECT_GT(gatedMcf, 100u) << "mcf must hit its share limit";
    EXPECT_GT(gatedMcf, gatedEon * 2)
        << "the memory-bound thread is gated far more often";
    // occupancy respects the limit most of the time (fetch gating is
    // reactive, so allow transient overshoot from in-flight insts)
    EXPECT_LE(pipe.tracker().occupancy(ResIqInt, 1), 80);
}

TEST(DcraEndToEnd, ImprovesMixOverIcount)
{
    SimConfig cfg;
    cfg.seed = 23;
    ChipSimulator icount(cfg, {"gzip", "twolf"}, PolicyKind::Icount);
    ChipSimulator dcra(cfg, {"gzip", "twolf"}, PolicyKind::Dcra);
    const SimResult ri = icount.run(60000, 8'000'000, 8000);
    const SimResult rd = dcra.run(60000, 8'000'000, 8000);
    // DCRA must win on throughput without starving either thread
    // (the Hmean-level comparison is the fig4/fig5 benches' job).
    EXPECT_GT(rd.throughput(), ri.throughput());
    EXPECT_GT(rd.threads[0].ipc, ri.threads[0].ipc * 0.9);
    EXPECT_GT(rd.threads[1].ipc, ri.threads[1].ipc * 0.9);
}

TEST(SimulatorCustomPolicy, AcceptsUserPolicy)
{
    // Minimal user-defined policy via the public constructor.
    class AlwaysAllow : public Policy
    {
      public:
        const char *name() const override { return "user"; }
    };
    SimConfig cfg;
    cfg.seed = 31;
    ChipSimulator sim(cfg, {"gzip"},
                      [] { return std::make_unique<AlwaysAllow>(); });
    const SimResult r = sim.run(3000, 1'000'000);
    EXPECT_GE(r.threads[0].committed, 3000u);
}

} // anonymous namespace
