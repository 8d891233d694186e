/**
 * @file
 * Unit tests for core building blocks (register files, ROB, issue
 * queue, instruction pool, config) and pipeline-level behaviour
 * driven through a single-core ChipSimulator.
 */

#include <gtest/gtest.h>

#include "core/dyn_inst.hh"
#include "core/issue_queue.hh"
#include "core/regfile.hh"
#include "core/rob.hh"
#include "core/smt_config.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "support/dies_with_abort.hh"
#include "support/same_result.hh"
#include "trace/bench_profile.hh"
#include "trace/generator.hh"

namespace {

using namespace smt;
using smt::test::diesWithAbort;
using smt::test::expectSameResult;

TEST(SmtConfig, RenameRegArithmeticMatchesPaper)
{
    SmtConfig c;
    c.physRegsPerFile = 320;
    c.numThreads = 4;
    // Paper section 4: 320 physical registers leave 160 rename
    // registers with 4 threads (40 architectural regs per context).
    EXPECT_EQ(c.renameRegsPerFile(), 160);
    c.numThreads = 3;
    EXPECT_EQ(c.renameRegsPerFile(), 200);
    c.numThreads = 2;
    EXPECT_EQ(c.renameRegsPerFile(), 240);
}

TEST(SmtConfig, ResourceTotals)
{
    SmtConfig c; // defaults: 80-entry queues, 352 regs, 4 threads
    EXPECT_EQ(c.resourceTotal(ResIqInt), 80);
    EXPECT_EQ(c.resourceTotal(ResIqFp), 80);
    EXPECT_EQ(c.resourceTotal(ResIqLs), 80);
    EXPECT_EQ(c.resourceTotal(ResRegInt), 352 - 4 * 40);
    EXPECT_EQ(c.resourceTotal(ResRegFp), 352 - 4 * 40);
}

TEST(Resources, QueueMapping)
{
    EXPECT_EQ(iqResource(QueueClass::IntQ), ResIqInt);
    EXPECT_EQ(iqResource(QueueClass::FpQ), ResIqFp);
    EXPECT_EQ(iqResource(QueueClass::LsQ), ResIqLs);
    EXPECT_EQ(regResource(false), ResRegInt);
    EXPECT_EQ(regResource(true), ResRegFp);
    EXPECT_TRUE(isFpResource(ResIqFp));
    EXPECT_TRUE(isFpResource(ResRegFp));
    EXPECT_FALSE(isFpResource(ResIqInt));
    EXPECT_FALSE(isFpResource(ResIqLs));
    EXPECT_FALSE(isFpResource(ResRegInt));
}

TEST(RegFiles, InitialMappingsReadyAndDistinct)
{
    RegFiles rf(352, 2);
    for (ThreadID t = 0; t < 2; ++t) {
        for (ArchRegId a = 0; a < numArchRegs; ++a) {
            const PhysRegId p = rf.mapping(t, a);
            ASSERT_GE(p, 0);
            EXPECT_TRUE(rf.ready(p, isFpReg(a)));
        }
    }
    EXPECT_NE(rf.mapping(0, 0), rf.mapping(1, 0));
}

TEST(RegFiles, FreeCountMatchesRenamePool)
{
    RegFiles rf(352, 4);
    EXPECT_EQ(rf.freeCount(false), 352 - 160);
    EXPECT_EQ(rf.freeCount(true), 352 - 160);
}

TEST(RegFiles, AllocateMarksNotReady)
{
    RegFiles rf(352, 1);
    const PhysRegId p = rf.allocate(false);
    EXPECT_FALSE(rf.ready(p, false));
    rf.setReady(p, false);
    EXPECT_TRUE(rf.ready(p, false));
    rf.release(p, false);
}

TEST(RegFiles, AllocateReleaseRoundTrip)
{
    RegFiles rf(352, 1);
    const int before = rf.freeCount(true);
    std::vector<PhysRegId> regs;
    for (int i = 0; i < 10; ++i)
        regs.push_back(rf.allocate(true));
    EXPECT_EQ(rf.freeCount(true), before - 10);
    for (PhysRegId r : regs)
        rf.release(r, true);
    EXPECT_EQ(rf.freeCount(true), before);
}

TEST(RegFiles, MappingUpdate)
{
    RegFiles rf(352, 1);
    const PhysRegId old = rf.mapping(0, 5);
    const PhysRegId fresh = rf.allocate(false);
    rf.setMapping(0, 5, fresh);
    EXPECT_EQ(rf.mapping(0, 5), fresh);
    rf.setMapping(0, 5, old);
    rf.release(fresh, false);
}

TEST(Rob, SharedCapacity)
{
    Rob rob(4, 2);
    rob.push(0, 1);
    rob.push(0, 2);
    rob.push(1, 3);
    rob.push(1, 4);
    EXPECT_TRUE(rob.full());
    EXPECT_EQ(rob.size(0), 2);
    EXPECT_EQ(rob.size(1), 2);
    rob.popHead(0);
    EXPECT_FALSE(rob.full());
    EXPECT_EQ(rob.head(0), 2u);
}

TEST(Rob, TailWalk)
{
    Rob rob(8, 1);
    rob.push(0, 10);
    rob.push(0, 11);
    rob.push(0, 12);
    EXPECT_EQ(rob.tail(0), 12u);
    rob.popTail(0);
    EXPECT_EQ(rob.tail(0), 11u);
    EXPECT_EQ(rob.size(), 2);
}

TEST(IssueQueue, CapacityAndSlotRemoval)
{
    IssueQueue q(3);
    const std::uint32_t s5 = q.insert(5);
    const std::uint32_t s6 = q.insert(6);
    const std::uint32_t s7 = q.insert(7);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(s5, 0u);
    EXPECT_EQ(s6, 1u);
    EXPECT_EQ(s7, 2u);
    // Removing the head swaps the tail entry into the freed slot and
    // reports it so the caller can patch that entry's iqSlot.
    EXPECT_EQ(q.removeSlot(s5, 5), 7u);
    EXPECT_EQ(q.entries()[0], 7u);
    EXPECT_FALSE(q.full());
    // Removing the current tail moves nothing.
    EXPECT_EQ(q.removeSlot(s6, 6), invalidInst);
    EXPECT_EQ(q.size(), 1);
    EXPECT_EQ(q.removeSlot(0, 7), invalidInst);
    EXPECT_EQ(q.size(), 0);
}

TEST(InstPool, AllocFreeReuse)
{
    InstPool pool(4);
    const InstHandle a = pool.alloc();
    const InstHandle b = pool.alloc();
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.live(), 2u);
    pool[a].seq = 42;
    pool[a].pendingOps = 2;
    pool[a].inIQ = true;
    pool[a].waitNext[0] = 7;
    pool[a].pdst = 3;
    pool.free(a);
    const InstHandle c = pool.alloc();
    EXPECT_EQ(c, a); // LIFO: most recently freed slot is reused
    // alloc resets all pipeline state (ti/snap are the fetch
    // stage's to assign; see DynInst::resetForFetch).
    EXPECT_EQ(pool[c].seq, 0u);
    EXPECT_EQ(pool[c].pendingOps, 0);
    EXPECT_FALSE(pool[c].inIQ);
    EXPECT_EQ(pool[c].waitNext[0], invalidWaitLink);
    EXPECT_EQ(pool[c].pdst, invalidPhysReg);
}

TEST(InstPool, RecordsAreBuiltOnFirstAllocationInHandleOrder)
{
    InstPool pool(3);
    EXPECT_EQ(pool.alloc(), 0u);
    EXPECT_EQ(pool.alloc(), 1u);
    pool.free(0);
    EXPECT_EQ(pool.alloc(), 0u); // a freed record before a new one
    const InstHandle h = pool.alloc();
    EXPECT_EQ(h, 2u);
    // A record built fresh reads as a default DynInst, payload too.
    const DynInst blank{};
    EXPECT_EQ(pool[h].seq, blank.seq);
    EXPECT_EQ(pool[h].traceIdx, blank.traceIdx);
    EXPECT_EQ(pool[h].waitPrev[1], invalidWaitLink);
    EXPECT_EQ(pool[h].ti.pc, blank.ti.pc);
    EXPECT_EQ(pool[h].ti.dst, blank.ti.dst);
    EXPECT_EQ(pool.live(), 3u);
    EXPECT_EQ(pool.capacity(), 3u);
    EXPECT_TRUE(diesWithAbort([&pool] { (void)pool.alloc(); }));
}

// ---------------- pipeline-level behaviour ----------------

SimConfig
smallConfig()
{
    SimConfig cfg;
    cfg.seed = 99;
    return cfg;
}

TEST(Pipeline, RefusesARobDeeperThanTheReplayWindow)
{
    // A squash may rewind a full ROB plus a full fetch queue plus
    // one peeked instruction. A 4096-entry ROB outgrows the default
    // generator's window, so the core is refused when it is built,
    // not on its first deep flush.
    EXPECT_TRUE(diesWithAbort([] {
        SimConfig cfg = smallConfig();
        cfg.core.robSize = 4096;
        ChipSimulator sim(cfg, {"gzip"}, PolicyKind::Flush);
    }));
    // The bound is exact: the deepest ROB the window covers builds,
    // one entry more does not.
    SimConfig cfg = smallConfig();
    const SyntheticTraceGenerator gen(benchProfile("gzip"), cfg.seed);
    cfg.core.robSize = static_cast<int>(gen.replayWindow()) -
        cfg.core.fetchQueueSize - 1;
    ChipSimulator deepest(cfg, {"gzip"}, PolicyKind::Flush);
    EXPECT_TRUE(diesWithAbort([&cfg] {
        SimConfig deeper = cfg;
        ++deeper.core.robSize;
        ChipSimulator sim(deeper, {"gzip"}, PolicyKind::Flush);
    }));
}

TEST(Pipeline, SingleThreadMakesForwardProgress)
{
    ChipSimulator sim(smallConfig(), {"eon"}, PolicyKind::Icount);
    const SimResult r = sim.run(5000, 1'000'000);
    EXPECT_GE(r.threads[0].committed, 5000u);
    EXPECT_GT(r.threads[0].ipc, 0.3);
}

TEST(Pipeline, AllThreadsProgressUnderIcount)
{
    ChipSimulator sim(smallConfig(), {"gzip", "gcc", "bzip2", "eon"},
                  PolicyKind::Icount);
    const SimResult r = sim.run(3000, 2'000'000);
    for (const auto &t : r.threads)
        EXPECT_GT(t.committed, 500u) << t.bench;
}

TEST(Pipeline, DeterministicRuns)
{
    ChipSimulator a(smallConfig(), {"gzip", "twolf"}, PolicyKind::Dcra);
    ChipSimulator b(smallConfig(), {"gzip", "twolf"}, PolicyKind::Dcra);
    const SimResult ra = a.run(4000, 1'000'000);
    const SimResult rb = b.run(4000, 1'000'000);
    expectSameResult(ra, rb, "gzip,twolf DCRA");
}

TEST(Pipeline, MispredictsAreDetectedAndRecovered)
{
    ChipSimulator sim(smallConfig(), {"gzip"}, PolicyKind::Icount);
    const SimResult r = sim.run(20000, 1'000'000);
    const ThreadResult &t = r.threads[0];
    EXPECT_GT(t.mispredicts, 50u);
    EXPECT_GT(t.fetchedWrongPath, t.mispredicts);
    // all wrong-path work must be squashed, never committed (a few
    // hundred may still be in flight when the run stops)
    EXPECT_GE(t.squashed + 700, t.fetchedWrongPath);
}

TEST(Pipeline, BranchPredictionIsReasonable)
{
    ChipSimulator sim(smallConfig(), {"wupwise"}, PolicyKind::Icount);
    const SimResult r = sim.run(30000, 2'000'000, 5000);
    const ThreadResult &t = r.threads[0];
    ASSERT_GT(t.condBranches, 500u);
    const double rate = static_cast<double>(t.mispredicts) /
        static_cast<double>(t.condBranches);
    EXPECT_LT(rate, 0.15) << "fp code should predict well";
}

TEST(Pipeline, MemBenchmarkIsMemoryBound)
{
    ChipSimulator ilp(smallConfig(), {"eon"}, PolicyKind::Icount);
    ChipSimulator mem(smallConfig(), {"mcf"}, PolicyKind::Icount);
    const SimResult ri = ilp.run(10000, 2'000'000);
    const SimResult rm = mem.run(10000, 2'000'000);
    EXPECT_GT(ri.threads[0].ipc, 3.0 * rm.threads[0].ipc);
}

TEST(Pipeline, WarmupReducesColdStartEffects)
{
    ChipSimulator cold(smallConfig(), {"gzip"}, PolicyKind::Icount);
    ChipSimulator warm(smallConfig(), {"gzip"}, PolicyKind::Icount);
    const SimResult rc = cold.run(10000, 2'000'000, 0);
    const SimResult rw = warm.run(10000, 2'000'000, 10000);
    EXPECT_GE(rw.threads[0].ipc, rc.threads[0].ipc * 0.95);
}

TEST(Pipeline, StoreForwardingHappens)
{
    ChipSimulator sim(smallConfig(), {"vortex"}, PolicyKind::Icount);
    sim.run(30000, 2'000'000);
    EXPECT_GT(sim.pipeline(0).stats().storeForwards[0], 0u);
}

TEST(Pipeline, ResourceCapLimitsOccupancy)
{
    SimConfig cfg = smallConfig();
    cfg.core.resourceCap[ResIqInt] = 10;
    ChipSimulator sim(cfg, {"gzip"}, PolicyKind::Icount);
    Pipeline &pipe = sim.pipeline(0);
    for (int i = 0; i < 20000; ++i) {
        pipe.tick();
        ASSERT_LE(pipe.tracker().occupancy(ResIqInt, 0), 10);
    }
}

TEST(Pipeline, CappedResourceDegradesIpc)
{
    SimConfig cfg = smallConfig();
    ChipSimulator full(cfg, {"gcc"}, PolicyKind::Icount);
    cfg.core.resourceCap[ResIqInt] = 4;
    cfg.core.resourceCap[ResRegInt] = 12;
    ChipSimulator capped(cfg, {"gcc"}, PolicyKind::Icount);
    const double ipcFull = full.run(15000, 2'000'000).threads[0].ipc;
    const double ipcCap =
        capped.run(15000, 2'000'000).threads[0].ipc;
    EXPECT_LT(ipcCap, ipcFull * 0.9);
}

TEST(Pipeline, FpRegistersUntouchedByIntThread)
{
    ChipSimulator sim(smallConfig(), {"gzip"}, PolicyKind::Icount);
    Pipeline &pipe = sim.pipeline(0);
    for (int i = 0; i < 5000; ++i)
        pipe.tick();
    EXPECT_EQ(pipe.tracker().occupancy(ResRegFp, 0), 0);
    EXPECT_EQ(pipe.tracker().occupancy(ResIqFp, 0), 0);
}

/** The counters two cores must agree on at the same cycle. */
void
expectSameCore(const Pipeline &a, const Pipeline &b, Cycle at)
{
    ASSERT_EQ(a.now(), b.now());
    const PipelineStats &x = a.stats();
    const PipelineStats &y = b.stats();
    ASSERT_EQ(x.cycles, y.cycles) << "cycle " << at;
    for (int t = 0; t < a.numThreads(); ++t) {
        ASSERT_EQ(x.committed[t], y.committed[t]) << "cycle " << at;
        ASSERT_EQ(x.commitHash[t], y.commitHash[t]) << "cycle " << at;
        ASSERT_EQ(x.fetched[t], y.fetched[t]) << "cycle " << at;
        ASSERT_EQ(x.issued[t], y.issued[t]) << "cycle " << at;
        ASSERT_EQ(x.squashed[t], y.squashed[t]) << "cycle " << at;
        ASSERT_EQ(x.flushes[t], y.flushes[t]) << "cycle " << at;
        ASSERT_EQ(a.tracker().preIssue(t), b.tracker().preIssue(t));
        ASSERT_EQ(a.rob().size(t), b.rob().size(t)) << "cycle " << at;
    }
}

TEST(SkipDeadCycles, EveryWakeSourceEndsASkipThatChangesNothing)
{
    // Two identical cores: the reference ticks every cycle, the other
    // skips after each dead tick as far as idleThrough() allows.
    // Wherever the skipper stops, the reference is brought to the
    // same cycle and they must agree; on the way, every reference
    // tick inside the span must have been dead with the same bound.
    // Across the runs, each pipeline wake source must end some skip.
    struct Case
    {
        PolicyKind policy;
        std::vector<std::string> benches;
        Cycle memLatency;
    };
    const Case cases[] = {
        {PolicyKind::Icount, {"mcf", "art"}, 500},
        {PolicyKind::Dcra, {"gzip", "mcf"}, 300},
        {PolicyKind::Flush, {"swim", "mcf", "gzip"}, 300},
    };
    enum { Mshr, Completion, Resume, FrontEnd, Policy_, Sources };
    std::uint64_t ended[Sources] = {};
    for (const Case &c : cases) {
        SimConfig cfg = smallConfig();
        cfg.mem.memLatency = c.memLatency;
        ChipSimulator refChip(cfg, c.benches, c.policy);
        ChipSimulator skipChip(cfg, c.benches, c.policy);
        Pipeline &ref = refChip.pipeline(0);
        Pipeline &skip = skipChip.pipeline(0);
        while (skip.now() < 40'000) {
            skip.tick();
            const Cycle now = skip.now();
            // The chip's longest quantum caps a skip.
            const Cycle cap = now + quantumRing;
            const Cycle to = skip.idleThrough(cap);
            if (to > now) {
                const Pipeline::Wakes w = skip.wakes();
                ended[Mshr] += to == w.mshrFill;
                ended[Completion] += to == w.completion;
                ended[Resume] += to == w.fetchResume;
                ended[FrontEnd] += to == w.frontEnd;
                ended[Policy_] += to == w.policy;
                // A quantum end caps the skip like any wake.
                ASSERT_EQ(skip.idleThrough(now + 1), now + 1);
                skip.skipTo(to);
                ASSERT_EQ(skip.now(), to);
            }
            while (ref.now() < now) {
                ref.tick();
            }
            for (Cycle u = now + 1; u <= to; ++u) {
                ref.tick();
                ASSERT_EQ(ref.idleThrough(cap), to)
                    << "reference tick " << u << " was not dead";
            }
            expectSameCore(ref, skip, now);
        }
        EXPECT_GT(skip.cyclesSkipped(), 4000u);
        EXPECT_EQ(ref.cyclesSkipped(), 0u);
    }
    EXPECT_GT(ended[Mshr], 0u);
    EXPECT_GT(ended[Completion], 0u);
    EXPECT_GT(ended[Resume], 0u);
    EXPECT_GT(ended[FrontEnd], 0u);
    EXPECT_GT(ended[Policy_], 0u);
}

TEST(SkipDeadCycles, SkippingPastAWakeAborts)
{
    ChipSimulator sim(smallConfig(), {"mcf"}, PolicyKind::Icount);
    Pipeline &pipe = sim.pipeline(0);
    // Find a skip that a wake, not the cap, ends.
    Cycle to = 0;
    Cycle cap = 0;
    while (to <= pipe.now() || to == cap) {
        pipe.tick();
        cap = pipe.now() + quantumRing;
        to = pipe.idleThrough(cap);
    }
    EXPECT_TRUE(diesWithAbort([&pipe, to] { pipe.skipTo(to + 1); }));
    pipe.skipTo(to);
    EXPECT_EQ(pipe.now(), to);
}

} // anonymous namespace
