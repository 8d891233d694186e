/**
 * @file
 * Unit tests for the synthetic trace generator: determinism, replay
 * and rewind semantics, instruction-mix statistics, loop structure
 * (per-PC class stability), call/return pairing and region layout.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "trace/bench_profile.hh"
#include "trace/generator.hh"

namespace {

using namespace smt;

std::vector<TraceInst>
take(SyntheticTraceGenerator &g, int n)
{
    std::vector<TraceInst> v;
    v.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        v.push_back(g.peek());
        g.consume();
    }
    return v;
}

bool
sameInst(const TraceInst &a, const TraceInst &b)
{
    return a.pc == b.pc && a.op == b.op && a.dst == b.dst &&
        a.src1 == b.src1 && a.src2 == b.src2 &&
        a.effAddr == b.effAddr && a.taken == b.taken &&
        a.target == b.target;
}

TEST(Profiles, AllNamesResolve)
{
    for (const auto &n : allBenchNames()) {
        const BenchProfile &p = benchProfile(n);
        EXPECT_STREQ(p.name, n.c_str());
    }
    EXPECT_EQ(allBenchNames().size(), 20u);
}

TEST(Profiles, MemIlpSplitMatchesPaperTable3)
{
    // Paper: MEM = L2 miss rate above 1% (plus parser at 1.0).
    const char *mem[] = {"mcf", "twolf", "vpr", "parser",
                         "art", "swim", "lucas", "equake"};
    const char *ilp[] = {"gap", "vortex", "gcc", "perl", "bzip2",
                         "crafty", "gzip", "eon", "apsi",
                         "wupwise", "mesa", "fma3d"};
    for (const char *n : mem)
        EXPECT_TRUE(isMemBench(n)) << n;
    for (const char *n : ilp)
        EXPECT_FALSE(isMemBench(n)) << n;
}

TEST(Profiles, MixFractionsSane)
{
    for (const auto &n : allBenchNames()) {
        const BenchProfile &p = benchProfile(n);
        EXPECT_GT(p.fracLoad, 0.0) << n;
        EXPECT_LT(p.fracLoad + p.fracStore + p.fracBranch, 1.0) << n;
        EXPECT_LE(p.fMid + p.fFar + p.fStream, 1.0) << n;
        EXPECT_GT(p.codeFootprint, 0u) << n;
    }
}

TEST(Generator, DeterministicForEqualSeeds)
{
    SyntheticTraceGenerator a(benchProfile("gcc"), 42);
    SyntheticTraceGenerator b(benchProfile("gcc"), 42);
    const auto va = take(a, 5000);
    const auto vb = take(b, 5000);
    for (std::size_t i = 0; i < va.size(); ++i)
        ASSERT_TRUE(sameInst(va[i], vb[i])) << "at " << i;
}

TEST(Generator, DifferentSeedsDiverge)
{
    SyntheticTraceGenerator a(benchProfile("gcc"), 1);
    SyntheticTraceGenerator b(benchProfile("gcc"), 2);
    const auto va = take(a, 1000);
    const auto vb = take(b, 1000);
    int same = 0;
    for (std::size_t i = 0; i < va.size(); ++i) {
        if (sameInst(va[i], vb[i]))
            ++same;
    }
    EXPECT_LT(same, 1000);
}

TEST(Generator, RewindReplaysIdentically)
{
    SyntheticTraceGenerator g(benchProfile("mcf"), 7);
    take(g, 100);
    const std::uint64_t mark = g.nextIndex();
    const auto first = take(g, 500);
    g.rewindTo(mark);
    EXPECT_EQ(g.nextIndex(), mark);
    const auto second = take(g, 500);
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_TRUE(sameInst(first[i], second[i])) << "at " << i;
}

TEST(Generator, RewindWindowIsLargeEnoughForRob)
{
    SyntheticTraceGenerator g(benchProfile("gzip"), 3);
    // Must cover ROB (512) + front-end buffering with margin.
    EXPECT_GE(g.replayWindow(), 2048u);
}

TEST(Generator, IndexAdvancesByOnePerConsume)
{
    SyntheticTraceGenerator g(benchProfile("eon"), 9);
    const std::uint64_t start = g.nextIndex();
    take(g, 10);
    EXPECT_EQ(g.nextIndex(), start + 10);
}

TEST(Generator, MixRoughlyMatchesProfile)
{
    const BenchProfile &p = benchProfile("gzip");
    SyntheticTraceGenerator g(p, 21);
    const int n = 60000;
    std::map<OpClass, int> counts;
    for (const TraceInst &ti : take(g, n))
        ++counts[ti.op];

    const double loads = static_cast<double>(counts[OpClass::Load]) / n;
    const double stores =
        static_cast<double>(counts[OpClass::Store]) / n;
    const double branches =
        static_cast<double>(counts[OpClass::Branch]) / n;
    EXPECT_NEAR(loads, p.fracLoad, 0.05);
    EXPECT_NEAR(stores, p.fracStore, 0.04);
    // Structural branches (loop/call/return) add to the mix rate.
    EXPECT_GT(branches, p.fracBranch * 0.6);
    EXPECT_LT(branches, p.fracBranch + 0.12);
}

TEST(Generator, FpBenchUsesFpOps)
{
    SyntheticTraceGenerator g(benchProfile("swim"), 5);
    int fp = 0;
    for (const TraceInst &ti : take(g, 20000)) {
        if (isFpOp(ti.op))
            ++fp;
    }
    EXPECT_GT(fp, 2000);
}

TEST(Generator, IntBenchNeverUsesFpOps)
{
    SyntheticTraceGenerator g(benchProfile("gzip"), 5);
    for (const TraceInst &ti : take(g, 20000)) {
        EXPECT_FALSE(isFpOp(ti.op));
        if (ti.dst != invalidArchReg) {
            EXPECT_FALSE(isFpReg(ti.dst));
        }
    }
}

TEST(Generator, PcStaysInsideCodeFootprint)
{
    const BenchProfile &p = benchProfile("gcc");
    SyntheticTraceGenerator g(p, 31);
    for (const TraceInst &ti : take(g, 30000)) {
        EXPECT_GE(ti.pc, layout::codeBase);
        EXPECT_LT(ti.pc, layout::codeBase + p.codeFootprint);
    }
}

TEST(Generator, MemAddressesLandInDeclaredRegions)
{
    const BenchProfile &p = benchProfile("art");
    SyntheticTraceGenerator g(p, 33);
    for (const TraceInst &ti : take(g, 30000)) {
        if (!isMem(ti.op))
            continue;
        const Addr a = ti.effAddr;
        const bool near =
            a >= layout::nearBase && a < layout::nearBase + p.nearBytes;
        const bool mid =
            a >= layout::midBase && a < layout::midBase + p.midBytes;
        const bool far =
            a >= layout::farBase && a < layout::farBase + p.farBytes;
        const bool stream =
            a >= layout::streamBase &&
            a < layout::streamBase + p.farBytes;
        EXPECT_TRUE(near || mid || far || stream)
            << std::hex << a;
    }
}

TEST(Generator, ClassIsStablePerPc)
{
    // The same PC must always carry the same op class, otherwise
    // branch predictors and BTBs could not learn.
    SyntheticTraceGenerator g(benchProfile("bzip2"), 77);
    std::map<Addr, OpClass> classes;
    int conflicts = 0;
    for (const TraceInst &ti : take(g, 50000)) {
        // Structural branches (loop back-edges, returns, region
        // jumps) can override a PC's mix class; conditional-mix ops
        // must otherwise be stable.
        auto it = classes.find(ti.pc);
        if (it == classes.end()) {
            classes.emplace(ti.pc, ti.op);
        } else if (it->second != ti.op &&
                   !isBranch(ti.op) && !isBranch(it->second)) {
            ++conflicts;
        }
    }
    EXPECT_EQ(conflicts, 0);
}

TEST(Generator, LoopsRevisitPcs)
{
    SyntheticTraceGenerator g(benchProfile("wupwise"), 55);
    std::map<Addr, int> visits;
    for (const TraceInst &ti : take(g, 20000))
        ++visits[ti.pc];
    // Loop structure implies the dynamic/static instruction ratio is
    // substantially above 1.
    const double ratio = 20000.0 / static_cast<double>(visits.size());
    EXPECT_GT(ratio, 3.0);
}

TEST(Generator, CallsAndReturnsPairUp)
{
    SyntheticTraceGenerator g(benchProfile("crafty"), 13);
    int depth = 0;
    int calls = 0;
    for (const TraceInst &ti : take(g, 60000)) {
        if (!isBranch(ti.op))
            continue;
        if (ti.isCall) {
            ++depth;
            ++calls;
        } else if (ti.isReturn) {
            --depth;
        }
        ASSERT_GE(depth, 0);
        ASSERT_LE(depth, 24);
    }
    EXPECT_GT(calls, 50);
}

TEST(Generator, ReturnsTargetCallSites)
{
    SyntheticTraceGenerator g(benchProfile("gap"), 19);
    std::vector<Addr> stack;
    for (const TraceInst &ti : take(g, 60000)) {
        if (!isBranch(ti.op))
            continue;
        if (ti.isCall) {
            stack.push_back(ti.nextPc());
        } else if (ti.isReturn && !stack.empty()) {
            EXPECT_EQ(ti.target, stack.back());
            stack.pop_back();
        }
    }
}

TEST(Generator, BranchControlFlowIsConsistent)
{
    // Each instruction's pc must equal the previous instruction's
    // actualNextPc (modulo the code-footprint wrap).
    const BenchProfile &p = benchProfile("twolf");
    SyntheticTraceGenerator g(p, 3);
    auto wrap = [&p](Addr a) {
        if (a >= layout::codeBase && a < layout::codeBase +
                p.codeFootprint)
            return a;
        return layout::codeBase + (a - layout::codeBase) %
            p.codeFootprint;
    };
    TraceInst prev = g.peek();
    g.consume();
    for (int i = 0; i < 30000; ++i) {
        const TraceInst cur = g.peek();
        g.consume();
        ASSERT_EQ(cur.pc, wrap(prev.actualNextPc())) << "at " << i;
        prev = cur;
    }
}

TEST(Generator, ChaseLoadsSerialiseChainRegisters)
{
    const BenchProfile &p = benchProfile("mcf");
    ASSERT_GT(p.chaseChains, 0);
    SyntheticTraceGenerator g(p, 23);
    int chase = 0;
    for (const TraceInst &ti : take(g, 40000)) {
        if (isLoad(ti.op) && ti.dst == ti.src1 &&
            ti.dst >= 1 && ti.dst <= p.chaseChains)
            ++chase;
    }
    EXPECT_GT(chase, 100);
}

TEST(Generator, StreamsAdvanceSequentially)
{
    const BenchProfile &p = benchProfile("swim");
    SyntheticTraceGenerator g(p, 29);
    // collect per-slice addresses and verify monotone progress
    const Addr slice = p.farBytes / static_cast<Addr>(p.nStreams);
    std::map<int, Addr> last;
    int monotone = 0, total = 0;
    for (const TraceInst &ti : take(g, 60000)) {
        if (!isMem(ti.op) || ti.effAddr < layout::streamBase)
            continue;
        const int s =
            static_cast<int>((ti.effAddr - layout::streamBase) /
                             slice);
        auto it = last.find(s);
        if (it != last.end()) {
            ++total;
            if (ti.effAddr == it->second + p.streamStride)
                ++monotone;
        }
        last[s] = ti.effAddr;
    }
    ASSERT_GT(total, 100);
    EXPECT_GT(static_cast<double>(monotone) / total, 0.95);
}

TEST(WrongPath, InPlaceSynthesisMatchesTheReferenceAndClearsTheRecord)
{
    // The fetch stage synthesizes into a reused pool record: every
    // field must come out as wrongPathInst() builds it, whatever the
    // record held before.
    for (const char *bench : {"gzip", "mcf", "art", "swim", "eon"}) {
        const BenchProfile &p = benchProfile(bench);
        WrongPathSynth synth;
        synth.init(p);
        TraceInst got;
        for (std::uint64_t s = 0; s < 4000; ++s) {
            got.effAddr = got.target = ~0ull;
            got.dst = got.src1 = got.src2 = 7;
            got.taken = got.isCall = got.isReturn = got.isCond = true;
            const Addr pc = 0x400000 + 4 * (s * 7919 % 65536);
            synth.inst(pc, s, got);
            const TraceInst want = wrongPathInst(pc, p, s);
            ASSERT_EQ(got.pc, want.pc) << bench << " salt " << s;
            ASSERT_EQ(got.effAddr, want.effAddr) << bench << " " << s;
            ASSERT_EQ(got.target, want.target) << bench << " " << s;
            ASSERT_EQ(got.op, want.op) << bench << " " << s;
            ASSERT_EQ(got.dst, want.dst) << bench << " " << s;
            ASSERT_EQ(got.src1, want.src1) << bench << " " << s;
            ASSERT_EQ(got.src2, want.src2) << bench << " " << s;
            ASSERT_EQ(got.taken, want.taken) << bench << " " << s;
            ASSERT_EQ(got.isCall, want.isCall) << bench << " " << s;
            ASSERT_EQ(got.isReturn, want.isReturn) << bench << " " << s;
            ASSERT_EQ(got.isCond, want.isCond) << bench << " " << s;
        }
    }
}

TEST(WrongPath, DeterministicForSamePcAndSalt)
{
    const BenchProfile &p = benchProfile("gcc");
    const TraceInst a = wrongPathInst(0x401000, p, 5);
    const TraceInst b = wrongPathInst(0x401000, p, 5);
    EXPECT_TRUE(sameInst(a, b));
}

TEST(WrongPath, SaltChangesOutcome)
{
    const BenchProfile &p = benchProfile("gcc");
    int same = 0;
    for (std::uint64_t s = 0; s < 50; ++s) {
        const TraceInst a = wrongPathInst(0x401000 + 4 * s, p, s);
        const TraceInst b = wrongPathInst(0x401000 + 4 * s, p, s + 1);
        if (sameInst(a, b))
            ++same;
    }
    EXPECT_LT(same, 50);
}

TEST(WrongPath, LoadsStayInHotRegions)
{
    const BenchProfile &p = benchProfile("gzip");
    for (std::uint64_t s = 0; s < 2000; ++s) {
        const TraceInst ti = wrongPathInst(0x400000 + 4 * s, p, s);
        if (!isMem(ti.op))
            continue;
        const bool near = ti.effAddr >= layout::nearBase &&
            ti.effAddr < layout::nearBase + p.nearBytes;
        const bool mid = ti.effAddr >= layout::midBase &&
            ti.effAddr < layout::midBase + p.midBytes;
        EXPECT_TRUE(near || mid);
    }
}

} // anonymous namespace
