/**
 * @file
 * Unit tests for the memory hierarchy: cache geometry and LRU,
 * banks, MSHR merging and occupancy accounting, TLB behaviour, and
 * the full MemorySystem latency/level contract.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.hh"
#include "mem/cache.hh"
#include "mem/memory_system.hh"
#include "mem/mshr.hh"
#include "mem/tlb.hh"
#include "support/dies_with_abort.hh"

namespace {

using namespace smt;
using smt::test::diesWithAbort;

CacheParams
tinyCache()
{
    CacheParams p;
    p.name = "tiny";
    p.size = 1024;   // 4 sets x 2 ways x 64B? no: 1024/(64*2)=8 sets
    p.assoc = 2;
    p.lineSize = 64;
    p.banks = 2;
    return p;
}

TEST(Cache, HitAfterFill)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x1000));
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c(tinyCache());
    c.fill(0x1000);
    EXPECT_TRUE(c.access(0x103F));
    EXPECT_FALSE(c.access(0x1040)); // next line
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(tinyCache()); // 8 sets, 2 ways
    const Addr setStride = 8 * 64; // same-set stride
    c.fill(0x0000);
    c.fill(0x0000 + setStride);     // set full
    EXPECT_TRUE(c.access(0x0000));  // touch A -> B is LRU
    c.fill(0x0000 + 2 * setStride); // evicts B
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0000 + setStride));
    EXPECT_TRUE(c.probe(0x0000 + 2 * setStride));
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    Cache c(tinyCache());
    const Addr setStride = 8 * 64;
    c.fill(0x0000);
    c.fill(setStride);
    // probe A (no LRU update), so A is still LRU and gets evicted
    EXPECT_TRUE(c.probe(0x0000));
    c.fill(2 * setStride);
    EXPECT_FALSE(c.probe(0x0000));
}

TEST(Cache, InsertPlacesLinesExactlyAsFill)
{
    // Prewarm inserts each line in O(1). Over distinct lines into a
    // fresh cache it must leave exactly the tags and LRU order that
    // per-line fill() leaves, also in sets that overflow.
    Cache inserted(tinyCache()); // 8 sets, 2 ways
    Cache filled(tinyCache());
    const Addr setStride = 8 * 64;
    std::vector<Addr> lines;
    for (Addr a = 0; a < 20 * 64; a += 64)
        lines.push_back(0x10000 + a); // sets 0..3 get 3 lines each
    for (Addr k = 0; k < 5; ++k)
        lines.push_back(0x40100 + k * setStride); // 5 lines, set 4
    for (Addr a : lines) {
        inserted.insert(a);
        filled.fill(a);
    }
    int resident = 0;
    for (Addr a : lines) {
        EXPECT_EQ(inserted.probe(a), filled.probe(a)) << std::hex << a;
        resident += filled.probe(a) ? 1 : 0;
    }
    EXPECT_EQ(resident, 16); // every set overflowed or just full
    // The same follow-up sequence picks the same victim slots: new
    // lines into overflowed sets, a refresh of a resident line and a
    // way-masked fill.
    const Addr followUp[] = {0x10000 + 24 * 64, 0x40100 + 5 * setStride,
                             0x10000 + 16 * 64, 0x20000,
                             0x10000 + 25 * 64};
    for (Addr a : followUp) {
        EXPECT_EQ(inserted.fillWays(a, Cache::allWays),
                  filled.fillWays(a, Cache::allWays))
            << std::hex << a;
    }
    EXPECT_EQ(inserted.fillWays(0x50000, 0x1u),
              filled.fillWays(0x50000, 0x1u));
}

TEST(Cache, InsertIntoAnAccessedCacheAborts)
{
    // A hit moves the LRU order away from insertion order, and a
    // fill() may refresh instead of allocate: either makes insert()
    // inexact, so it must refuse.
    EXPECT_TRUE(diesWithAbort([] {
        Cache c(tinyCache());
        c.insert(0x1000);
        (void)c.access(0x1000);
        c.insert(0x2000);
    }));
    EXPECT_TRUE(diesWithAbort([] {
        Cache c(tinyCache());
        c.fill(0x1000);
        c.insert(0x2000);
    }));
    // A miss changes no line, so insertion stays exact after it.
    Cache c(tinyCache());
    EXPECT_TRUE(c.empty());
    EXPECT_FALSE(c.access(0x1000));
    c.insert(0x1000);
    EXPECT_FALSE(c.empty());
    EXPECT_TRUE(c.probe(0x1000));
}

TEST(Cache, FillIsIdempotentOnResidentLine)
{
    Cache c(tinyCache());
    c.fill(0x3000);
    c.fill(0x3000);
    EXPECT_TRUE(c.probe(0x3000));
}

TEST(Cache, BankConflictsWithinCycle)
{
    Cache c(tinyCache()); // 2 banks: line addr selects bank
    EXPECT_TRUE(c.reserveBank(0x0000, 10));
    EXPECT_FALSE(c.reserveBank(0x0000, 10)); // same bank, same cycle
    EXPECT_TRUE(c.reserveBank(0x0040, 10));  // other bank
    EXPECT_TRUE(c.reserveBank(0x0000, 11));  // next cycle
}

TEST(Cache, MissRate)
{
    Cache c(tinyCache());
    c.access(0x0000); // miss
    c.fill(0x0000);
    c.access(0x0000); // hit
    c.access(0x0000); // hit
    EXPECT_NEAR(c.missRate(), 1.0 / 3.0, 1e-12);
    c.resetStats();
    EXPECT_EQ(c.accesses(), 0u);
}

TEST(Mshr, MergeSameLine)
{
    MshrFile m(4);
    m.alloc(0x100, 50, 0, ServiceLevel::Memory, true);
    const MshrFile::Entry *e = m.find(0x100);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ready, 50u);
    EXPECT_EQ(m.find(0x140), nullptr);
}

TEST(Mshr, FullAndRetire)
{
    MshrFile m(2);
    m.alloc(0x100, 10, 0, ServiceLevel::L2, true);
    m.alloc(0x200, 20, 0, ServiceLevel::Memory, true);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.retire(9), 0);
    EXPECT_EQ(m.retire(10), 1);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.retire(25), 1);
    EXPECT_EQ(m.live(), 0);
}

TEST(Mshr, PendingLoadCountsByThreadAndLevel)
{
    MshrFile m(8);
    m.alloc(0x100, 10, 0, ServiceLevel::L2, true);
    m.alloc(0x200, 10, 0, ServiceLevel::Memory, true);
    m.alloc(0x300, 10, 1, ServiceLevel::Memory, true);
    m.alloc(0x400, 10, 0, ServiceLevel::Memory, false); // store

    EXPECT_EQ(m.pendingLoads(0, ServiceLevel::L2), 2);
    EXPECT_EQ(m.pendingLoads(0, ServiceLevel::Memory), 1);
    EXPECT_EQ(m.pendingLoads(1, ServiceLevel::L2), 1);
    EXPECT_EQ(m.outstandingMemLoads(), 2);
    EXPECT_EQ(m.outstandingLoads(0, ServiceLevel::Memory), 1);
}

TEST(Mshr, CountsDropAtRetire)
{
    MshrFile m(4);
    m.alloc(0x100, 10, 2, ServiceLevel::Memory, true);
    EXPECT_EQ(m.pendingLoads(2, ServiceLevel::L2), 1);
    m.retire(10);
    EXPECT_EQ(m.pendingLoads(2, ServiceLevel::L2), 0);
    EXPECT_EQ(m.outstandingMemLoads(), 0);
}

TEST(Mshr, MatchesAReferenceMapUnderRandomTraffic)
{
    // The packed line lookup against a map from line to entry: a
    // small line pool makes merges (find hits) common, the short
    // latencies keep the files full often, and every step checks
    // find, full, live, nextFill and all the load counts.
    for (const int cap : {1, 3, 8, 32}) {
        MshrFile m(cap);
        std::map<Addr, MshrFile::Entry> ref;
        Rng rng(0x5eed + static_cast<std::uint64_t>(cap));
        Cycle now = 0;
        for (int step = 0; step < 20000; ++step) {
            now += rng.below(3);
            int released = 0;
            for (auto it = ref.begin(); it != ref.end();) {
                if (it->second.ready <= now) {
                    it = ref.erase(it);
                    ++released;
                } else {
                    ++it;
                }
            }
            ASSERT_EQ(m.retire(now), released) << "step " << step;

            const Addr line = 64 * rng.below(48);
            const MshrFile::Entry *e = m.find(line);
            const auto it = ref.find(line);
            ASSERT_EQ(e != nullptr, it != ref.end()) << "step " << step;
            if (e) {
                EXPECT_EQ(e->ready, it->second.ready);
                EXPECT_EQ(e->tid, it->second.tid);
                EXPECT_EQ(e->level, it->second.level);
                EXPECT_EQ(e->isLoad, it->second.isLoad);
            } else if (!m.full()) {
                MshrFile::Entry n;
                n.ready = now + 1 + rng.below(40);
                n.tid = static_cast<ThreadID>(rng.below(4));
                n.level = rng.below(2) ? ServiceLevel::Memory
                                       : ServiceLevel::L2;
                n.isLoad = rng.below(4) != 0;
                m.alloc(line, n.ready, n.tid, n.level, n.isLoad);
                ref[line] = n;
            }

            ASSERT_EQ(m.live(), static_cast<int>(ref.size()));
            EXPECT_EQ(m.full(), static_cast<int>(ref.size()) == cap);
            Cycle soonest = neverCycle;
            int count[4][4] = {};
            int memLoads = 0;
            for (const auto &[l, x] : ref) {
                soonest = std::min(soonest, x.ready);
                if (x.isLoad) {
                    ++count[x.tid][static_cast<int>(x.level)];
                    memLoads += x.level == ServiceLevel::Memory;
                }
            }
            EXPECT_EQ(m.nextFill(), soonest);
            EXPECT_EQ(m.outstandingMemLoads(), memLoads);
            for (ThreadID t = 0; t < 4; ++t) {
                EXPECT_EQ(m.pendingLoads(t, ServiceLevel::L2),
                          count[t][2] + count[t][3]);
                EXPECT_EQ(m.pendingLoads(t, ServiceLevel::Memory),
                          count[t][3]);
                EXPECT_EQ(m.outstandingLoads(t, ServiceLevel::L2),
                          count[t][2]);
            }
        }
    }
}

TEST(Mshr, RefusesAnAddressThatIsNotALine)
{
    // An odd address would collide with the free-slot sentinel.
    EXPECT_TRUE(smt::test::diesWithAbort([] {
        MshrFile m(2);
        m.alloc(0x101, 10, 0, ServiceLevel::L2, true);
    }));
}

TEST(Tlb, HitAfterMiss)
{
    Tlb t({16, 4, 8192});
    EXPECT_FALSE(t.access(0x10000));
    EXPECT_TRUE(t.access(0x10000));
    EXPECT_TRUE(t.access(0x10000 + 8191)); // same page
    EXPECT_FALSE(t.access(0x10000 + 8192)); // next page
    EXPECT_EQ(t.misses(), 2u);
}

TEST(Tlb, CapacityEviction)
{
    Tlb t({4, 4, 8192}); // one set, 4 ways
    for (Addr p = 0; p < 5; ++p)
        t.access(p * 8192);
    // page 0 was LRU and must have been evicted
    EXPECT_FALSE(t.access(0));
}

class MemSystemTest : public ::testing::Test
{
  protected:
    MemSystemTest()
    {
        params.l1Latency = 1;
        params.l2Latency = 20;
        params.memLatency = 300;
        params.tlbMissPenalty = 160;
        mem = std::make_unique<MemorySystem>(params, 2);
        // touch the page first so TLB penalties don't pollute
        // latency expectations
        mem->dtlb(0).access(addr);
        mem->dtlb(1).access(addr);
    }

    MemParams params;
    std::unique_ptr<MemorySystem> mem;
    static constexpr Addr addr = 0x10000;
};

TEST_F(MemSystemTest, ColdMissGoesToMemory)
{
    const MemAccessResult r = mem->dataAccess(0, addr, true, 100);
    ASSERT_TRUE(r.accepted);
    EXPECT_EQ(r.level, ServiceLevel::Memory);
    EXPECT_EQ(r.ready, 100 + 1 + 20 + 300);
    EXPECT_EQ(mem->pendingL1DLoads(0), 1);
    EXPECT_EQ(mem->pendingL2DLoads(0), 1);
    EXPECT_EQ(mem->outstandingMemLoads(), 1);
}

TEST_F(MemSystemTest, SecondAccessMergesIntoMshr)
{
    const MemAccessResult a = mem->dataAccess(0, addr, true, 100);
    const MemAccessResult b =
        mem->dataAccess(1, addr + 8, true, 105);
    ASSERT_TRUE(b.accepted);
    EXPECT_EQ(b.ready, a.ready); // inherits the fill
    // merged access adds no new MSHR entry
    EXPECT_EQ(mem->outstandingMemLoads(), 1);
    // ... but still counts as an L1 miss for the accessing thread
    EXPECT_EQ(mem->l1dMisses(1), 1u);
    // and no additional L2 traffic
    EXPECT_EQ(mem->l2DataAccesses(1), 0u);
}

TEST_F(MemSystemTest, HitAfterFillCompletes)
{
    const MemAccessResult a = mem->dataAccess(0, addr, true, 100);
    mem->tick(a.ready);
    EXPECT_EQ(mem->pendingL1DLoads(0), 0);
    const MemAccessResult b =
        mem->dataAccess(0, addr, true, a.ready + 1);
    ASSERT_TRUE(b.accepted);
    EXPECT_EQ(b.level, ServiceLevel::L1);
    EXPECT_EQ(b.ready, a.ready + 1 + 1);
}

TEST_F(MemSystemTest, L2HitLatency)
{
    // Fill L2 but not L1 (prewarm style), then access.
    mem->l2().fill(addr);
    const MemAccessResult r = mem->dataAccess(0, addr, true, 10);
    ASSERT_TRUE(r.accepted);
    EXPECT_EQ(r.level, ServiceLevel::L2);
    EXPECT_EQ(r.ready, 10 + 1 + 20);
}

TEST_F(MemSystemTest, TlbMissAddsPenalty)
{
    const Addr fresh = 0x5000000;
    const MemAccessResult r = mem->dataAccess(0, fresh, true, 10);
    ASSERT_TRUE(r.accepted);
    EXPECT_TRUE(r.dtlbMiss);
    EXPECT_EQ(r.ready, 10 + 1 + 20 + 300 + 160);
}

TEST_F(MemSystemTest, BankConflictRejects)
{
    const MemAccessResult a = mem->dataAccess(0, addr, true, 50);
    ASSERT_TRUE(a.accepted);
    // Same bank (even the same line: merges still need the port) in
    // the same cycle is rejected and leaves no statistics behind.
    const MemAccessResult b = mem->dataAccess(1, addr, true, 50);
    EXPECT_FALSE(b.accepted);
    EXPECT_EQ(mem->l1dAccesses(1), 0u);
    const Addr sameBank = addr + 8 * 64; // 8 banks x 64B lines
    const MemAccessResult c = mem->dataAccess(1, sameBank, true, 50);
    EXPECT_FALSE(c.accepted);
    EXPECT_EQ(mem->l1dAccesses(1), 0u);
    // Next cycle both proceed: the first merges into the MSHR.
    const MemAccessResult d = mem->dataAccess(1, addr, true, 51);
    EXPECT_TRUE(d.accepted);
    EXPECT_EQ(d.ready, a.ready);
    EXPECT_EQ(mem->l1dAccesses(1), 1u);
}

TEST_F(MemSystemTest, MshrFullRejectsLoads)
{
    MemParams p = params;
    p.l1dMshrs = 2;
    MemorySystem m(p, 1);
    ASSERT_TRUE(m.dataAccess(0, 0x100000, true, 5).accepted);
    ASSERT_TRUE(m.dataAccess(0, 0x200000, true, 6).accepted);
    const MemAccessResult r = m.dataAccess(0, 0x300000, true, 7);
    EXPECT_FALSE(r.accepted);
    // a hit does not need an MSHR and must still be accepted
    const MemAccessResult h = m.dataAccess(0, 0x100000 + 8, true, 8);
    EXPECT_TRUE(h.accepted);
}

TEST_F(MemSystemTest, PerfectDcacheAlwaysL1)
{
    MemParams p = params;
    p.perfectDcache = true;
    MemorySystem m(p, 1);
    for (Addr a = 0; a < 100; ++a) {
        const MemAccessResult r =
            m.dataAccess(0, a * 40960, true, 10);
        ASSERT_TRUE(r.accepted);
        EXPECT_EQ(r.level, ServiceLevel::L1);
        EXPECT_EQ(r.ready, 11u);
    }
    EXPECT_EQ(m.pendingL1DLoads(0), 0);
}

TEST_F(MemSystemTest, InstFetchMissAndRefill)
{
    const Addr pc = 0x400000;
    mem->itlb(0).access(pc);
    const FetchAccessResult a = mem->instFetch(0, pc, 10);
    ASSERT_TRUE(a.accepted);
    EXPECT_FALSE(a.hit);
    EXPECT_EQ(a.ready, 10 + 1 + 20 + 300);
    mem->tick(a.ready);
    const FetchAccessResult b = mem->instFetch(0, pc, a.ready + 1);
    EXPECT_TRUE(b.hit);
}

TEST_F(MemSystemTest, StoresDoNotCountAsPendingLoadMisses)
{
    const MemAccessResult r = mem->dataAccess(0, addr, false, 10);
    ASSERT_TRUE(r.accepted);
    EXPECT_EQ(mem->pendingL1DLoads(0), 0);
    EXPECT_EQ(mem->outstandingMemLoads(), 0);
}

TEST_F(MemSystemTest, ResetStatsClearsCounters)
{
    mem->dataAccess(0, addr, true, 10);
    EXPECT_GT(mem->l1dAccesses(0), 0u);
    mem->resetStats();
    EXPECT_EQ(mem->l1dAccesses(0), 0u);
    EXPECT_EQ(mem->l1dMisses(0), 0u);
    EXPECT_EQ(mem->l2DataAccesses(0), 0u);
}

} // anonymous namespace
