#include "mem/memory_system.hh"

#include <algorithm>
#include <memory>

#include "common/logging.hh"
#include "telemetry/telemetry.hh"

namespace smt {

MemorySystem::MemorySystem(const MemParams &params, int numThreads)
    : p(params),
      nThreads(numThreads),
      l1iCache(std::make_unique<Cache>(p.l1i)),
      l1dCache(std::make_unique<Cache>(p.l1d)),
      l2Cache(std::make_unique<Cache>(p.l2)),
      mshrD(p.l1dMshrs),
      mshrI(p.l1iMshrs)
{
    SMT_ASSERT(numThreads >= 1 && numThreads <= maxThreads,
               "bad thread count %d", numThreads);
    for (int t = 0; t < numThreads; ++t) {
        itlbs.emplace_back(p.itlb);
        dtlbs.emplace_back(p.dtlb);
    }
    sL1dAcc.assign(numThreads, 0);
    sL1dMiss.assign(numThreads, 0);
    sL2Acc.assign(numThreads, 0);
    sL2Miss.assign(numThreads, 0);
}

MemAccessResult
MemorySystem::dataAccess(ThreadID tid, Addr addr, bool isLoad,
                         Cycle now)
{
    SMT_ASSERT(tid >= 0 && tid < nThreads, "bad tid %d", tid);

    if (p.perfectDcache) {
        ++sL1dAcc[tid];
        return {true, now + p.l1Latency, ServiceLevel::L1, false};
    }

    const Addr line = l1dCache->lineAddr(addr);

    // Admission control first so rejected accesses leave no trace in
    // the statistics and can retry without inflating counts. The
    // LRU-free probe is only needed when a miss could be refused
    // (MSHRs full); otherwise the later access() is the single tag
    // walk.
    const MshrFile::Entry *merged = mshrD.find(line);
    bool wouldHit = false;
    bool probed = false;
    if (!merged && mshrD.full()) {
        wouldHit = l1dCache->probe(addr);
        probed = true;
        if (!wouldHit)
            return {};
    }
    if (!l1dCache->reserveBank(addr, now))
        return {};

    // Committed to perform the access.
    const bool dtlbMiss = !dtlbs[tid].access(addr);
    const Cycle penalty = dtlbMiss ? p.tlbMissPenalty : 0;
    ++sL1dAcc[tid];

    if (merged) {
        // Same-line miss already in flight: inherit its fill time.
        ++sL1dMiss[tid];
        const Cycle ready =
            std::max(merged->ready, now + p.l1Latency) + penalty;
        return {true, ready, merged->level, dtlbMiss};
    }

    const bool hit = l1dCache->access(addr);
    SMT_ASSERT(!probed || hit == wouldHit, "probe/access disagree");
    if (hit)
        return {true, now + p.l1Latency + penalty, ServiceLevel::L1,
                dtlbMiss};

    ++sL1dMiss[tid];
    ++sL2Acc[tid];
    ServiceLevel level = ServiceLevel::L2;
    Cycle ready = now + p.l1Latency + p.l2Latency;
    if (!l2Cache->access(addr)) {
        ++sL2Miss[tid];
        if (llc) {
            // CMP mode: the private-L2 miss goes to the shared LLC.
            // An LLC hit stays on chip (ServiceLevel::L2 — serviced
            // below L1 but short of memory); only a true LLC miss is
            // a memory-level access for MLP/phase classification.
            const LlcResult lr = llc->access(coreId, addr, ready);
            level = lr.hit ? ServiceLevel::L2 : ServiceLevel::Memory;
            ready = lr.ready;
        } else {
            level = ServiceLevel::Memory;
            ready += p.memLatency;
        }
        l2Cache->fill(addr);
    }
    ready += penalty;
    l1dCache->fill(addr);
    mshrD.alloc(line, ready, tid, level, isLoad);
    return {true, ready, level, dtlbMiss};
}

FetchAccessResult
MemorySystem::instFetch(ThreadID tid, Addr pc, Cycle now)
{
    SMT_ASSERT(tid >= 0 && tid < nThreads, "bad tid %d", tid);

    const Addr line = l1iCache->lineAddr(pc);
    const bool itlbMiss = !itlbs[tid].access(pc);
    const Cycle penalty = itlbMiss ? p.tlbMissPenalty : 0;

    if (const MshrFile::Entry *m = mshrI.find(line))
        return {true, false, m->ready + penalty};

    if (l1iCache->access(pc)) {
        if (penalty)
            return {true, false, now + penalty};
        return {true, true, now};
    }

    if (mshrI.full())
        return {};

    ServiceLevel level = ServiceLevel::L2;
    Cycle ready = now + p.l1Latency + p.l2Latency;
    if (!l2Cache->access(pc)) {
        if (llc) {
            const LlcResult lr = llc->access(coreId, pc, ready);
            level = lr.hit ? ServiceLevel::L2 : ServiceLevel::Memory;
            ready = lr.ready;
        } else {
            level = ServiceLevel::Memory;
            ready += p.memLatency;
        }
        l2Cache->fill(pc);
    }
    ready += penalty;
    l1iCache->fill(pc);
    mshrI.alloc(line, ready, tid, level, false);
    return {true, false, ready};
}

void
MemorySystem::registerTelemetry(TelemetryHub &hub,
                                const std::string &prefix)
{
    for (int t = 0; t < nThreads; ++t) {
        const std::string pre =
            prefix + "t" + std::to_string(t) + ".";
        hub.ratio(
            pre + "l1dMissRate",
            [this, t] { return sL1dMiss[t]; },
            [this, t] { return sL1dAcc[t]; });
        hub.ratio(
            pre + "l2MissRate",
            [this, t] { return sL2Miss[t]; },
            [this, t] { return sL2Acc[t]; });
    }
    hub.gauge(prefix + "mem.mshrD", [this] {
        return static_cast<double>(mshrD.live());
    });
    hub.gauge(prefix + "mem.mshrI", [this] {
        return static_cast<double>(mshrI.live());
    });
    hub.gauge(prefix + "mem.outstanding", [this] {
        return static_cast<double>(outstandingMemLoads());
    });
}

void
MemorySystem::resetStats()
{
    l1iCache->resetStats();
    l1dCache->resetStats();
    l2Cache->resetStats();
    std::fill(sL1dAcc.begin(), sL1dAcc.end(), 0);
    std::fill(sL1dMiss.begin(), sL1dMiss.end(), 0);
    std::fill(sL2Acc.begin(), sL2Acc.end(), 0);
    std::fill(sL2Miss.begin(), sL2Miss.end(), 0);
}

} // namespace smt
