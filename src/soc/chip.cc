#include "soc/chip.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "prof/host_profiler.hh"
#include "telemetry/telemetry.hh"
#include "trace/bench_profile.hh"

namespace smt {

namespace {

/** @p base plus what each counter gained from @p then to @p now. */
ThreadCounters
plusGain(ThreadCounters base, const ThreadCounters &now,
         const ThreadCounters &then)
{
    for (const ThreadCounterField &f : threadCounterFields)
        base.*f.member += now.*f.member - then.*f.member;
    return base;
}

} // anonymous namespace

ChipSimulator::ChipSimulator(
    const SimConfig &cfg_, const std::vector<std::string> &benches,
    PolicyKind policyKind,
    std::unique_ptr<ThreadToCoreAllocator> allocator)
    : ChipSimulator(
          cfg_, benches,
          [policyKind, params = cfg_.policy] {
              return makePolicy(policyKind, params);
          },
          std::move(allocator))
{
}

ChipSimulator::ChipSimulator(
    const SimConfig &cfg_, const std::vector<std::string> &benches,
    const PolicyMaker &policyMaker,
    std::unique_ptr<ThreadToCoreAllocator> allocator)
    : cfg(cfg_), benchNames(benches),
      nThreads(static_cast<int>(benches.size())),
      nCores(cfg_.soc.numCores),
      alloc(allocator ? std::move(allocator)
                      : makeAllocator(cfg_.soc.allocator))
{
    if (nCores < 1)
        fatal("chip needs at least one core (got %d)", nCores);
    SMT_ASSERT(!benches.empty(), "empty workload");

    // One core is the paper's machine: its context count follows the
    // workload. Multi-core chips have a fixed context capacity per
    // core and threads move between cores, so capacity is part of
    // the configuration.
    nCtx = nCores == 1 ? nThreads : cfg.soc.contextsPerCore;
    if (nCtx < 1 || nCtx > maxThreads) {
        fatal("contexts per core %d out of range (1..%d)", nCtx,
              maxThreads);
    }
    if (nThreads > nCores * nCtx) {
        fatal("workload has %d threads; the chip offers %d cores x "
              "%d contexts = %d",
              nThreads, nCores, nCtx, nCores * nCtx);
    }

    buildChip(policyMaker);
    prewarmChip();
}

ChipSimulator::~ChipSimulator()
{
    stopTickWorkers();
}

void
ChipSimulator::buildChip(const PolicyMaker &policyMaker)
{
    cfg.core.numThreads = nCtx;

    // Generator seeds are per software thread, and stable across
    // migrations: a thread keeps its stream no matter which core it
    // runs on.
    for (int s = 0; s < nThreads; ++s) {
        const BenchProfile &prof = benchProfile(benchNames[s]);
        gens.push_back(std::make_unique<SyntheticTraceGenerator>(
            prof, cfg.seed + 7919ull * static_cast<std::uint64_t>(s)));
    }

    if (nCores > 1) {
        SharedCacheParams lp = cfg.soc.llc;
        // The LLC's backing-memory latency always follows the
        // hierarchy configuration (Figure 7 style sweeps move it).
        lp.memLatency = cfg.mem.memLatency;
        if (cfg.soc.llcWays > 0)
            lp.tags.assoc = cfg.soc.llcWays;
        LlcArbiterConfig ac;
        ac.numCores = nCores;
        ac.mshrsPerCore = lp.mshrsPerCore;
        ac.mshrsTotal = lp.mshrsTotal;
        ac.ways = lp.tags.assoc;
        ac.busSlotsPerWindow = static_cast<int>(
            lp.busWindow / std::max<Cycle>(1, lp.busLatency));
        llc = std::make_unique<SharedCache>(
            lp, nCores, makeLlcArbiter(cfg.soc.llcArbiter, ac));
    }

    // Initial placement: the allocator's cold-start decision (all
    // allocators spread by id, so cold start never differs between
    // them). Contexts are handed out in thread-id order, so the
    // occupied contexts of every core form a prefix.
    const ChipTopology topo{nCores, nCtx};
    coreOf = alloc->allocate(
        topo,
        std::vector<ThreadPerfSample>(
            static_cast<std::size_t>(nThreads)),
        0);
    SMT_ASSERT(static_cast<int>(coreOf.size()) == nThreads,
               "allocator returned %zu placements for %d threads",
               coreOf.size(), nThreads);
    ctxOf.assign(static_cast<std::size_t>(nThreads), -1);
    homes.resize(static_cast<std::size_t>(nThreads));
    std::vector<int> nextCtx(static_cast<std::size_t>(nCores), 0);
    for (int s = 0; s < nThreads; ++s) {
        const int c = coreOf[s];
        SMT_ASSERT(c >= 0 && c < nCores, "bad initial core %d", c);
        ctxOf[s] = nextCtx[c]++;
        SMT_ASSERT(ctxOf[s] < nCtx, "core %d over capacity", c);
        homes[s].core = c;
        homes[s].ctx = ctxOf[s];
    }

    cores.resize(static_cast<std::size_t>(nCores));
    for (int c = 0; c < nCores; ++c) {
        Core &core = cores[c];
        core.mem = std::make_unique<MemorySystem>(cfg.mem, nCtx);
        if (llc)
            core.mem->attachLlc(llc.get(), c);
        core.bpred =
            std::make_unique<BranchPredictor>(cfg.bpred, nCtx);
        core.pol = policyMaker();
        SMT_ASSERT(core.pol != nullptr, "null policy for core %d", c);

        std::vector<Pipeline::ThreadProgram> programs(
            static_cast<std::size_t>(nCtx));
        for (int s = 0; s < nThreads; ++s) {
            if (coreOf[s] != c)
                continue;
            Pipeline::ThreadProgram &prog = programs[ctxOf[s]];
            prog.trace = gens[s].get();
            prog.profile = &gens[s]->profile();
            prog.addrBase =
                static_cast<Addr>(s) * threadAddrStride;
        }
        core.pipe = std::make_unique<Pipeline>(
            cfg.core, *core.mem, *core.bpred, *core.pol,
            std::move(programs));
    }

    intervalBase.assign(static_cast<std::size_t>(nThreads), {});
    nextEpochAt = cfg.soc.epochCycles;
}

namespace {

/** The regions prewarm makes resident, as (layout base, bytes), in
 *  the LLC's fill order: mid, near, code. */
std::array<std::pair<Addr, Addr>, 3>
prewarmRegions(const BenchProfile &prof)
{
    return {{{layout::midBase, prof.midBytes},
             {layout::nearBase, prof.nearBytes},
             {layout::codeBase, prof.codeFootprint}}};
}

/**
 * Prewarm inserts lines with Cache::insert, which is exact only for
 * lines never inserted before. Check once per call that the regions
 * prewarm walks (one insertion per @p line bytes from each region's
 * base) share no line.
 */
void
assertDisjointRegions(const std::vector<const BenchProfile *> &profs,
                      const std::vector<Addr> &addrBases, Addr line)
{
    std::vector<std::pair<Addr, Addr>> spans; // [first line, end)
    for (std::size_t t = 0; t < profs.size(); ++t) {
        for (const auto &[base, bytes] : prewarmRegions(*profs[t])) {
            if (!bytes)
                continue;
            const Addr start = addrBases[t] + base;
            const Addr lastLine =
                (start + (bytes - 1) / line * line) & ~(line - 1);
            spans.emplace_back(start & ~(line - 1), lastLine + line);
        }
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
        SMT_ASSERT(spans[i - 1].second <= spans[i].first,
                   "prewarm regions overlap at 0x%llx",
                   static_cast<unsigned long long>(spans[i].first));
    }
}

} // anonymous namespace

void
prewarmMemory(MemorySystem &mem,
              const std::vector<std::string> &benches,
              const std::vector<Addr> &addrBases)
{
    // Traces stand for the middle of a long-running execution
    // (SimPoint-style), so the frequently reused regions -- code,
    // the near data set, and the L2-resident mid set -- start
    // resident, as they would be hundreds of millions of
    // instructions in. The far/stream regions stay cold on purpose:
    // missing on them *is* their steady state.
    SMT_ASSERT(benches.size() == addrBases.size(),
               "prewarm bases/benches mismatch");
    const int n = static_cast<int>(benches.size());
    const MemParams &mp = mem.params();
    const Addr line = static_cast<Addr>(mp.l1d.lineSize);
    const Addr page = mp.dtlb.pageBytes;
    std::vector<const BenchProfile *> profs;
    for (const std::string &b : benches)
        profs.push_back(&benchProfile(b));

    // Cache::insert places each line where fill() would, in O(1),
    // as long as the caches start empty and no line comes twice.
    SMT_ASSERT(mem.l1i().empty() && mem.l1d().empty() &&
                   mem.l2().empty(),
               "prewarm of a hierarchy that already holds lines");
    SMT_ASSERT(mp.l1i.lineSize == mp.l1d.lineSize &&
                   mp.l2.lineSize == mp.l1d.lineSize,
               "prewarm needs one line size across L1I, L1D and L2");
    assertDisjointRegions(profs, addrBases, line);

    // Fill order matters when the combined footprints exceed the L2:
    // least-critical first (mid), code last, and code interleaved
    // across threads so no thread's working set is wiped wholesale.
    for (int t = 0; t < n; ++t) {
        const Addr base = addrBases[t];
        const BenchProfile &prof = *profs[t];
        for (Addr off = 0; off < prof.midBytes; off += line)
            mem.l2().insert(base + layout::midBase + off);
        for (Addr off = 0; off < prof.midBytes; off += page)
            mem.dtlb(t).access(base + layout::midBase + off);
    }
    for (int t = 0; t < n; ++t) {
        const Addr base = addrBases[t];
        const BenchProfile &prof = *profs[t];
        for (Addr off = 0; off < prof.nearBytes; off += line) {
            const Addr a = base + layout::nearBase + off;
            mem.l1d().insert(a);
            mem.l2().insert(a);
        }
        for (Addr off = 0; off < prof.nearBytes; off += page)
            mem.dtlb(t).access(base + layout::nearBase + off);
        for (Addr off = 0; off < prof.codeFootprint; off += page)
            mem.itlb(t).access(base + layout::codeBase + off);
    }
    Addr maxCode = 0;
    for (const BenchProfile *prof : profs)
        maxCode = std::max(maxCode, prof->codeFootprint);
    for (Addr off = 0; off < maxCode; off += line) {
        for (int t = 0; t < n; ++t) {
            if (off >= profs[t]->codeFootprint)
                continue;
            const Addr a = addrBases[t] + layout::codeBase + off;
            mem.l1i().insert(a);
            mem.l2().insert(a);
        }
    }
    mem.resetStats();
}

void
ChipSimulator::prewarmChip()
{
    // Each core's private hierarchy is warmed by the same helper, in
    // the same order, over the threads initially placed on it.
    for (int c = 0; c < nCores; ++c) {
        std::vector<std::string> benches;
        std::vector<Addr> bases;
        for (int s = 0; s < nThreads; ++s) {
            if (coreOf[s] != c)
                continue;
            benches.push_back(benchNames[s]);
            bases.push_back(static_cast<Addr>(s) *
                            threadAddrStride);
        }
        prewarmMemory(*cores[c].mem, benches, bases);
    }

    // The shared LLC starts holding every thread's near/mid/code
    // regions (the same regions the private L2s hold), inserted as
    // prewarmMemory inserts them: the LLC is fresh and the regions
    // are disjoint.
    if (llc) {
        const Addr line = static_cast<Addr>(cfg.mem.l1d.lineSize);
        SMT_ASSERT(llc->params().tags.lineSize == cfg.mem.l1d.lineSize,
                   "LLC prewarm needs the L1D's line size");
        std::vector<const BenchProfile *> profs;
        std::vector<Addr> bases;
        for (int s = 0; s < nThreads; ++s) {
            profs.push_back(&gens[s]->profile());
            bases.push_back(static_cast<Addr>(s) * threadAddrStride);
        }
        assertDisjointRegions(profs, bases, line);
        for (int s = 0; s < nThreads; ++s) {
            for (const auto &[base, bytes] : prewarmRegions(*profs[s])) {
                for (Addr off = 0; off < bytes; off += line)
                    llc->insert(bases[s] + base + off);
            }
        }
        llc->resetStats();
    }
}

ThreadCounters
ChipSimulator::readCtx(int core, int ctx) const
{
    const PipelineStats &ps = cores[core].pipe->stats();
    const MemorySystem &mem = *cores[core].mem;
    ThreadCounters t;
    t.committed = ps.committed[ctx];
    t.fetched = ps.fetched[ctx];
    t.fetchedWrongPath = ps.fetchedWrongPath[ctx];
    t.squashed = ps.squashed[ctx];
    t.condBranches = ps.condBranches[ctx];
    t.mispredicts = ps.mispredicts[ctx];
    t.flushes = ps.flushes[ctx];
    t.l1dAccesses = mem.l1dAccesses(ctx);
    t.l1dMisses = mem.l1dMisses(ctx);
    t.l2Accesses = mem.l2DataAccesses(ctx);
    t.l2Misses = mem.l2DataMisses(ctx);
    return t;
}

ThreadCounters
ChipSimulator::totalsOf(int thread) const
{
    const ThreadHome &h = homes[thread];
    return plusGain(h.accum, readCtx(h.core, h.ctx), h.attachAt);
}

std::uint64_t
ChipSimulator::maxCommitted() const
{
    std::uint64_t most = 0;
    for (int s = 0; s < nThreads; ++s)
        most = std::max(most, committedOf(s));
    return most;
}

void
ChipSimulator::tickQuantum(std::uint64_t commitTarget, Cycle maxCycles)
{
    QuantumBounds b;
    b.now = cycle;
    b.commitLimit = commitTarget;
    b.maxCommitted = maxCommitted();
    b.commitWidth = cfg.core.commitWidth;
    b.maxCycles = maxCycles;
    // Only what run()'s chipWork acts on bounds the quantum; a
    // 1-core chip has no epochs, audits or migrations there.
    if (nCores > 1) {
        b.epochAt = cfg.soc.epochCycles > 0 ? nextEpochAt : 0;
        b.auditPeriod = auditPeriod;
        b.draining = migrating;
    }
    b.telemetry = telem != nullptr;
    const Cycle k = quantumLength(b);
    const Cycle end = cycle + k;
    maxQuantum = std::max(maxQuantum, k);

    // Publish the quantum, tick worker 0's cores on this thread, then
    // wait for the rest: once awaitAll returns, every core's ticks
    // (and their LLC accesses, in serial order thanks to the gate)
    // and cycle records happened-before anything the main thread
    // does next.
    if (wavefront)
        wavefront->beginQuantum(end);
    tickCores(0, cycle, end);
    if (wavefront) {
        ProfScope hps(hprof, hsMainAwait);
        wavefront->awaitAll(end);
    }
    cycle = end;
}

void
ChipSimulator::tickCores(int w, Cycle from, Cycle end)
{
    // Cycle-major, ascending core order per worker is what makes the
    // wavefront's waits-for relation acyclic — see
    // soc/tick_wavefront.hh.
    for (Cycle t = from + 1; t <= end;) {
        // Every core times the same cycles, so per-core scope totals
        // stay comparable.
        HostProfiler *timer =
            hprof && t % hprofEvery == 0 ? hprof : nullptr;
        Cycle next = end + 1; // the first cycle a core still has to tick
        for (int c = w; c < nCores; c += nTickWorkers) {
            const std::size_t ci = static_cast<std::size_t>(c);
            Pipeline &pipe = *cores[ci].pipe;
            if (pipe.now() >= t) {
                next = std::min(next, pipe.now() + 1);
                continue; // skipped through t
            }
            {
                ProfScope hps(timer, timer ? hsCoreTick[ci] : 0);
                pipe.tick();
            }
            const MemorySystem &mem = *cores[ci].mem;
            CycleRecord r;
            for (int k = 0; k < nCtx; ++k) {
                if (mem.pendingL1DLoads(k) > 0)
                    r.slowCtx |= 1u << k;
            }
            r.memLoads =
                static_cast<std::uint32_t>(mem.outstandingMemLoads());
            cycleRecord(c, t) = r;

            // After a dead tick, jump over the cycles on which the
            // core provably does nothing. No MSHR entry moves in
            // them, so each one's record is this one, and the core
            // makes no LLC access in them, so its completion can be
            // published for the whole span at once.
            const Cycle to = pipe.idleThrough(end);
            if (to > t) {
                for (Cycle u = t + 1; u <= to; ++u)
                    cycleRecord(c, u) = r;
                pipe.skipTo(to);
                if (hprof)
                    sampledSkips[ci] += to / hprofEvery - t / hprofEvery;
            }
            if (wavefront)
                wavefront->coreDone(c, to);
            next = std::min(next, to + 1);
        }
        t = next;
    }
}

bool
ChipSimulator::sameRecords(Cycle a, Cycle b)
{
    for (int c = 0; c < nCores; ++c) {
        if (!(cycleRecord(c, a) == cycleRecord(c, b)))
            return false;
    }
    return true;
}

void
ChipSimulator::workerLoop(int w, Cycle start)
{
    Cycle last = start;
    const int idleScope =
        hprof ? hsWorkerIdle[static_cast<std::size_t>(w - 1)] : 0;
    for (;;) {
        Cycle end;
        {
            ProfScope hps(hprof, idleScope);
            end = wavefront->awaitQuantum(last);
        }
        if (end == TickWavefront::stopCycle)
            return;
        tickCores(w, last, end);
        last = end;
    }
}

void
ChipSimulator::startTickWorkers()
{
    int w = cfg.soc.chipJobs;
    if (w <= 0)
        w = static_cast<int>(std::thread::hardware_concurrency());
    w = std::min(std::max(w, 1), nCores);
    if (w <= 1 || nCores <= 1)
        return;

    nTickWorkers = w;
    wavefront = std::make_unique<TickWavefront>(nCores, cycle);
    llc->setAccessGate(wavefront.get());
    if (hprof) {
        // Scope registration is single-threaded: both the wavefront
        // gate scopes and the per-worker idle scopes must exist
        // before the first worker spawns.
        wavefront->setHostProfiler(hprof);
        hsMainAwait = hprof->scope("wave.main.await");
        hsWorkerIdle.clear();
        for (int i = 1; i < w; ++i)
            hsWorkerIdle.push_back(hprof->scope(
                "wave.w" + std::to_string(i) + ".idle"));
    }
    workers.reserve(static_cast<std::size_t>(w - 1));
    for (int i = 1; i < w; ++i)
        workers.emplace_back([this, i, start = cycle] {
            workerLoop(i, start);
        });
}

void
ChipSimulator::stopTickWorkers()
{
    if (!wavefront)
        return;
    wavefront->requestStop();
    for (std::thread &th : workers)
        th.join();
    workers.clear();
    if (hprof) {
        // The workers joined, so the per-core wait stats are stable;
        // record them into the profile before the wavefront dies.
        hprof->record("{\"type\": \"wave-config\", \"workers\": " +
                      std::to_string(nTickWorkers) +
                      ", \"cores\": " + std::to_string(nCores) +
                      "}");
        for (int c = 0; c < nCores; ++c) {
            const TickWavefront::WaveStats &ws =
                wavefront->waveStats(c);
            std::string rec =
                "{\"type\": \"wavefront\", \"core\": " +
                std::to_string(c) +
                ", \"worker\": " + std::to_string(c % nTickWorkers) +
                ", \"gateWaits\": " + fmtU64(ws.gateWaits) +
                ", \"spinIters\": " + fmtU64(ws.spinIters) +
                ", \"yieldIters\": " + fmtU64(ws.yieldIters) +
                ", \"yieldTransitions\": " +
                fmtU64(ws.yieldTransitions) +
                ", \"waitNs\": " + fmtU64(ws.waitNs) +
                ", \"awaited\": [";
            for (std::size_t k = 0; k < ws.awaited.size(); ++k) {
                if (k)
                    rec += ", ";
                rec += fmtU64(ws.awaited[k]);
            }
            rec += "]}";
            hprof->record(std::move(rec));
        }
    }
    if (llc)
        llc->setAccessGate(nullptr);
    wavefront.reset();
    nTickWorkers = 1;
}

void
ChipSimulator::setTelemetry(TelemetryHub *hub)
{
    telem = hub;
    if (!telem)
        return;
    allocTrack = telem->track("alloc");
    coreTracks.clear();
    for (int c = 0; c < nCores; ++c) {
        coreTracks.push_back(
            telem->track("core" + std::to_string(c)));
        cores[c].pipe->registerTelemetry(
            *telem, "c" + std::to_string(c) + ".");
    }
    // Software threads migrate between cores, so chip-level
    // per-thread IPC reads the migration-proof committed totals, not
    // any one pipeline's counters.
    for (int s = 0; s < nThreads; ++s) {
        telem->rate("t" + std::to_string(s) + ".ipc",
                    [this, s] { return committedOf(s); });
    }
    if (llc)
        llc->attachTelemetry(*telem);
    telemSlow.assign(static_cast<std::size_t>(nThreads), false);
}

void
ChipSimulator::setHostProfiler(HostProfiler *prof)
{
    hprof = prof;
    hsCoreTick.clear();
    if (llc)
        llc->setHostProfiler(prof);
    if (!prof) {
        for (Core &core : cores)
            core.pipe->setHostProfiler(nullptr, "");
        hprofEvery = 0;
        return;
    }
    hprofEvery = prof->sampleEvery();
    sampledSkips.assign(static_cast<std::size_t>(nCores), 0);
    for (int c = 0; c < nCores; ++c) {
        const std::string cp = "c" + std::to_string(c) + ".";
        hsCoreTick.push_back(
            prof->scope(cp + "tick", /*sampled=*/true));
        cores[c].pipe->setHostProfiler(prof, cp);
    }
    hsEpoch = prof->scope("chip.epoch");
    hsMigrate = prof->scope("chip.migrate");
}

void
ChipSimulator::resetAllStats()
{
    for (Core &core : cores) {
        core.pipe->resetStats();
        core.mem->resetStats();
    }
    if (llc)
        llc->resetStats();
    for (ThreadHome &h : homes) {
        h.accum = {};
        h.attachAt = {};
    }
    std::fill(intervalBase.begin(), intervalBase.end(),
              ThreadCounters{});
    intervalStart = cycle;
}

void
ChipSimulator::runEpoch()
{
    // A zero-length interval has no metrics to sample and never
    // consults the allocator, so it must not consume an epoch
    // number either: the counter counts allocator invocations, and
    // it is what reaches the allocator, the debounce, and the soc
    // JSON's "allocEpochs".
    const Cycle dt = cycle - intervalStart;
    if (dt == 0)
        return;
    ProfScope hps(hprof, hsEpoch);
    ++epoch;

    std::vector<ThreadPerfSample> metrics(
        static_cast<std::size_t>(nThreads));
    for (int s = 0; s < nThreads; ++s) {
        const ThreadCounters now = totalsOf(s);
        const ThreadCounters iv = plusGain({}, now, intervalBase[s]);
        ThreadPerfSample &m = metrics[s];
        m.ipc = static_cast<double>(iv.committed) /
            static_cast<double>(dt);
        m.l1MissRate = iv.l1dAccesses
            ? static_cast<double>(iv.l1dMisses) /
                static_cast<double>(iv.l1dAccesses)
            : 0.0;
        m.l2Mpki = iv.committed
            ? 1000.0 * static_cast<double>(iv.l2Misses) /
                static_cast<double>(iv.committed)
            : 0.0;
        intervalBase[s] = now;
    }
    intervalStart = cycle;

    const ChipTopology topo{nCores, nCtx};
    std::vector<int> proposed = alloc->allocate(topo, metrics, epoch);
    SMT_ASSERT(static_cast<int>(proposed.size()) == nThreads,
               "allocator returned %zu placements for %d threads",
               proposed.size(), nThreads);
    std::vector<int> occ(static_cast<std::size_t>(nCores), 0);
    for (const int c : proposed) {
        SMT_ASSERT(c >= 0 && c < nCores, "allocator placed a thread "
                   "on core %d of %d", c, nCores);
        ++occ[c];
    }
    for (int c = 0; c < nCores; ++c)
        SMT_ASSERT(occ[c] <= nCtx, "allocator over-filled core %d", c);

    // Two placements naming the same partition differently must not
    // cause migrations: relabel for maximum overlap first.
    const std::vector<int> canon =
        canonicalizePlacement(coreOf, proposed, nCores);
    if (canon == coreOf) {
        lastProposal.clear();
        return;
    }
    int movers = 0;
    for (int s = 0; s < nThreads; ++s) {
        if (canon[s] != coreOf[s])
            ++movers;
    }

    // Debounce: migrations squash in-flight work and run the new
    // core's private caches cold, so a change must survive two
    // consecutive epochs (one interval of which is migration-free)
    // before the chip pays for it. Kills metric-noise ping-pong.
    // Proposals are compared as *partitions* (relabel one onto the
    // other first): the same grouping can come back with different
    // core labels when every overlap with the current placement
    // ties, and that must still count as a confirmation.
    if (lastProposal.empty() ||
        canonicalizePlacement(lastProposal, canon, nCores) !=
            lastProposal) {
        lastProposal = canon;
        if (telem) {
            telem->event(allocTrack, cycle, "realloc-proposed",
                         "{\"epoch\": " + std::to_string(epoch) +
                             ", \"movers\": " +
                             std::to_string(movers) + "}");
        }
        return;
    }
    lastProposal.clear();

    pendingPlacement = canon;
    migrating = true;
    drainDeadline = cycle + cfg.soc.drainTimeout;
    if (telem) {
        telem->event(allocTrack, cycle, "realloc-confirmed",
                     "{\"epoch\": " + std::to_string(epoch) +
                         ", \"movers\": " + std::to_string(movers) +
                         "}");
    }
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] != coreOf[s])
            cores[coreOf[s]].pipe->beginDrain(ctxOf[s]);
    }
}

void
ChipSimulator::completeMigration()
{
    ProfScope hps(hprof, hsMigrate);
    // Detach every mover (thread-id order), banking its counters.
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] == coreOf[s])
            continue;
        ThreadHome &h = homes[s];
        h.accum = totalsOf(s);
        cores[h.core].pipe->detachThread(h.ctx);
    }

    // Free contexts on each core = capacity minus the stayers.
    std::vector<std::vector<bool>> used(
        static_cast<std::size_t>(nCores),
        std::vector<bool>(static_cast<std::size_t>(nCtx), false));
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] == coreOf[s])
            used[coreOf[s]][ctxOf[s]] = true;
    }

    // Attach movers (thread-id order) to the lowest free context of
    // their new core — fully deterministic.
    for (int s = 0; s < nThreads; ++s) {
        if (pendingPlacement[s] == coreOf[s])
            continue;
        const int c = pendingPlacement[s];
        int ctx = -1;
        for (int k = 0; k < nCtx; ++k) {
            if (!used[c][k]) {
                ctx = k;
                break;
            }
        }
        SMT_ASSERT(ctx >= 0, "no free context on core %d", c);
        used[c][ctx] = true;

        if (telem) {
            telem->event(allocTrack, cycle, "migrate",
                         "{\"thread\": " + std::to_string(s) +
                             ", \"from\": " +
                             std::to_string(coreOf[s]) +
                             ", \"to\": " + std::to_string(c) + "}");
        }

        Pipeline::ThreadProgram prog;
        prog.trace = gens[s].get();
        prog.profile = &gens[s]->profile();
        prog.addrBase = static_cast<Addr>(s) * threadAddrStride;
        cores[c].pipe->attachThread(ctx, prog);

        coreOf[s] = c;
        ctxOf[s] = ctx;
        homes[s].core = c;
        homes[s].ctx = ctx;
        homes[s].attachAt = readCtx(c, ctx);
        ++nMigrations;
    }

    migrating = false;
    pendingPlacement.clear();
    if (auditPeriod)
        auditInvariants();
}

SimResult
ChipSimulator::run(std::uint64_t commitLimit, Cycle maxCycles,
                   std::uint64_t warmupCommits)
{
    ring.assign(static_cast<std::size_t>(nCores) * quantumRing, {});
    startTickWorkers();

    // Everything below runs once per quantum, at its last cycle:
    // quantumLength() ends every quantum on the first cycle where
    // chipWork, the warmup check or the commit check could act, so
    // this is exactly a loop that does all of it every cycle.
    //
    // The epoch/migration machinery runs in warmup and measurement
    // alike (it is machine behaviour, not a statistic); with one
    // core there is nowhere to move, so it is skipped entirely.
    auto chipWork = [this]() {
        if (nCores <= 1)
            return;
        if (migrating) {
            bool allIdle = true;
            for (int s = 0; s < nThreads && allIdle; ++s) {
                if (pendingPlacement[s] != coreOf[s] &&
                    !cores[coreOf[s]].pipe->drainComplete(ctxOf[s]))
                    allIdle = false;
            }
            if (allIdle || cycle >= drainDeadline)
                completeMigration();
        } else if (cfg.soc.epochCycles > 0 && cycle >= nextEpochAt) {
            nextEpochAt = cycle + cfg.soc.epochCycles;
            runEpoch();
        }
        if (auditPeriod && cycle % auditPeriod == 0)
            auditInvariants();
    };

    if (warmupCommits > 0) {
        bool warm = false;
        while (!warm && cycle < maxCycles) {
            tickQuantum(warmupCommits, maxCycles);
            chipWork();
            warm = maxCommitted() >= warmupCommits;
        }
        resetAllStats();
    }

    const Cycle statsStart = cycle;
    std::vector<std::uint64_t> slowCycles(
        static_cast<std::size_t>(nThreads) + 1, 0);
    Histogram mlp(64);

    if (telem)
        telem->beginSampling(cycle);

    bool done = false;
    while (!done && cycle < maxCycles) {
        const Cycle from = cycle;
        tickQuantum(commitLimit, maxCycles);
        chipWork();

        // Replay the quantum's cycle records in cycle order. A
        // migration can only complete in a one-cycle quantum, and it
        // moves no MSHR entry, so today's placement reads every
        // cycle's records as the per-cycle loop did; contexts that
        // hold no thread (which can still own MSHR loads of a
        // departed one) are skipped. Without a hub, which samples
        // every cycle, a run of cycles whose records match on every
        // core (such as a span the cores skipped) is counted once
        // with its length.
        for (Cycle t = from + 1; t <= cycle;) {
            Cycle n = 1;
            while (!telem && t + n <= cycle && sameRecords(t, t + n))
                ++n;
            int nSlow = 0;
            for (int s = 0; s < nThreads; ++s) {
                const std::uint32_t mask =
                    cycleRecord(coreOf[s], t).slowCtx;
                const bool slow = (mask >> ctxOf[s]) & 1u;
                if (slow)
                    ++nSlow;
                if (telem &&
                    slow != telemSlow[static_cast<std::size_t>(s)]) {
                    telemSlow[static_cast<std::size_t>(s)] = slow;
                    telem->event(
                        coreTracks[static_cast<std::size_t>(
                            coreOf[s])],
                        t, slow ? "phase-slow" : "phase-fast",
                        "{\"thread\": " + std::to_string(s) + "}");
                }
            }
            slowCycles[static_cast<std::size_t>(nSlow)] += n;
            std::uint64_t memLoads = 0;
            for (int c = 0; c < nCores; ++c)
                memLoads += cycleRecord(c, t).memLoads;
            mlp.sample(memLoads, n);
            if (telem)
                telem->tick(t);
            t += n;
        }

        done = maxCommitted() >= commitLimit;
    }

    stopTickWorkers();

    if (!done) {
        warn("run hit the cycle cap (%llu) before any thread "
             "committed %llu instructions",
             static_cast<unsigned long long>(maxCycles),
             static_cast<unsigned long long>(commitLimit));
    }

    SimResult res;
    res.cycles = cycle - statsStart;
    res.slowPhaseCycles = std::move(slowCycles);
    res.mlpBusyMean = mlp.meanNonZero();
    for (int s = 0; s < nThreads; ++s) {
        ThreadResult tr;
        static_cast<ThreadCounters &>(tr) = totalsOf(s);
        tr.bench = benchNames[s];
        tr.ipc = res.cycles
            ? static_cast<double>(committedOf(s)) /
                static_cast<double>(res.cycles)
            : 0.0;
        res.threads.push_back(std::move(tr));
    }

    if (nCores > 1) {
        // Fold each core's per-context commit-stream hashes into one
        // word per core: the chip's architectural ground truth, and
        // what the checked-in 2-core golden pins.
        for (int c = 0; c < nCores; ++c) {
            const PipelineStats &ps = cores[c].pipe->stats();
            std::uint64_t h = 0;
            for (int k = 0; k < nCtx; ++k)
                h = (h ^ ps.commitHash[k]) * 0x9e3779b97f4a7c15ull;
            res.coreCommitHashes.push_back(h);
        }
        res.migrations = nMigrations;
        res.allocEpochs = epoch;
        res.llcAccesses = llc->totalAccesses();
        res.llcMisses = llc->totalMisses();
        res.llcArbiter = llc->arbiter().name();
        res.llcShareReassignments = llc->shareReassignments();
        for (int c = 0; c < nCores; ++c) {
            LlcCoreStats cs;
            cs.accesses = llc->accesses(c);
            cs.misses = llc->misses(c);
            cs.mshrShare = llc->mshrShareOf(c);
            cs.ways = llc->wayCountOf(c);
            cs.linesOwned = llc->linesOwned(c);
            res.llcPerCore.push_back(cs);
        }
    }
    return res;
}

void
ChipSimulator::auditInvariants() const
{
    for (const Core &core : cores)
        core.pipe->auditInvariants();
    if (llc)
        llc->auditInvariants();

    // Chip-level placement bookkeeping: every thread sits on exactly
    // one (core, context), within capacity, and that context is
    // active on its pipeline; every unoccupied context is idle.
    std::vector<std::vector<int>> who(
        static_cast<std::size_t>(nCores),
        std::vector<int>(static_cast<std::size_t>(nCtx), -1));
    for (int s = 0; s < nThreads; ++s) {
        const int c = coreOf[s];
        const int k = ctxOf[s];
        SMT_ASSERT(c >= 0 && c < nCores && k >= 0 && k < nCtx,
                   "thread %d placed off-chip", s);
        SMT_ASSERT(who[c][k] < 0,
                   "threads %d and %d share core %d ctx %d",
                   who[c][k], s, c, k);
        who[c][k] = s;
        SMT_ASSERT(cores[c].pipe->contextActive(k),
                   "thread %d's context is idle", s);
        SMT_ASSERT(homes[s].core == c && homes[s].ctx == k,
                   "thread %d home out of sync", s);
    }
    for (int c = 0; c < nCores; ++c) {
        for (int k = 0; k < nCtx; ++k) {
            if (who[c][k] < 0) {
                SMT_ASSERT(!cores[c].pipe->contextActive(k),
                           "unowned context %d/%d is active", c, k);
            }
        }
    }
}

} // namespace smt
