#include "core/pipeline.hh"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "prof/host_profiler.hh"
#include "telemetry/telemetry.hh"

namespace smt {

Pipeline::Pipeline(const SmtConfig &cfg_, MemorySystem &mem_,
                   BranchPredictor &bpred_, Policy &policy_,
                   std::vector<ThreadProgram> programs)
    : cfg(cfg_),
      mem(mem_),
      bpred(bpred_),
      policy(policy_),
      pool(poolCapacity(cfg_)),
      regFiles(cfg.physRegsPerFile, cfg.numThreads),
      robBuf(cfg.robSize, cfg.numThreads),
      rtracker(cfg.numThreads),
      fuPool(cfg),
      wakeup(cfg.physRegsPerFile),
      wheel(wheelSize)
{
    cfg.validate();
    SMT_ASSERT(static_cast<int>(programs.size()) == cfg.numThreads,
               "got %zu programs for %d threads", programs.size(),
               cfg.numThreads);

    for (int q = 0; q < numQueueClasses; ++q) {
        iqs.emplace_back(cfg.iqSize[q]);
        readyLists[q].v.reserve(
            static_cast<std::size_t>(cfg.iqSize[q]));
    }
    fetchCands.reserve(static_cast<std::size_t>(cfg.numThreads));

    threads.resize(static_cast<std::size_t>(cfg.numThreads));
    for (int t = 0; t < cfg.numThreads; ++t) {
        ThreadState &ts = threads[t];
        ts.fetchQ.init(static_cast<std::size_t>(cfg.fetchQueueSize));
        ts.storeList.init(static_cast<std::size_t>(cfg.robSize));
        ts.storeSet.init(static_cast<std::size_t>(cfg.robSize));
        if (!programs[t].trace) {
            // Idle context: no software thread yet; the chip layer
            // may attachThread() one later.
            continue;
        }
        SMT_ASSERT(programs[t].profile, "thread %d has no profile", t);
        bindProgram(t, programs[t],
                    programs[t].addrBase != ~0ull
                        ? programs[t].addrBase
                        : static_cast<Addr>(t) * threadAddrStride);
    }

    policy.bind({&cfg, &rtracker, &mem});

    // Rename-stage fast-path flags: most policies never veto
    // allocation and most configurations set no per-thread caps, so
    // those per-dispatch checks are hoisted to one bool each.
    policyGatesAlloc = policy.gatesAllocation();
    policyEvents = policy.eventMask();
    anyResourceCap = false;
    for (int r = 0; r < NumResourceTypes; ++r)
        anyResourceCap = anyResourceCap || cfg.resourceCap[r] >= 0;
}

void
Pipeline::resetStats()
{
    PipelineStats fresh;
    for (int t = 0; t < cfg.numThreads; ++t) {
        fresh.commitMilestones[t] =
            std::move(pstats.commitMilestones[t]);
        fresh.commitHash[t] = pstats.commitHash[t];
    }
    pstats = std::move(fresh);
    statsStartCycle = cycle;
}

void
Pipeline::registerTelemetry(TelemetryHub &hub,
                            const std::string &prefix)
{
    for (int t = 0; t < cfg.numThreads; ++t) {
        const std::string p =
            prefix + "t" + std::to_string(t) + ".";
        hub.rate(p + "ipc", [this, t] {
            return pstats.committed[t];
        });
        hub.rate(p + "fetch", [this, t] {
            return pstats.fetched[t];
        });
        hub.rate(p + "issue", [this, t] {
            return pstats.issued[t];
        });
        hub.gauge(p + "rob", [this, t] {
            return static_cast<double>(robBuf.size(t));
        });
        hub.gauge(p + "iq", [this, t] {
            return static_cast<double>(
                rtracker.occupancy(ResIqInt, t) +
                rtracker.occupancy(ResIqFp, t) +
                rtracker.occupancy(ResIqLs, t));
        });
        hub.gauge(p + "regs", [this, t] {
            return static_cast<double>(
                rtracker.occupancy(ResRegInt, t) +
                rtracker.occupancy(ResRegFp, t));
        });
    }
    mem.registerTelemetry(hub, prefix);
    policy.registerTelemetry(hub, prefix);
}

void
Pipeline::auditInvariants() const
{
    // Per-thread occupancy of each issue queue must match the
    // tracker's counters, and every IQ resident must be live state.
    // Since the wakeup redesign each resident must additionally be
    // in exactly one place: on its queue's ready list with all
    // operands ready, or subscribed to one consumer list per
    // missing operand.
    int iqOcc[numQueueClasses][maxThreads] = {};
    int totalWaitLinks = 0;
    for (int q = 0; q < numQueueClasses; ++q) {
        int onReadyList = 0;
        for (std::size_t slot = 0; slot < iqs[q].entries().size();
             ++slot) {
            const InstHandle h = iqs[q].entries()[slot];
            const DynInst &d = pool[h];
            SMT_ASSERT(d.inIQ && !d.issued && !d.squashed,
                       "IQ resident in wrong state");
            SMT_ASSERT(static_cast<int>(queueClassOf(d.ti.op)) == q,
                       "instruction in wrong queue");
            SMT_ASSERT(d.iqSlot == slot, "iqSlot out of sync");
            const int links =
                (d.waitPrev[0] != invalidWaitLink ? 1 : 0) +
                (d.waitPrev[1] != invalidWaitLink ? 1 : 0);
            if (d.inReadyList) {
                SMT_ASSERT(d.pendingOps == 0 && links == 0,
                           "ready entry still subscribed");
                SMT_ASSERT(operandsReady(d),
                           "ready entry with missing operands");
                ++onReadyList;
            } else {
                SMT_ASSERT(d.pendingOps >= 1 && d.pendingOps <= 2,
                           "waiting entry with bad pendingOps");
                SMT_ASSERT(links == d.pendingOps,
                           "wait links disagree with pendingOps");
                SMT_ASSERT(!operandsReady(d),
                           "waiting entry though operands ready");
                totalWaitLinks += links;
            }
            ++iqOcc[q][d.tid];
        }

        // Ready list: a subset of this queue, strictly age-ordered.
        SMT_ASSERT(onReadyList ==
                   static_cast<int>(readyLists[q].size()),
                   "ready-list size mismatch q=%d", q);
        SMT_ASSERT(readyLists[q].head <= readyLists[q].v.size(),
                   "ready-list head out of range");
        std::uint64_t prevStamp = 0;
        for (std::size_t i = readyLists[q].head;
             i < readyLists[q].v.size(); ++i) {
            const ReadyEnt &ent = readyLists[q].v[i];
            const DynInst &d = pool[ent.h];
            SMT_ASSERT(d.inIQ && d.inReadyList,
                       "ready-list entry not an IQ resident");
            SMT_ASSERT(static_cast<int>(queueClassOf(d.ti.op)) == q,
                       "ready-list entry in wrong queue");
            SMT_ASSERT(ent.stamp == d.iqStamp,
                       "ready-list stamp out of sync");
            SMT_ASSERT(d.iqStamp > prevStamp,
                       "ready list out of age order");
            prevStamp = d.iqStamp;
        }
    }

    // Consumer lists: every wait node belongs to a live waiting IQ
    // entry, hangs on the register that entry actually reads, and
    // that register is still not ready. Node totals must match the
    // per-entry subscription counts (nothing leaked, nothing lost).
    int chainNodes = 0;
    for (int f = 0; f < 2; ++f) {
        for (PhysRegId r = 0; r < regFiles.physPerFile(); ++r) {
            for (WaitLink link = wakeup.headOf(f != 0, r);
                 link != invalidWaitLink;) {
                const InstHandle h = WakeupTable::linkInst(link);
                const int slot = WakeupTable::linkSlot(link);
                const DynInst &d = pool[h];
                SMT_ASSERT(d.inIQ && !d.inReadyList && !d.squashed,
                           "consumer-list node in wrong state");
                SMT_ASSERT(!regFiles.ready(r, f != 0),
                           "waiter on a ready register");
                const PhysRegId src = slot ? d.psrc2 : d.psrc1;
                SMT_ASSERT(src == r,
                           "consumer list hung on wrong register");
                ++chainNodes;
                link = d.waitNext[slot];
            }
        }
    }
    SMT_ASSERT(chainNodes == totalWaitLinks,
               "consumer-list nodes (%d) != subscriptions (%d)",
               chainNodes, totalWaitLinks);
    int regOcc[2][maxThreads] = {};
    int robPerThread[maxThreads] = {};
    int preIssue[maxThreads] = {};
    for (int t = 0; t < cfg.numThreads; ++t) {
        for (std::size_t i = 0; i < robBuf.list(t).size(); ++i) {
            const InstHandle h = robBuf.list(t).at(i);
            const DynInst &d = pool[h];
            SMT_ASSERT(d.tid == t, "ROB entry on wrong list");
            SMT_ASSERT(!d.squashed, "squashed entry still in ROB");
            ++robPerThread[t];
            if (d.pdst != invalidPhysReg)
                ++regOcc[d.dstFp() ? 1 : 0][t];
            if (d.inIQ)
                ++preIssue[t];
        }
        for (std::size_t i = 0; i < threads[t].fetchQ.size(); ++i) {
            SMT_ASSERT(pool[threads[t].fetchQ.at(i)].tid == t,
                       "fetchQ entry wrong tid");
            ++preIssue[t];
        }
    }

    int robTotal = 0;
    for (int t = 0; t < cfg.numThreads; ++t) {
        robTotal += robPerThread[t];
        SMT_ASSERT(robPerThread[t] == robBuf.size(t),
                   "ROB size mismatch for thread %d", t);
        SMT_ASSERT(preIssue[t] == rtracker.preIssue(t),
                   "pre-issue count mismatch for thread %d: "
                   "%d vs %d", t, preIssue[t], rtracker.preIssue(t));
        for (int q = 0; q < numQueueClasses; ++q) {
            SMT_ASSERT(iqOcc[q][t] ==
                       rtracker.occupancy(
                           iqResource(static_cast<QueueClass>(q)),
                           t),
                       "IQ occupancy mismatch q=%d t=%d", q, t);
        }
        SMT_ASSERT(regOcc[0][t] ==
                   rtracker.occupancy(ResRegInt, t),
                   "int reg occupancy mismatch t=%d", t);
        SMT_ASSERT(regOcc[1][t] == rtracker.occupancy(ResRegFp, t),
                   "fp reg occupancy mismatch t=%d", t);
    }
    SMT_ASSERT(robTotal == robBuf.size(), "ROB total mismatch");

    // Migration handoff invariants: an idle context (no software
    // thread attached) must hold no machine state at all, and a
    // draining context must be active. A detached thread that left
    // anything behind would corrupt the next occupant.
    for (int t = 0; t < cfg.numThreads; ++t) {
        const ThreadState &ts = threads[t];
        if (ts.trace) {
            continue;
        }
        SMT_ASSERT(!ts.draining, "idle context marked draining");
        SMT_ASSERT(robBuf.empty(t), "idle context owns ROB entries");
        SMT_ASSERT(ts.fetchQ.empty(), "idle context owns fetchQ");
        SMT_ASSERT(ts.storeList.empty(),
                   "idle context owns in-flight stores");
        SMT_ASSERT(!ts.wrongPathMode, "idle context on wrong path");
        SMT_ASSERT(rtracker.preIssue(t) == 0,
                   "idle context holds pre-issue slots");
        for (int q = 0; q < numQueueClasses; ++q) {
            SMT_ASSERT(rtracker.occupancy(
                           iqResource(static_cast<QueueClass>(q)),
                           t) == 0,
                       "idle context holds IQ entries");
        }
        SMT_ASSERT(rtracker.occupancy(ResRegInt, t) == 0 &&
                   rtracker.occupancy(ResRegFp, t) == 0,
                   "idle context holds rename registers");
    }

    // The busy bitmap nextCompletion() scans mirrors the wheel.
    for (std::size_t slot = 0; slot < wheelSize; ++slot) {
        SMT_ASSERT(((wheelBusy[slot / 64] >> (slot % 64)) & 1u) ==
                       (wheel[slot].empty() ? 0u : 1u),
                   "wheel busy bit %zu out of sync", slot);
    }

    // Register free-list accounting: free + architectural + renamed
    // in flight == file size for each class.
    const int archTotal = cfg.numThreads * numIntArchRegs;
    for (int f = 0; f < 2; ++f) {
        int held = 0;
        for (int t = 0; t < cfg.numThreads; ++t)
            held += regOcc[f][t];
        SMT_ASSERT(regFiles.freeCount(f != 0) ==
                   cfg.physRegsPerFile - archTotal - held,
                   "register free-list leak in %s file",
                   f ? "fp" : "int");
    }
}

void
Pipeline::tick()
{
    ++cycle;
    if (++rrThread >= cfg.numThreads)
        rrThread = 0;
    if (++rrQueue >= numQueueClasses)
        rrQueue = 0;
    pstats.cycles = cycle - statsStartCycle;

    // One stage sequence, profiled or not: on the sampled tick each
    // stage's ProfScope times it, on every other tick the scopes get
    // a null profiler and do nothing.
    HostProfiler *timer =
        hprof && cycle % hprofEvery == 0 ? hprof : nullptr;
    bool live = false;
    const auto stage = [&](int s, auto &&run) {
        ProfScope hps(timer, hsStage[s]);
        live |= run();
    };
    stage(HsMem, [this] { return mem.tick(cycle); });
    stage(HsPolicy, [this] {
        policy.beginCycle(cycle);
        return false; // its gates are bounded by quietThrough()
    });
    stage(HsCommit, [this] { return commitStage(); });
    stage(HsWriteback, [this] { return writebackStage(); });
    stage(HsIssue, [this] { return issueStage(); });
    stage(HsFlush, [this] { return processFlushRequests(); });
    stage(HsRename, [this] { return renameStage(); });
    stage(HsFetch, [this] { return fetchStage(); });
    lastTickDead = !live;
}

Cycle
Pipeline::nextCompletion() const
{
    // Buckets hold the cycles (cycle, cycle + wheelSize): scan the
    // busy bits cyclically from the next cycle's bucket. The start
    // word is visited twice, the second time in full, which only
    // adds its far-future bits below the start.
    const std::size_t start = (cycle + 1) % wheelSize;
    std::size_t w = start / 64;
    std::uint64_t bits = wheelBusy[w] & (~0ull << (start % 64));
    for (std::size_t k = 0; k <= wheelWords; ++k) {
        if (bits) {
            const std::size_t slot = w * 64 +
                static_cast<std::size_t>(__builtin_ctzll(bits));
            return cycle + 1 + (slot + wheelSize - start) % wheelSize;
        }
        w = (w + 1) % wheelWords;
        bits = wheelBusy[w];
    }
    return neverCycle;
}

Pipeline::Wakes
Pipeline::wakes() const
{
    // A dead tick retired no MSHR entry and emptied its own wheel
    // bucket, so both wakes lie ahead of the current cycle.
    const auto before = [](Cycle c) {
        return c == neverCycle ? neverCycle : c - 1;
    };
    Wakes w;
    w.mshrFill = before(mem.nextFill());
    w.completion = before(nextCompletion());
    for (const ThreadState &ts : threads) {
        if (ts.trace && !ts.draining && ts.fetchResumeCycle > cycle) {
            w.fetchResume =
                std::min(w.fetchResume, ts.fetchResumeCycle - 1);
        }
        if (!ts.fetchQ.empty()) {
            const Cycle renameAt = pool[ts.fetchQ.front()].fetchCycle +
                static_cast<Cycle>(cfg.frontEndLatency);
            if (renameAt > cycle)
                w.frontEnd = std::min(w.frontEnd, renameAt - 1);
        }
    }
    w.policy = policy.quietThrough(cycle);
    return w;
}

Cycle
Pipeline::idleThrough(Cycle cap) const
{
    if (!lastTickDead || cap <= cycle)
        return cycle;
    const Wakes w = wakes();
    const Cycle last =
        std::min({cap, w.mshrFill, w.completion, w.fetchResume,
                  w.frontEnd, w.policy});
    return std::max(last, cycle);
}

void
Pipeline::skipTo(Cycle to)
{
    SMT_ASSERT(to >= cycle && idleThrough(to) == to,
               "skip from cycle %llu to %llu passes a wake",
               static_cast<unsigned long long>(cycle),
               static_cast<unsigned long long>(to));
    if (to == cycle)
        return;
    const Cycle n = to - cycle;
    skippedTotal += n;
    policy.skipCycles(cycle, to);
    rrThread = static_cast<int>(
        (static_cast<Cycle>(rrThread) + n) %
        static_cast<Cycle>(cfg.numThreads));
    rrQueue = static_cast<int>((static_cast<Cycle>(rrQueue) + n) %
                               static_cast<Cycle>(numQueueClasses));
    cycle = to;
    pstats.cycles = cycle - statsStartCycle;
}

void
Pipeline::setHostProfiler(HostProfiler *prof,
                          const std::string &prefix)
{
    hprof = prof;
    if (!prof) {
        hprofEvery = 0;
        return;
    }
    hprofEvery = prof->sampleEvery();
    static const char *const names[HsStageCount] = {
        "stage.mem",    "stage.policy", "stage.commit",
        "stage.writeback", "stage.issue", "stage.flush",
        "stage.rename", "stage.fetch"};
    for (int i = 0; i < HsStageCount; ++i)
        hsStage[i] = prof->scope(prefix + names[i], /*sampled=*/true);
}

// ---------------------------------------------------------------
// commit
// ---------------------------------------------------------------

bool
Pipeline::commitStage()
{
    int width = cfg.commitWidth;
    for (int k = 0; k < cfg.numThreads && width > 0; ++k) {
        int rot = rrThread + k;
        if (rot >= cfg.numThreads)
            rot -= cfg.numThreads;
        const ThreadID t = static_cast<ThreadID>(rot);
        ThreadState &ts = threads[t];
        while (width > 0 && !robBuf.empty(t)) {
            const InstHandle h = robBuf.head(t);
            DynInst &d = pool[h];
            if (!d.done)
                break;
            SMT_ASSERT(!d.wrongPath, "wrong-path commit");
            SMT_ASSERT(!d.squashed, "squashed commit");

            if (isStore(d.ti.op)) {
                // The store drains to the data cache now; commit is
                // never blocked by it (fire and forget).
                mem.dataAccess(t, d.ti.effAddr, false, cycle);
                SMT_ASSERT(!ts.storeList.empty() &&
                           ts.storeList.front() == h,
                           "store list out of sync");
                ts.storeList.pop_front();
                storeChainUnlink(ts, h, /*oldest=*/true);
            }
            if (d.pdst != invalidPhysReg) {
                regFiles.release(d.prevMap, d.dstFp());
                rtracker.release(regResource(d.dstFp()), t);
            }
            pstats.commitHash[t] = (pstats.commitHash[t] ^
                                    (d.ti.pc +
                                     static_cast<Addr>(d.ti.op))) *
                0x9e3779b97f4a7c15ull;
            robBuf.popHead(t);
            pool.free(h);
            rtracker.commitInc(t);
            if (policyEvents & EvCommit)
                policy.onCommit(t);
            ++pstats.committed[t];
            if ((rtracker.committed(t) & 1023u) == 0)
                pstats.commitMilestones[t].push_back(
                    pstats.commitHash[t]);
            --width;
        }
    }
    return width != cfg.commitWidth;
}

// ---------------------------------------------------------------
// writeback
// ---------------------------------------------------------------

bool
Pipeline::writebackStage()
{
    const std::size_t slot = cycle % wheelSize;
    auto &bucket = wheel[slot];
    if (bucket.empty())
        return false;
    for (const InstHandle h : bucket) {
        DynInst &d = pool[h];
        if (d.squashed) {
            pool.free(h);
            continue;
        }
        d.done = true;
        if (d.pdst != invalidPhysReg) {
            regFiles.setReady(d.pdst, d.dstFp());
            // Event-driven wakeup: dependents whose last missing
            // operand this is move to their queue's ready list now,
            // so they can issue this very cycle — exactly when the
            // old full-queue poll would have seen them ready.
            wakeup.wake(pool, d.dstFp(), d.pdst,
                        [this](InstHandle c) { enqueueReady(c); });
        }
        if ((policyEvents & EvLoadComplete) && isLoad(d.ti.op))
            policy.onLoadComplete(d.tid, d.seq);

        if (isBranch(d.ti.op) && !d.wrongPath) {
            bpred.update(d.tid, d.ti, d.snap.history);
            if (d.mispredicted) {
                ThreadState &ts = threads[d.tid];
                SMT_ASSERT(ts.wrongPathMode &&
                           ts.wpTriggerSeq == d.seq,
                           "mispredict trigger out of sync");
                const SquashInfo info = squashAfter(d.tid, d.seq);
                SMT_ASSERT(!info.anyCorrectPath,
                           "mispredict squashed correct path");
                bpred.repair(d.tid, d.snap);
                bpred.reapply(d.tid, d.ti);
                ts.wrongPathMode = false;
                ts.fetchPc = d.ti.actualNextPc();
                // Redirect next cycle; a wrong-path I-miss must not
                // keep blocking the correct path (its fill continues
                // in the MSHRs regardless).
                ts.fetchResumeCycle = cycle + 1;
            }
        }
    }
    bucket.clear();
    wheelBusy[slot / 64] &= ~(1ull << (slot % 64));
    return true;
}

// ---------------------------------------------------------------
// issue
// ---------------------------------------------------------------

bool
Pipeline::operandsReady(const DynInst &d) const
{
    if (d.psrc1 != invalidPhysReg &&
        !regFiles.ready(d.psrc1, isFpReg(d.ti.src1)))
        return false;
    if (d.psrc2 != invalidPhysReg &&
        !regFiles.ready(d.psrc2, isFpReg(d.ti.src2)))
        return false;
    return true;
}

InstHandle
Pipeline::findForwardingStore(const DynInst &load) const
{
    // Only stores to the load's own dword can forward, so walk that
    // dword's in-flight chain instead of the whole store list:
    // youngest-first, skip stores younger than the load, return the
    // youngest completed one (an incomplete older store does not
    // block an even older completed one, matching the original
    // storeList scan).
    const ThreadState &ts = threads[load.tid];
    if (ts.storeList.empty())
        return invalidInst; // no in-flight store: skip the probe
    for (InstHandle s = ts.storeSet.youngest(load.ti.effAddr >> 3);
         s != invalidInst; s = pool[s].storePrev) {
        const DynInst &st = pool[s];
        if (st.seq >= load.seq)
            continue;
        if (st.done)
            return s;
    }
    return invalidInst;
}

void
Pipeline::pushWheel(InstHandle h, Cycle finish)
{
    SMT_ASSERT(finish > cycle, "completion not in the future");
    SMT_ASSERT(finish - cycle < wheelSize,
               "latency %llu exceeds completion wheel",
               static_cast<unsigned long long>(finish - cycle));
    const std::size_t slot = finish % wheelSize;
    wheel[slot].push_back(h);
    wheelBusy[slot / 64] |= 1ull << (slot % 64);
}

bool
Pipeline::issueStage()
{
    // Event-driven issue: walk only the ready list of each queue —
    // instructions whose operands all arrived — oldest dispatch
    // first. The list is maintained by rename (ready at dispatch)
    // and by the writeback wakeup, so no queue slot is polled and
    // operandsReady() is never re-evaluated here. Entries that stay
    // (FU exhausted, replayed load, out of budget) are compacted in
    // place, preserving age order for the next cycle.
    fuPool.reset();
    int budget = cfg.issueWidth;
    bool any = false;

    for (int qo = 0; qo < numQueueClasses && budget > 0; ++qo) {
        int q = rrQueue + qo;
        if (q >= numQueueClasses)
            q -= numQueueClasses;
        const QueueClass qc = static_cast<QueueClass>(q);
        ReadyList &rlist = readyLists[q];
        std::vector<ReadyEnt> &rl = rlist.v;
        const std::size_t n = rl.size();

        replayScratch.clear();
        std::size_t r = rlist.head;
        any = any || r < n;
        while (r < n && budget > 0) {
            const InstHandle h = rl[r].h;
            DynInst &d = pool[h];
            SMT_ASSERT(!d.squashed && d.inIQ && d.inReadyList,
                       "stale ready-list entry");
            if (!fuPool.tryUse(qc))
                break;

            Cycle finish = 0;
            if (isLoad(d.ti.op)) {
                const InstHandle st = findForwardingStore(d);
                if (st != invalidInst) {
                    finish = cycle + 1;
                    d.memLevel =
                        static_cast<std::uint8_t>(ServiceLevel::L1);
                    ++pstats.storeForwards[d.tid];
                } else {
                    const MemAccessResult res =
                        mem.dataAccess(d.tid, d.ti.effAddr, true,
                                       cycle);
                    if (!res.accepted) {
                        // Bank conflict or MSHRs full: the load
                        // stays on the ready list (same age slot)
                        // and replays next cycle; the port stays
                        // consumed.
                        replayScratch.push_back(rl[r]);
                        ++r;
                        continue;
                    }
                    d.memLevel = static_cast<std::uint8_t>(res.level);
                    finish = res.ready +
                        static_cast<Cycle>(cfg.loadExtraLatency);
                    if (policyEvents & EvDataAccess)
                        policy.onDataAccess(d.tid, d.seq, d.ti.pc,
                                            res.level, res.ready,
                                            d.wrongPath);
                }
            } else {
                finish = cycle + opLatency(d.ti.op, cfg);
            }

            ++pstats.issued[d.tid];
            d.issued = true;
            d.inIQ = false;
            d.inReadyList = false;
            pushWheel(h, finish);
            rtracker.release(iqResource(qc), d.tid);
            rtracker.preIssueDec(d.tid);
            iqRemove(q, h);
            ++r;
            --budget;
        }
        // The walk consumed an age-ordered prefix: advance head past
        // it, sliding only the replayed loads back in front of the
        // unwalked tail (their relative age order is unchanged).
        if (!replayScratch.empty()) {
            const std::size_t newHead = r - replayScratch.size();
            std::copy(replayScratch.begin(), replayScratch.end(),
                      rl.begin() +
                          static_cast<std::ptrdiff_t>(newHead));
            rlist.head = newHead;
        } else {
            rlist.head = r;
        }
        if (rlist.head == rl.size()) {
            rl.clear();
            rlist.head = 0;
        } else if (rlist.head >= 256) {
            // Bound the dead prefix so the vector never grows (or
            // reallocates) on account of consumed entries.
            rl.erase(rl.begin(),
                     rl.begin() +
                         static_cast<std::ptrdiff_t>(rlist.head));
            rlist.head = 0;
        }
    }
    return any;
}

int
Pipeline::readyCount(QueueClass qc) const
{
    return static_cast<int>(
        readyLists[static_cast<int>(qc)].size());
}

void
Pipeline::enqueueReady(InstHandle h)
{
    DynInst &d = pool[h];
    SMT_ASSERT(d.inIQ && !d.inReadyList && !d.issued && !d.squashed,
               "enqueueReady in wrong state");
    SMT_ASSERT(d.pendingOps == 0, "enqueueReady with pending ops");
    d.inReadyList = true;
    ReadyList &rlist =
        readyLists[static_cast<int>(queueClassOf(d.ti.op))];
    std::vector<ReadyEnt> &rl = rlist.v;
    // Dispatch-time insertions carry the newest stamp; wakeups may
    // land anywhere, so restore age order by stamp.
    if (rlist.empty() || rl.back().stamp < d.iqStamp) {
        rl.push_back({d.iqStamp, h});
        return;
    }
    const auto first =
        rl.begin() + static_cast<std::ptrdiff_t>(rlist.head);
    const auto it = std::upper_bound(
        first, rl.end(), d.iqStamp,
        [](std::uint64_t stamp, const ReadyEnt &x) {
            return stamp < x.stamp;
        });
    // Wakeups carry old stamps and land near the front: when there
    // is head slack, shifting the short prefix left costs fewer
    // moves than shifting the whole tail right.
    if (rlist.head > 0 && it - first <= rl.end() - it) {
        std::move(first, it, first - 1);
        --rlist.head;
        *(it - 1) = {d.iqStamp, h};
    } else {
        rl.insert(it, {d.iqStamp, h});
    }
}

void
Pipeline::readyListErase(int qi, InstHandle h)
{
    ReadyList &rlist = readyLists[qi];
    std::vector<ReadyEnt> &rl = rlist.v;
    const std::uint64_t stamp = pool[h].iqStamp;
    const auto first =
        rl.begin() + static_cast<std::ptrdiff_t>(rlist.head);
    const auto it = std::lower_bound(
        first, rl.end(), stamp,
        [](const ReadyEnt &x, std::uint64_t s) {
            return x.stamp < s;
        });
    SMT_ASSERT(it != rl.end() && it->h == h,
               "ready-list entry missing on erase");
    // Close the hole from whichever side is shorter.
    if (it - first < rl.end() - it) {
        std::move_backward(first, it, it + 1);
        ++rlist.head;
    } else {
        rl.erase(it);
    }
    pool[h].inReadyList = false;
}

void
Pipeline::iqRemove(int qi, InstHandle h)
{
    const std::uint32_t slot = pool[h].iqSlot;
    const InstHandle moved = iqs[qi].removeSlot(slot, h);
    if (moved != invalidInst)
        pool[moved].iqSlot = slot;
}

void
Pipeline::storeChainUnlink(ThreadState &ts, InstHandle h,
                           bool oldest)
{
    DynInst &d = pool[h];
    const Addr dword = d.ti.effAddr >> 3;
    if (oldest) {
        // Commit retires the oldest in-flight store: it is the chain
        // tail, so only a younger chain member (if any) references
        // it; otherwise it is also the youngest and owns the map
        // slot.
        SMT_ASSERT(d.storePrev == invalidInst,
                   "oldest store has an older chain member");
        if (d.storeNext != invalidInst) {
            pool[d.storeNext].storePrev = invalidInst;
            d.storeNext = invalidInst;
        } else {
            ts.storeSet.erase(dword, h);
        }
    } else {
        // Squash removes the youngest in-flight store: it owns the
        // map slot; hand it back to the next-older chain member.
        SMT_ASSERT(d.storeNext == invalidInst,
                   "youngest store has a younger chain member");
        if (d.storePrev != invalidInst) {
            pool[d.storePrev].storeNext = invalidInst;
            ts.storeSet.replaceYoungest(dword, h, d.storePrev);
            d.storePrev = invalidInst;
        } else {
            ts.storeSet.erase(dword, h);
        }
    }
}

// ---------------------------------------------------------------
// squash machinery
// ---------------------------------------------------------------

Pipeline::SquashInfo
Pipeline::squashAfter(ThreadID t, InstSeqNum seq)
{
    ThreadState &ts = threads[t];
    SquashInfo info;

    auto note = [&info](const DynInst &d) {
        if (!info.any || d.seq < info.oldestSeq) {
            info.oldestSeq = d.seq;
            info.oldestSnap = d.snap;
            info.oldestPc = d.ti.pc;
        }
        info.any = true;
        if (!d.wrongPath) {
            info.anyCorrectPath = true;
            info.oldestTraceIdx =
                std::min(info.oldestTraceIdx, d.traceIdx);
        }
    };

    // Store list first: its handles must still be live to compare.
    while (!ts.storeList.empty() &&
           pool[ts.storeList.back()].seq > seq) {
        storeChainUnlink(ts, ts.storeList.back(), /*oldest=*/false);
        ts.storeList.pop_back();
    }

    // Front-end buffer: strictly younger than anything renamed.
    for (std::size_t i = 0; i < ts.fetchQ.size(); ++i) {
        const InstHandle h = ts.fetchQ.at(i);
        DynInst &d = pool[h];
        SMT_ASSERT(d.seq > seq, "fetchQ older than squash point");
        note(d);
        if ((policyEvents & EvLoadSquashed) && isLoad(d.ti.op))
            policy.onLoadSquashed(t, d.seq);
        rtracker.preIssueDec(t);
        ++pstats.squashed[t];
        pool.free(h);
    }
    ts.fetchQ.clear();

    // ROB walk, youngest first, restoring rename state.
    while (!robBuf.empty(t) && pool[robBuf.tail(t)].seq > seq) {
        const InstHandle h = robBuf.tail(t);
        DynInst &d = pool[h];
        note(d);
        if (d.pdst != invalidPhysReg) {
            regFiles.setMapping(t, d.ti.dst, d.prevMap);
            regFiles.release(d.pdst, d.dstFp());
            rtracker.release(regResource(d.dstFp()), t);
        }
        if (d.inIQ) {
            const int qi = static_cast<int>(queueClassOf(d.ti.op));
            iqRemove(qi, h);
            // Unlink from the wakeup structures exactly: a waiting
            // entry sits on one consumer list per missing operand, a
            // ready entry sits on the ready list — never both.
            if (d.inReadyList)
                readyListErase(qi, h);
            else
                wakeup.unsubscribe(pool, h);
            rtracker.release(iqResource(queueClassOf(d.ti.op)), t);
            rtracker.preIssueDec(t);
            d.inIQ = false;
        }
        if ((policyEvents & EvLoadSquashed) && isLoad(d.ti.op))
            policy.onLoadSquashed(t, d.seq);
        d.squashed = true;
        robBuf.popTail(t);
        ++pstats.squashed[t];
        if (!(d.issued && !d.done))
            pool.free(h); // else: zombie, freed at wheel pop
    }

    if (ts.wrongPathMode && ts.wpTriggerSeq > seq)
        ts.wrongPathMode = false;

    return info;
}

bool
Pipeline::processFlushRequests()
{
    ThreadID t = invalidThread;
    InstSeqNum seq = 0;
    bool any = false;
    while (policy.takeFlushRequest(t, seq)) {
        any = true;
        SMT_ASSERT(t >= 0 && t < cfg.numThreads, "bad flush tid");
        ThreadState &ts = threads[t];
        const SquashInfo info = squashAfter(t, seq);
        ++pstats.flushes[t];
        if (info.any) {
            bpred.repair(t, info.oldestSnap);
            if (info.anyCorrectPath) {
                ts.trace->rewindTo(info.oldestTraceIdx);
                ts.fetchPc = ts.trace->peek().pc + ts.addrBase;
            } else {
                ts.fetchPc = info.oldestPc;
            }
        }
        ts.fetchResumeCycle = cycle + 1;
    }
    return any;
}

// ---------------------------------------------------------------
// rename / dispatch
// ---------------------------------------------------------------

bool
Pipeline::capBlocked(ThreadID t, ResourceType r) const
{
    const int cap = cfg.resourceCap[r];
    return cap >= 0 && rtracker.occupancy(r, t) >= cap;
}

bool
Pipeline::renameStage()
{
    int budget = cfg.renameWidth;
    for (int k = 0; k < cfg.numThreads && budget > 0; ++k) {
        int rot = rrThread + k;
        if (rot >= cfg.numThreads)
            rot -= cfg.numThreads;
        const ThreadID t = static_cast<ThreadID>(rot);
        ThreadState &ts = threads[t];
        while (budget > 0 && !ts.fetchQ.empty()) {
            const InstHandle h = ts.fetchQ.front();
            DynInst &d = pool[h];
            if (d.fetchCycle +
                    static_cast<Cycle>(cfg.frontEndLatency) > cycle)
                break;

            const QueueClass qc = queueClassOf(d.ti.op);
            const int qi = static_cast<int>(qc);
            const ResourceType iqr = iqResource(qc);
            const bool hasDst = d.ti.dst != invalidArchReg;
            const bool fp = hasDst && isFpReg(d.ti.dst);

            if (robBuf.full() || iqs[qi].full())
                break;
            if (hasDst && !regFiles.canAllocate(fp))
                break;
            if (anyResourceCap &&
                (capBlocked(t, iqr) ||
                 (hasDst && capBlocked(t, regResource(fp)))))
                break;
            if (policyGatesAlloc) {
                if (!policy.allocAllowed(t, iqr))
                    break;
                if (hasDst &&
                    !policy.allocAllowed(t, regResource(fp)))
                    break;
            }

            d.psrc1 = d.ti.src1 != invalidArchReg
                ? regFiles.mapping(t, d.ti.src1) : invalidPhysReg;
            d.psrc2 = d.ti.src2 != invalidArchReg
                ? regFiles.mapping(t, d.ti.src2) : invalidPhysReg;
            if (hasDst) {
                d.prevMap = regFiles.mapping(t, d.ti.dst);
                d.pdst = regFiles.allocate(fp);
                regFiles.setMapping(t, d.ti.dst, d.pdst);
                rtracker.allocate(regResource(fp), t, cycle);
            }

            d.iqSlot = iqs[qi].insert(h);
            d.iqStamp = ++iqStampCounter;
            d.inIQ = true;
            // Subscribe to each not-ready source; ready bits are
            // monotone while the entry lives in the queue (a source
            // can only be recycled after this instruction commits or
            // is squashed), so a dispatch-time snapshot plus wakeup
            // events reproduce the old per-cycle poll exactly.
            d.pendingOps = 0;
            if (d.psrc1 != invalidPhysReg &&
                !regFiles.ready(d.psrc1, isFpReg(d.ti.src1))) {
                wakeup.subscribe(pool, h, 0, isFpReg(d.ti.src1),
                                 d.psrc1);
                ++d.pendingOps;
            }
            if (d.psrc2 != invalidPhysReg &&
                !regFiles.ready(d.psrc2, isFpReg(d.ti.src2))) {
                wakeup.subscribe(pool, h, 1, isFpReg(d.ti.src2),
                                 d.psrc2);
                ++d.pendingOps;
            }
            if (d.pendingOps == 0)
                enqueueReady(h);
            rtracker.allocate(iqr, t, cycle);
            robBuf.push(t, h);
            if (isStore(d.ti.op)) {
                ts.storeList.push_back(h);
                const InstHandle older = ts.storeSet.pushYoungest(
                    d.ti.effAddr >> 3, h);
                d.storePrev = older;
                if (older != invalidInst)
                    pool[older].storeNext = h;
            }

            ts.fetchQ.pop_front();
            --budget;
        }
    }
    return budget != cfg.renameWidth;
}

// ---------------------------------------------------------------
// fetch
// ---------------------------------------------------------------

bool
Pipeline::fetchStage()
{
    // Reusable candidate buffer, ordered by insertion sort as the
    // candidates arrive: at most maxThreads (8) entries, and the
    // (prio, rr) key is a total order (rr is a per-cycle permutation
    // of the thread ids), so this selects exactly what the previous
    // per-cycle vector + std::sort selected without allocating.
    fetchCands.clear();

    for (ThreadID t = 0; t < cfg.numThreads; ++t) {
        ThreadState &ts = threads[t];
        if (!ts.trace || ts.draining)
            continue; // idle context, or draining for migration
        if (cycle < ts.fetchResumeCycle)
            continue;
        if (static_cast<int>(ts.fetchQ.size()) >= cfg.fetchQueueSize)
            continue;
        if (!policy.fetchAllowed(t, cycle))
            continue;
        int rr = static_cast<int>(t) + rrThread;
        if (rr >= cfg.numThreads)
            rr -= cfg.numThreads;
        const FetchCand c{policy.fetchPriority(t, cycle), rr, t};
        std::size_t pos = fetchCands.size();
        while (pos > 0 &&
               (c.prio < fetchCands[pos - 1].prio ||
                (c.prio == fetchCands[pos - 1].prio &&
                 c.rr < fetchCands[pos - 1].rr)))
            --pos;
        fetchCands.insert(
            fetchCands.begin() + static_cast<std::ptrdiff_t>(pos),
            c);
    }

    int budget = cfg.fetchWidth;
    const int nThreads =
        std::min<int>(cfg.fetchThreadsPerCycle,
                      static_cast<int>(fetchCands.size()));
    for (int i = 0; i < nThreads && budget > 0; ++i)
        fetchFrom(fetchCands[i].t, budget);
    // A candidate always probes the I-side (and may synthesize a
    // wrong-path instruction), which changes state.
    return !fetchCands.empty();
}

void
Pipeline::fetchFrom(ThreadID t, int &budget)
{
    ThreadState &ts = threads[t];
    Addr curLine = ~Addr(0);

    while (budget > 0 &&
           static_cast<int>(ts.fetchQ.size()) < cfg.fetchQueueSize) {
        const bool fromTrace = !ts.wrongPathMode;
        // The pool record is taken before the I-side probe and handed
        // back if the probe refuses the fetch (LIFO reuse, so the
        // pool ends as if it had never been taken). A wrong-path
        // instruction is synthesized straight into it up front,
        // because the salt is consumed even when the probe makes us
        // retry; a correct-path one is copied from the trace ring
        // only once the I-side accepts the line.
        const InstHandle h = pool.alloc();
        DynInst &d = pool[h];
        const TraceInst *src = nullptr;
        Addr pc;
        if (fromTrace) {
            src = &ts.trace->peek();
            pc = src->pc + ts.addrBase;
        } else {
            ts.wpSynth.inst(ts.fetchPc - ts.addrBase, ts.wpSalt++,
                            d.ti);
            d.ti.pc = ts.fetchPc;
            if (isMem(d.ti.op))
                d.ti.effAddr += ts.addrBase;
            if (isBranch(d.ti.op))
                d.ti.target += ts.addrBase;
            pc = ts.fetchPc;
        }

        const Addr line = mem.l1i().lineAddr(pc);
        if (line != curLine) {
            const FetchAccessResult fr = mem.instFetch(t, pc, cycle);
            if (!fr.accepted) {
                pool.free(h);
                break; // I-MSHRs full, retry next cycle
            }
            if (!fr.hit) {
                ts.fetchResumeCycle = std::max(fr.ready, cycle + 1);
                pool.free(h);
                break;
            }
            curLine = line;
        }

        std::uint64_t traceIdx = ~0ull;
        if (fromTrace) {
            d.ti = *src; // the ref from the peek above is still live
            traceIdx = ts.trace->nextIndex();
            d.ti.pc += ts.addrBase;
            if (isMem(d.ti.op))
                d.ti.effAddr += ts.addrBase;
            if (isBranch(d.ti.op))
                d.ti.target += ts.addrBase;
        }
        const TraceInst &ti = d.ti;
        d.seq = ++seqCounter;
        d.tid = t;
        d.fetchCycle = cycle;
        d.wrongPath = !fromTrace;
        d.traceIdx = traceIdx;
        d.snap = bpred.snapshot(t);

        bool stopFetch = false;
        if (isBranch(ti.op)) {
            const BranchPrediction p = bpred.predict(t, ti);
            d.snap = p.snap;
            d.predTaken = p.taken;
            if (fromTrace) {
                if (ti.isCond)
                    ++pstats.condBranches[t];
                const bool misp = (p.taken != ti.taken) ||
                    (p.taken && p.target != ti.target);
                d.mispredicted = misp;
                if (misp) {
                    ++pstats.mispredicts[t];
                    ts.wrongPathMode = true;
                    ts.wpTriggerSeq = d.seq;
                    ts.fetchPc = p.taken ? p.target : ti.nextPc();
                } else {
                    ts.fetchPc = ti.actualNextPc();
                }
            } else {
                ts.fetchPc = p.taken ? p.target : ti.nextPc();
            }
            stopFetch = p.taken;
        } else {
            ts.fetchPc = ti.nextPc();
        }

        if (fromTrace)
            ts.trace->consume();

        ts.fetchQ.push_back(h);
        rtracker.preIssueInc(t);
        ++pstats.fetched[t];
        if (d.wrongPath)
            ++pstats.fetchedWrongPath[t];
        if ((policyEvents & EvFetchLoad) && isLoad(ti.op))
            policy.onFetchLoad(t, d.seq, ti.pc);
        --budget;

        if (stopFetch)
            break;
    }
}

// ---------------------------------------------------------------
// thread migration (chip layer)
// ---------------------------------------------------------------

void
Pipeline::beginDrain(ThreadID t)
{
    SMT_ASSERT(t >= 0 && t < cfg.numThreads, "bad drain tid %d", t);
    SMT_ASSERT(contextActive(t), "draining an idle context");
    threads[t].draining = true;
    lastTickDead = false;
}

void
Pipeline::detachThread(ThreadID t)
{
    SMT_ASSERT(t >= 0 && t < cfg.numThreads, "bad detach tid %d", t);
    ThreadState &ts = threads[t];
    SMT_ASSERT(ts.trace && ts.draining,
               "detach of a context that is not draining");

    // Squash whatever the drain window did not retire (seq 0 is
    // older than any live instruction). This releases every queue
    // entry and register, emits the per-load policy events, and
    // restores the rename map to the architectural state.
    const SquashInfo info = squashAfter(t, 0);
    if (info.any)
        bpred.repair(t, info.oldestSnap);
    if (info.anyCorrectPath)
        ts.trace->rewindTo(info.oldestTraceIdx);
    SMT_ASSERT(robBuf.empty(t) && ts.fetchQ.empty() &&
               ts.storeList.empty(),
               "detach left in-flight state behind");

    ts.trace = nullptr;
    ts.prof = nullptr;
    ts.wrongPathMode = false;
    ts.draining = false;
    ts.fetchResumeCycle = 0;
    ts.fetchPc = 0;
    ts.addrBase = 0;
    lastTickDead = false;
}

void
Pipeline::bindProgram(ThreadID t, const ThreadProgram &prog,
                      Addr addrBase)
{
    // A squash rewinds the trace past every correct-path instruction
    // the context has consumed but not committed (at most a full ROB
    // plus a full fetch queue) and the one peek() generated ahead.
    const std::uint64_t depth =
        static_cast<std::uint64_t>(cfg.robSize) +
        static_cast<std::uint64_t>(cfg.fetchQueueSize) + 1;
    SMT_ASSERT(prog.trace->replayWindow() >= depth,
               "thread %d: trace replay window %llu is shorter than "
               "ROB %d + fetch queue %d + 1",
               t,
               static_cast<unsigned long long>(
                   prog.trace->replayWindow()),
               cfg.robSize, cfg.fetchQueueSize);
    ThreadState &ts = threads[t];
    ts.trace = prog.trace;
    ts.prof = prog.profile;
    ts.wpSynth.init(*ts.prof);
    ts.addrBase = addrBase;
    ts.fetchPc = ts.trace->peek().pc + ts.addrBase;
}

void
Pipeline::attachThread(ThreadID t, const ThreadProgram &prog)
{
    SMT_ASSERT(t >= 0 && t < cfg.numThreads, "bad attach tid %d", t);
    ThreadState &ts = threads[t];
    SMT_ASSERT(!ts.trace, "attach to an occupied context");
    SMT_ASSERT(prog.trace && prog.profile, "attach of an empty program");
    SMT_ASSERT(prog.addrBase != ~0ull,
               "attach needs the software thread's address base");
    SMT_ASSERT(robBuf.empty(t) && ts.fetchQ.empty(),
               "attach to a context with in-flight state");

    bindProgram(t, prog, prog.addrBase);
    ts.wrongPathMode = false;
    ts.draining = false;
    // Resume next cycle so an attach between two ticks never lets
    // the thread fetch "twice" in its handoff cycle.
    ts.fetchResumeCycle = cycle + 1;
    lastTickDead = false;
}

} // namespace smt
