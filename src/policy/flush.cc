#include "policy/flush.hh"

#include <algorithm>

namespace smt {

void
FlushPolicy::beginCycle(Cycle now)
{
    for (int t = 0; t < ctx.cfg->numThreads; ++t) {
        if (flushing[t] && now >= stallUntil[t])
            flushing[t] = false;
    }
}

Cycle
FlushPolicy::quietThrough(Cycle now) const
{
    Cycle last = neverCycle;
    for (int t = 0; t < ctx.cfg->numThreads; ++t) {
        if (flushing[t])
            last = std::min(last, std::max(stallUntil[t], now + 1) - 1);
    }
    return last;
}

bool
FlushPolicy::fetchAllowed(ThreadID t, Cycle now)
{
    if (flushing[t] && now < stallUntil[t])
        return false;
    if (!flushModeActive()) {
        // STALL behaviour: gate at the outstanding-miss threshold.
        return ctx.mem->pendingL2DLoads(t) < threshold;
    }
    return true;
}

void
FlushPolicy::onDataAccess(ThreadID t, InstSeqNum seq, Addr pc,
                          ServiceLevel level, Cycle ready,
                          bool wrongPath)
{
    (void)pc;
    (void)wrongPath;
    if (level != ServiceLevel::Memory)
        return;
    if (!flushModeActive())
        return; // STALL mode handles this via fetchAllowed()
    if (flushing[t]) {
        // An older load missed while the thread is already flushed:
        // extend the stall, no second squash.
        if (ready > stallUntil[t])
            stallUntil[t] = ready;
        return;
    }
    // Act at the configured outstanding-miss count (the triggering
    // load itself is already registered, so >= threshold means this
    // is at least the threshold-th concurrent miss).
    if (ctx.mem->pendingL2DLoads(t) < threshold)
        return;
    flushing[t] = true;
    stallUntil[t] = ready;
    requests.push_back({t, seq});
    ++nFlushes;
}

bool
FlushPolicy::takeFlushRequest(ThreadID &t, InstSeqNum &seq)
{
    if (requests.empty())
        return false;
    t = requests.front().tid;
    seq = requests.front().seq;
    requests.pop_front();
    return true;
}

} // namespace smt
