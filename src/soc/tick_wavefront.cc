#include "soc/tick_wavefront.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "prof/host_profiler.hh"

namespace smt {

Cycle
quantumLength(const QuantumBounds &b)
{
    if (b.draining || b.telemetry)
        return 1;
    // No thread commits more than commitWidth per cycle (the width
    // is per core), so none reaches the limit before this many
    // cycles, and the quantum ends on the first one that could.
    Cycle k = 1;
    if (b.commitLimit > b.maxCommitted) {
        const std::uint64_t left = b.commitLimit - b.maxCommitted;
        const std::uint64_t w =
            static_cast<std::uint64_t>(std::max(b.commitWidth, 1));
        k = left / w + (left % w != 0 ? 1 : 0);
    }
    k = std::min(k, quantumRing);
    if (b.maxCycles > b.now)
        k = std::min(k, b.maxCycles - b.now);
    if (b.epochAt > 0)
        k = std::min(k, b.epochAt > b.now ? b.epochAt - b.now : 1);
    if (b.auditPeriod > 0)
        k = std::min(k, b.auditPeriod - b.now % b.auditPeriod);
    return std::max<Cycle>(k, 1);
}

TickWavefront::TickWavefront(int numCores, Cycle start)
    : nCores(numCores), cs(static_cast<std::size_t>(numCores)),
      go(start)
{
    SMT_ASSERT(numCores >= 1, "wavefront over %d cores", numCores);
    for (CoreSync &c : cs)
        c.done.store(start, std::memory_order_relaxed);
}

void
TickWavefront::backoff(unsigned &spins)
{
    // A simulated core tick is short, so the awaited flag usually
    // flips within the spin budget when the peer runs on its own
    // CPU; past that the peer is likely descheduled (or the host is
    // oversubscribed) and yielding is the only way to let it run.
    if (++spins < 64) {
#if defined(__x86_64__)
        __builtin_ia32_pause();
#endif
    } else {
        std::this_thread::yield();
    }
}

void
TickWavefront::beginQuantum(Cycle end)
{
    // The release pairs with awaitQuantum's acquire: everything the
    // main thread did between quanta (migrations, stat resets,
    // epoch bookkeeping, reading the record rings) happens-before
    // any worker touches its cores again.
    go.store(end, std::memory_order_release);
}

Cycle
TickWavefront::awaitQuantum(Cycle last) const
{
    unsigned spins = 0;
    Cycle end;
    while ((end = go.load(std::memory_order_acquire)) == last)
        backoff(spins);
    return end;
}

void
TickWavefront::coreDone(int core, Cycle t)
{
    // The release pairs with the acquires in enter() and awaitAll():
    // every effect of this core's tick — pipeline state, its LLC
    // accesses and its cycle record — is visible to whoever observes
    // the completion.
    cs[static_cast<std::size_t>(core)].done.store(
        t, std::memory_order_release);
}

void
TickWavefront::awaitAll(Cycle t) const
{
    for (int c = 0; c < nCores; ++c) {
        unsigned spins = 0;
        while (cs[static_cast<std::size_t>(c)].done.load(
                   std::memory_order_acquire) < t)
            backoff(spins);
    }
}

void
TickWavefront::requestStop()
{
    go.store(stopCycle, std::memory_order_release);
}

void
TickWavefront::setHostProfiler(HostProfiler *prof)
{
    hprof = prof;
    stats.clear();
    gateScope.clear();
    if (!prof)
        return;
    stats.resize(static_cast<std::size_t>(nCores));
    for (int k = 0; k < nCores; ++k) {
        stats[static_cast<std::size_t>(k)].awaited.assign(
            static_cast<std::size_t>(nCores), 0);
        gateScope.push_back(
            prof->scope("wave.c" + std::to_string(k) + ".gate"));
    }
}

void
TickWavefront::enter(int core)
{
    // Only this core's worker writes its completion counter, so the
    // cycle being ticked is one past it, read without ordering.
    CoreSync &me = cs[static_cast<std::size_t>(core)];
    const Cycle t = me.done.load(std::memory_order_relaxed) + 1;
    if (me.granted == t)
        return;

    // Tally the wait in locals and store once at the end, so this
    // core's stats line is not written mid-wait; the clock is read
    // only when a profiler is attached.
    std::uint64_t t0 = 0;
    std::uint64_t spinAcc = 0, yieldAcc = 0;
    bool escalated = false;
    int firstAwaited = -1;
    for (int k = 0; k < nCores; ++k) {
        if (k == core)
            continue;
        const Cycle need = needFrom(k, core, t);
        unsigned spins = 0;
        while (cs[static_cast<std::size_t>(k)].done.load(
                   std::memory_order_acquire) < need) {
            if (firstAwaited < 0) {
                firstAwaited = k;
                if (hprof)
                    t0 = hprof->nowNs();
            }
            backoff(spins);
        }
        spinAcc += spins;
        if (spins >= 64) {
            yieldAcc += spins - 63;
            escalated = true;
        }
    }
    me.granted = t;
    if (!hprof || firstAwaited < 0)
        return;
    const std::uint64_t t1 = hprof->nowNs();
    WaveStats &ws = stats[static_cast<std::size_t>(core)];
    ws.gateWaits += 1;
    ws.spinIters += spinAcc - yieldAcc;
    ws.yieldIters += yieldAcc;
    ws.yieldTransitions += escalated ? 1 : 0;
    ws.waitNs += t1 - t0;
    ws.awaited[static_cast<std::size_t>(firstAwaited)] += 1;
    hprof->add(gateScope[static_cast<std::size_t>(core)], t0, t1);
}

} // namespace smt
