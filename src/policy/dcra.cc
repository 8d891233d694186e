#include "policy/dcra.hh"

#include <algorithm>

#include "telemetry/telemetry.hh"

namespace smt {

DcraPolicy::DcraPolicy(const PolicyParams &pp) : params(pp) {}

void
DcraPolicy::onBind()
{
    // The sharing model as the paper's read-only table, one per
    // resource, so the cycle loop never runs the floating-point
    // formula. The tables are built from the formula and are
    // value-identical to it (asserted by the sharing-model tests).
    tables.clear();
    for (int r = 0; r < NumResourceTypes; ++r) {
        const auto rt = static_cast<ResourceType>(r);
        const int total = ctx.cfg->resourceTotal(rt);
        tables.emplace_back(isIqResource(rt) ? params.iqSharingMode
                                             : params.regSharingMode,
                            total, ctx.cfg->numThreads);
    }
}

bool
DcraPolicy::computeActive(ResourceType r, ThreadID t,
                          Cycle now) const
{
    if (!params.activityAllResources && !isFpResource(r))
        return true;
    // Equivalent to the paper's counter: reset to Y on allocation,
    // decremented every other cycle, inactive at zero.
    return now - ctx.tracker->lastAlloc(r, t) <=
        params.activityThreshold;
}

void
DcraPolicy::beginCycle(Cycle now)
{
    const int n = ctx.cfg->numThreads;

    for (int t = 0; t < n; ++t) {
        slow[t] = params.dcraSlowOnL2Only
            ? ctx.mem->pendingL2DLoads(t) > 0
            : ctx.mem->pendingL1DLoads(t) > 0;
        gatedMask[t] = false;
    }

    if (countFlips) {
        // Telemetry-armed runs count fast<->slow phase transitions;
        // the counters are read by the hub's sampler on the main
        // thread between cycles (this code runs inside the worker-
        // parallel region under --chip-jobs, so it may only touch
        // this policy's own state).
        for (int t = 0; t < n; ++t) {
            if (slow[t] != prevSlow[t]) {
                ++flips[t];
                prevSlow[t] = slow[t];
            }
        }
    }

    for (int r = 0; r < NumResourceTypes; ++r) {
        const auto rt = static_cast<ResourceType>(r);
        int fastActive = 0;
        int slowActive = 0;
        for (int t = 0; t < n; ++t) {
            active[r][t] = computeActive(rt, t, now);
            if (!active[r][t])
                continue;
            if (slow[t])
                ++slowActive;
            else
                ++fastActive;
        }

        limit[r] = tables[static_cast<std::size_t>(r)].slowLimit(
            fastActive, slowActive);

        for (int t = 0; t < n; ++t) {
            if (slow[t] && active[r][t] &&
                ctx.tracker->occupancy(rt, t) > limit[r])
                gatedMask[t] = true;
        }
    }
}

Cycle
DcraPolicy::quietThrough(Cycle now) const
{
    (void)now;
    Cycle last = neverCycle;
    for (int r = 0; r < NumResourceTypes; ++r) {
        const auto rt = static_cast<ResourceType>(r);
        if (!params.activityAllResources && !isFpResource(rt))
            continue; // always active
        for (int t = 0; t < ctx.cfg->numThreads; ++t) {
            if (active[r][t]) {
                last = std::min(last, ctx.tracker->lastAlloc(rt, t) +
                                          params.activityThreshold);
            }
        }
    }
    return last;
}

bool
DcraPolicy::fetchAllowed(ThreadID t, Cycle now)
{
    (void)now;
    return !gatedMask[t];
}

void
DcraPolicy::registerTelemetry(TelemetryHub &hub,
                              const std::string &prefix)
{
    countFlips = true;
    for (int t = 0; t < ctx.cfg->numThreads; ++t) {
        hub.counter(prefix + "t" + std::to_string(t) + ".slowFlips",
                    [this, t] { return flips[t]; });
    }
}

} // namespace smt
