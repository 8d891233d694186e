/**
 * @file
 * Implementing your own resource allocation policy against the
 * library's Policy interface.
 *
 * The example policy, "BRT" (budgeted resource throttling), is a
 * simple illustration: every thread is statically entitled to
 * 1.5x its equal share of each resource, enforced as a fetch gate
 * (DCRA-style response action, SRA-style static input information).
 * The machine takes a policy maker, called once per core, so a user
 * policy slots into a ChipSimulator exactly like the built-in ones.
 * It is compared against SRA and DCRA on a MIX workload.
 */

#include <cstdio>
#include <memory>

#include "policy/policy.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;

/** Fetch-gate each thread at 1.5x its equal share. */
class BudgetedThrottlePolicy : public Policy
{
  public:
    const char *name() const override { return "BRT"; }

    bool
    fetchAllowed(ThreadID t, Cycle now) override
    {
        (void)now;
        for (int r = 0; r < NumResourceTypes; ++r) {
            const auto rt = static_cast<ResourceType>(r);
            const int budget = 3 * ctx.cfg->resourceTotal(rt) /
                (2 * ctx.cfg->numThreads);
            if (ctx.tracker->occupancy(rt, t) > budget)
                return false;
        }
        return true;
    }
};

double
runWith(const ChipSimulator::PolicyMaker &makeOne, const char *label)
{
    SimConfig cfg;
    ChipSimulator sim(cfg, {"gzip", "twolf", "bzip2", "mcf"}, makeOne);
    const SimResult r = sim.run(50'000, 50'000'000, 10'000);
    std::printf("%-6s throughput=%.3f ", label, r.throughput());
    for (const ThreadResult &t : r.threads)
        std::printf(" %s=%.3f", t.bench.c_str(), t.ipc);
    std::printf("\n");
    return r.throughput();
}

} // anonymous namespace

int
main()
{
    std::printf("custom policy vs built-ins on MIX4.g1 "
                "(gzip twolf bzip2 mcf)\n\n");
    runWith([] { return std::make_unique<BudgetedThrottlePolicy>(); },
            "BRT");
    const PolicyParams pp;
    runWith([&] { return makePolicy(PolicyKind::Sra, pp); }, "SRA");
    runWith([&] { return makePolicy(PolicyKind::Dcra, pp); }, "DCRA");
    std::printf("\nsee src/policy/dcra.cc for the full-featured "
                "version of this pattern\n");
    return 0;
}
