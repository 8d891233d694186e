/**
 * @file
 * Quickstart: build a 2-context SMT core running a MIX workload
 * (gzip + mcf) under DCRA, simulate 50k committed instructions, and
 * print the headline numbers. This is the smallest end-to-end use of
 * the public API:
 *
 *   SimConfig -> ChipSimulator -> run() -> SimResult.
 *
 * The default SimConfig has one core: the paper's machine.
 */

#include <cstdio>

#include "sim/metrics.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

int
main()
{
    using namespace smt;

    SimConfig cfg;            // paper Table 2 baseline
    cfg.seed = 42;

    // A classic MIX pair: one high-ILP thread, one memory-bounded.
    const std::vector<std::string> workload = {"gzip", "mcf"};

    ChipSimulator sim(cfg, workload, PolicyKind::Dcra);
    const SimResult res = sim.run(/*commitLimit=*/50'000);

    std::printf("DCRA on {gzip, mcf} for %llu cycles\n",
                static_cast<unsigned long long>(res.cycles));
    std::printf("%-8s %10s %8s %12s %12s\n", "thread", "commits",
                "IPC", "L1D miss%", "L2 miss%");
    for (const ThreadResult &t : res.threads) {
        const double l1pct = t.l1dAccesses
            ? 100.0 * static_cast<double>(t.l1dMisses) /
                static_cast<double>(t.l1dAccesses)
            : 0.0;
        std::printf("%-8s %10llu %8.3f %11.2f%% %11.2f%%\n",
                    t.bench.c_str(),
                    static_cast<unsigned long long>(t.committed),
                    t.ipc, l1pct, t.l2MissRatePct());
    }
    std::printf("throughput (sum IPC): %.3f\n", res.throughput());
    std::printf("avg outstanding L2 misses when busy: %.2f\n",
                res.mlpBusyMean);
    return 0;
}
