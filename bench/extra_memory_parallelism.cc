/**
 * @file
 * Experiment X2 -- paper section 5.2 text: DCRA raises the memory
 * parallelism of memory-bound threads relative to FLUSH++ (paper:
 * +18% overlapping L2 misses on average; +22% ILP cells, +32% MIX,
 * +0.5% MEM; mcf alone +31%).
 *
 * Shape targets: DCRA's mean outstanding-miss count (over cycles
 * with at least one outstanding) exceeds FLUSH++'s on ILP/MIX cells
 * and is near parity on MEM cells.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;
using namespace smtbench;

double
cellMlp(PolicyKind k, int threads, WorkloadType ty)
{
    SimConfig cfg;
    double mlp = 0.0;
    const auto cell = workloadsOf(threads, ty);
    for (const Workload &w : cell) {
        ChipSimulator sim(cfg, w.benches, k);
        const SimResult r = sim.run(commitBudget() / 2, 50'000'000,
                                    warmupBudget() / 2);
        mlp += r.mlpBusyMean;
    }
    return mlp / static_cast<double>(cell.size());
}

} // anonymous namespace

int
main()
{
    banner("Extra: memory parallelism",
           "overlapping memory-level misses, DCRA vs FLUSH++");

    TextTable out;
    out.header({"cell", "FLUSH++ overlap", "DCRA overlap",
                "DCRA +%", "paper"});

    const struct { WorkloadType ty; const char *paper; } rows[] = {
        {WorkloadType::ILP, "+22%"},
        {WorkloadType::MIX, "+32%"},
        {WorkloadType::MEM, "+0.5%"},
    };

    double gains[3];
    for (int i = 0; i < 3; ++i) {
        double f = 0.0, d = 0.0;
        for (int threads : {2, 3, 4}) {
            f += cellMlp(PolicyKind::FlushPp, threads, rows[i].ty);
            d += cellMlp(PolicyKind::Dcra, threads, rows[i].ty);
        }
        gains[i] = 100.0 * (d - f) / f;
        out.row({workloadTypeName(rows[i].ty),
                 TextTable::fmt(f / 3.0, 2),
                 TextTable::fmt(d / 3.0, 2),
                 TextTable::fmt(gains[i], 1), rows[i].paper});
    }
    std::printf("%s\n", out.str().c_str());

    // mcf degenerate case (paper: +31% overlap, little IPC effect)
    SimConfig cfg;
    ChipSimulator f(cfg, {"mcf", "twolf", "vpr", "parser"},
                    PolicyKind::FlushPp);
    ChipSimulator d(cfg, {"mcf", "twolf", "vpr", "parser"},
                    PolicyKind::Dcra);
    const SimResult rf = f.run(commitBudget() / 2, 50'000'000,
                               warmupBudget() / 2);
    const SimResult rd = d.run(commitBudget() / 2, 50'000'000,
                               warmupBudget() / 2);
    std::printf("MEM4.g1 (mcf,twolf,vpr,parser): overlap FLUSH++ "
                "%.2f vs DCRA %.2f (paper: mcf overlap +31%%)\n",
                rf.mlpBusyMean, rd.mlpBusyMean);
    std::printf("DCRA raises overlap on ILP/MIX: %s\n",
                (gains[0] > 0 && gains[1] > 0) ? "yes" : "NO");
    return 0;
}
