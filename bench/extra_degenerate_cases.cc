/**
 * @file
 * Experiment X-deg -- the paper's stated future work (section 5.2):
 * detecting degenerate cases like mcf, where borrowing more
 * resources raises a thread's overlapping misses but barely moves
 * overall performance while taxing the other threads. DCRA-DEG
 * denies borrowing to threads that stay slow without progressing.
 *
 * One sweep (36 workloads x 2 policies) on the runner.
 *
 * Shape target: DCRA-DEG recovers some throughput/fairness on the
 * MEM cells containing mcf (where the paper loses to FLUSH++) while
 * staying within noise of DCRA elsewhere.
 */

#include <cstdio>
#include <utility>

#include "bench/bench_util.hh"
#include "sim/metrics.hh"

int
main()
{
    using namespace smt;
    using namespace smtbench;

    banner("Extra: degenerate cases",
           "DCRA vs DCRA-DEG (paper section 5.2 future work)");

    SweepSpec spec;
    spec.name = "extra_degenerate_cases";
    spec.commits = commitBudget();
    spec.warmup = warmupBudget();
    spec.workloads = allWorkloads();
    spec.policies = {PolicyKind::Dcra, PolicyKind::DcraDeg};
    const SweepResults results =
        SweepRunner(std::move(spec), benchJobs()).run();

    TextTable out;
    out.header({"cell", "DCRA thr", "DEG thr", "thr +%",
                "DCRA hmean", "DEG hmean", "hmean +%"});

    int nCells = 0;
    const Cell *cells = allCells(nCells);
    double memGain = 0.0;
    int memCells = 0;
    for (int i = 0; i < nCells; ++i) {
        const CellAverage dcra =
            cellAverage(results, cells[i].threads, cells[i].type,
                        PolicyKind::Dcra);
        const CellAverage deg =
            cellAverage(results, cells[i].threads, cells[i].type,
                        PolicyKind::DcraDeg);
        const double tg =
            improvementPct(deg.throughput, dcra.throughput);
        const double hg = improvementPct(deg.hmean, dcra.hmean);
        if (cells[i].type == WorkloadType::MEM) {
            memGain += hg;
            ++memCells;
        }
        out.row({cellName(cells[i]),
                 TextTable::fmt(dcra.throughput, 3),
                 TextTable::fmt(deg.throughput, 3),
                 TextTable::fmt(tg, 1), TextTable::fmt(dcra.hmean, 3),
                 TextTable::fmt(deg.hmean, 3),
                 TextTable::fmt(hg, 1)});
    }
    std::printf("%s\n", out.str().c_str());
    std::printf("average Hmean change on MEM cells (where mcf-style "
                "degenerate threads live): %+.1f%%\n",
                memGain / memCells);
    return 0;
}
