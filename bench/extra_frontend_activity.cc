/**
 * @file
 * Experiment X1 -- paper section 5.2 text: FLUSH++'s squash-and-
 * refetch costs front-end work. The paper measures 108% more fetched
 * instructions than DCRA at 300 cycles of memory latency and 118%
 * more at 500.
 *
 * Shape targets: FLUSH++ fetches substantially more instructions per
 * committed instruction than DCRA on memory-bound workloads, and the
 * gap widens with memory latency.
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;
using namespace smtbench;

/** Fetched instructions per committed instruction, MEM cells. */
double
fetchPerCommit(PolicyKind k, Cycle memLat, Cycle l2Lat)
{
    SimConfig cfg;
    cfg.mem.memLatency = memLat;
    cfg.mem.l2Latency = l2Lat;
    double fetched = 0.0, committed = 0.0;
    for (int threads : {2, 4}) {
        for (const Workload &w :
             workloadsOf(threads, WorkloadType::MEM)) {
            ChipSimulator sim(cfg, w.benches, k);
            const SimResult r = sim.run(commitBudget() / 2,
                                        50'000'000,
                                        warmupBudget() / 2);
            fetched += static_cast<double>(r.totalFetched());
            for (const auto &t : r.threads)
                committed += static_cast<double>(t.committed);
        }
    }
    return fetched / committed;
}

} // anonymous namespace

int
main()
{
    banner("Extra: front-end activity",
           "fetched instructions per commit, FLUSH++ vs DCRA "
           "(MEM cells)");

    TextTable out;
    out.header({"mem latency", "FLUSH++ fetch/commit",
                "DCRA fetch/commit", "FLUSH++ extra %",
                "paper extra %"});

    double extra[2];
    const struct { Cycle mem, l2; const char *paper; } pts[] = {
        {300, 20, "108"},
        {500, 25, "118"},
    };
    for (int i = 0; i < 2; ++i) {
        const double f =
            fetchPerCommit(PolicyKind::FlushPp, pts[i].mem,
                           pts[i].l2);
        const double d =
            fetchPerCommit(PolicyKind::Dcra, pts[i].mem, pts[i].l2);
        extra[i] = 100.0 * (f - d) / d;
        out.row({std::to_string(pts[i].mem), TextTable::fmt(f, 2),
                 TextTable::fmt(d, 2), TextTable::fmt(extra[i], 1),
                 pts[i].paper});
    }

    std::printf("%s\n", out.str().c_str());
    std::printf("FLUSH++ fetches more than DCRA: %s; "
                "gap widens with latency: %s\n",
                extra[0] > 0 ? "yes" : "NO",
                extra[1] > extra[0] - 5.0 ? "yes" : "NO");
    return 0;
}
