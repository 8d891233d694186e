/**
 * @file
 * Experiment T5 -- paper Table 5: fraction of cycles 2-thread
 * workloads spend with both threads slow (SS), one slow (FS/SF) or
 * both fast (FF), per workload type. The phase test is DCRA's:
 * pending L1 data miss = slow.
 *
 * Shape targets: MEM pairs mostly SS, ILP pairs mostly FF, and MIX
 * pairs dominated by the mixed FS state (the case where DCRA's
 * borrowing pays off; paper: 63.2% for MIX).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

int
main()
{
    using namespace smt;
    using namespace smtbench;

    banner("Table 5", "distribution of threads in phases, 2-thread "
           "workloads");

    TextTable out;
    out.header({"type", "SLOW-SLOW", "FAST-SLOW/SLOW-FAST",
                "FAST-FAST", "paper(SS/FS/FF)"});

    const char *paperRows[] = {"7.8/41.4/50.8", "25.6/63.2/11.2",
                               "85.0/14.7/0.3"};
    double fsOf[3] = {};

    const WorkloadType types[] = {WorkloadType::ILP,
                                  WorkloadType::MIX,
                                  WorkloadType::MEM};
    for (int ti = 0; ti < 3; ++ti) {
        double frac[3] = {}; // [nSlow]
        for (const Workload &w : workloadsOf(2, types[ti])) {
            SimConfig cfg;
            ChipSimulator sim(cfg, w.benches, PolicyKind::Dcra);
            const SimResult r = sim.run(commitBudget(), 50'000'000,
                                        warmupBudget());
            for (int n = 0; n <= 2; ++n) {
                frac[n] += static_cast<double>(
                               r.slowPhaseCycles[n]) /
                    static_cast<double>(r.cycles);
            }
        }
        for (double &f : frac)
            f = 100.0 * f / 4.0; // average the four groups
        fsOf[ti] = frac[1];
        out.row({workloadTypeName(types[ti]),
                 TextTable::fmt(frac[2], 1),
                 TextTable::fmt(frac[1], 1),
                 TextTable::fmt(frac[0], 1), paperRows[ti]});
    }

    std::printf("%s\n", out.str().c_str());
    std::printf("MIX pairs spend the most time in mixed phases: "
                "%s (ILP %.1f%%, MIX %.1f%%, MEM %.1f%%)\n",
                (fsOf[1] > fsOf[0] && fsOf[1] > fsOf[2]) ? "yes"
                                                         : "NO",
                fsOf[0], fsOf[1], fsOf[2]);
    return 0;
}
