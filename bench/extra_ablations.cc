/**
 * @file
 * Experiment X-ablate -- design-choice ablations DESIGN.md calls
 * out, all on the MIX2 and MIX3 cells (where DCRA's mechanisms are
 * most visible):
 *
 *  1. sharing-factor mode (paper section 5.3 explored 1/T, 1/(T+4),
 *     0 per latency);
 *  2. activity threshold Y (paper tried 64..8192, picked 256);
 *  3. phase classifier source: pending L1D misses (paper's choice)
 *     vs pending L2 misses only.
 *
 * Each variant is one MIX2+MIX3 x DCRA sweep. All of them share one
 * BaselineCache: the ICOUNT baselines read no policy parameter, so
 * each is simulated once for the whole binary.
 */

#include <cstdio>
#include <memory>
#include <utility>

#include "bench/bench_util.hh"

namespace {

using namespace smt;
using namespace smtbench;

/** DCRA's Hmean under @p pp, averaged over the MIX2 and MIX3
 *  cells. */
double
mixHmean(const PolicyParams &pp,
         std::shared_ptr<BaselineCache> baselines)
{
    SweepSpec spec;
    spec.name = "extra_ablations";
    spec.base.policy = pp;
    spec.commits = commitBudget();
    spec.warmup = warmupBudget();
    spec.workloads = workloadsOf(2, WorkloadType::MIX);
    for (const Workload &w : workloadsOf(3, WorkloadType::MIX))
        spec.workloads.push_back(w);
    spec.policies = {PolicyKind::Dcra};
    const SweepResults res = SweepRunner(std::move(spec), benchJobs(),
                                         std::move(baselines))
                                 .run();
    const double mix2 =
        cellAverage(res, 2, WorkloadType::MIX, PolicyKind::Dcra).hmean;
    const double mix3 =
        cellAverage(res, 3, WorkloadType::MIX, PolicyKind::Dcra).hmean;
    return (mix2 + mix3) / 2.0;
}

} // anonymous namespace

int
main()
{
    banner("Ablations", "DCRA design choices on MIX2+MIX3 cells");
    const auto baselines = std::make_shared<BaselineCache>();

    {
        std::printf("1) sharing factor mode (300-cycle memory)\n");
        TextTable t;
        t.header({"C", "avg MIX hmean"});
        for (const auto mode : {SharingFactorMode::OverActive,
                                SharingFactorMode::OverActivePlus4,
                                SharingFactorMode::Zero}) {
            PolicyParams pp;
            pp.iqSharingMode = mode;
            pp.regSharingMode = mode;
            t.row({sharingFactorModeName(mode),
                   TextTable::fmt(mixHmean(pp, baselines), 3)});
        }
        std::printf("%s(paper picks 1/(FA+SA+4) at 300 cycles)\n\n",
                    t.str().c_str());
    }

    {
        std::printf("2) activity threshold Y\n");
        TextTable t;
        t.header({"Y", "avg MIX hmean"});
        for (const Cycle y : {64u, 256u, 1024u, 8192u}) {
            PolicyParams pp;
            pp.activityThreshold = y;
            t.row({std::to_string(y),
                   TextTable::fmt(mixHmean(pp, baselines), 3)});
        }
        std::printf("%s(paper picks 256)\n\n", t.str().c_str());
    }

    {
        std::printf("3) phase classifier source\n");
        TextTable t;
        t.header({"slow when", "avg MIX hmean"});
        PolicyParams l1;
        t.row({"pending L1D miss (paper)",
               TextTable::fmt(mixHmean(l1, baselines), 3)});
        PolicyParams l2;
        l2.dcraSlowOnL2Only = true;
        t.row({"pending L2 miss only",
               TextTable::fmt(mixHmean(l2, baselines), 3)});
        std::printf("%s\n", t.str().c_str());
    }
    return 0;
}
