/**
 * @file
 * Compare every implemented policy on one workload. Demonstrates the
 * sweep API: one SweepSpec (the workload x nine policies) runs on a
 * SweepRunner, single-thread baselines are computed once and shared
 * by every job, and each result reports both raw throughput and the
 * Hmean throughput/fairness balance.
 *
 * Usage: policy_comparison [bench1 bench2 ...]
 * Default workload: gzip + twolf (the paper's MIX2 group 1).
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "runner/runner.hh"

int
main(int argc, char **argv)
{
    using namespace smt;

    std::vector<std::string> benches;
    for (int i = 1; i < argc; ++i)
        benches.emplace_back(argv[i]);
    if (benches.empty())
        benches = {"gzip", "twolf"};

    SweepSpec spec; // paper Table 2 baseline, 60k commits
    spec.workloads = {adHocWorkload(benches)};
    spec.policies = {
        PolicyKind::RoundRobin, PolicyKind::Icount,
        PolicyKind::Stall, PolicyKind::Flush, PolicyKind::FlushPp,
        PolicyKind::DataGating, PolicyKind::Pdg, PolicyKind::Sra,
        PolicyKind::Dcra,
    };
    const SweepResults res = SweepRunner(std::move(spec)).run();

    std::printf("workload:");
    for (const auto &b : benches)
        std::printf(" %s", b.c_str());
    std::printf("\n\n%-12s %10s %8s  per-thread IPC\n", "policy",
                "throughput", "hmean");

    for (const JobResult &r : res.results) {
        const RunSummary &s = r.summary;
        std::printf("%-12s %10.3f %8.3f ", policyKindName(r.job.policy),
                    s.throughput, s.hmean);
        for (std::size_t i = 0; i < benches.size(); ++i)
            std::printf(" %s=%.3f", benches[i].c_str(),
                        s.multiIpc[i]);
        std::printf("\n");
    }

    const RunSummary &summary = res.results[0].summary;
    std::printf("\nsingle-thread baselines:");
    for (std::size_t i = 0; i < benches.size(); ++i)
        std::printf(" %s=%.3f", benches[i].c_str(),
                    summary.singleIpc[i]);
    std::printf("\n");
    return 0;
}
