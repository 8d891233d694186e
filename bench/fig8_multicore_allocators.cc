/**
 * @file
 * Experiment F8 (beyond the paper): thread-to-core allocation on a
 * multi-core SMT chip. The three allocators — static round-robin,
 * greedy IPC symbiosis, and the SYNPA-style metric-score balancer —
 * run over the paper's 4-thread workload cells on a 2-core x
 * 2-context chip, and over 8-thread combinations of those cells on
 * a 4-core x 2-context chip, all under DCRA inside each core. Both
 * grids execute as declarative sweeps on the runner subsystem;
 * setting SMT_BENCH_OUTPUT=prefix additionally writes the raw sweep
 * results as `prefix.2core.json` / `prefix.4core.json` (schema
 * smtsim-sweep-v1).
 *
 * Shape targets (what the binary prints at its default budget, 60k
 * commits after 10k of warmup): static round-robin placement wins.
 * It beats both reactive allocators on throughput and on Hmean in
 * 11 of the 12 (allocator x cell x chip) rows, and ties the 12th:
 * symbiosis on the 4-core ILP cell, which never migrates. On ILP
 * and MIX cells the reactive allocators lose 3-17% of throughput
 * (2-core MIX: round-robin 5.063, symbiosis 4.268, synpa 4.219); on
 * MEM cells, where they migrate most (15.5-19.5 moves per 2-core
 * job), they lose 13-22%. Every migration pays a squash plus a cold
 * private hierarchy, and with DCRA inside each core a bad pairing
 * costs less than the move that would fix it. A longer horizon does
 * not amortize the moves: at 4x the budget round-robin still wins
 * all 12 rows (ROADMAP.md).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "soc/allocator.hh"

namespace {

using namespace smt;
using namespace smtbench;

const std::vector<AllocatorKind> &
allocators()
{
    static const std::vector<AllocatorKind> a = {
        AllocatorKind::RoundRobin, AllocatorKind::Symbiosis,
        AllocatorKind::Synpa};
    return a;
}

/** Allocator axis for one chip size. */
std::vector<ConfigOverride>
allocatorConfigs(int cores)
{
    std::vector<ConfigOverride> configs;
    for (const AllocatorKind k : allocators()) {
        ConfigOverride o;
        o.label = "cores=" + std::to_string(cores) + ",alloc=" +
            allocatorKindName(k);
        o.numCores = cores;
        o.contextsPerCore = 2;
        o.allocator = k;
        // Reallocate every 2k cycles so even the --quick budgets see
        // several epochs (the default 20k-cycle epoch is tuned for
        // long runs and would never fire here).
        o.epochCycles = 2000;
        configs.push_back(std::move(o));
    }
    return configs;
}

/** All twelve 4-thread paper workloads (ILP4, MIX4, MEM4). */
std::vector<Workload>
fourThreadWorkloads()
{
    std::vector<Workload> out;
    for (const WorkloadType type :
         {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
        const std::vector<Workload> w = workloadsOf(4, type);
        out.insert(out.end(), w.begin(), w.end());
    }
    return out;
}

/** 8-thread workloads: pairs of 4-thread groups of one type. */
std::vector<Workload>
eightThreadWorkloads(WorkloadType type)
{
    const std::vector<Workload> base = workloadsOf(4, type);
    std::vector<Workload> out;
    for (std::size_t i = 0; i + 1 < base.size(); i += 2) {
        std::vector<std::string> benches = base[i].benches;
        benches.insert(benches.end(), base[i + 1].benches.begin(),
                       base[i + 1].benches.end());
        out.push_back(adHocWorkload(benches));
    }
    return out;
}

SweepResults
runGrid(const char *name, std::vector<Workload> workloads, int cores)
{
    SweepSpec spec;
    spec.name = name;
    spec.commits = commitBudget();
    spec.warmup = warmupBudget();
    spec.workloads = std::move(workloads);
    spec.policies = {PolicyKind::Dcra};
    spec.configs = allocatorConfigs(cores);
    SweepRunner runner(std::move(spec), benchJobs());
    return runner.run();
}

void
maybeDump(const SweepResults &res, const char *suffix)
{
    const char *prefix = std::getenv("SMT_BENCH_OUTPUT");
    if (!prefix)
        return;
    const std::string path = std::string(prefix) + suffix;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "fig8: cannot write '%s'\n",
                     path.c_str());
        return;
    }
    const std::string doc = JsonSink().render(res);
    std::fputs(doc.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
}

/** Average throughput/Hmean/migrations of one (type, allocator). */
struct AllocCell
{
    double throughput = 0.0;
    double hmean = 0.0;
    double migrations = 0.0;
};

AllocCell
average(const SweepResults &res, WorkloadType type,
        std::size_t configIdx)
{
    AllocCell avg;
    std::size_t n = 0;
    for (const JobResult &r : res.results) {
        if (r.job.configIdx != configIdx ||
            r.job.workload.type != type)
            continue;
        avg.throughput += r.summary.throughput;
        avg.hmean += r.summary.hmean;
        avg.migrations +=
            static_cast<double>(r.summary.raw.migrations);
        ++n;
    }
    if (n) {
        avg.throughput /= static_cast<double>(n);
        avg.hmean /= static_cast<double>(n);
        avg.migrations /= static_cast<double>(n);
    }
    return avg;
}

void
report(const char *title, const SweepResults &res)
{
    std::printf("%s\n", title);
    TextTable t;
    t.header({"cell", "allocator", "throughput", "hmean",
              "avg migrations"});
    for (const WorkloadType type :
         {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
        for (std::size_t a = 0; a < allocators().size(); ++a) {
            const AllocCell avg = average(res, type, a);
            t.row({std::string(workloadTypeName(type)),
                   allocatorKindName(allocators()[a]),
                   TextTable::fmt(avg.throughput, 3),
                   TextTable::fmt(avg.hmean, 3),
                   TextTable::fmt(avg.migrations, 1)});
        }
    }
    std::printf("%s\n", t.str().c_str());
}

} // anonymous namespace

int
main()
{
    banner("Figure 8",
           "thread-to-core allocators on 2- and 4-core chips");

    const SweepResults twoCore =
        runGrid("fig8-2core", fourThreadWorkloads(), 2);
    report("(a) 2 cores x 2 contexts, 4-thread cells (DCRA per "
           "core)", twoCore);
    maybeDump(twoCore, ".2core.json");

    std::vector<Workload> big;
    for (const WorkloadType type :
         {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
        const std::vector<Workload> w = eightThreadWorkloads(type);
        big.insert(big.end(), w.begin(), w.end());
    }
    const SweepResults fourCore =
        runGrid("fig8-4core", std::move(big), 4);
    report("(b) 4 cores x 2 contexts, 8-thread combinations (DCRA "
           "per core)", fourCore);
    maybeDump(fourCore, ".4core.json");

    return 0;
}
