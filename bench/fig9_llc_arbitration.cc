/**
 * @file
 * Experiment F9 (beyond the paper): chip-level resource arbitration
 * of the shared LLC. The registered LLC arbiters — "static" (the
 * fixed per-core MSHR quota), "chip-dcra" (the paper's DCRA
 * algorithm applied to the LLC MSHR pool and bus slots, with cores
 * as the threads) and the two way-partitioners ("way-equal",
 * "way-util") — run over the paper's 4-thread workload cells on a
 * 2-core x 2-context chip, and over 8-thread combinations on a
 * 4-core x 2-context chip, all under DCRA inside each core. Both
 * grids execute as declarative sweeps on the runner subsystem;
 * setting SMT_BENCH_OUTPUT=prefix additionally writes the raw sweep
 * results as `prefix.2core.json` / `prefix.4core.json` (schema
 * smtsim-sweep-v1, including the per-core soc arbitration block).
 *
 * Shape targets (what the binary prints at its default budget, 60k
 * commits after 10k of warmup): no arbiter beats "static" by more
 * than 0.2% in any row. On ILP cells the LLC barely misses (2.6-2.8%)
 * and every arbiter prints static's numbers. On MIX cells all four
 * stay within 0.2% of static, although chip-dcra and way-util
 * reassign shares 11-22 times per job. On MEM cells they do not
 * converge: chip-dcra loses 7% of throughput and of Hmean on the
 * 4-core chip (4.059 / 0.694 against 4.360 / 0.749, after 74 share
 * reassignments per job), and the way-partitioners lose 0.6-0.8% on
 * both chips.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"

namespace {

using namespace smt;
using namespace smtbench;

const std::vector<std::string> &
arbiters()
{
    static const std::vector<std::string> a = {
        "static", "chip-dcra", "way-equal", "way-util"};
    return a;
}

/** Arbiter axis for one chip size. */
std::vector<ConfigOverride>
arbiterConfigs(int cores)
{
    std::vector<ConfigOverride> configs;
    for (const std::string &a : arbiters()) {
        ConfigOverride o;
        o.label = "cores=" + std::to_string(cores) + ",llcarb=" + a;
        o.numCores = cores;
        o.contextsPerCore = 2;
        o.llcArbiter = a;
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
    // Short LLC-arbitration epochs so even --quick budgets cross
    // several share-recompute boundaries (the 4000-cycle default is
    // tuned for long runs); thread placement stays fixed so the
    // comparison isolates LLC arbitration from migration effects.
    spec.base.soc.llc.arbEpoch = 1000;
    spec.base.soc.epochCycles = 0;
    spec.workloads = std::move(workloads);
    spec.policies = {PolicyKind::Dcra};
    spec.configs = arbiterConfigs(cores);
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
        std::fprintf(stderr, "fig9: cannot write '%s'\n",
                     path.c_str());
        return;
    }
    const std::string doc = JsonSink().render(res);
    std::fputs(doc.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
}

/** Averages of one (workload type, arbiter) cell. */
struct ArbCell
{
    double throughput = 0.0;
    double hmean = 0.0;
    double llcMissPct = 0.0;
    double reassignments = 0.0;
};

ArbCell
average(const SweepResults &res, WorkloadType type,
        std::size_t configIdx)
{
    ArbCell avg;
    std::size_t n = 0;
    for (const JobResult &r : res.results) {
        if (r.job.configIdx != configIdx ||
            r.job.workload.type != type)
            continue;
        const SimResult &raw = r.summary.raw;
        avg.throughput += r.summary.throughput;
        avg.hmean += r.summary.hmean;
        avg.llcMissPct += raw.llcAccesses
            ? 100.0 * static_cast<double>(raw.llcMisses) /
                static_cast<double>(raw.llcAccesses)
            : 0.0;
        avg.reassignments +=
            static_cast<double>(raw.llcShareReassignments);
        ++n;
    }
    if (n) {
        avg.throughput /= static_cast<double>(n);
        avg.hmean /= static_cast<double>(n);
        avg.llcMissPct /= static_cast<double>(n);
        avg.reassignments /= static_cast<double>(n);
    }
    return avg;
}

void
report(const char *title, const SweepResults &res)
{
    std::printf("%s\n", title);
    TextTable t;
    t.header({"cell", "llc arbiter", "throughput", "hmean",
              "llc miss%", "avg reassign"});
    for (const WorkloadType type :
         {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
        for (std::size_t a = 0; a < arbiters().size(); ++a) {
            const ArbCell avg = average(res, type, a);
            t.row({std::string(workloadTypeName(type)),
                   arbiters()[a], TextTable::fmt(avg.throughput, 3),
                   TextTable::fmt(avg.hmean, 3),
                   TextTable::fmt(avg.llcMissPct, 2),
                   TextTable::fmt(avg.reassignments, 1)});
        }
    }
    std::printf("%s\n", t.str().c_str());
}

} // anonymous namespace

int
main()
{
    banner("Figure 9",
           "LLC arbitration (static vs chip-DCRA vs way-partitioned)"
           " on 2- and 4-core chips");

    const SweepResults twoCore =
        runGrid("fig9-2core", fourThreadWorkloads(), 2);
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
        runGrid("fig9-4core", std::move(big), 4);
    report("(b) 4 cores x 2 contexts, 8-thread combinations (DCRA "
           "per core)", fourCore);
    maybeDump(fourCore, ".4core.json");

    return 0;
}
