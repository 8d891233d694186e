#include "runner/sweep_spec.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "trace/bench_profile.hh"

namespace smt {

SimConfig
ConfigOverride::apply(SimConfig cfg) const
{
    if (memLatency)
        cfg.mem.memLatency = *memLatency;
    if (l2Latency)
        cfg.mem.l2Latency = *l2Latency;
    if (physRegsPerFile)
        cfg.core.physRegsPerFile = *physRegsPerFile;
    if (iqSize) {
        for (int q = 0; q < numQueueClasses; ++q)
            cfg.core.iqSize[q] = *iqSize;
    }
    if (iqSharingMode)
        cfg.policy.iqSharingMode = *iqSharingMode;
    if (regSharingMode)
        cfg.policy.regSharingMode = *regSharingMode;
    if (numCores)
        cfg.soc.numCores = *numCores;
    if (contextsPerCore)
        cfg.soc.contextsPerCore = *contextsPerCore;
    if (allocator)
        cfg.soc.allocator = *allocator;
    if (epochCycles)
        cfg.soc.epochCycles = *epochCycles;
    if (llcArbiter)
        cfg.soc.llcArbiter = *llcArbiter;
    if (llcWays)
        cfg.soc.llcWays = *llcWays;
    for (const ResourceCapFrac &cap : caps) {
        if (cap.frac < 1.0) {
            const int total = cfg.core.resourceTotal(cap.res);
            cfg.core.resourceCap[cap.res] = std::max(
                1, static_cast<int>(static_cast<double>(total) *
                                    cap.frac));
        }
    }
    return cfg;
}

std::size_t
SweepSpec::jobCount() const
{
    const std::size_t nConfigs = configs.empty() ? 1 : configs.size();
    return nConfigs * policies.size() * workloads.size();
}

std::vector<SweepJob>
expandSweep(const SweepSpec &spec)
{
    if (spec.workloads.empty())
        fatal("sweep '%s' has no workloads", spec.name.c_str());
    if (spec.policies.empty())
        fatal("sweep '%s' has no policies", spec.name.c_str());

    // A missing config axis means one identity override.
    static const ConfigOverride identity;
    const ConfigOverride *configs = spec.configs.empty()
        ? &identity
        : spec.configs.data();
    const std::size_t nConfigs =
        spec.configs.empty() ? 1 : spec.configs.size();

    std::vector<SweepJob> jobs;
    jobs.reserve(nConfigs * spec.policies.size() *
                 spec.workloads.size());
    for (std::size_t c = 0; c < nConfigs; ++c) {
        const SimConfig resolved = configs[c].apply(spec.base);
        for (std::size_t p = 0; p < spec.policies.size(); ++p) {
            for (std::size_t w = 0; w < spec.workloads.size(); ++w) {
                SweepJob job;
                job.index = jobs.size();
                job.configIdx = c;
                job.policyIdx = p;
                job.workloadIdx = w;
                job.workload = spec.workloads[w];
                job.policy = spec.policies[p];
                job.configLabel = configs[c].label;
                job.config = resolved;
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

Workload
singleBenchWorkload(const std::string &bench)
{
    return adHocWorkload({bench});
}

Workload
adHocWorkload(const std::vector<std::string> &benches)
{
    SMT_ASSERT(!benches.empty(), "ad-hoc workload with no benches");
    Workload w;
    w.numThreads = static_cast<int>(benches.size());
    w.group = 0;
    w.benches = benches;

    std::size_t nMem = 0;
    for (const std::string &b : benches)
        nMem += isMemBench(b) ? 1 : 0;
    w.type = nMem == 0 ? WorkloadType::ILP
        : nMem == benches.size() ? WorkloadType::MEM
                                 : WorkloadType::MIX;

    w.id = benches[0];
    for (std::size_t i = 1; i < benches.size(); ++i)
        w.id += "+" + benches[i];
    return w;
}

std::string
configKey(const SimConfig &cfg)
{
    char buf[640];
    const SmtConfig &c = cfg.core;
    const MemParams &m = cfg.mem;
    const BpredParams &b = cfg.bpred;
    std::snprintf(
        buf, sizeof(buf),
        "nt%d fw%d ft%d rw%d iw%d cw%d fe%d fq%d "
        "iq%d,%d,%d fu%d,%d,%d pr%d rob%d "
        "lat%d,%d,%d,%d,%d cap%d,%d,%d,%d,%d "
        "l1i%llu/%d/%d/%d l1d%llu/%d/%d/%d l2%llu/%d/%d/%d "
        "itlb%d/%d/%llu dtlb%d/%d/%llu "
        "ml%llu,%llu,%llu,%llu mshr%d,%d pd%d "
        "bp%d,%d,%d,%d,%d seed%llu",
        c.numThreads, c.fetchWidth, c.fetchThreadsPerCycle,
        c.renameWidth, c.issueWidth, c.commitWidth,
        c.frontEndLatency, c.fetchQueueSize,
        c.iqSize[0], c.iqSize[1], c.iqSize[2],
        c.fuCount[0], c.fuCount[1], c.fuCount[2],
        c.physRegsPerFile, c.robSize,
        c.intMulLatency, c.fpAluLatency, c.fpMulLatency,
        c.branchResolveLatency, c.loadExtraLatency,
        c.resourceCap[0], c.resourceCap[1], c.resourceCap[2],
        c.resourceCap[3], c.resourceCap[4],
        static_cast<unsigned long long>(m.l1i.size), m.l1i.assoc,
        m.l1i.lineSize, m.l1i.banks,
        static_cast<unsigned long long>(m.l1d.size), m.l1d.assoc,
        m.l1d.lineSize, m.l1d.banks,
        static_cast<unsigned long long>(m.l2.size), m.l2.assoc,
        m.l2.lineSize, m.l2.banks,
        m.itlb.entries, m.itlb.assoc,
        static_cast<unsigned long long>(m.itlb.pageBytes),
        m.dtlb.entries, m.dtlb.assoc,
        static_cast<unsigned long long>(m.dtlb.pageBytes),
        static_cast<unsigned long long>(m.l1Latency),
        static_cast<unsigned long long>(m.l2Latency),
        static_cast<unsigned long long>(m.memLatency),
        static_cast<unsigned long long>(m.tlbMissPenalty),
        m.l1dMshrs, m.l1iMshrs, m.perfectDcache ? 1 : 0,
        b.gshareEntries, b.historyBits, b.btbEntries, b.btbAssoc,
        b.rasEntries,
        static_cast<unsigned long long>(cfg.seed));
    return buf;
}

} // namespace smt
