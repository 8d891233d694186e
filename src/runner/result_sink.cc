#include "runner/result_sink.hh"

#include <cstdio>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/stats.hh"
#include "prof/host_profiler.hh"
#include "telemetry/telemetry.hh"

namespace smt {

namespace {

/** RFC-4180 quoting: needed for config labels like "mem=100,l2=20". */
std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
joinBenches(const Workload &w, char sep)
{
    std::string out;
    for (std::size_t i = 0; i < w.benches.size(); ++i) {
        if (i)
            out += sep;
        out += w.benches[i];
    }
    return out;
}

/** The config fields the JSON/CSV schema reports per job. */
void
appendConfigJson(std::string &out, const SweepJob &job)
{
    const SimConfig &c = job.config;
    out += "{\"label\": \"" + jsonEscape(job.configLabel) + "\"";
    out += ", \"numThreads\": " +
        std::to_string(job.workload.numThreads);
    out += ", \"memLatency\": " + fmtU64(c.mem.memLatency);
    out += ", \"l2Latency\": " + fmtU64(c.mem.l2Latency);
    out += ", \"physRegsPerFile\": " +
        std::to_string(c.core.physRegsPerFile);
    out += ", \"iqSize\": [" + std::to_string(c.core.iqSize[0]) +
        ", " + std::to_string(c.core.iqSize[1]) + ", " +
        std::to_string(c.core.iqSize[2]) + "]";
    out += ", \"perfectDcache\": ";
    out += c.mem.perfectDcache ? "true" : "false";
    out += ", \"seed\": " + fmtU64(c.seed);
    if (c.soc.numCores > 1) {
        // Chip shape, emitted only for CMP jobs so single-core sweep
        // documents keep their exact pre-CMP bytes.
        out += ", \"cores\": " + std::to_string(c.soc.numCores);
        out += ", \"contextsPerCore\": " +
            std::to_string(c.soc.contextsPerCore);
        out += ", \"allocator\": \"";
        out += allocatorKindName(c.soc.allocator);
        out += "\"";
        out += ", \"epochCycles\": " + fmtU64(c.soc.epochCycles);
        out += ", \"llcArbiter\": \"" +
            jsonEscape(c.soc.llcArbiter) + "\"";
        out += ", \"llcWays\": " + std::to_string(c.soc.llcWays);
    }
    out += "}";
}

} // anonymous namespace

std::string
TableSink::render(const SweepResults &res) const
{
    const bool hmean = res.spec.computeHmean;
    TextTable t;
    std::vector<std::string> hdr = {"workload", "benches", "policy",
                                    "config", "cycles",
                                    "throughput"};
    if (hmean)
        hdr.push_back("hmean");
    t.header(std::move(hdr));

    for (const JobResult &r : res.results) {
        std::vector<std::string> row = {
            r.job.workload.id,
            joinBenches(r.job.workload, '+'),
            policyKindName(r.job.policy),
            r.job.configLabel.empty() ? "-" : r.job.configLabel,
            r.failed ? "FAILED" : fmtU64(r.summary.raw.cycles),
            r.failed ? "-" : TextTable::fmt(r.summary.throughput, 3),
        };
        if (hmean)
            row.push_back(r.failed
                              ? "-"
                              : TextTable::fmt(r.summary.hmean, 3));
        t.row(std::move(row));
    }
    std::string out = t.str();
    if (!res.failures.empty()) {
        out += "# " + std::to_string(res.failures.size()) +
            " failed job(s); see the sweep JSON failures block or "
            "re-run with --resume\n";
    }
    return out;
}

std::string
CsvSink::render(const SweepResults &res) const
{
    const bool hmean = res.spec.computeHmean;
    std::string out =
        "workload,type,group,policy,config,num_threads,thread,bench,"
        "ipc,single_ipc,";
    for (const ThreadCounterField &f : threadCounterFields) {
        if (f.csv) {
            out += f.csv;
            out += ',';
        }
    }
    out += "cycles,throughput,hmean\n";
    for (const JobResult &r : res.results) {
        const SimResult &raw = r.summary.raw;
        for (std::size_t t = 0; t < raw.threads.size(); ++t) {
            const ThreadResult &tr = raw.threads[t];
            out += csvEscape(r.job.workload.id);
            out += ',';
            out += workloadTypeName(r.job.workload.type);
            out += ',';
            out += std::to_string(r.job.workload.group);
            out += ',';
            out += policyKindName(r.job.policy);
            out += ',';
            out += csvEscape(r.job.configLabel);
            out += ',';
            out += std::to_string(r.job.workload.numThreads);
            out += ',';
            out += std::to_string(t);
            out += ',';
            out += csvEscape(tr.bench);
            out += ',';
            out += fmtDouble(tr.ipc);
            out += ',';
            if (hmean)
                out += fmtDouble(r.summary.singleIpc[t]);
            out += ',';
            for (const ThreadCounterField &f : threadCounterFields) {
                if (f.csv)
                    out += fmtU64(tr.*f.member) + ',';
            }
            out += fmtU64(raw.cycles);
            out += ',';
            out += fmtDouble(r.summary.throughput);
            out += ',';
            if (hmean)
                out += fmtDouble(r.summary.hmean);
            out += '\n';
        }
    }
    return out;
}

std::string
JsonSink::render(const SweepResults &res) const
{
    const bool hmean = res.spec.computeHmean;
    // Telemetry promotes the document to schema v2 (provenance block
    // + per-run telemetry file references). With telemetry off the
    // v1 bytes are pinned exactly — nothing below may change them.
    const bool tlm = res.spec.telemetry.enabled();
    std::string out = "{\n";
    out += "  \"schema\": \"";
    out += tlm ? "smtsim-sweep-v2" : "smtsim-sweep-v1";
    out += "\",\n";
    out +=
        "  \"name\": \"" + jsonEscape(res.spec.name) + "\",\n";
    if (tlm) {
        out += "  \"provenance\": " + provenanceJson() + ",\n";
        out += "  \"telemetry\": {\"statsInterval\": " +
            fmtU64(res.spec.telemetry.statsInterval) +
            ", \"tracePrefix\": \"" +
            jsonEscape(res.spec.telemetry.tracePrefix) + "\"";
        // Only present with --ts-out, so the combined --trace-out
        // document keeps its exact pre-split bytes.
        if (!res.spec.telemetry.tsPrefix.empty()) {
            out += ", \"tsPrefix\": \"" +
                jsonEscape(res.spec.telemetry.tsPrefix) + "\"";
        }
        out += "},\n";
    }
    out += "  \"commits\": " + fmtU64(res.spec.commits) + ",\n";
    out += "  \"warmup\": " + fmtU64(res.spec.warmup) + ",\n";
    out += "  \"runs\": [\n";
    for (std::size_t i = 0; i < res.results.size(); ++i) {
        const JobResult &r = res.results[i];
        const SimResult &raw = r.summary.raw;
        out += "    {\"workload\": \"" +
            jsonEscape(r.job.workload.id) + "\"";
        if (r.failed) {
            // Only present on failure, so clean sweeps keep their
            // exact schema v1/v2 bytes.
            out += ", \"failed\": true";
        }
        out += ", \"type\": \"";
        out += workloadTypeName(r.job.workload.type);
        out += "\"";
        out += ", \"group\": " +
            std::to_string(r.job.workload.group);
        out += ", \"policy\": \"";
        out += policyKindName(r.job.policy);
        out += "\"";
        out += ", \"config\": ";
        appendConfigJson(out, r.job);
        out += ",\n     \"cycles\": " + fmtU64(raw.cycles);
        out += ", \"throughput\": " +
            fmtDouble(r.summary.throughput);
        out += ", \"hmean\": ";
        out += hmean ? fmtDouble(r.summary.hmean) : "null";
        out += ", \"mlpBusyMean\": " + fmtDouble(raw.mlpBusyMean);
        if (tlm) {
            // With --trace-out the reference bytes are exactly the
            // historical ones (tsOutPrefix() falls back to the trace
            // prefix); ts-only runs reference just the time series.
            const std::string tsBase = telemetryFileBase(
                res.spec.telemetry.tsOutPrefix(), r.job.index);
            out += ",\n     \"telemetry\": {\"timeSeries\": \"" +
                jsonEscape(tsBase + ".ts.ndjson") + "\"";
            if (res.spec.telemetry.traceEnabled()) {
                const std::string trBase = telemetryFileBase(
                    res.spec.telemetry.tracePrefix, r.job.index);
                out += ", \"trace\": \"" +
                    jsonEscape(trBase + ".trace.json") + "\"";
            }
            out += "}";
        }
        if (!raw.coreCommitHashes.empty()) {
            // CMP job: the chip-level outcome, including the
            // per-core commit-stream hashes the determinism checks
            // (parallel-vs-serial diff, 2-core golden) compare.
            out += ",\n     \"soc\": {\"migrations\": " +
                fmtU64(raw.migrations);
            out += ", \"allocEpochs\": " + fmtU64(raw.allocEpochs);
            out += ", \"llcAccesses\": " + fmtU64(raw.llcAccesses);
            out += ", \"llcMisses\": " + fmtU64(raw.llcMisses);
            out += ", \"coreCommitHashes\": [";
            for (std::size_t c = 0; c < raw.coreCommitHashes.size();
                 ++c) {
                if (c)
                    out += ", ";
                out += "\"" + hexU64(raw.coreCommitHashes[c]) + "\"";
            }
            out += "]";
            // The arbitration outcome: which LLC arbiter ran, how
            // often it reassigned shares, and each core's share/
            // way/occupancy view of the shared cache.
            out += ",\n      \"llcArbiter\": \"" +
                jsonEscape(raw.llcArbiter) + "\"";
            out += ", \"llcShareReassignments\": " +
                fmtU64(raw.llcShareReassignments);
            out += ", \"llcPerCore\": [";
            for (std::size_t c = 0; c < raw.llcPerCore.size(); ++c) {
                const LlcCoreStats &cs = raw.llcPerCore[c];
                if (c)
                    out += ", ";
                out += "{\"accesses\": " + fmtU64(cs.accesses);
                out += ", \"misses\": " + fmtU64(cs.misses);
                out += ", \"mshrShare\": " +
                    std::to_string(cs.mshrShare);
                out += ", \"ways\": " + std::to_string(cs.ways);
                out += ", \"linesOwned\": " + fmtU64(cs.linesOwned);
                out += "}";
            }
            out += "]}";
        }
        out += ",\n     \"threads\": [\n";
        for (std::size_t t = 0; t < raw.threads.size(); ++t) {
            const ThreadResult &tr = raw.threads[t];
            out += "       {\"bench\": \"" + jsonEscape(tr.bench) +
                "\"";
            out += ", \"ipc\": " + fmtDouble(tr.ipc);
            out += ", \"singleIpc\": ";
            out += hmean ? fmtDouble(r.summary.singleIpc[t])
                         : "null";
            for (const ThreadCounterField &f : threadCounterFields) {
                out += ", \"";
                out += f.key;
                out += "\": " + fmtU64(tr.*f.member);
            }
            out += "}";
            out += t + 1 < raw.threads.size() ? ",\n" : "\n";
        }
        out += "     ]}";
        out += i + 1 < res.results.size() ? ",\n" : "\n";
    }
    out += "  ]";
    // Fault-tolerance blocks appear only when non-empty: a clean
    // sweep's document stays byte-identical to the pinned schema.
    if (!res.failures.empty()) {
        out += ",\n  \"failures\": [\n";
        for (std::size_t i = 0; i < res.failures.size(); ++i) {
            const JobFailure &f = res.failures[i];
            out += "    {\"job\": " + fmtU64(f.index);
            out += ", \"key\": \"" + jsonEscape(f.key) + "\"";
            out += ", \"cause\": \"" + jsonEscape(f.cause) + "\"";
            out += ", \"attempts\": " + std::to_string(f.attempts);
            if (f.termSignal)
                out += ", \"signal\": " +
                    std::to_string(f.termSignal);
            if (f.exitCode)
                out +=
                    ", \"exitCode\": " + std::to_string(f.exitCode);
            out += "}";
            out += i + 1 < res.failures.size() ? ",\n" : "\n";
        }
        out += "  ]";
    }
    std::size_t nRetried = 0;
    for (const JobResult &r : res.results) {
        if (!r.failed && r.attempts > 1)
            ++nRetried;
    }
    if (nRetried) {
        out += ",\n  \"retried\": [\n";
        std::size_t emitted = 0;
        for (const JobResult &r : res.results) {
            if (r.failed || r.attempts <= 1)
                continue;
            out += "    {\"job\": " + fmtU64(r.job.index);
            out += ", \"attempts\": " + std::to_string(r.attempts);
            out += "}";
            out += ++emitted < nRetried ? ",\n" : "\n";
        }
        out += "  ]";
    }
    // Host-profiling block, present only under --prof. Everything in
    // it is host wall-clock data — nondeterministic by construction
    // and flagged as such, so no golden check may ever pin it.
    if (res.spec.prof.enabled()) {
        out += ",\n  \"hostProfile\": {\"nondeterministic\": true";
        out += ", \"prefix\": \"" +
            jsonEscape(res.spec.prof.prefix) + "\"";
        out += ", \"sampleEvery\": " +
            fmtU64(res.spec.prof.sampleEvery);
        out += ", \"runnerSidecar\": \"" +
            jsonEscape(res.spec.prof.prefix + ".runner.prof.ndjson") +
            "\",\n   \"jobs\": [\n";
        for (std::size_t i = 0; i < res.results.size(); ++i) {
            const JobResult &r = res.results[i];
            out += "    {\"job\": " + fmtU64(r.job.index);
            out += ", \"sidecar\": \"" +
                jsonEscape(profFileBase(res.spec.prof.prefix,
                                        r.job.index) +
                           ".prof.ndjson") +
                "\"";
            out += ", \"wallNs\": " + fmtU64(r.hostWallNs);
            out += ", \"queueNs\": " + fmtU64(r.hostQueueNs);
            if (r.hostForkNs || r.hostReapNs) {
                out += ", \"forkNs\": " + fmtU64(r.hostForkNs);
                out += ", \"reapNs\": " + fmtU64(r.hostReapNs);
            }
            out += "}";
            out += i + 1 < res.results.size() ? ",\n" : "\n";
        }
        out += "  ]}";
    }
    out += "\n}\n";
    return out;
}

std::unique_ptr<ResultSink>
makeSink(const std::string &format)
{
    if (format == "table")
        return std::make_unique<TableSink>();
    if (format == "csv")
        return std::make_unique<CsvSink>();
    if (format == "json")
        return std::make_unique<JsonSink>();
    return nullptr;
}

} // namespace smt
