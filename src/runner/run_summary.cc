#include "runner/run_summary.hh"

#include <cstdint>
#include <string>
#include <utility>

namespace smt {

namespace {

std::string
doubleArrayJson(const std::vector<double> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ",";
        out += fmtDoubleExact(v[i]);
    }
    out += "]";
    return out;
}

std::string
u64ArrayJson(const std::vector<std::uint64_t> &v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ",";
        out += fmtU64(v[i]);
    }
    out += "]";
    return out;
}

bool
doubleArrayFromJson(const JsonValue *v, std::vector<double> &out)
{
    if (!v || v->kind != JsonValue::Array)
        return false;
    out.clear();
    for (const JsonValue &e : v->arr) {
        if (e.kind != JsonValue::Number)
            return false;
        out.push_back(e.asDouble());
    }
    return true;
}

bool
u64ArrayFromJson(const JsonValue *v, std::vector<std::uint64_t> &out)
{
    if (!v || v->kind != JsonValue::Array)
        return false;
    out.clear();
    for (const JsonValue &e : v->arr) {
        std::uint64_t x = 0;
        if (!e.toInteger(x))
            return false;
        out.push_back(x);
    }
    return true;
}

bool
numberField(const JsonValue &obj, const char *key, double &out)
{
    const JsonValue *v = obj.find(key);
    if (!v || v->kind != JsonValue::Number)
        return false;
    out = v->asDouble();
    return true;
}

template <typename T>
bool
intField(const JsonValue &obj, const char *key, T &out)
{
    const JsonValue *v = obj.find(key);
    return v && v->toInteger(out);
}

} // anonymous namespace

std::string
runSummaryToJson(const RunSummary &s)
{
    const SimResult &r = s.raw;
    std::string out = "{\"throughput\":" +
        fmtDoubleExact(s.throughput);
    out += ",\"hmean\":" + fmtDoubleExact(s.hmean);
    out += ",\"multiIpc\":" + doubleArrayJson(s.multiIpc);
    out += ",\"singleIpc\":" + doubleArrayJson(s.singleIpc);
    out += ",\"cycles\":" + fmtU64(r.cycles);
    out += ",\"slowPhaseCycles\":" + u64ArrayJson(r.slowPhaseCycles);
    out += ",\"mlpBusyMean\":" + fmtDoubleExact(r.mlpBusyMean);
    out += ",\"threads\":[";
    for (std::size_t t = 0; t < r.threads.size(); ++t) {
        const ThreadResult &tr = r.threads[t];
        if (t)
            out += ",";
        out += "{\"bench\":\"" + jsonEscape(tr.bench) + "\"";
        for (const ThreadCounterField &f : threadCounterFields) {
            out += ",\"";
            out += f.key;
            out += "\":" + fmtU64(tr.*f.member);
            // ipc has always followed the first counter here.
            if (&f == threadCounterFields)
                out += ",\"ipc\":" + fmtDoubleExact(tr.ipc);
        }
        out += "}";
    }
    out += "]";
    // Chip-level extras ride along unconditionally: they are all
    // zero/empty for single-core runs and the sinks only render them
    // when coreCommitHashes is nonempty, exactly as for a live run.
    out += ",\"coreCommitHashes\":" +
        u64ArrayJson(r.coreCommitHashes);
    out += ",\"migrations\":" + fmtU64(r.migrations);
    out += ",\"allocEpochs\":" + fmtU64(r.allocEpochs);
    out += ",\"llcAccesses\":" + fmtU64(r.llcAccesses);
    out += ",\"llcMisses\":" + fmtU64(r.llcMisses);
    out += ",\"llcArbiter\":\"" + jsonEscape(r.llcArbiter) + "\"";
    out += ",\"llcShareReassignments\":" +
        fmtU64(r.llcShareReassignments);
    out += ",\"llcPerCore\":[";
    for (std::size_t c = 0; c < r.llcPerCore.size(); ++c) {
        const LlcCoreStats &cs = r.llcPerCore[c];
        if (c)
            out += ",";
        out += "{\"accesses\":" + fmtU64(cs.accesses);
        out += ",\"misses\":" + fmtU64(cs.misses);
        out += ",\"mshrShare\":" + std::to_string(cs.mshrShare);
        out += ",\"ways\":" + std::to_string(cs.ways);
        out += ",\"linesOwned\":" + fmtU64(cs.linesOwned);
        out += "}";
    }
    out += "]}";
    return out;
}

bool
runSummaryFromJson(const JsonValue &v, RunSummary &out)
{
    if (v.kind != JsonValue::Object)
        return false;
    SimResult &r = out.raw;
    if (!numberField(v, "throughput", out.throughput) ||
        !numberField(v, "hmean", out.hmean) ||
        !doubleArrayFromJson(v.find("multiIpc"), out.multiIpc) ||
        !doubleArrayFromJson(v.find("singleIpc"), out.singleIpc) ||
        !intField(v, "cycles", r.cycles) ||
        !u64ArrayFromJson(v.find("slowPhaseCycles"),
                          r.slowPhaseCycles) ||
        !numberField(v, "mlpBusyMean", r.mlpBusyMean) ||
        !u64ArrayFromJson(v.find("coreCommitHashes"),
                          r.coreCommitHashes) ||
        !intField(v, "migrations", r.migrations) ||
        !intField(v, "allocEpochs", r.allocEpochs) ||
        !intField(v, "llcAccesses", r.llcAccesses) ||
        !intField(v, "llcMisses", r.llcMisses) ||
        !intField(v, "llcShareReassignments",
                  r.llcShareReassignments)) {
        return false;
    }
    const JsonValue *arb = v.find("llcArbiter");
    if (!arb || arb->kind != JsonValue::String)
        return false;
    r.llcArbiter = arb->str;

    const JsonValue *threads = v.find("threads");
    if (!threads || threads->kind != JsonValue::Array)
        return false;
    r.threads.clear();
    for (const JsonValue &tv : threads->arr) {
        if (tv.kind != JsonValue::Object)
            return false;
        ThreadResult tr;
        const JsonValue *bench = tv.find("bench");
        if (!bench || bench->kind != JsonValue::String)
            return false;
        tr.bench = bench->str;
        if (!numberField(tv, "ipc", tr.ipc))
            return false;
        for (const ThreadCounterField &f : threadCounterFields) {
            if (!intField(tv, f.key, tr.*f.member))
                return false;
        }
        r.threads.push_back(std::move(tr));
    }

    const JsonValue *perCore = v.find("llcPerCore");
    if (!perCore || perCore->kind != JsonValue::Array)
        return false;
    r.llcPerCore.clear();
    for (const JsonValue &cv : perCore->arr) {
        if (cv.kind != JsonValue::Object)
            return false;
        LlcCoreStats cs;
        if (!intField(cv, "accesses", cs.accesses) ||
            !intField(cv, "misses", cs.misses) ||
            !intField(cv, "mshrShare", cs.mshrShare) ||
            !intField(cv, "ways", cs.ways) ||
            !intField(cv, "linesOwned", cs.linesOwned)) {
            return false;
        }
        r.llcPerCore.push_back(cs);
    }
    return true;
}

} // namespace smt
