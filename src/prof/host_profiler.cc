#include "prof/host_profiler.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/version.hh"
#include "common/write_file.hh"

namespace smt {

HostProfiler::HostProfiler(std::uint64_t sampleEvery,
                           std::size_t maxSpansArg)
    : epoch(std::chrono::steady_clock::now()),
      every(sampleEvery == 0 ? 1 : sampleEvery),
      host(readHostInfo()), maxSpans(maxSpansArg)
{
}

int
HostProfiler::scope(const std::string &name, bool sampled)
{
    for (std::size_t i = 0; i < scopes.size(); ++i) {
        if (scopes[i].name == name)
            return static_cast<int>(i);
    }
    scopes.emplace_back(name, sampled ? every : 1);
    return static_cast<int>(scopes.size() - 1);
}

void
HostProfiler::add(int id, std::uint64_t startNs, std::uint64_t endNs)
{
    if (id < 0 || static_cast<std::size_t>(id) >= scopes.size())
        return;
    const std::uint64_t dur = endNs >= startNs ? endNs - startNs : 0;
    ScopeSlot &s = scopes[static_cast<std::size_t>(id)];
    s.hits.fetch_add(1, std::memory_order_relaxed);
    s.ns.fetch_add(dur, std::memory_order_relaxed);
    std::uint64_t prev = s.maxNs.load(std::memory_order_relaxed);
    while (prev < dur &&
           !s.maxNs.compare_exchange_weak(prev, dur,
                                          std::memory_order_relaxed))
        ;
    if (!spansOn)
        return;
    std::lock_guard<std::mutex> lock(mu);
    if (spans.size() >= maxSpans) {
        ++droppedSpans;
        return;
    }
    spans.push_back(Span{id, startNs, dur});
}

void
HostProfiler::record(std::string jsonObjectLine)
{
    std::lock_guard<std::mutex> lock(mu);
    records.push_back(std::move(jsonObjectLine));
}

const std::string &
HostProfiler::scopeName(int id) const
{
    return scopes[static_cast<std::size_t>(id)].name;
}

std::uint64_t
HostProfiler::scopeEvery(int id) const
{
    return scopes[static_cast<std::size_t>(id)].every;
}

std::uint64_t
HostProfiler::scopeHits(int id) const
{
    return scopes[static_cast<std::size_t>(id)].hits.load(
        std::memory_order_relaxed);
}

std::uint64_t
HostProfiler::scopeNs(int id) const
{
    return scopes[static_cast<std::size_t>(id)].ns.load(
        std::memory_order_relaxed);
}

std::uint64_t
HostProfiler::scopeMaxNs(int id) const
{
    return scopes[static_cast<std::size_t>(id)].maxNs.load(
        std::memory_order_relaxed);
}

std::size_t
HostProfiler::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return spans.size();
}

std::uint64_t
HostProfiler::droppedSpanCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return droppedSpans;
}

std::string
HostProfiler::renderNdjson(const std::string &source) const
{
    std::lock_guard<std::mutex> lock(mu);
    std::string out;
    out += "{\"schema\": \"smtsim-prof-v1\", \"source\": \"";
    out += jsonEscape(source);
    out += "\", \"sampleEvery\": ";
    out += fmtU64(every);
    out += ", \"host\": ";
    out += hostInfoJson(host, /*withLoadavg=*/true);
    out += ", \"provenance\": {\"gitDescribe\": \"";
    out += jsonEscape(SMT_GIT_DESCRIBE);
    out += "\", \"buildType\": \"";
    out += jsonEscape(SMT_BUILD_TYPE);
    out += "\"}}\n";
    for (const ScopeSlot &s : scopes) {
        out += "{\"type\": \"scope\", \"name\": \"";
        out += jsonEscape(s.name);
        out += "\", \"hits\": ";
        out += fmtU64(s.hits.load(std::memory_order_relaxed));
        out += ", \"ns\": ";
        out += fmtU64(s.ns.load(std::memory_order_relaxed));
        out += ", \"maxNs\": ";
        out += fmtU64(s.maxNs.load(std::memory_order_relaxed));
        out += ", \"every\": ";
        out += fmtU64(s.every);
        out += "}\n";
    }
    for (const std::string &r : records) {
        out += r;
        out += "\n";
    }
    out += "{\"type\": \"footer\", \"scopes\": ";
    out += fmtU64(scopes.size());
    out += ", \"records\": ";
    out += fmtU64(records.size());
    out += ", \"spans\": ";
    out += fmtU64(spans.size());
    out += ", \"droppedSpans\": ";
    out += fmtU64(droppedSpans);
    out += "}\n";
    return out;
}

std::string
HostProfiler::chromeTraceEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    if (spans.empty())
        return "";

    // Timestamps are host microseconds since profiler start, under
    // pid 1 ("host"); the simulated-machine tracks live under pid 0
    // with cycle timestamps, so the two timelines are visually
    // separate in Perfetto but share one document.
    std::vector<Span> ordered(spans);
    std::stable_sort(ordered.begin(), ordered.end(),
                     [](const Span &a, const Span &b) {
                         return a.startNs < b.startNs;
                     });

    std::string out;
    std::vector<bool> used(scopes.size(), false);
    for (const Span &sp : ordered)
        used[static_cast<std::size_t>(sp.id)] = true;
    bool first = true;
    auto sep = [&out, &first]() {
        if (!first)
            out += ",\n";
        first = false;
    };
    for (std::size_t i = 0; i < scopes.size(); ++i) {
        if (!used[i])
            continue;
        sep();
        out += "{\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": 1, \"tid\": ";
        out += fmtU64(i);
        out += ", \"args\": {\"name\": \"host:";
        out += jsonEscape(scopes[i].name);
        out += "\"}}";
    }
    std::vector<std::uint64_t> cumNs(scopes.size(), 0);
    for (const Span &sp : ordered) {
        const std::size_t id = static_cast<std::size_t>(sp.id);
        sep();
        out += "{\"name\": \"";
        out += jsonEscape(scopes[id].name);
        out += "\", \"ph\": \"X\", \"ts\": ";
        out += fmtDouble(static_cast<double>(sp.startNs) / 1e3, 3);
        out += ", \"dur\": ";
        out += fmtDouble(static_cast<double>(sp.durNs) / 1e3, 3);
        out += ", \"pid\": 1, \"tid\": ";
        out += fmtU64(id);
        out += "}";
        cumNs[id] += sp.durNs;
        if (scopes[id].name.compare(0, 5, "wave.") == 0) {
            sep();
            out += "{\"name\": \"";
            out += jsonEscape(scopes[id].name);
            out += ".cum_us\", \"ph\": \"C\", \"ts\": ";
            out += fmtDouble(
                static_cast<double>(sp.startNs + sp.durNs) / 1e3, 3);
            out += ", \"pid\": 1, \"args\": {\"us\": ";
            out += fmtDouble(static_cast<double>(cumNs[id]) / 1e3, 3);
            out += "}}";
        }
    }
    return out;
}

bool
writeHostProfile(const HostProfiler &prof, const std::string &base,
                 const std::string &source)
{
    return writeTextFile(base + ".prof.ndjson", prof.renderNdjson(source));
}

std::string
profFileBase(const std::string &prefix, int jobIndex)
{
    return prefix + ".job" + std::to_string(jobIndex);
}

} // namespace smt
