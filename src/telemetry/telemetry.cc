#include "telemetry/telemetry.hh"

#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/version.hh"
#include "common/write_file.hh"
#include "prof/host_info.hh"

namespace smt {

TelemetryHub::TelemetryHub(Cycle sampleInterval,
                           std::size_t maxSamples_,
                           std::size_t maxEvents_)
    : ival(sampleInterval),
      maxSamples(maxSamples_),
      maxEvents(maxEvents_)
{
}

void
TelemetryHub::counter(const std::string &name, U64Fn read)
{
    SMT_ASSERT(!sampling, "channel registered after beginSampling");
    Channel c;
    c.kind = Kind::Counter;
    c.name = name;
    c.u64 = std::move(read);
    channels.push_back(std::move(c));
}

void
TelemetryHub::rate(const std::string &name, U64Fn read)
{
    SMT_ASSERT(!sampling, "channel registered after beginSampling");
    Channel c;
    c.kind = Kind::Rate;
    c.name = name;
    c.u64 = std::move(read);
    channels.push_back(std::move(c));
}

void
TelemetryHub::ratio(const std::string &name, U64Fn num, U64Fn den)
{
    SMT_ASSERT(!sampling, "channel registered after beginSampling");
    Channel c;
    c.kind = Kind::Ratio;
    c.name = name;
    c.u64 = std::move(num);
    c.den = std::move(den);
    channels.push_back(std::move(c));
}

void
TelemetryHub::gauge(const std::string &name, DblFn read)
{
    SMT_ASSERT(!sampling, "channel registered after beginSampling");
    Channel c;
    c.kind = Kind::Gauge;
    c.name = name;
    c.dbl = std::move(read);
    channels.push_back(std::move(c));
}

int
TelemetryHub::track(const std::string &name)
{
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        if (tracks[i] == name)
            return static_cast<int>(i);
    }
    tracks.push_back(name);
    return static_cast<int>(tracks.size()) - 1;
}

void
TelemetryHub::event(int track_, Cycle now, const std::string &name,
                    std::string args)
{
    SMT_ASSERT(track_ >= 0 &&
                   track_ < static_cast<int>(tracks.size()),
               "event on unregistered track %d", track_);
    if (events.size() >= maxEvents) {
        ++nDroppedEvents;
        return;
    }
    events.push_back({track_, now, name, std::move(args)});
}

void
TelemetryHub::beginSampling(Cycle now)
{
    if (ival == 0)
        return;
    for (Channel &c : channels) {
        if (c.kind != Kind::Gauge) {
            c.last = c.u64();
            if (c.kind == Kind::Ratio)
                c.lastDen = c.den();
        }
    }
    lastSampleAt = now;
    nextSampleAt = now + ival;
    sampling = true;
}

void
TelemetryHub::sampleNow(Cycle now)
{
    if (sampleCycles.size() >= maxSamples) {
        ++nDroppedSamples;
        // Re-base anyway so a later (never, today) un-drop would not
        // see a multi-interval delta; cheap and keeps readers hot.
    }
    const double dt = static_cast<double>(now - lastSampleAt);
    const bool keep = sampleCycles.size() < maxSamples;
    for (Channel &c : channels) {
        double v = 0.0;
        switch (c.kind) {
          case Kind::Counter: {
            const std::uint64_t cur = c.u64();
            v = static_cast<double>(cur - c.last);
            c.last = cur;
            break;
          }
          case Kind::Rate: {
            const std::uint64_t cur = c.u64();
            v = dt > 0.0
                ? static_cast<double>(cur - c.last) / dt
                : 0.0;
            c.last = cur;
            break;
          }
          case Kind::Ratio: {
            const std::uint64_t num = c.u64();
            const std::uint64_t den = c.den();
            const std::uint64_t dDen = den - c.lastDen;
            v = dDen ? static_cast<double>(num - c.last) /
                    static_cast<double>(dDen)
                     : 0.0;
            c.last = num;
            c.lastDen = den;
            break;
          }
          case Kind::Gauge:
            v = c.dbl();
            break;
        }
        if (keep)
            values.push_back(v);
    }
    if (keep)
        sampleCycles.push_back(now);
    lastSampleAt = now;
    nextSampleAt = now + ival;
}

std::string
TelemetryHub::renderTimeSeries() const
{
    std::string out;
    out.reserve(64 * (sampleCycles.size() + 2));

    out += "{\"schema\": \"smtsim-ts-v1\", \"interval\": " +
        fmtU64(ival) + ", \"channels\": [";
    for (std::size_t i = 0; i < channels.size(); ++i) {
        if (i)
            out += ", ";
        const Channel &c = channels[i];
        const char *kind = c.kind == Kind::Counter ? "counter"
            : c.kind == Kind::Rate                 ? "rate"
            : c.kind == Kind::Ratio                ? "ratio"
                                                   : "gauge";
        out += "{\"name\": \"" + jsonEscape(c.name) +
            "\", \"kind\": \"";
        out += kind;
        out += "\"}";
    }
    out += "]}\n";

    for (std::size_t s = 0; s < sampleCycles.size(); ++s) {
        out += "{\"cycle\": " + fmtU64(sampleCycles[s]) +
            ", \"v\": [";
        for (std::size_t i = 0; i < channels.size(); ++i) {
            if (i)
                out += ", ";
            const double v = values[s * channels.size() + i];
            if (channels[i].kind == Kind::Counter)
                out += fmtU64(static_cast<std::uint64_t>(v));
            else
                out += fmtDouble(v);
        }
        out += "]}\n";
    }

    out += "{\"samples\": " + fmtU64(sampleCycles.size()) +
        ", \"events\": " + fmtU64(events.size()) +
        ", \"droppedSamples\": " + fmtU64(nDroppedSamples) +
        ", \"droppedEvents\": " + fmtU64(nDroppedEvents) + "}\n";
    return out;
}

std::string
TelemetryHub::renderChromeTrace(const std::string &extraEvents) const
{
    // The trace-event format: instant events ("ph": "i") on one
    // pseudo-thread per track, named through "M" metadata records.
    // ts is the simulated cycle, displayed by Perfetto as if it were
    // microseconds — relative spacing is what matters.
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    for (std::size_t t = 0; t < tracks.size(); ++t) {
        if (!first)
            out += ",";
        first = false;
        out += "\n{\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": 0, \"tid\": " +
            std::to_string(t) + ", \"args\": {\"name\": \"" +
            jsonEscape(tracks[t]) + "\"}}";
    }
    for (const Event &e : events) {
        if (!first)
            out += ",";
        first = false;
        out += "\n{\"name\": \"" + jsonEscape(e.name) +
            "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " +
            fmtU64(e.cycle) + ", \"pid\": 0, \"tid\": " +
            std::to_string(e.track);
        if (!e.args.empty())
            out += ", \"args\": " + e.args;
        out += "}";
    }
    if (!extraEvents.empty()) {
        if (!first)
            out += ",";
        first = false;
        out += "\n" + extraEvents;
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

std::string
provenanceJson()
{
    std::string out = "{\"gitDescribe\": \"";
    out += jsonEscape(SMT_GIT_DESCRIBE);
    out += "\", \"buildType\": \"";
    out += jsonEscape(SMT_BUILD_TYPE);
    out += "\", \"cxxFlags\": \"";
    out += jsonEscape(SMT_CXX_FLAGS);
    out += "\", \"host\": ";
    out += hostInfoJson(readHostInfo(), /*withLoadavg=*/false);
    out += "}";
    return out;
}

std::string
telemetryFileBase(const std::string &prefix, std::size_t jobIndex)
{
    return prefix + ".job" + std::to_string(jobIndex);
}

bool
writeTelemetryFiles(const TelemetryHub &hub, const std::string &tsBase,
                    const std::string &traceBase,
                    const std::string &hostTraceEvents)
{
    bool ok = true;
    if (!tsBase.empty())
        ok = writeTextFile(tsBase + ".ts.ndjson",
                           hub.renderTimeSeries()) && ok;
    if (!traceBase.empty())
        ok = writeTextFile(traceBase + ".trace.json",
                           hub.renderChromeTrace(hostTraceEvents)) && ok;
    return ok;
}

} // namespace smt
