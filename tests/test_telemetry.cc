/**
 * @file
 * Tests for the telemetry subsystem: channel arithmetic and buffer
 * caps on the hub itself, render-format pins (NDJSON header/footer,
 * Chrome trace metadata), the zero-perturbation guarantee (attaching
 * a hub changes no simulation outcome), byte-determinism of the
 * rendered telemetry across --chip-jobs worker counts, sweep-level
 * v2 JSON byte equality across --jobs, the v1 byte-pin when
 * telemetry is off, and a full-disk sidecar write that must still
 * close its file.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <unistd.h>

#include "common/json.hh"
#include "policy/factory.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "sim/workload.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "support/same_result.hh"
#include "telemetry/telemetry.hh"

namespace {

using namespace smt;
using smt::test::expectSameResult;

// ---------------------------------------------------------------
// hub unit tests
// ---------------------------------------------------------------

TEST(TelemetryHub, ChannelArithmetic)
{
    std::uint64_t ctr = 0, num = 0, den = 0;
    double g = 0.0;

    TelemetryHub hub(10);
    hub.counter("c", [&] { return ctr; });
    hub.rate("r", [&] { return ctr; });
    hub.ratio("q", [&] { return num; }, [&] { return den; });
    hub.gauge("g", [&] { return g; });
    EXPECT_EQ(hub.channelCount(), 4u);
    EXPECT_EQ(hub.interval(), 10u);

    hub.beginSampling(0);
    ctr = 25;
    num = 3;
    den = 4;
    g = 1.5;
    hub.tick(9); // before the boundary: no sample
    EXPECT_EQ(hub.sampleCount(), 0u);
    hub.tick(10);
    ASSERT_EQ(hub.sampleCount(), 1u);

    // counter = delta, rate = delta/dt, ratio = dNum/dDen, gauge =
    // instantaneous; doubles render with the fixed %.6f format.
    const std::string ts = hub.renderTimeSeries();
    EXPECT_NE(ts.find("{\"cycle\": 10, \"v\": "
                      "[25, 2.500000, 0.750000, 1.500000]}"),
              std::string::npos)
        << ts;

    // Second interval: deltas re-base, a flat ratio denominator
    // yields 0 instead of dividing by zero.
    ctr = 30;
    num = 9;
    hub.tick(20);
    EXPECT_NE(hub.renderTimeSeries().find(
                  "{\"cycle\": 20, \"v\": "
                  "[5, 0.500000, 0.000000, 1.500000]}"),
              std::string::npos);
}

TEST(TelemetryHub, BufferCapsDropAndCount)
{
    std::uint64_t ctr = 0;
    TelemetryHub hub(5, /*maxSamples=*/2, /*maxEvents=*/2);
    hub.counter("c", [&] { return ctr; });
    const int t = hub.track("x");

    hub.beginSampling(0);
    for (Cycle c = 5; c <= 20; c += 5)
        hub.tick(c);
    EXPECT_EQ(hub.sampleCount(), 2u);
    EXPECT_EQ(hub.droppedSamples(), 2u);

    for (int i = 0; i < 5; ++i)
        hub.event(t, static_cast<Cycle>(i), "e");
    EXPECT_EQ(hub.eventCount(), 2u);
    EXPECT_EQ(hub.droppedEvents(), 3u);

    // The footer reports the drops.
    EXPECT_NE(hub.renderTimeSeries().find(
                  "{\"samples\": 2, \"events\": 2, "
                  "\"droppedSamples\": 2, \"droppedEvents\": 3}"),
              std::string::npos);
}

TEST(TelemetryHub, ZeroIntervalRecordsEventsOnly)
{
    std::uint64_t ctr = 0;
    TelemetryHub hub(0);
    hub.counter("c", [&] { return ctr; });
    const int t = hub.track("x");
    hub.beginSampling(0); // no-op with interval 0
    hub.tick(1000);
    hub.event(t, 42, "decision", "{\"k\": 1}");
    EXPECT_EQ(hub.sampleCount(), 0u);
    EXPECT_EQ(hub.eventCount(), 1u);
}

TEST(TelemetryHub, TrackRegistrationDedupesByName)
{
    TelemetryHub hub(10);
    const int a = hub.track("alloc");
    const int b = hub.track("core0");
    EXPECT_NE(a, b);
    EXPECT_EQ(hub.track("alloc"), a);
    EXPECT_EQ(hub.track("core0"), b);
}

TEST(TelemetryHub, RenderFormats)
{
    std::uint64_t ctr = 0;
    TelemetryHub hub(100);
    hub.counter("squashes", [&] { return ctr; });
    const int t = hub.track("core0");
    hub.beginSampling(0);
    hub.event(t, 7, "migrate", "{\"thread\": 3}");

    const std::string ts = hub.renderTimeSeries();
    EXPECT_EQ(ts.find("{\"schema\": \"smtsim-ts-v1\", "
                      "\"interval\": 100, \"channels\": "
                      "[{\"name\": \"squashes\", "
                      "\"kind\": \"counter\"}]}\n"),
              0u)
        << ts;

    const std::string tr = hub.renderChromeTrace();
    // Track named through an "M" metadata record...
    EXPECT_NE(tr.find("{\"name\": \"thread_name\", \"ph\": \"M\", "
                      "\"pid\": 0, \"tid\": 0, "
                      "\"args\": {\"name\": \"core0\"}}"),
              std::string::npos)
        << tr;
    // ...and the event is an instant with verbatim args.
    EXPECT_NE(tr.find("{\"name\": \"migrate\", \"ph\": \"i\", "
                      "\"s\": \"t\", \"ts\": 7, \"pid\": 0, "
                      "\"tid\": 0, \"args\": {\"thread\": 3}}"),
              std::string::npos)
        << tr;
}

TEST(TelemetryHub, ChromeTraceEscapesSpecialNames)
{
    // Channel, track, and event names containing JSON-hostile
    // characters must not break either render format.
    std::uint64_t ctr = 0;
    TelemetryHub hub(10);
    hub.counter("c\"quote", [&] { return ctr; });
    const int t = hub.track("track\\back\"slash");
    hub.beginSampling(0);
    hub.tick(10);
    hub.event(t, 5, "ev\nline");

    // The Chrome trace is one JSON document: it must parse, and the
    // names must round-trip through the escaping.
    JsonValue doc;
    const std::string tr = hub.renderChromeTrace();
    ASSERT_TRUE(parseJson(tr, doc)) << tr;
    const JsonValue *evs = doc.find("traceEvents");
    ASSERT_NE(evs, nullptr);
    bool sawTrack = false, sawEvent = false;
    for (const JsonValue &e : evs->arr) {
        const JsonValue *name = e.find("name");
        if (!name)
            continue;
        if (name->str == "thread_name" &&
            e.find("args")->find("name")->str ==
                "track\\back\"slash")
            sawTrack = true;
        if (name->str == "ev\nline")
            sawEvent = true;
    }
    EXPECT_TRUE(sawTrack);
    EXPECT_TRUE(sawEvent);

    // The NDJSON header line (channel names) must parse too.
    const std::string ts = hub.renderTimeSeries();
    JsonValue hdr;
    ASSERT_TRUE(
        parseJson(ts.substr(0, ts.find('\n')), hdr)) << ts;
    EXPECT_EQ(hdr.find("channels")->arr[0].find("name")->str,
              "c\"quote");
}

TEST(TelemetryHub, TimeSeriesFooterCountsWithoutDrops)
{
    std::uint64_t ctr = 0;
    TelemetryHub hub(5);
    hub.counter("c", [&] { return ctr; });
    const int t = hub.track("x");
    hub.beginSampling(0);
    for (Cycle c = 5; c <= 15; c += 5)
        hub.tick(c);
    hub.event(t, 7, "e");
    hub.event(t, 9, "e");

    // Footer reports exact sample/event totals and explicit zero
    // drop counters when nothing overflowed.
    EXPECT_NE(hub.renderTimeSeries().find(
                  "{\"samples\": 3, \"events\": 2, "
                  "\"droppedSamples\": 0, \"droppedEvents\": 0}"),
              std::string::npos);
}

TEST(TelemetryHub, ChromeTraceSplicesExtraHostEvents)
{
    const std::string extra =
        "{\"name\": \"host:stage.fetch\", \"ph\": \"X\", "
        "\"ts\": 1, \"dur\": 2, \"pid\": 1, \"tid\": 0}";

    // Splice into an empty hub: the fragment is the only event.
    TelemetryHub empty(0);
    JsonValue doc;
    ASSERT_TRUE(parseJson(empty.renderChromeTrace(extra), doc));
    ASSERT_EQ(doc.find("traceEvents")->arr.size(), 1u);
    EXPECT_EQ(doc.find("traceEvents")->arr[0].find("pid")->asU64(),
              1u);

    // Splice after real events: comma placement must stay valid.
    TelemetryHub hub(0);
    const int t = hub.track("x");
    hub.beginSampling(0);
    hub.event(t, 3, "e");
    ASSERT_TRUE(parseJson(hub.renderChromeTrace(extra), doc));
    // metadata record + event + host event
    EXPECT_EQ(doc.find("traceEvents")->arr.size(), 3u);

    // No extra events: byte-identical to the no-argument render.
    EXPECT_EQ(hub.renderChromeTrace(), hub.renderChromeTrace(""));
}

// ---------------------------------------------------------------
// sidecar writes
// ---------------------------------------------------------------

/** Open file descriptors of this process. */
std::size_t
openFdCount()
{
    std::size_t n = 0;
    DIR *d = opendir("/proc/self/fd");
    if (!d)
        return 0;
    while (readdir(d))
        ++n;
    closedir(d);
    return n;
}

TEST(TelemetryFiles, FullDiskClosesTheFile)
{
    char tmpl[] = "/tmp/smtsim-telemetry-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string base = std::string(dir) + "/full";
    const std::string trace = base + ".trace.json";
    ASSERT_EQ(symlink("/dev/full", trace.c_str()), 0);

    // Far more than one stdio buffer, so fwrite itself comes up
    // short rather than only the flush in fclose.
    TelemetryHub hub(0);
    const int t = hub.track("core0");
    for (Cycle c = 0; c < 5000; ++c)
        hub.event(t, c, "decision", "{\"k\": 1}");

    const std::size_t before = openFdCount();
    ASSERT_GT(before, 0u);
    EXPECT_FALSE(writeTelemetryFiles(hub, "", base));
    EXPECT_EQ(openFdCount(), before);

    unlink(trace.c_str());
    rmdir(dir);
}

// ---------------------------------------------------------------
// zero perturbation + cross-worker-count determinism
// ---------------------------------------------------------------

SimConfig
telemetryChipConfig(int chipJobs)
{
    SimConfig cfg;
    cfg.soc.numCores = 2;
    cfg.soc.contextsPerCore = 2;
    cfg.soc.allocator = AllocatorKind::Symbiosis;
    cfg.soc.epochCycles = 700;
    cfg.soc.drainTimeout = 400;
    cfg.soc.llcArbiter = "chip-dcra";
    cfg.soc.chipJobs = chipJobs;
    return cfg;
}

const std::vector<std::string> &
chipBenches()
{
    static const std::vector<std::string> b = {"mcf", "gzip", "art",
                                               "crafty"};
    return b;
}

TEST(TelemetrySim, AttachingAHubPerturbsNothing)
{
    // A hub pins every quantum to one cycle, so a hub-attached run
    // ticks every cycle and never skips one: it is the per-cycle
    // reference. The bare run skips dead cycles wherever its policy's
    // bound allows, and must match it in every SimResult field, for
    // every policy, on a memory-bound and a mixed pair, and on a
    // 3-thread memory-bound cell long enough for FLUSH and FLUSH++ to
    // flush, so their own skip bounds are exercised too.
    struct Case
    {
        const char *workload;
        Cycle memLatency;
        std::uint64_t commits;
        bool flushes; //!< the FLUSH family must flush here
    };
    const Case cases[] = {{"MEM2.g1", 500, 4000, false},
                          {"MIX2.g3", 300, 4000, false},
                          {"MEM3.g4", 300, 8000, true}};
    for (const char *name : policyNames()) {
        for (const Case &c : cases) {
            const std::string what = std::string(name) + " on " +
                c.workload + " at mem " + std::to_string(c.memLatency);
            SimConfig cfg;
            cfg.mem.memLatency = c.memLatency;
            std::vector<std::string> benches;
            for (const Workload &w : allWorkloads()) {
                if (w.id == c.workload)
                    benches = w.benches;
            }
            ASSERT_GE(benches.size(), 2u) << what;
            const PolicyKind kind = parsePolicyKind(name);

            ChipSimulator bare(cfg, benches, kind);
            const SimResult a = bare.run(c.commits, 2'000'000, 2000);
            EXPECT_GT(bare.pipeline(0).cyclesSkipped(), 0u) << what;

            TelemetryHub hub(500);
            ChipSimulator traced(cfg, benches, kind);
            traced.setTelemetry(&hub);
            const SimResult b = traced.run(c.commits, 2'000'000, 2000);
            EXPECT_EQ(traced.pipeline(0).cyclesSkipped(), 0u) << what;
            expectSameResult(a, b, what);
            EXPECT_GT(hub.sampleCount(), 0u) << what;
            if (c.flushes && (kind == PolicyKind::Flush ||
                              kind == PolicyKind::FlushPp)) {
                std::uint64_t flushes = 0;
                for (const ThreadResult &t : a.threads)
                    flushes += t.flushes;
                EXPECT_GT(flushes, 0u) << what;
            }

            // A single core's channels carry the chip's "c0." prefix,
            // next to the chip-level per-thread IPC.
            const std::string ts = hub.renderTimeSeries();
            const std::string header = ts.substr(0, ts.find('\n'));
            EXPECT_NE(header.find("\"c0.t0.ipc\""), std::string::npos)
                << header;
            EXPECT_NE(header.find("\"t0.ipc\""), std::string::npos)
                << header;
        }
    }
}

TEST(TelemetrySim, ChipHubPerturbsNothing)
{
    ChipSimulator bare(telemetryChipConfig(1), chipBenches(),
                       PolicyKind::Dcra);
    const SimResult a = bare.run(3000, 2'000'000);

    TelemetryHub hub(500);
    ChipSimulator traced(telemetryChipConfig(1), chipBenches(),
                         PolicyKind::Dcra);
    traced.setTelemetry(&hub);
    const SimResult b = traced.run(3000, 2'000'000);

    expectSameResult(a, b, "2-core chip-dcra");
    EXPECT_GT(hub.sampleCount(), 0u);
    EXPECT_GT(hub.eventCount(), 0u);
}

TEST(TelemetrySim, ChipTelemetryByteIdenticalAcrossWorkers)
{
    // A hub pins the chip's quanta to one cycle: its main-thread
    // events and the LLC-stream events share one ordered vector.
    // Every worker count must render the same bytes, including two
    // cores per worker on the 4-core chip.
    auto capture = [](int cores, int chipJobs) {
        SimConfig cfg = telemetryChipConfig(chipJobs);
        cfg.soc.numCores = cores;
        std::vector<std::string> benches = chipBenches();
        if (cores == 4)
            benches.insert(benches.end(),
                           {"twolf", "bzip2", "equake", "vpr"});
        TelemetryHub hub(500);
        ChipSimulator chip(cfg, benches, PolicyKind::Dcra);
        chip.setTelemetry(&hub);
        (void)chip.run(3000, 2'000'000, 500);
        return std::make_pair(hub.renderTimeSeries(),
                              hub.renderChromeTrace());
    };
    for (const int cores : {2, 4}) {
        const auto serial = capture(cores, 1);
        for (int jobs = 2; jobs <= cores; jobs *= 2) {
            const auto parallel = capture(cores, jobs);
            EXPECT_EQ(serial.first, parallel.first)
                << cores << " cores, jobs=" << jobs;
            EXPECT_EQ(serial.second, parallel.second)
                << cores << " cores, jobs=" << jobs;
        }
        // The run is long enough to carry real content in both
        // files, LLC-stream events included.
        EXPECT_NE(serial.first.find("\"cycle\": "), std::string::npos);
        EXPECT_NE(serial.second.find("\"phase-slow\""),
                  std::string::npos);
        EXPECT_NE(serial.second.find("\"llc-gate\""),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------
// sweep integration: v2 schema, cross---jobs bytes, v1 pin
// ---------------------------------------------------------------

SweepSpec
smallSweep()
{
    SweepSpec spec;
    spec.name = "telemetry-test";
    spec.commits = 1500;
    spec.warmup = 300;
    spec.computeHmean = false;
    spec.workloads = {adHocWorkload({"gzip", "mcf"})};
    spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};
    return spec;
}

TEST(TelemetrySweep, V2JsonByteIdenticalAcrossJobs)
{
    char tmpl[] = "/tmp/smtsim-telemetry-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);

    auto runSweep = [&](int jobs) {
        SweepSpec spec = smallSweep();
        spec.telemetry.tracePrefix = std::string(dir) + "/t";
        spec.telemetry.statsInterval = 250;
        SweepRunner runner(std::move(spec), jobs);
        return JsonSink().render(runner.run());
    };
    const std::string serial = runSweep(1);
    const std::string parallel = runSweep(2);
    EXPECT_EQ(serial, parallel);

    // Telemetry upgrades the document to v2 with provenance and
    // per-run sidecar references named by the deterministic job
    // index.
    EXPECT_NE(serial.find("\"schema\": \"smtsim-sweep-v2\""),
              std::string::npos);
    EXPECT_NE(serial.find("\"provenance\": "), std::string::npos);
    EXPECT_NE(serial.find("\"gitDescribe\": "), std::string::npos);
    EXPECT_NE(serial.find("t.job0.ts.ndjson"), std::string::npos);
    EXPECT_NE(serial.find("t.job1.trace.json"), std::string::npos);
}

TEST(TelemetrySweep, TsOutAloneWritesOnlyTimeSeries)
{
    char tmpl[] = "/tmp/smtsim-telemetry-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);

    SweepSpec spec = smallSweep();
    spec.telemetry.tsPrefix = std::string(dir) + "/ts";
    spec.telemetry.statsInterval = 250;
    SweepRunner runner(std::move(spec), 1);
    const std::string json = JsonSink().render(runner.run());

    // v2 document referencing the time-series sidecars, but no
    // trace entries — no event tracer was requested.
    EXPECT_NE(json.find("\"schema\": \"smtsim-sweep-v2\""),
              std::string::npos);
    EXPECT_NE(json.find("ts.job0.ts.ndjson"), std::string::npos);
    EXPECT_NE(json.find("\"tsPrefix\""), std::string::npos);
    EXPECT_EQ(json.find("trace.json"), std::string::npos);

    // On disk: the ts file exists, the trace file does not.
    EXPECT_TRUE(std::ifstream(std::string(dir) + "/ts.job0.ts.ndjson")
                    .good());
    EXPECT_FALSE(
        std::ifstream(std::string(dir) + "/ts.job0.trace.json")
            .good());
}

TEST(TelemetrySweep, OffKeepsTheV1Bytes)
{
    SweepRunner runner(smallSweep(), 1);
    const std::string json = JsonSink().render(runner.run());
    EXPECT_NE(json.find("\"schema\": \"smtsim-sweep-v1\""),
              std::string::npos);
    EXPECT_EQ(json.find("smtsim-sweep-v2"), std::string::npos);
    EXPECT_EQ(json.find("\"provenance\""), std::string::npos);
    EXPECT_EQ(json.find("\"telemetry\""), std::string::npos);
}

} // anonymous namespace
