/**
 * @file
 * Tests for the host-side profiler (`--prof`): scope attribution
 * arithmetic, span buffer caps, NDJSON render validity (every line
 * parses and the header/footer carry the pinned smtsim-prof-v1
 * shape), Chrome-trace event splicing, the zero-perturbation
 * guarantee (attaching a profiler changes no simulation outcome,
 * single-core and chip), wavefront contention records under
 * --chip-jobs 2, and the prof-report aggregator over synthetic
 * sidecar files.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "prof/host_info.hh"
#include "prof/host_profiler.hh"
#include "prof/prof_report.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "support/same_result.hh"

namespace {

using namespace smt;
using smt::test::expectSameResult;

/** Split NDJSON text into its (non-empty) lines. */
std::vector<std::string>
ndjsonLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t nl = text.find('\n', pos);
        const std::size_t end =
            nl == std::string::npos ? text.size() : nl;
        if (end > pos)
            lines.push_back(text.substr(pos, end - pos));
        pos = end + 1;
    }
    return lines;
}

/** Id of the scope named @p name, or -1 (never registers one). */
int
scopeIdOf(const HostProfiler &prof, const std::string &name)
{
    for (std::size_t i = 0; i < prof.scopeCount(); ++i) {
        if (prof.scopeName(static_cast<int>(i)) == name)
            return static_cast<int>(i);
    }
    return -1;
}

// ---------------------------------------------------------------
// profiler unit tests
// ---------------------------------------------------------------

TEST(HostProfiler, ScopeAttribution)
{
    HostProfiler prof(/*sampleEvery=*/8);
    EXPECT_EQ(prof.sampleEvery(), 8u);

    const int a = prof.scope("stage.fetch");
    const int b = prof.scope("stage.commit");
    EXPECT_NE(a, b);
    // Registration dedupes by name.
    EXPECT_EQ(prof.scope("stage.fetch"), a);
    EXPECT_EQ(prof.scopeCount(), 2u);
    EXPECT_EQ(prof.scopeName(a), "stage.fetch");

    prof.add(a, 100, 150);
    prof.add(a, 200, 320);
    prof.add(b, 0, 5);
    EXPECT_EQ(prof.scopeHits(a), 2u);
    EXPECT_EQ(prof.scopeNs(a), 170u);
    EXPECT_EQ(prof.scopeMaxNs(a), 120u);
    EXPECT_EQ(prof.scopeHits(b), 1u);
    EXPECT_EQ(prof.scopeNs(b), 5u);

    // nowNs is monotonic host time.
    const std::uint64_t t0 = prof.nowNs();
    const std::uint64_t t1 = prof.nowNs();
    EXPECT_GE(t1, t0);
}

TEST(HostProfiler, SpanCapCountsDrops)
{
    HostProfiler prof(/*sampleEvery=*/1, /*maxSpans=*/3);
    const int s = prof.scope("x");

    // Spans off by default: nothing buffered, nothing dropped.
    prof.add(s, 0, 10);
    EXPECT_EQ(prof.spanCount(), 0u);
    EXPECT_EQ(prof.droppedSpanCount(), 0u);

    prof.enableSpans(true);
    for (int i = 0; i < 5; ++i)
        prof.add(s, static_cast<std::uint64_t>(i * 10),
                 static_cast<std::uint64_t>(i * 10 + 5));
    EXPECT_EQ(prof.spanCount(), 3u);
    EXPECT_EQ(prof.droppedSpanCount(), 2u);
    // The attribution totals still see every add.
    EXPECT_EQ(prof.scopeHits(s), 6u);

    // The footer reports the drop count.
    EXPECT_NE(prof.renderNdjson("t").find("\"droppedSpans\": 2"),
              std::string::npos);
}

TEST(HostProfiler, NdjsonEveryLineParsesAndShapeIsPinned)
{
    HostProfiler prof(/*sampleEvery=*/32);
    const int s = prof.scope("stage.fetch");
    prof.add(s, 10, 30);
    prof.record("{\"type\": \"run\", \"wallNs\": 1234}");

    const std::string text = prof.renderNdjson("job7");
    const std::vector<std::string> lines = ndjsonLines(text);
    // header + 1 scope + 1 record + footer
    ASSERT_EQ(lines.size(), 4u);

    std::vector<JsonValue> vals(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        ASSERT_TRUE(parseJson(lines[i], vals[i]))
            << "line " << i << ": " << lines[i];

    // Header: schema, source tag, sample divisor, host facts with
    // loadavg, build provenance.
    const JsonValue &hdr = vals[0];
    ASSERT_NE(hdr.find("schema"), nullptr);
    EXPECT_EQ(hdr.find("schema")->str, "smtsim-prof-v1");
    EXPECT_EQ(hdr.find("source")->str, "job7");
    EXPECT_EQ(hdr.find("sampleEvery")->asU64(), 32u);
    ASSERT_NE(hdr.find("host"), nullptr);
    EXPECT_NE(hdr.find("host")->find("cpus"), nullptr);
    EXPECT_NE(hdr.find("provenance"), nullptr);

    // Scope line carries the totals and its sampling divisor (1 for
    // an exact scope).
    const JsonValue &sc = vals[1];
    EXPECT_EQ(sc.find("type")->str, "scope");
    EXPECT_EQ(sc.find("name")->str, "stage.fetch");
    EXPECT_EQ(sc.find("hits")->asU64(), 1u);
    EXPECT_EQ(sc.find("ns")->asU64(), 20u);
    EXPECT_EQ(sc.find("maxNs")->asU64(), 20u);
    EXPECT_EQ(sc.find("every")->asU64(), 1u);

    // record() lines pass through verbatim.
    EXPECT_EQ(lines[2], "{\"type\": \"run\", \"wallNs\": 1234}");

    // Footer counts.
    const JsonValue &ft = vals[3];
    EXPECT_EQ(ft.find("type")->str, "footer");
    EXPECT_EQ(ft.find("scopes")->asU64(), 1u);
    EXPECT_EQ(ft.find("records")->asU64(), 1u);
    EXPECT_EQ(ft.find("spans")->asU64(), 0u);
    EXPECT_EQ(ft.find("droppedSpans")->asU64(), 0u);
}

TEST(HostProfiler, SampledScopesCarryTheirDivisor)
{
    HostProfiler prof(/*sampleEvery=*/32);
    const int exact = prof.scope("wave.main.await");
    const int sampled = prof.scope("c0.tick", /*sampled=*/true);
    EXPECT_EQ(prof.scopeEvery(exact), 1u);
    EXPECT_EQ(prof.scopeEvery(sampled), 32u);
    // Lookups by name keep the registered kind.
    EXPECT_EQ(prof.scope("c0.tick"), sampled);
    EXPECT_EQ(prof.scopeEvery(prof.scope("c0.tick")), 32u);
    EXPECT_NE(prof.renderNdjson("t").find(
                  "\"name\": \"c0.tick\", \"hits\": 0, \"ns\": 0, "
                  "\"maxNs\": 0, \"every\": 32}"),
              std::string::npos);
}

TEST(HostProfiler, ChromeTraceEventsAreValidJson)
{
    HostProfiler prof(1);
    const int s = prof.scope("stage.fetch");
    const int w = prof.scope("wave.w1.idle");
    prof.enableSpans(true);
    prof.add(s, 1000, 2000);
    prof.add(w, 3000, 4000);

    const std::string events = prof.chromeTraceEvents();
    ASSERT_FALSE(events.empty());

    // The fragment is an array body: wrapping it must parse.
    JsonValue arr;
    ASSERT_TRUE(parseJson("[" + events + "]", arr)) << events;
    ASSERT_EQ(arr.kind, JsonValue::Array);

    bool sawMeta = false, sawSpan = false, sawCounter = false;
    for (const JsonValue &e : arr.arr) {
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        // Host events live under pid 1, away from the simulated
        // tracks at pid 0.
        EXPECT_EQ(e.find("pid")->asU64(), 1u);
        if (ph->str == "M") {
            sawMeta = true;
            EXPECT_EQ(e.find("args")->find("name")->str.rfind(
                          "host:", 0),
                      0u);
        } else if (ph->str == "X") {
            sawSpan = true;
            EXPECT_NE(e.find("dur"), nullptr);
        } else if (ph->str == "C") {
            sawCounter = true;
        }
    }
    EXPECT_TRUE(sawMeta);
    EXPECT_TRUE(sawSpan);
    // Counter samples exist only for the wavefront gate scopes.
    EXPECT_TRUE(sawCounter);
    EXPECT_NE(events.find("wave.w1.idle"), std::string::npos);
}

TEST(HostProfiler, ProfFileBaseNamesJobSidecars)
{
    EXPECT_EQ(profFileBase("p", 0), "p.job0");
    EXPECT_EQ(profFileBase("out/prof", 12), "out/prof.job12");
}

TEST(HostInfoTest, JsonShapeAndLoadavgGate)
{
    HostInfo info;
    info.cpus = 4;
    info.cpuModel = "Test \"CPU\"";
    info.haveLoadavg = true;
    info.load1 = 1.5;
    info.load5 = 0.5;
    info.load15 = 0.25;

    const std::string with = hostInfoJson(info, /*withLoadavg=*/true);
    const std::string without =
        hostInfoJson(info, /*withLoadavg=*/false);
    JsonValue v;
    ASSERT_TRUE(parseJson(with, v)) << with;
    EXPECT_EQ(v.find("cpus")->asU64(), 4u);
    EXPECT_EQ(v.find("cpuModel")->str, "Test \"CPU\"");
    ASSERT_NE(v.find("loadavg"), nullptr);
    EXPECT_EQ(v.find("loadavg")->arr.size(), 3u);

    ASSERT_TRUE(parseJson(without, v)) << without;
    // The cross-run-diffable form must not carry run-varying fields.
    EXPECT_EQ(v.find("loadavg"), nullptr);
}

// ---------------------------------------------------------------
// zero perturbation + wavefront records
// ---------------------------------------------------------------

TEST(ProfSim, AttachingAProfilerPerturbsNothing)
{
    const std::vector<std::string> benches = {"gzip", "mcf"};
    SimConfig cfg;
    ChipSimulator bare(cfg, benches, PolicyKind::Dcra);
    const SimResult a = bare.run(3000, 2'000'000);

    HostProfiler prof(16);
    ChipSimulator timed(cfg, benches, PolicyKind::Dcra);
    timed.setHostProfiler(&prof);
    const SimResult b = timed.run(3000, 2'000'000);

    expectSameResult(a, b, "gzip,mcf DCRA");
    // The profiler timed the core's tick and every pipeline stage on
    // exactly the sampled cycles (1 in 16) the core ticked; the chip
    // counts the sampled cycles it skipped instead, and together they
    // are every sampled cycle. A single core's scopes carry the
    // chip's "c0." prefix like any other core's.
    const std::uint64_t skipped = timed.sampledCyclesSkipped(0);
    EXPECT_GT(skipped, 0u);
    int stages = 0, ticks = 0;
    for (std::size_t s = 0; s < prof.scopeCount(); ++s) {
        const int id = static_cast<int>(s);
        const std::string &name = prof.scopeName(id);
        if (name.rfind("c0.stage.", 0) == 0)
            ++stages;
        else if (name == "c0.tick")
            ++ticks;
        else
            continue;
        EXPECT_EQ(prof.scopeHits(id) + skipped, b.cycles / 16) << name;
    }
    EXPECT_EQ(stages, 8);
    EXPECT_EQ(ticks, 1);
}

SimConfig
profChipConfig(int chipJobs)
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

TEST(ProfSim, ChipProfilerPerturbsNothingAndRecordsWavefront)
{
    const std::vector<std::string> benches = {"mcf", "gzip", "art",
                                              "crafty"};
    ChipSimulator bare(profChipConfig(2), benches, PolicyKind::Dcra);
    const SimResult a = bare.run(3000, 2'000'000);

    HostProfiler prof(16);
    ChipSimulator timed(profChipConfig(2), benches,
                        PolicyKind::Dcra);
    timed.setHostProfiler(&prof);
    const SimResult b = timed.run(3000, 2'000'000);

    expectSameResult(a, b, "2-core chip-dcra, 2 workers");

    // With two tick workers the wavefront stats get recorded: one
    // wave-config line plus one wavefront line per core, and every
    // line of the sidecar parses.
    const std::string text = prof.renderNdjson("job0");
    int waveConfig = 0, wavefront = 0;
    for (const std::string &line : ndjsonLines(text)) {
        JsonValue v;
        ASSERT_TRUE(parseJson(line, v)) << line;
        const JsonValue *type = v.find("type");
        if (!type)
            continue;
        if (type->str == "wave-config") {
            ++waveConfig;
            EXPECT_EQ(v.find("workers")->asU64(), 2u);
            EXPECT_EQ(v.find("cores")->asU64(), 2u);
        } else if (type->str == "wavefront") {
            ++wavefront;
            EXPECT_NE(v.find("gateWaits"), nullptr);
            EXPECT_NE(v.find("waitNs"), nullptr);
            ASSERT_NE(v.find("awaited"), nullptr);
            EXPECT_EQ(v.find("awaited")->arr.size(), 2u);
        }
    }
    EXPECT_EQ(waveConfig, 1);
    EXPECT_EQ(wavefront, 2);

    // Core ticks are sampled on the cycles divisible by 16, the same
    // cycles on every core: each core ticked or skipped every one of
    // them. The wavefront scopes are exact and hit once per quantum,
    // far less often than once per cycle.
    const int t0 = scopeIdOf(prof, "c0.tick");
    const int t1 = scopeIdOf(prof, "c1.tick");
    ASSERT_GE(t0, 0);
    ASSERT_GE(t1, 0);
    EXPECT_EQ(prof.scopeEvery(t0), 16u);
    EXPECT_EQ(prof.scopeHits(t0) + timed.sampledCyclesSkipped(0),
              b.cycles / 16);
    EXPECT_EQ(prof.scopeHits(t1) + timed.sampledCyclesSkipped(1),
              b.cycles / 16);
    EXPECT_GT(timed.sampledCyclesSkipped(0) +
                  timed.sampledCyclesSkipped(1),
              0u);
    const int await = scopeIdOf(prof, "wave.main.await");
    ASSERT_GE(await, 0);
    EXPECT_EQ(prof.scopeEvery(await), 1u);
    EXPECT_GT(prof.scopeHits(await), 0u);
    EXPECT_LT(prof.scopeHits(await) * 4, b.cycles);
}

// ---------------------------------------------------------------
// prof-report aggregation
// ---------------------------------------------------------------

TEST(ProfReport, AggregatesSidecars)
{
    char tmpl[] = "/tmp/smtsim-prof-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string d(dir);

    // A per-job sidecar with stage scopes and a run record...
    HostProfiler jobProf(64);
    const int f = jobProf.scope("stage.fetch");
    const int c = jobProf.scope("stage.commit");
    jobProf.add(f, 0, 3'000'000);
    jobProf.add(c, 0, 1'000'000);
    jobProf.record("{\"type\": \"run\", \"wallNs\": 5000000}");
    jobProf.record("{\"type\": \"wave-config\", \"workers\": 2, "
                   "\"cores\": 2}");
    jobProf.record(
        "{\"type\": \"wavefront\", \"core\": 0, \"worker\": 0, "
        "\"gateWaits\": 7, \"spinIters\": 100, \"yieldIters\": 3, "
        "\"yieldTransitions\": 1, \"waitNs\": 250000, "
        "\"awaited\": [0, 7]}");
    ASSERT_TRUE(writeHostProfile(jobProf, d + "/p.job0", "job0"));

    // ...and a runner sidecar with job + baseline records.
    HostProfiler runProf(64);
    runProf.record("{\"type\": \"job\", \"job\": 0, \"wallNs\": "
                   "5000000, \"queueNs\": 1000, \"forkNs\": 0, "
                   "\"reapNs\": 0, \"attempts\": 1}");
    runProf.record("{\"type\": \"job\", \"job\": 1, \"wallNs\": "
                   "7000000, \"queueNs\": 2000, \"forkNs\": 0, "
                   "\"reapNs\": 0, \"attempts\": 1}");
    runProf.record("{\"type\": \"baseline\", \"computes\": 3, "
                   "\"waits\": 5, \"waitNs\": 400000}");
    ASSERT_TRUE(writeHostProfile(runProf, d + "/p.runner", "runner"));

    ProfReportOptions opts;
    opts.topScopes = 5;
    std::string out, err;
    ASSERT_TRUE(renderProfReport(
        {d + "/p.job0.prof.ndjson", d + "/p.runner.prof.ndjson"},
        opts, out, err))
        << err;

    EXPECT_NE(out.find("top scopes"), std::string::npos) << out;
    EXPECT_NE(out.find("stage.fetch"), std::string::npos);
    EXPECT_NE(out.find("wavefront gate waits"), std::string::npos);
    EXPECT_NE(out.find("== jobs (2"), std::string::npos);
    EXPECT_NE(out.find("baseline cache"), std::string::npos);
    EXPECT_NE(out.find("computes 3"), std::string::npos);
    // The report itself repeats the determinism disclaimer.
    EXPECT_NE(out.find("nondeterministic"), std::string::npos);
}

/** The cells of the report row whose first cell is @p name. */
std::vector<std::string>
reportRow(const std::string &report, const std::string &name)
{
    std::size_t pos = 0;
    while (pos < report.size()) {
        std::size_t nl = report.find('\n', pos);
        if (nl == std::string::npos)
            nl = report.size();
        std::vector<std::string> cells;
        std::size_t i = pos;
        while (i < nl) {
            while (i < nl && report[i] == ' ')
                ++i;
            const std::size_t start = i;
            while (i < nl && report[i] != ' ')
                ++i;
            if (i > start)
                cells.push_back(report.substr(start, i - start));
        }
        if (!cells.empty() && cells[0] == name)
            return cells;
        pos = nl + 1;
    }
    return {};
}

TEST(ProfReport, ScalesSampledScopesToEstimates)
{
    char tmpl[] = "/tmp/smtsim-prof-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string d(dir);

    // An exact scope timed for 10 ms in total, and a 1-in-64 sampled
    // one timed for 1 ms: the sampled one stands for ~64 ms of host
    // time and must rank first, with the shares taken over the
    // estimates (64 / 74 and 10 / 74).
    HostProfiler prof(64);
    const int exact = prof.scope("wave.main.await");
    const int sampled = prof.scope("c0.tick", /*sampled=*/true);
    prof.add(exact, 0, 10'000'000);
    prof.add(sampled, 0, 1'000'000);
    ASSERT_TRUE(writeHostProfile(prof, d + "/p.job0", "job0"));

    ProfReportOptions opts;
    std::string out, err;
    ASSERT_TRUE(renderProfReport({d + "/p.job0.prof.ndjson"}, opts,
                                 out, err))
        << err;
    EXPECT_NE(out.find("est_ms"), std::string::npos) << out;
    EXPECT_LT(out.find("c0.tick"), out.find("wave.main.await")) << out;

    // scope, every, hits, timed_ms, est_ms, mean_us, max_us, share
    const std::vector<std::string> tick = reportRow(out, "c0.tick");
    ASSERT_EQ(tick.size(), 8u) << out;
    EXPECT_EQ(tick[1], "64");
    EXPECT_EQ(tick[3], "1.000");
    EXPECT_EQ(tick[4], "64.000");
    EXPECT_EQ(tick[7], "86.5");
    const std::vector<std::string> wait =
        reportRow(out, "wave.main.await");
    ASSERT_EQ(wait.size(), 8u) << out;
    EXPECT_EQ(wait[1], "1");
    EXPECT_EQ(wait[3], "10.000");
    EXPECT_EQ(wait[4], "10.000");
    EXPECT_EQ(wait[7], "13.5");
}

TEST(ProfReport, SharesNestedScopesOfTheRunWall)
{
    char tmpl[] = "/tmp/smtsim-prof-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string d(dir);

    // c0.tick holds its two stage scopes, so shares over the summed
    // estimates (3 + 1 + 1 ms) would count the stage time twice. The
    // run record gives the base instead: 3, 1 and 1 of its 4 ms.
    HostProfiler prof(64);
    const int tick = prof.scope("c0.tick");
    const int fetch = prof.scope("c0.stage.fetch");
    const int issue = prof.scope("c0.stage.issue");
    prof.add(tick, 0, 3'000'000);
    prof.add(fetch, 0, 1'000'000);
    prof.add(issue, 0, 1'000'000);
    prof.record("{\"type\": \"run\", \"wallNs\": 4000000}");
    ASSERT_TRUE(writeHostProfile(prof, d + "/p.job0", "job0"));

    ProfReportOptions opts;
    std::string out, err;
    ASSERT_TRUE(renderProfReport({d + "/p.job0.prof.ndjson"}, opts,
                                 out, err))
        << err;
    EXPECT_NE(out.find("run_share%"), std::string::npos) << out;
    EXPECT_EQ(out.find("est_share%"), std::string::npos) << out;
    // scope, every, hits, timed_ms, est_ms, mean_us, max_us, share
    const std::vector<std::string> tickRow = reportRow(out, "c0.tick");
    const std::vector<std::string> fetchRow =
        reportRow(out, "c0.stage.fetch");
    const std::vector<std::string> issueRow =
        reportRow(out, "c0.stage.issue");
    ASSERT_EQ(tickRow.size(), 8u) << out;
    ASSERT_EQ(fetchRow.size(), 8u) << out;
    ASSERT_EQ(issueRow.size(), 8u) << out;
    EXPECT_EQ(tickRow[7], "75.0");
    EXPECT_EQ(fetchRow[7], "25.0");
    EXPECT_EQ(issueRow[7], "25.0");
}

TEST(ProfReport, RejectsWrongSchemaAndMissingFiles)
{
    char tmpl[] = "/tmp/smtsim-prof-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string bad = std::string(dir) + "/bad.prof.ndjson";
    {
        std::ofstream f(bad);
        f << "{\"schema\": \"smtsim-ts-v1\"}\n";
    }

    ProfReportOptions opts;
    std::string out, err;
    EXPECT_FALSE(renderProfReport({bad}, opts, out, err));
    EXPECT_FALSE(err.empty());

    err.clear();
    EXPECT_FALSE(renderProfReport(
        {std::string(dir) + "/nope.prof.ndjson"}, opts, out, err));
    EXPECT_FALSE(err.empty());
}

} // anonymous namespace
