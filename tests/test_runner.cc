/**
 * @file
 * Tests for the parallel experiment-runner subsystem (src/runner/):
 * SweepSpec expansion, config overrides, the JobScheduler, the
 * concurrency-safe BaselineCache, result aggregation, and the
 * headline guarantee that a parallel sweep is bit-identical to a
 * serial one across every output format.
 */

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <csignal>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "runner/baseline_cache.hh"
#include "runner/job_exec.hh"
#include "runner/job_scheduler.hh"
#include "runner/journal.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "runner/sweep_spec.hh"
#include "sim/metrics.hh"
#include "soc/chip.hh"
#include "support/same_result.hh"

namespace {

using namespace smt;
using smt::test::expectSameResult;

// ---------------------------------------------------------------
// SweepSpec expansion
// ---------------------------------------------------------------

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.name = "test";
    spec.commits = 1'500;
    spec.warmup = 0;
    spec.workloads = {adHocWorkload({"gzip", "mcf"}),
                      adHocWorkload({"gzip", "twolf"})};
    spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};
    return spec;
}

TEST(SweepSpec, ExpansionOrderAndCount)
{
    SweepSpec spec = tinySpec();
    ConfigOverride a;
    a.label = "a";
    ConfigOverride b;
    b.label = "b";
    b.memLatency = 100;
    spec.configs = {a, b};

    const std::vector<SweepJob> jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), spec.jobCount());
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u);

    // index = (config * nPolicies + policy) * nWorkloads + workload
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].index, i);
        EXPECT_EQ(jobs[i].index,
                  (jobs[i].configIdx * spec.policies.size() +
                   jobs[i].policyIdx) *
                          spec.workloads.size() +
                      jobs[i].workloadIdx);
    }
    // workloads innermost, configs outermost
    EXPECT_EQ(jobs[0].workload.id, "gzip+mcf");
    EXPECT_EQ(jobs[1].workload.id, "gzip+twolf");
    EXPECT_TRUE(jobs[0].policy == PolicyKind::Icount);
    EXPECT_TRUE(jobs[2].policy == PolicyKind::Dcra);
    EXPECT_EQ(jobs[3].configIdx, 0u);
    EXPECT_EQ(jobs[4].configIdx, 1u);
    EXPECT_EQ(jobs[4].configLabel, "b");
    EXPECT_EQ(jobs[4].config.mem.memLatency, 100u);
    EXPECT_EQ(jobs[0].config.mem.memLatency,
              SimConfig().mem.memLatency);
}

TEST(SweepSpec, EmptyConfigAxisMeansIdentity)
{
    const SweepSpec spec = tinySpec();
    const std::vector<SweepJob> jobs = expandSweep(spec);
    ASSERT_EQ(jobs.size(), 4u);
    for (const SweepJob &j : jobs) {
        EXPECT_EQ(j.configIdx, 0u);
        EXPECT_EQ(j.configLabel, "");
        EXPECT_EQ(configKey(j.config), configKey(spec.base));
    }
}

TEST(SweepSpec, ConfigOverrideAppliesFields)
{
    ConfigOverride o;
    o.memLatency = 500;
    o.l2Latency = 25;
    o.physRegsPerFile = 320;
    o.iqSize = 32;

    const SimConfig cfg = o.apply(SimConfig());
    EXPECT_EQ(cfg.mem.memLatency, 500u);
    EXPECT_EQ(cfg.mem.l2Latency, 25u);
    EXPECT_EQ(cfg.core.physRegsPerFile, 320);
    for (int q = 0; q < numQueueClasses; ++q)
        EXPECT_EQ(cfg.core.iqSize[q], 32);
}

TEST(SweepSpec, ResourceCapFractionMath)
{
    ConfigOverride o;
    o.iqSize = 32;
    o.caps.push_back({ResIqInt, 0.25});
    o.caps.push_back({ResIqFp, 1.0}); // no-op

    const SimConfig cfg = o.apply(SimConfig());
    // cap applies after the scalar overrides: 25% of 32, not of 80
    EXPECT_EQ(cfg.core.resourceCap[ResIqInt], 8);
    EXPECT_EQ(cfg.core.resourceCap[ResIqFp], -1);
    // a tiny fraction still grants at least one entry
    ConfigOverride tiny;
    tiny.caps.push_back({ResIqLs, 0.0001});
    EXPECT_EQ(tiny.apply(SimConfig()).core.resourceCap[ResIqLs], 1);
}

TEST(SweepSpec, AdHocWorkloadTyping)
{
    EXPECT_TRUE(adHocWorkload({"gzip", "bzip2"}).type ==
                WorkloadType::ILP);
    EXPECT_TRUE(adHocWorkload({"mcf", "twolf"}).type ==
                WorkloadType::MEM);
    EXPECT_TRUE(adHocWorkload({"gzip", "mcf"}).type ==
                WorkloadType::MIX);
    const Workload w = singleBenchWorkload("mcf");
    EXPECT_EQ(w.numThreads, 1);
    EXPECT_EQ(w.id, "mcf");
    ASSERT_EQ(w.benches.size(), 1u);
}

TEST(SweepSpec, ConfigKeySeparatesHardwareConfigs)
{
    const SimConfig base;
    SimConfig regs = base;
    regs.core.physRegsPerFile = 320;
    SimConfig lat = base;
    lat.mem.memLatency = 500;
    EXPECT_EQ(configKey(base), configKey(SimConfig()));
    EXPECT_NE(configKey(base), configKey(regs));
    EXPECT_NE(configKey(base), configKey(lat));
    EXPECT_NE(configKey(regs), configKey(lat));
}

// ---------------------------------------------------------------
// JobScheduler
// ---------------------------------------------------------------

TEST(JobScheduler, RunsEveryIndexExactlyOnce)
{
    for (const int jobs : {1, 2, 8}) {
        const JobScheduler sched(jobs);
        constexpr std::size_t n = 100;
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        sched.run(n, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1);
    }
}

TEST(JobScheduler, HandlesZeroAndFewerJobsThanWorkers)
{
    const JobScheduler sched(8);
    sched.run(0, [](std::size_t) { FAIL(); });
    std::atomic<int> count{0};
    sched.run(2, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 2);
    EXPECT_GE(JobScheduler::hostJobs(), 1);
    EXPECT_EQ(JobScheduler(0).jobs(), JobScheduler::hostJobs());
}

// ---------------------------------------------------------------
// BaselineCache
// ---------------------------------------------------------------

TEST(BaselineCache, ComputesOncePerKeyUnderContention)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        calls.fetch_add(1);
        // widen the race window so losers really do hit the
        // in-flight future path
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return 1.25;
    });

    const SimConfig cfg;
    std::vector<std::thread> threads;
    std::atomic<int> wrong{0};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&]() {
            const double v = cache.ipc(cfg, "gzip", 1000, 0);
            if (v != 1.25)
                wrong.fetch_add(1);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.computeCount(), 1u);
}

TEST(BaselineCache, DistinctKeysPerBenchConfigAndBudget)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        return static_cast<double>(calls.fetch_add(1));
    });
    const SimConfig cfg;
    SimConfig other = cfg;
    other.core.physRegsPerFile = 320;

    cache.ipc(cfg, "gzip", 1000, 0);
    cache.ipc(cfg, "gzip", 1000, 0);   // hit
    cache.ipc(cfg, "mcf", 1000, 0);    // new bench
    cache.ipc(other, "gzip", 1000, 0); // new config
    cache.ipc(cfg, "gzip", 2000, 0);   // new budget
    EXPECT_EQ(cache.computeCount(), 4u);
    EXPECT_EQ(cache.size(), 4u);
}

TEST(BaselineCache, NumThreadsDoesNotSplitTheKey)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        calls.fetch_add(1);
        return 2.0;
    });
    SimConfig two;
    two.core.numThreads = 2;
    SimConfig four;
    four.core.numThreads = 4;
    // A baseline run is single-threaded either way, so these share
    // one cache entry.
    cache.ipc(two, "gzip", 1000, 0);
    cache.ipc(four, "gzip", 1000, 0);
    EXPECT_EQ(cache.computeCount(), 1u);
}

TEST(BaselineCache, DefaultBaselineIgnoresChipShape)
{
    // The cache key leaves cfg.soc out, so the default producer must
    // run the bench alone on one core whatever chip the grid point
    // shapes; otherwise every --cores N sweep's Hmean would change.
    SimConfig chip;
    chip.soc.numCores = 4;
    chip.soc.contextsPerCore = 2;
    chip.soc.llcArbiter = "chip-dcra";
    BaselineCache chipCache;
    BaselineCache plainCache;
    const double a = chipCache.ipc(chip, "mcf", 2000, 0);
    const double b = plainCache.ipc(SimConfig{}, "mcf", 2000, 0);
    EXPECT_TRUE(a == b) // bitwise
        << fmtDoubleExact(a) << " vs " << fmtDoubleExact(b);
}

TEST(BaselineCache, FailedComputeIsRetriedNotPoisoned)
{
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        if (calls.fetch_add(1) == 0)
            throw std::runtime_error("transient");
        return 3.5;
    });
    const SimConfig cfg;
    bool threw = false;
    try {
        cache.ipc(cfg, "gzip", 1000, 0);
    } catch (const std::runtime_error &) {
        threw = true;
    }
    EXPECT_TRUE(threw);
    // the failed entry must not stay cached: the next call retries
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.ipc(cfg, "gzip", 1000, 0), 3.5);
    EXPECT_EQ(cache.computeCount(), 2u);
}

TEST(BaselineCache, DefaultBaselineIsStable)
{
    SimConfig cfg;
    cfg.seed = 8;
    BaselineCache cache;
    const double a = cache.ipc(cfg, "gzip", 5000, 0);
    const double b = cache.ipc(cfg, "gzip", 5000, 0);
    EXPECT_DOUBLE_EQ(a, b);
    EXPECT_GT(a, 0.5);
    EXPECT_EQ(cache.computeCount(), 1u);
}

TEST(BaselineCache, SharedBetweenRunners)
{
    auto cache = std::make_shared<BaselineCache>();
    SweepSpec spec = tinySpec();
    spec.workloads = {adHocWorkload({"gzip", "mcf"})};
    spec.policies = {PolicyKind::Dcra};

    SweepRunner(spec, 2, cache).run();
    const std::uint64_t afterSweep = cache->computeCount();
    EXPECT_EQ(afterSweep, 2u); // gzip + mcf baselines

    // A second sweep differing only in one policy parameter (an
    // ablation variant) reuses the first one's baselines: the ICOUNT
    // baseline runs read no policy parameter.
    spec.base.policy.activityThreshold = 1024;
    SweepRunner(spec, 2, cache).run();
    EXPECT_EQ(cache->computeCount(), afterSweep);
}

// ---------------------------------------------------------------
// Parallel == serial, across every output format
// ---------------------------------------------------------------

TEST(SweepRunner, ParallelMatchesSerialByteForByte)
{
    const SweepSpec spec = tinySpec();

    SweepRunner serial(spec, 1);
    const SweepResults a = serial.run();
    SweepRunner parallel(spec, 4);
    const SweepResults b = parallel.run();

    ASSERT_EQ(a.results.size(), 4u);
    ASSERT_EQ(b.results.size(), a.results.size());

    EXPECT_EQ(JsonSink().render(a), JsonSink().render(b));
    EXPECT_EQ(CsvSink().render(a), CsvSink().render(b));
    EXPECT_EQ(TableSink().render(a), TableSink().render(b));

    // and re-running serially is reproducible
    SweepRunner again(spec, 1);
    EXPECT_EQ(JsonSink().render(again.run()),
              JsonSink().render(a));
}

TEST(SweepRunner, MatchesDirectChipRun)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};
    spec.policies = {PolicyKind::Dcra};
    SweepRunner runner(spec, 2);
    const SweepResults res = runner.run();

    // The reference, written out: one chip run, single-thread
    // baselines from a fresh cache, and Hmean over the two.
    const std::vector<std::string> &benches =
        spec.workloads[0].benches;
    ChipSimulator chip(spec.base, benches, PolicyKind::Dcra);
    const SimResult raw =
        chip.run(spec.commits, spec.maxCycles, spec.warmup);
    BaselineCache cache;
    std::vector<double> multi, single;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        multi.push_back(raw.threads[i].ipc);
        single.push_back(cache.ipc(spec.base, benches[i],
                                   spec.commits, spec.warmup,
                                   spec.maxCycles));
    }

    // Bitwise.
    const RunSummary &got = res.results[0].summary;
    EXPECT_EQ(got.raw.cycles, raw.cycles);
    EXPECT_EQ(got.throughput, raw.throughput());
    EXPECT_EQ(got.hmean, hmeanSpeedup(multi, single));
    ASSERT_EQ(got.multiIpc.size(), multi.size());
    ASSERT_EQ(got.singleIpc.size(), single.size());
    for (std::size_t i = 0; i < multi.size(); ++i) {
        EXPECT_EQ(got.multiIpc[i], multi[i]);
        EXPECT_EQ(got.singleIpc[i], single[i]);
    }

    // Plausible: sharing the core cannot make a thread much faster
    // than running alone.
    EXPECT_GT(got.hmean, 0.0);
    EXPECT_LE(got.hmean, 1.5);
    for (std::size_t i = 0; i < multi.size(); ++i)
        EXPECT_LE(got.multiIpc[i], got.singleIpc[i] * 1.3);
}

TEST(SweepRunner, CellAverageMatchesManualMean)
{
    SweepSpec spec = tinySpec();
    spec.workloads = workloadsOf(2, WorkloadType::MIX);
    spec.policies = {PolicyKind::Icount};
    SweepRunner runner(spec, 0);
    const SweepResults res = runner.run();

    double thr = 0.0;
    double hmean = 0.0;
    for (const JobResult &r : res.results) {
        thr += r.summary.throughput;
        hmean += r.summary.hmean;
    }
    thr /= static_cast<double>(res.results.size());
    hmean /= static_cast<double>(res.results.size());

    const CellAverage avg = cellAverage(res, 2, WorkloadType::MIX,
                                        PolicyKind::Icount);
    EXPECT_DOUBLE_EQ(avg.throughput, thr);
    EXPECT_DOUBLE_EQ(avg.hmean, hmean);
    EXPECT_GT(avg.hmean, 0.0);
}

// ---------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------

TEST(ResultSink, FormatsAndFactory)
{
    ASSERT_TRUE(makeSink("table") != nullptr);
    ASSERT_TRUE(makeSink("csv") != nullptr);
    ASSERT_TRUE(makeSink("json") != nullptr);
    EXPECT_TRUE(makeSink("yaml") == nullptr);
    EXPECT_STREQ(makeSink("json")->name(), "json");

    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};
    spec.policies = {PolicyKind::Icount};
    SweepRunner runner(spec, 1);
    const SweepResults res = runner.run();

    const std::string json = JsonSink().render(res);
    EXPECT_NE(json.find("\"schema\": \"smtsim-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"gzip+mcf\""),
              std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"ICOUNT\""),
              std::string::npos);
    EXPECT_NE(json.find("\"singleIpc\""), std::string::npos);

    const std::string csv = CsvSink().render(res);
    // header + one row per thread
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 1u + 2u);
    EXPECT_EQ(csv.rfind("workload,type,group,policy,config,", 0),
              0u);
}

// ---------------------------------------------------------------
// Fault tolerance: fault plans, result round-trip, journal, resume
// ---------------------------------------------------------------

TEST(FaultPlan, ParsesAndRejects)
{
    FaultPlan p;
    ASSERT_TRUE(FaultPlan::parse("0:crash,3:hang,7:exit1", p));
    EXPECT_TRUE(p.at(0, 0) == FaultKind::Crash);
    EXPECT_TRUE(p.at(3, 0) == FaultKind::Hang);
    EXPECT_TRUE(p.at(7, 0) == FaultKind::Exit1);
    EXPECT_TRUE(p.at(1, 0) == FaultKind::None);
    // faults fire on the first attempt only: a retry must recover
    EXPECT_TRUE(p.at(0, 1) == FaultKind::None);

    EXPECT_FALSE(FaultPlan::parse("nonsense", p));
    EXPECT_FALSE(FaultPlan::parse("0:burn", p));
    EXPECT_FALSE(FaultPlan::parse(":crash", p));
    EXPECT_FALSE(FaultPlan::parse("x:crash", p));
    ASSERT_TRUE(FaultPlan::parse("", p));
    EXPECT_TRUE(p.empty());
}

TEST(RunSummaryJson, RoundTripIsExact)
{
    // A real chip run covers every serialized field with values that
    // stress the double format (%.17g) and the u64 hash range.
    SweepSpec spec = tinySpec();
    spec.workloads = {adHocWorkload({"mcf", "gzip", "art",
                                     "crafty"})};
    spec.policies = {PolicyKind::Dcra};
    ConfigOverride o;
    o.label = "chip";
    o.numCores = 2;
    o.contextsPerCore = 2;
    spec.configs = {o};

    SweepRunner runner(spec, 1);
    const SweepResults res = runner.run();
    const RunSummary &s = res.results[0].summary;
    ASSERT_FALSE(s.raw.coreCommitHashes.empty());

    JsonValue doc;
    ASSERT_TRUE(parseJson(runSummaryToJson(s), doc));
    RunSummary back;
    ASSERT_TRUE(runSummaryFromJson(doc, back));

    EXPECT_EQ(back.throughput, s.throughput);
    EXPECT_EQ(back.hmean, s.hmean);
    EXPECT_EQ(back.multiIpc, s.multiIpc);
    EXPECT_EQ(back.singleIpc, s.singleIpc);
    expectSameResult(back.raw, s.raw, "2-core DCRA");
    // the defining property: the replayed summary re-renders the
    // exact same record bytes
    EXPECT_EQ(runSummaryToJson(back), runSummaryToJson(s));
}

/**
 * @p json with the value of its first @p key member replaced by
 * @p token, or with the member removed when @p token is null.
 */
std::string
withMember(std::string json, const char *key, const char *token)
{
    const std::string member = std::string(",\"") + key + "\":";
    const std::size_t at = json.find(member);
    if (at == std::string::npos)
        return json;
    const std::size_t value = at + member.size();
    const std::size_t end = json.find_first_of(",}", value);
    if (token)
        json.replace(value, end - value, token);
    else
        json.erase(at, end - at);
    return json;
}

TEST(RunSummaryJson, EveryCounterIsAPlainU64)
{
    // A corrupt journal counter must fail the decode, never turn into
    // another value: strtoull would read -1 as 2^64 - 1 and 1.5 as 1.
    RunSummary s;
    s.raw.threads.resize(1);
    s.raw.threads[0].bench = "gzip";
    const std::string good = runSummaryToJson(s);
    const char *const bad[] = {nullptr, "\"7\"", "-1", "1.5", "1e3",
                               "18446744073709551616"};
    for (const ThreadCounterField &f : threadCounterFields) {
        JsonValue doc;
        RunSummary back;
        ASSERT_TRUE(parseJson(withMember(good, f.key, "7"), doc));
        ASSERT_TRUE(runSummaryFromJson(doc, back)) << f.key;
        EXPECT_EQ(back.raw.threads[0].*f.member, 7u) << f.key;

        for (const char *token : bad) {
            const std::string text = withMember(good, f.key, token);
            ASSERT_TRUE(parseJson(text, doc)) << text;
            EXPECT_FALSE(runSummaryFromJson(doc, back)) << text;
        }

        RunSummary max = s;
        max.raw.threads[0].*f.member = UINT64_MAX;
        ASSERT_TRUE(parseJson(runSummaryToJson(max), doc));
        ASSERT_TRUE(runSummaryFromJson(doc, back)) << f.key;
        expectSameResult(back.raw, max.raw, f.key);
    }
}

TEST(Journal, WriteReadRoundTripAndTornTail)
{
    const std::string path = "test_runner_journal_rt.ndjson";
    std::remove(path.c_str());
    const SweepSpec spec = tinySpec();
    const std::vector<SweepJob> jobs = expandSweep(spec);
    const std::string key = sweepSpecKey(spec, jobs);

    RunSummary s;
    s.throughput = 1.0 / 3.0; // needs all 17 digits
    s.hmean = 0.1;
    s.raw.cycles = 12345;
    s.raw.llcArbiter = "static";
    {
        JournalWriter w;
        w.open(path, key, jobs.size(), true);
        ASSERT_TRUE(w.isOpen());
        w.append(2, sweepJobKey(jobs[2]), s);
    }
    // simulate a crash mid-append: a torn trailing record
    {
        std::FILE *f = std::fopen(path.c_str(), "a");
        ASSERT_TRUE(f != nullptr);
        std::fputs("{\"job\":3,\"key\":\"gz", f);
        std::fclose(f);
    }
    JournalReplay replay;
    bool exists = false;
    std::string err;
    ASSERT_TRUE(readJournal(path, replay, exists, err)) << err;
    EXPECT_TRUE(exists);
    EXPECT_EQ(replay.specKey, key);
    EXPECT_EQ(replay.jobCount, jobs.size());
    ASSERT_EQ(replay.summaries.size(), 1u); // torn record dropped
    EXPECT_EQ(replay.summaries[2].throughput, s.throughput);
    EXPECT_EQ(replay.summaries[2].raw.cycles, 12345u);
    EXPECT_EQ(replay.keys[2], sweepJobKey(jobs[2]));

    // a missing file is fine (first run of an unconditional --resume)
    std::remove(path.c_str());
    ASSERT_TRUE(readJournal(path, replay, exists, err));
    EXPECT_FALSE(exists);
}

TEST(Journal, ACorruptCounterIsATornRecord)
{
    // A record whose counter is not a plain u64 takes the torn-record
    // path: dropped as the last record, an error before another one.
    const std::string path = "test_runner_journal_corrupt.ndjson";
    const SweepSpec spec = tinySpec();
    const std::vector<SweepJob> jobs = expandSweep(spec);
    {
        JournalWriter w;
        w.open(path, sweepSpecKey(spec, jobs), jobs.size(), true);
        RunSummary s;
        s.raw.threads.resize(1);
        for (std::size_t j = 0; j < 2; ++j) {
            s.raw.threads[0].fetched = 2976 + j;
            w.append(j, sweepJobKey(jobs[j]), s);
        }
    }
    std::stringstream text;
    text << std::ifstream(path).rdbuf();
    auto replayNegated = [&](const std::string &fetched,
                             std::string &err) {
        std::string t = text.str();
        t.insert(t.find("\"fetched\":" + fetched) + 10, "-");
        std::ofstream(path) << t;
        JournalReplay replay;
        bool exists = false;
        err.clear();
        return readJournal(path, replay, exists, err)
            ? replay.summaries.size()
            : 0u;
    };
    std::string err;
    EXPECT_EQ(replayNegated("2977", err), 1u) << err;
    EXPECT_EQ(replayNegated("2976", err), 0u);
    EXPECT_NE(err.find("malformed record mid-file"), std::string::npos)
        << err;
    std::remove(path.c_str());
}

TEST(Journal, SpecKeyTracksOutcomeChangingState)
{
    const SweepSpec spec = tinySpec();
    const std::vector<SweepJob> jobs = expandSweep(spec);
    const std::string base = sweepSpecKey(spec, jobs);

    SweepSpec more = spec;
    more.commits = 9'999;
    EXPECT_NE(sweepSpecKey(more, expandSweep(more)), base);

    SweepSpec chip = spec;
    ConfigOverride o;
    o.label = "chip";
    o.numCores = 2;
    o.contextsPerCore = 2;
    chip.configs = {o};
    EXPECT_NE(sweepSpecKey(chip, expandSweep(chip)), base);

    // same spec, same key — resume across processes depends on it
    EXPECT_EQ(sweepSpecKey(tinySpec(), expandSweep(tinySpec())),
              base);
    EXPECT_EQ(sweepJobKey(jobs[2]), "gzip+mcf|DCRA|");
}

namespace {

/** Render every sink of one SweepResults into a single string. */
std::string
allSinks(const SweepResults &res)
{
    return TableSink().render(res) + "\x1e" +
        CsvSink().render(res) + "\x1e" + JsonSink().render(res);
}

/**
 * Run fn in a forked child and report how it died. The crash-resume
 * tests use this to lose a sweep mid-flight without losing the test
 * process.
 */
int
runInChild(const std::function<void()> &fn, int &termSignal)
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        // smtlint:allow(D4): redirecting the forked child's stderr, not writing to it
        if (!std::freopen("/dev/null", "w", stderr))
            _exit(97);
        fn();
        _exit(0);
    }
    termSignal = 0;
    if (pid < 0)
        return -1;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (WIFSIGNALED(status)) {
        termSignal = WTERMSIG(status);
        return -2;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(SweepResume, CrashResumeIsByteIdenticalAcrossJobCounts)
{
    // A 2-core config rides along, so the journal also carries the soc
    // block: commit hashes, llcPerCore and migrations. The 4-thread
    // workload is what makes the symbiosis allocator migrate inside
    // this budget.
    SweepSpec spec = tinySpec();
    spec.workloads.push_back(
        adHocWorkload({"mcf", "gzip", "art", "crafty"}));
    ConfigOverride chip;
    chip.label = "chip";
    chip.numCores = 2;
    chip.contextsPerCore = 2;
    chip.allocator = AllocatorKind::Symbiosis;
    chip.epochCycles = 200;
    chip.llcArbiter = "chip-dcra";
    spec.configs = {ConfigOverride{}, chip};
    SweepRunner ref(spec, 1);
    const SweepResults refRes = ref.run();
    const std::string expect = allSinks(refRes);
    // Job 8 is the 4-thread chip job under ICOUNT, which a serial
    // sweep journals before job 9 crashes below.
    ASSERT_GT(refRes.results[8].summary.raw.migrations, 0u);

    for (const int jobs : {1, 4}) {
        const std::string path = "test_runner_crash_resume_" +
            std::to_string(jobs) + ".ndjson";
        std::remove(path.c_str());

        // First leg: job 9 aborts the whole (non-isolated) process.
        RunnerOptions crashOpts;
        crashOpts.journalPath = path;
        ASSERT_TRUE(
            FaultPlan::parse("9:crash", crashOpts.faults));
        int sig = 0;
        const int rc = runInChild(
            [&]() {
                SweepRunner r(spec, jobs, nullptr, crashOpts);
                r.run();
            },
            sig);
        ASSERT_EQ(rc, -2);
        ASSERT_EQ(sig, SIGABRT);

        // Second leg: resume replays the journaled jobs and re-runs
        // the rest; the merged output must be byte-identical.
        RunnerOptions resumeOpts;
        resumeOpts.journalPath = path;
        resumeOpts.resume = true;
        SweepRunner r(spec, jobs, nullptr, resumeOpts);
        const SweepResults res = r.run();
        EXPECT_TRUE(res.failures.empty());
        EXPECT_EQ(allSinks(res), expect);
        std::remove(path.c_str());
    }
}

TEST(SweepResume, ReplaySkipsCompletedJobs)
{
    const SweepSpec spec = tinySpec();
    const std::string path = "test_runner_replay_skip.ndjson";
    std::remove(path.c_str());

    RunnerOptions first;
    first.journalPath = path;
    SweepRunner a(spec, 2, nullptr, first);
    const std::string expect = allSinks(a.run());

    // Resume with a fault plan that would abort EVERY job: finishing
    // at all proves each one was replayed, never re-executed.
    RunnerOptions opts;
    opts.journalPath = path;
    opts.resume = true;
    ASSERT_TRUE(FaultPlan::parse("0:crash,1:crash,2:crash,3:crash",
                                 opts.faults));
    SweepRunner b(spec, 2, nullptr, opts);
    const SweepResults res = b.run();
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(allSinks(res), expect);
    for (const JobResult &r : res.results)
        EXPECT_EQ(r.attempts, 1);
    std::remove(path.c_str());
}

TEST(SweepResume, RejectsJournalFromDifferentSweep)
{
    const std::string path = "test_runner_wrong_journal.ndjson";
    std::remove(path.c_str());
    RunnerOptions w;
    w.journalPath = path;
    SweepRunner a(tinySpec(), 1, nullptr, w);
    a.run();

    SweepSpec other = tinySpec();
    other.commits = 999; // different outcome → different spec key
    RunnerOptions opts;
    opts.journalPath = path;
    opts.resume = true;
    int sig = 0;
    const int rc = runInChild(
        [&]() {
            SweepRunner r(other, 1, nullptr, opts);
            r.run();
        },
        sig);
    EXPECT_EQ(rc, 1); // fatal() exits 1
    std::remove(path.c_str());
}

TEST(SweepIsolation, CleanRunMatchesInProcessBytes)
{
    // Include a 2-core chip job so the forked-result pipe carries
    // the full soc block, not just the single-core fields.
    SweepSpec spec = tinySpec();
    spec.workloads = {adHocWorkload({"gzip", "mcf"}),
                      adHocWorkload({"mcf", "gzip", "art",
                                     "crafty"})};
    ConfigOverride chip;
    chip.label = "chip";
    chip.numCores = 2;
    chip.contextsPerCore = 2;
    spec.configs = {ConfigOverride{}, chip};
    spec.configs[0].label = "base";

    SweepRunner plain(spec, 2);
    const std::string expect = allSinks(plain.run());

    RunnerOptions opts;
    opts.exec.isolate = true;
    SweepRunner iso(spec, 2, nullptr, opts);
    const SweepResults res = iso.run();
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(allSinks(res), expect);
}

TEST(SweepIsolation, HungJobIsReapedAndRetried)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};
    spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};

    SweepRunner ref(spec, 1);
    const SweepResults expect = ref.run();

    RunnerOptions opts;
    opts.exec.isolate = true;
    opts.exec.timeoutSec = 1;
    opts.exec.retries = 1;
    opts.exec.backoffMs = 1;
    ASSERT_TRUE(FaultPlan::parse("1:hang", opts.faults));
    SweepRunner r(spec, 2, nullptr, opts);
    const SweepResults res = r.run();

    EXPECT_TRUE(res.failures.empty());
    ASSERT_EQ(res.results.size(), 2u);
    EXPECT_EQ(res.results[0].attempts, 1);
    EXPECT_EQ(res.results[1].attempts, 2); // timed out, then passed
    // table/CSV are attempt-agnostic; JSON adds only the retried
    // block on top of the reference bytes
    EXPECT_EQ(TableSink().render(res), TableSink().render(expect));
    EXPECT_EQ(CsvSink().render(res), CsvSink().render(expect));
    const std::string json = JsonSink().render(res);
    EXPECT_NE(json.find("\"retried\": [\n    {\"job\": 1, "
                        "\"attempts\": 2}"),
              std::string::npos);
}

TEST(SweepIsolation, ExhaustedRetriesLandInFailures)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {spec.workloads[0]};

    RunnerOptions opts;
    opts.exec.isolate = true;
    opts.exec.retries = 1;
    opts.exec.backoffMs = 1;
    // both attempts crash: at() only suppresses faults for attempt
    // > 0, so pin the crash to every attempt via a fresh plan below
    ASSERT_TRUE(FaultPlan::parse("0:exit1", opts.faults));
    SweepRunner r(spec, 1, nullptr, opts);
    SweepResults res = r.run();
    // exit1 fires on attempt 0 only; attempt 1 succeeds
    EXPECT_TRUE(res.failures.empty());
    EXPECT_EQ(res.results[0].attempts, 2);

    // retries = 0: the single faulted attempt is final
    RunnerOptions hard;
    hard.exec.isolate = true;
    ASSERT_TRUE(FaultPlan::parse("0:crash,1:exit1", hard.faults));
    SweepRunner r2(spec, 1, nullptr, hard);
    res = r2.run();
    ASSERT_EQ(res.failures.size(), 2u);
    EXPECT_EQ(res.failures[0].index, 0u);
    EXPECT_EQ(res.failures[0].cause, "crash");
    EXPECT_EQ(res.failures[0].attempts, 1);
    EXPECT_EQ(res.failures[0].termSignal, SIGABRT);
    EXPECT_EQ(res.failures[1].cause, "nonzero-exit");
    EXPECT_EQ(res.failures[1].exitCode, 1);
    EXPECT_TRUE(res.results[0].failed);
    EXPECT_TRUE(res.results[1].failed);

    const std::string json = JsonSink().render(res);
    EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
    EXPECT_NE(json.find("\"cause\": \"crash\""), std::string::npos);
    EXPECT_NE(json.find("\"failed\": true"), std::string::npos);
    const std::string table = TableSink().render(res);
    EXPECT_NE(table.find("FAILED"), std::string::npos);
    EXPECT_NE(table.find("2 failed job(s)"), std::string::npos);
    // failed jobs have no thread rows, so the CSV is header-only
    const std::string csv = CsvSink().render(res);
    EXPECT_EQ(csv.find('\n'), csv.size() - 1);
}

TEST(SweepIsolation, CellAverageRefusesAFailedJob)
{
    // A crashed job keeps an empty summary: averaged into its cell it
    // would read as throughput 0 and Hmean 0 in every figure.
    SweepSpec spec = tinySpec();
    spec.workloads = workloadsOf(2, WorkloadType::MIX);
    spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};
    RunnerOptions opts;
    opts.exec.isolate = true;
    const std::size_t bad = spec.workloads.size() + 1; // a DCRA job
    ASSERT_TRUE(
        FaultPlan::parse(std::to_string(bad) + ":crash", opts.faults));
    SweepRunner r(spec, 2, nullptr, opts);
    const SweepResults res = r.run();
    ASSERT_EQ(res.failures.size(), 1u);
    ASSERT_EQ(res.failures[0].index, bad);

    // The cell without the failure still averages.
    EXPECT_GT(cellAverage(res, 2, WorkloadType::MIX, PolicyKind::Icount)
                  .hmean,
              0.0);
    int sig = 0;
    const int rc = runInChild(
        [&]() {
            cellAverage(res, 2, WorkloadType::MIX, PolicyKind::Dcra);
        },
        sig);
    EXPECT_EQ(rc, 1); // fatal() exits 1
    EXPECT_EQ(sig, 0);
}

TEST(SweepRunner, FailedSidecarWriteFailsTheJob)
{
    // A directory squats on job 1's time-series path, so that write
    // fails: the job must fail with it, stay out of the journal, and
    // run again under --resume once the path is free.
    char tmpl[] = "/tmp/smtsim-sidecar-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    const std::string d = dir;
    const std::string squat = d + "/t.job1.ts.ndjson";
    ASSERT_EQ(mkdir(squat.c_str(), 0700), 0);

    SweepSpec spec = tinySpec();
    spec.telemetry.tsPrefix = d + "/t";
    spec.telemetry.statsInterval = 500;
    RunnerOptions opts;
    opts.journalPath = d + "/sweep.journal";
    SweepRunner first(spec, 2, nullptr, opts);
    const SweepResults res = first.run();
    ASSERT_EQ(res.failures.size(), 1u);
    EXPECT_EQ(res.failures[0].index, 1u);
    EXPECT_EQ(res.failures[0].cause, "exception");
    for (const JobResult &r : res.results)
        EXPECT_EQ(r.failed, r.job.index == 1) << r.job.index;

    JournalReplay replay;
    bool exists = false;
    std::string err;
    ASSERT_TRUE(readJournal(opts.journalPath, replay, exists, err))
        << err;
    EXPECT_EQ(replay.summaries.size(), spec.jobCount() - 1);
    EXPECT_EQ(replay.summaries.count(1), 0u);

    ASSERT_EQ(rmdir(squat.c_str()), 0);
    opts.resume = true;
    SweepRunner resumed(spec, 2, nullptr, opts);
    EXPECT_TRUE(resumed.run().failures.empty());
    struct stat st;
    EXPECT_EQ(stat(squat.c_str(), &st), 0);
    EXPECT_TRUE(S_ISREG(st.st_mode));

    for (std::size_t i = 0; i < spec.jobCount(); ++i)
        std::remove((d + "/t.job" + std::to_string(i) + ".ts.ndjson")
                        .c_str());
    std::remove(opts.journalPath.c_str());
    rmdir(dir);
}

TEST(BaselineCache, ConcurrentFailureEvictsBeforeWaking)
{
    // One failing compute with many concurrent waiters: every thread
    // must either see the propagated error or a good retried value —
    // never a poisoned entry that deadlocks/fails forever.
    std::atomic<int> calls{0};
    BaselineCache cache([&](const SimConfig &, const std::string &,
                            std::uint64_t, std::uint64_t, Cycle) {
        if (calls.fetch_add(1) == 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            throw std::runtime_error("transient");
        }
        return 3.5;
    });
    const SimConfig cfg;
    std::atomic<int> succeeded{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&]() {
            for (int attempt = 0; attempt < 16; ++attempt) {
                try {
                    if (cache.ipc(cfg, "gzip", 1000, 0) == 3.5) {
                        succeeded.fetch_add(1);
                        return;
                    }
                    return; // wrong value: fail via the count below
                } catch (const std::runtime_error &) {
                    // evicted entry: retry recomputes
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(succeeded.load(), 8);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Journal, UnwritablePathIsFatal)
{
    int sig = 0;
    const int rc = runInChild(
        [] {
            JournalWriter w;
            w.open("/nonexistent-dir/j.ndjson", "0xdead", 1, true);
        },
        sig);
    EXPECT_EQ(rc, 1); // fatal() exits 1
}

TEST(ResultSink, CsvQuotesConfigLabelsWithCommas)
{
    SweepSpec spec = tinySpec();
    spec.workloads = {singleBenchWorkload("gzip")};
    spec.policies = {PolicyKind::Icount};
    spec.computeHmean = false;
    ConfigOverride o;
    o.label = "mem=100,l2=20"; // what smtsim sweep builds for 2 axes
    o.memLatency = 100;
    o.l2Latency = 20;
    spec.configs = {o};

    SweepRunner runner(std::move(spec), 1);
    const std::string csv = CsvSink().render(runner.run());
    // the comma-bearing label must arrive quoted, keeping the
    // column count intact
    EXPECT_NE(csv.find("\"mem=100,l2=20\""), std::string::npos);
    const std::string firstRow =
        csv.substr(csv.find('\n') + 1,
                   csv.find('\n', csv.find('\n') + 1) -
                       csv.find('\n') - 1);
    std::size_t commas = 0;
    bool quoted = false;
    for (const char c : firstRow) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            ++commas;
    }
    std::size_t headerCommas = 0;
    for (std::size_t i = 0; i < csv.find('\n'); ++i)
        headerCommas += csv[i] == ',';
    EXPECT_EQ(commas, headerCommas);
}

} // anonymous namespace
