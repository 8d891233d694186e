#include "runner/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <mutex>
#include <utility>

#include "common/json.hh"
#include "common/logging.hh"
#include "prof/host_profiler.hh"
#include "runner/job_scheduler.hh"
#include "runner/journal.hh"

namespace smt {

const JobResult &
SweepResults::at(std::size_t configIdx, std::size_t policyIdx,
                 std::size_t workloadIdx) const
{
    const std::size_t index =
        (configIdx * spec.policies.size() + policyIdx) *
            spec.workloads.size() +
        workloadIdx;
    SMT_ASSERT(index < results.size(),
               "grid point (%zu,%zu,%zu) outside sweep", configIdx,
               policyIdx, workloadIdx);
    return results[index];
}

SweepRunner::SweepRunner(SweepSpec spec_, int jobs,
                         std::shared_ptr<BaselineCache> baselines,
                         RunnerOptions opts_)
    : spec(std::move(spec_)), nJobs(jobs),
      cache(baselines ? std::move(baselines)
                      : std::make_shared<BaselineCache>()),
      opts(std::move(opts_))
{
}

namespace {

/**
 * Cooperative stop flag for SIGINT/SIGTERM. Only installed when the
 * sweep opted into fault tolerance (journal or isolation) — a plain
 * sweep keeps the default terminate-on-signal behaviour, preserving
 * the zero-perturbation contract.
 */
std::atomic<int> g_stopFlag{0};

extern "C" void
sweepStopHandler(int)
{
    g_stopFlag.store(1, std::memory_order_relaxed);
}

/** RAII install/restore of the SIGINT/SIGTERM stop handlers. */
class ScopedStopSignals
{
  public:
    explicit ScopedStopSignals(bool enable) : active(enable)
    {
        if (!active)
            return;
        g_stopFlag.store(0, std::memory_order_relaxed);
        struct sigaction sa;
        sa.sa_handler = sweepStopHandler;
        sigemptyset(&sa.sa_mask);
        sa.sa_flags = 0; // no SA_RESTART: poll/sleep must wake
        sigaction(SIGINT, &sa, &oldInt);
        sigaction(SIGTERM, &sa, &oldTerm);
    }

    ~ScopedStopSignals()
    {
        if (!active)
            return;
        sigaction(SIGINT, &oldInt, nullptr);
        sigaction(SIGTERM, &oldTerm, nullptr);
    }

    ScopedStopSignals(const ScopedStopSignals &) = delete;
    ScopedStopSignals &operator=(const ScopedStopSignals &) = delete;

  private:
    bool active;
    struct sigaction oldInt, oldTerm;
};

} // anonymous namespace

SweepResults
SweepRunner::run()
{
    std::vector<SweepJob> jobs = expandSweep(spec);

    SweepResults out;
    out.spec = spec;
    out.results.resize(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        out.results[i].job = jobs[i];

    const bool faultTolerant =
        !opts.journalPath.empty() || opts.exec.isolate;

    // Resume: replay completed jobs out of the journal, cross-checked
    // against this expansion so a journal from a different sweep (or
    // a reordered spec) is rejected instead of silently merged.
    std::vector<bool> done(jobs.size(), false);
    std::string specKey;
    if (!opts.journalPath.empty())
        specKey = sweepSpecKey(spec, jobs);
    if (opts.resume) {
        SMT_ASSERT(!opts.journalPath.empty(),
                   "--resume without a journal path");
        JournalReplay replay;
        bool exists = false;
        std::string err;
        if (!readJournal(opts.journalPath, replay, exists, err))
            fatal("%s", err.c_str());
        if (exists) {
            if (replay.specKey != specKey) {
                fatal("journal '%s' was written by a different sweep "
                      "(spec key %s, this sweep is %s); refusing to "
                      "merge",
                      opts.journalPath.c_str(),
                      replay.specKey.c_str(), specKey.c_str());
            }
            if (replay.jobCount != jobs.size()) {
                fatal("journal '%s' covers %llu jobs but this sweep "
                      "expands to %zu",
                      opts.journalPath.c_str(),
                      static_cast<unsigned long long>(
                          replay.jobCount),
                      jobs.size());
            }
            for (const auto &kv : replay.summaries) {
                const std::size_t i = kv.first;
                if (i >= jobs.size()) {
                    fatal("journal '%s': job index %zu out of range",
                          opts.journalPath.c_str(), i);
                }
                if (replay.keys[i] != sweepJobKey(jobs[i])) {
                    fatal("journal '%s': job %zu key '%s' does not "
                          "match this sweep's '%s'",
                          opts.journalPath.c_str(), i,
                          replay.keys[i].c_str(),
                          sweepJobKey(jobs[i]).c_str());
                }
                out.results[i].summary = kv.second;
                done[i] = true;
            }
            if (!replay.summaries.empty()) {
                inform("resume: replayed %zu of %zu jobs from '%s'",
                       replay.summaries.size(), jobs.size(),
                       opts.journalPath.c_str());
            }
        } else {
            warn("resume: journal '%s' does not exist yet; running "
                 "the full sweep",
                 opts.journalPath.c_str());
        }
    }

    JournalWriter journal;
    if (!opts.journalPath.empty()) {
        journal.open(opts.journalPath, specKey, jobs.size(),
                     /*truncate=*/!opts.resume);
    }

    std::vector<std::size_t> pending;
    pending.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!done[i])
            pending.push_back(i);
    }

    ScopedStopSignals signals(faultTolerant);
    const std::atomic<int> *stop =
        faultTolerant ? &g_stopFlag : nullptr;

    // Host timing (--prof): wall time per job plus its wait in the
    // scheduler queue, measured around the worker lambda. Purely
    // observational — no clock is read unless --prof asked for it.
    // smtlint:allow(D1): --prof host timing; lands only in prof sidecars, never in deterministic output
    using SteadyClock = std::chrono::steady_clock;
    const bool profiling = spec.prof.enabled();
    if (profiling)
        cache->enableHostTiming(true);
    const SteadyClock::time_point sweepT0 =
        profiling ? SteadyClock::now() : SteadyClock::time_point();
    const auto nsSince = [](SteadyClock::time_point t0) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                SteadyClock::now() - t0)
                .count());
    };

    std::mutex failMu;
    const JobScheduler sched(nJobs);
    sched.run(pending.size(), [&](std::size_t k) {
        const std::size_t i = pending[k];
        const SweepJob &job = jobs[i];
        if (stop && stop->load(std::memory_order_relaxed))
            return; // interrupted: leave the job for --resume
        const SteadyClock::time_point jobT0 =
            profiling ? SteadyClock::now() : SteadyClock::time_point();
        if (profiling) {
            out.results[i].hostQueueNs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    jobT0 - sweepT0)
                    .count());
        }
        const ExecOutcome o = executeJob(spec, job, *cache,
                                         opts.exec, opts.faults,
                                         stop);
        if (profiling) {
            out.results[i].hostWallNs = nsSince(jobT0);
            out.results[i].hostForkNs = o.forkNs;
            out.results[i].hostReapNs = o.reapNs;
        }
        // Each job writes only its own pre-sized slot, so no other
        // synchronisation is needed and the output order does not
        // depend on scheduling.
        out.results[i].attempts = o.attempts;
        if (o.ok) {
            out.results[i].summary = o.summary;
            journal.append(i, sweepJobKey(job), o.summary);
            return;
        }
        if (o.cause == "interrupted")
            return; // not a failure: the job never got to run
        out.results[i].failed = true;
        JobFailure f;
        f.index = i;
        f.key = sweepJobKey(job);
        f.cause = o.cause;
        f.attempts = o.attempts;
        f.termSignal = o.termSignal;
        f.exitCode = o.exitCode;
        std::lock_guard<std::mutex> lock(failMu);
        out.failures.push_back(std::move(f));
    });

    if (stop && stop->load(std::memory_order_relaxed))
        out.interrupted = true;
    std::sort(out.failures.begin(), out.failures.end(),
              [](const JobFailure &a, const JobFailure &b) {
                  return a.index < b.index;
              });

    // Runner-level prof sidecar: one job record per executed job
    // (replayed jobs carry no host time and are skipped) plus the
    // baseline-cache contention totals.
    if (profiling) {
        HostProfiler runnerProf(spec.prof.sampleEvery);
        for (const JobResult &r : out.results) {
            if (r.hostWallNs == 0)
                continue;
            std::string rec = "{\"type\": \"job\", \"job\": " +
                fmtU64(r.job.index) +
                ", \"wallNs\": " + fmtU64(r.hostWallNs) +
                ", \"queueNs\": " + fmtU64(r.hostQueueNs) +
                ", \"forkNs\": " + fmtU64(r.hostForkNs) +
                ", \"reapNs\": " + fmtU64(r.hostReapNs) +
                ", \"attempts\": " +
                fmtU64(static_cast<std::uint64_t>(r.attempts)) + "}";
            runnerProf.record(std::move(rec));
        }
        runnerProf.record(
            "{\"type\": \"baseline\", \"computes\": " +
            fmtU64(cache->computeCount()) +
            ", \"waits\": " + fmtU64(cache->waitCount()) +
            ", \"waitNs\": " + fmtU64(cache->waitNanos()) + "}");
        writeHostProfile(runnerProf, spec.prof.prefix + ".runner",
                         "runner");
    }
    return out;
}

CellAverage
cellAverage(const SweepResults &res, int numThreads,
            WorkloadType type, PolicyKind policy,
            std::size_t configIdx)
{
    CellAverage avg;
    std::size_t n = 0;
    for (const JobResult &r : res.results) {
        if (r.job.configIdx != configIdx || r.job.policy != policy ||
            r.job.workload.numThreads != numThreads ||
            r.job.workload.type != type) {
            continue;
        }
        // A failed job's summary is empty: averaging it in would read
        // as throughput 0 and Hmean 0.
        if (r.failed) {
            fatal("job '%s' of sweep '%s' failed; cell %s%d under %s "
                  "(config %zu) has no average",
                  sweepJobKey(r.job).c_str(), res.spec.name.c_str(),
                  workloadTypeName(type), numThreads,
                  policyKindName(policy), configIdx);
        }
        avg.throughput += r.summary.throughput;
        avg.hmean += r.summary.hmean;
        ++n;
    }
    if (!n) {
        fatal("no %s%d jobs for policy %s (config %zu) in sweep '%s'",
              workloadTypeName(type), numThreads,
              policyKindName(policy), configIdx,
              res.spec.name.c_str());
    }
    avg.throughput /= static_cast<double>(n);
    avg.hmean /= static_cast<double>(n);
    return avg;
}

} // namespace smt
