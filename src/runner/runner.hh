/**
 * @file
 * The sweep runner: expands a SweepSpec into jobs, executes them on
 * a JobScheduler across all host cores, shares single-thread
 * baselines through a BaselineCache, and returns results in the
 * spec's deterministic job order — a parallel run is bit-identical
 * to a serial one.
 *
 * RunnerOptions layers fault tolerance on top: a durable job journal
 * with --resume replay, forked per-job isolation with a kill timeout
 * and deterministic retry backoff, and SIGINT/SIGTERM handling that
 * leaves the journal resumable. All of it is opt-in; the default path
 * is byte- and perf-identical to a build without the feature.
 */

#ifndef DCRA_SMT_RUNNER_RUNNER_HH
#define DCRA_SMT_RUNNER_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runner/baseline_cache.hh"
#include "runner/job_exec.hh"
#include "runner/run_summary.hh"
#include "runner/sweep_spec.hh"

namespace smt {

/** Outcome of one sweep job. */
struct JobResult
{
    SweepJob job;
    RunSummary summary;
    /** Attempts spent this run (1 = first try; replayed jobs keep 1
     *  so resumed output matches an uninterrupted run). */
    int attempts = 1;
    /** True when every attempt failed; summary is then empty. */
    bool failed = false;

    /** @name Host timing (--prof only; zero otherwise)
     * Wall time the job spent executing, waiting in the scheduler
     * queue (sweep start to job start), and — under --isolate-jobs —
     * forking/reaping the child. Host data: these fields are never
     * journaled and never reach the deterministic sinks; they feed
     * the runner prof sidecar and the JSON sink's hostProfile block.
     */
    /** @{ */
    std::uint64_t hostWallNs = 0;
    std::uint64_t hostQueueNs = 0;
    std::uint64_t hostForkNs = 0;
    std::uint64_t hostReapNs = 0;
    /** @} */
};

/** A job whose every attempt failed (isolation mode). */
struct JobFailure
{
    std::size_t index = 0;
    std::string key; //!< "workload|policy|configLabel"
    /** "crash" | "timeout" | "nonzero-exit" | "exception" |
     *  "bad-result" | "interrupted". */
    std::string cause;
    int attempts = 0;
    int termSignal = 0; //!< signal that killed the child (crash)
    int exitCode = 0;   //!< child exit status (nonzero-exit)
};

/** Outcome of one whole sweep, ordered by job index. */
struct SweepResults
{
    SweepSpec spec;
    std::vector<JobResult> results;
    /** Jobs that exhausted their attempts, ordered by index. */
    std::vector<JobFailure> failures;
    /** A SIGINT/SIGTERM cut the sweep short (journal left valid). */
    bool interrupted = false;

    /** Result of the (config, policy, workload) grid point. */
    const JobResult &at(std::size_t configIdx, std::size_t policyIdx,
                        std::size_t workloadIdx) const;
};

/** Fault-tolerance knobs; defaults reproduce the classic runner. */
struct RunnerOptions
{
    /** NDJSON job journal path ("" = no journal). */
    std::string journalPath;
    /** Replay completed jobs from the journal before running. */
    bool resume = false;
    /** Per-job execution: isolation, timeout, retries, backoff. */
    ExecOptions exec;
    /** Injected faults (defaulted from SMT_FAULT_INJECT by the CLI
     *  via FaultPlan::fromEnv()). */
    FaultPlan faults;
};

class SweepRunner
{
  public:
    /**
     * @param spec the grid to run.
     * @param jobs worker threads; 0 = one per host hardware thread.
     * @param baselines shared baseline cache; nullptr = private one.
     * @param opts fault-tolerance options (defaults = none).
     */
    explicit SweepRunner(
        SweepSpec spec, int jobs = 0,
        std::shared_ptr<BaselineCache> baselines = nullptr,
        RunnerOptions opts = RunnerOptions());

    /** Run every job; blocks until the sweep completes. */
    SweepResults run();

  private:
    SweepSpec spec;
    int nJobs;
    std::shared_ptr<BaselineCache> cache;
    RunnerOptions opts;
};

/** Average throughput and Hmean over the jobs of one workload
 *  cell. */
struct CellAverage
{
    double throughput = 0.0;
    double hmean = 0.0;
};

/**
 * Average the four paper groups of one workload cell under one
 * policy and config, the aggregation of figures 4-7. Calls fatal()
 * when the sweep contains no matching job, and names the first
 * failed one when any matching job failed.
 */
CellAverage cellAverage(const SweepResults &res, int numThreads,
                        WorkloadType type, PolicyKind policy,
                        std::size_t configIdx = 0);

} // namespace smt

#endif // DCRA_SMT_RUNNER_RUNNER_HH
