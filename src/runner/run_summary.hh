/**
 * @file
 * The condensed outcome of one sweep job, and its one-line JSON
 * form for the sweep journal and the isolated-job result pipe.
 */

#ifndef DCRA_SMT_RUNNER_RUN_SUMMARY_HH
#define DCRA_SMT_RUNNER_RUN_SUMMARY_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/simulator.hh"

namespace smt {

/** Condensed outcome of one multithreaded run. */
struct RunSummary
{
    double throughput = 0.0;  //!< sum of per-thread IPC
    double hmean = 0.0;       //!< Hmean of speedups vs single-thread
    std::vector<double> multiIpc;
    std::vector<double> singleIpc;
    SimResult raw;
};

/**
 * @name RunSummary (de)serialization
 *
 * Doubles are written with fmtDoubleExact, so a serialize -> parse
 * round trip reproduces every field bit for bit and output rendered
 * from a replayed summary is byte-identical to output rendered from
 * the live run.
 */
/** @{ */

/** Serialize to a single-line JSON object (no trailing newline). */
std::string runSummaryToJson(const RunSummary &s);

/**
 * Rebuild a RunSummary from a parsed runSummaryToJson document.
 * Returns false (leaving @p out partially filled) on a document that
 * is not a summary object.
 */
bool runSummaryFromJson(const JsonValue &v, RunSummary &out);

/** @} */

} // namespace smt

#endif // DCRA_SMT_RUNNER_RUN_SUMMARY_HH
