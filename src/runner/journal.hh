/**
 * @file
 * Durable sweep job journal (schema "smtsim-journal-v1"): one
 * self-contained NDJSON record per completed job, fsync'd per
 * record, so a crashed/killed/interrupted sweep can be resumed with
 * completed work replayed instead of re-simulated. The runner's
 * deterministic job order makes the merge well-defined: output
 * rendered from replayed + re-run jobs is byte-identical to an
 * uninterrupted run.
 *
 * File layout:
 *   {"schema":"smtsim-journal-v1","spec":"<key>","jobs":N}
 *   {"job":3,"key":"gzip+mcf|DCRA|","summary":{...}}
 *   ...
 */

#ifndef DCRA_SMT_RUNNER_JOURNAL_HH
#define DCRA_SMT_RUNNER_JOURNAL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "runner/run_summary.hh"
#include "runner/sweep_spec.hh"

namespace smt {

/**
 * Identity of a sweep for resume validation: a 64-bit FNV-1a hex
 * digest over everything that changes what the jobs compute (base
 * config, budgets, Hmean, and every job's workload/policy/config).
 * A journal written by a different sweep command must be rejected,
 * not silently merged.
 */
std::string sweepSpecKey(const SweepSpec &spec,
                         const std::vector<SweepJob> &jobs);

/** Human-auditable per-record key: "workload|policy|configLabel". */
std::string sweepJobKey(const SweepJob &job);

/** Journal contents replayed for --resume. */
struct JournalReplay
{
    std::string specKey;
    std::uint64_t jobCount = 0;
    /** Completed summaries by job index (last record wins). */
    std::map<std::size_t, RunSummary> summaries;
    /** The per-record keys, for validation against the expansion. */
    std::map<std::size_t, std::string> keys;
};

/**
 * Read a journal file. Returns false with @p err set on a malformed
 * or wrong-schema file; a torn final record (crash mid-write) is
 * tolerated and skipped. A missing file is NOT an error: ok == true
 * with exists == false, so an unconditional --resume also covers the
 * first run.
 */
bool readJournal(const std::string &path, JournalReplay &out,
                 bool &exists, std::string &err);

/**
 * Appending journal writer. Thread-safe: worker threads append
 * completed jobs as they finish; each record is written in one
 * write(2) and fsync'd before append() returns, so every record the
 * file contains is complete and durable.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * Open @p path, writing the header line first when the file is
     * new or empty. A fresh (non-resumed) sweep passes
     * @p truncate = true so a stale journal cannot be appended to.
     * Calls fatal() when the path cannot be opened or the header
     * cannot be made durable.
     */
    void open(const std::string &path, const std::string &specKey,
              std::uint64_t jobCount, bool truncate);

    /** Append one completed-job record (no-op when not open). */
    void append(std::size_t jobIndex, const std::string &jobKey,
                const RunSummary &summary);

    bool isOpen() const { return fd >= 0; }

  private:
    int fd = -1;
    std::mutex mu;
};

} // namespace smt

#endif // DCRA_SMT_RUNNER_JOURNAL_HH
