/**
 * @file
 * What one run takes and what it gives back: the full configuration
 * (SimConfig) and the per-run measurements the experiments report
 * (SimResult). The machine that turns one into the other is
 * ChipSimulator (soc/chip.hh).
 */

#ifndef DCRA_SMT_SIM_SIMULATOR_HH
#define DCRA_SMT_SIM_SIMULATOR_HH

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "bpred/predictor.hh"
#include "common/types.hh"
#include "core/smt_config.hh"
#include "mem/memory_system.hh"
#include "policy/policy_params.hh"
#include "soc/soc_params.hh"

namespace smt {

/** Everything configurable about one run. */
struct SimConfig
{
    SmtConfig core;
    MemParams mem;
    BpredParams bpred;
    PolicyParams policy;
    /** Chip-level (CMP) shape; numCores == 1 is the paper's
     *  single-core machine, and the rest of soc is then inert. */
    SocParams soc;
    std::uint64_t seed = 0x5eed;
};

/**
 * A thread's event counters over the measured interval, summed over
 * every core it ran on. This struct and threadCounterFields below are
 * the one list of them: the migration totals (ChipSimulator), the
 * journal, the sweep sinks and the test oracles all iterate the
 * table. A new counter is a member, a row, and the line in
 * ChipSimulator::readCtx that reads it from the machine.
 */
struct ThreadCounters
{
    std::uint64_t committed = 0;
    std::uint64_t fetched = 0; //!< including the wrong path
    std::uint64_t fetchedWrongPath = 0;
    std::uint64_t squashed = 0;
    std::uint64_t condBranches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t flushes = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Accesses = 0; //!< data side only
    std::uint64_t l2Misses = 0;   //!< data side only
};

/** One row of the counter table. */
struct ThreadCounterField
{
    const char *key; //!< JSON key, in the journal and the sweep JSON
    const char *csv; //!< CSV column; nullptr = not in the CSV
    std::uint64_t ThreadCounters::*member;
};

/** Every ThreadCounters member once, in output order. */
inline constexpr ThreadCounterField threadCounterFields[] = {
    {"committed", "committed", &ThreadCounters::committed},
    {"fetched", "fetched", &ThreadCounters::fetched},
    {"fetchedWrongPath", nullptr, &ThreadCounters::fetchedWrongPath},
    {"squashed", "squashed", &ThreadCounters::squashed},
    {"condBranches", "cond_branches", &ThreadCounters::condBranches},
    {"mispredicts", "mispredicts", &ThreadCounters::mispredicts},
    {"flushes", "flushes", &ThreadCounters::flushes},
    {"l1dAccesses", "l1d_accesses", &ThreadCounters::l1dAccesses},
    {"l1dMisses", "l1d_misses", &ThreadCounters::l1dMisses},
    {"l2Accesses", "l2_accesses", &ThreadCounters::l2Accesses},
    {"l2Misses", "l2_misses", &ThreadCounters::l2Misses},
};

static_assert(sizeof(ThreadCounters) ==
                  std::size(threadCounterFields) * sizeof(std::uint64_t),
              "every ThreadCounters member needs a threadCounterFields row");

/** Per-thread outcome of a run. */
struct ThreadResult : ThreadCounters
{
    std::string bench;
    double ipc = 0.0;

    /** Data-side L2 miss rate in percent (paper Table 3 metric). */
    double
    l2MissRatePct() const
    {
        return l2Accesses ? 100.0 * static_cast<double>(l2Misses) /
                static_cast<double>(l2Accesses)
                          : 0.0;
    }
};

/** Per-core shared-LLC outcome of a multi-core run. */
struct LlcCoreStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    /** MSHR share at end of run; -1 = unlimited (ungated core). */
    int mshrShare = -1;
    /** Ways assigned to the core; 0 = LLC not way-partitioned. */
    int ways = 0;
    /** LLC lines the core currently owns (occupancy). */
    std::uint64_t linesOwned = 0;
};

/** Whole-run outcome. */
struct SimResult
{
    Cycle cycles = 0;
    std::vector<ThreadResult> threads;

    /** cycles in which exactly n threads were in a slow phase. */
    std::vector<std::uint64_t> slowPhaseCycles;

    /** Mean outstanding memory-level loads over busy cycles (MLP). */
    double mlpBusyMean = 0.0;

    /** @name Chip-level extras (multi-core runs only)
     * Empty/zero for single-core runs so the single-core result is
     * unchanged byte for byte. coreCommitHashes folds each core's
     * per-context commit-stream hashes into one word per core — the
     * committed streams are the chip's architectural ground truth,
     * so these are what the 2-core golden test pins.
     */
    /** @{ */
    std::vector<std::uint64_t> coreCommitHashes;
    std::uint64_t migrations = 0;     //!< threads moved between cores
    std::uint64_t allocEpochs = 0;    //!< allocator epochs run
    std::uint64_t llcAccesses = 0;    //!< shared-LLC accesses
    std::uint64_t llcMisses = 0;      //!< shared-LLC misses
    std::string llcArbiter;           //!< arbiter name; "" = 1 core
    /** Epochs at which the LLC arbiter changed at least one share. */
    std::uint64_t llcShareReassignments = 0;
    std::vector<LlcCoreStats> llcPerCore; //!< per-core LLC outcome
    /** @} */

    /** IPC throughput (sum over threads). */
    double
    throughput() const
    {
        double s = 0.0;
        for (const auto &t : threads)
            s += t.ipc;
        return s;
    }

    /** Total fetched instructions including wrong path. */
    std::uint64_t
    totalFetched() const
    {
        std::uint64_t s = 0;
        for (const auto &t : threads)
            s += t.fetched;
        return s;
    }
};

} // namespace smt

#endif // DCRA_SMT_SIM_SIMULATOR_HH
