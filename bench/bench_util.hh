/**
 * @file
 * Shared plumbing for the experiment binaries: run budgets, worker
 * count, banners and the paper's workload-cell grid. The Hmean
 * experiments each build a SweepSpec on these budgets, run it on a
 * SweepRunner and read the cells back through cellAverage().
 *
 * Every binary honours three environment variables:
 *   SMT_BENCH_COMMITS  per-run first-thread commit budget
 *                      (default 60000)
 *   SMT_BENCH_WARMUP   warmup commits before measuring
 *                      (default 10000)
 *   SMT_BENCH_JOBS     sweep-runner worker threads
 *                      (default 0 = one per host core)
 */

#ifndef DCRA_SMT_BENCH_BENCH_UTIL_HH
#define DCRA_SMT_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "runner/runner.hh"

namespace smtbench {

/** Per-run commit budget (SMT_BENCH_COMMITS). */
inline std::uint64_t
commitBudget()
{
    if (const char *s = std::getenv("SMT_BENCH_COMMITS"))
        return std::strtoull(s, nullptr, 10);
    return 60'000;
}

/** Warmup commits (SMT_BENCH_WARMUP). */
inline std::uint64_t
warmupBudget()
{
    if (const char *s = std::getenv("SMT_BENCH_WARMUP"))
        return std::strtoull(s, nullptr, 10);
    return 10'000;
}

/** Sweep-runner workers (SMT_BENCH_JOBS; 0 = all host cores). */
inline int
benchJobs()
{
    if (const char *s = std::getenv("SMT_BENCH_JOBS"))
        return static_cast<int>(std::strtol(s, nullptr, 10));
    return 0;
}

/** Print a named section header. */
inline void
banner(const char *id, const char *what)
{
    std::printf("==============================================\n");
    std::printf("%s: %s\n", id, what);
    std::printf("(commits/run=%llu warmup=%llu)\n",
                static_cast<unsigned long long>(commitBudget()),
                static_cast<unsigned long long>(warmupBudget()));
    std::printf("==============================================\n");
}

/** The (threads, type) grid of paper figures 4 and 5. */
struct Cell
{
    int threads;
    smt::WorkloadType type;
};

inline const Cell *
allCells(int &count)
{
    static const Cell cells[] = {
        {2, smt::WorkloadType::ILP}, {2, smt::WorkloadType::MIX},
        {2, smt::WorkloadType::MEM}, {3, smt::WorkloadType::ILP},
        {3, smt::WorkloadType::MIX}, {3, smt::WorkloadType::MEM},
        {4, smt::WorkloadType::ILP}, {4, smt::WorkloadType::MIX},
        {4, smt::WorkloadType::MEM},
    };
    count = 9;
    return cells;
}

/** "ILP2", "MIX4", ... */
inline std::string
cellName(const Cell &c)
{
    return std::string(smt::workloadTypeName(c.type)) +
        std::to_string(c.threads);
}

} // namespace smtbench

#endif // DCRA_SMT_BENCH_BENCH_UTIL_HH
