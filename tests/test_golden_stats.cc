/**
 * @file
 * Golden-stat determinism tests: the single-core reference. Each row
 * runs a short end-to-end two-thread simulation of the paper's
 * machine (one SMT core) under one policy with a fixed seed, and
 * pins every field of the result to checked-in golden values: cycles,
 * every per-thread counter of threadCounterFields, the slow-phase
 * histogram and the MLP mean, the last compared exactly. Any
 * behavioural change to the pipeline, the memory system, the trace
 * generator or a policy shows up here as an exact-value diff.
 *
 * Regenerating after an intentional change:
 *
 *     SMT_PRINT_GOLDEN=1 ./test_golden_stats \
 *         --gtest_filter='*PrintCurrent*'
 *
 * and paste the emitted rows over the goldenRows() table below.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "support/same_result.hh"

namespace {

using namespace smt;
using smt::test::expectSameCounters;
using smt::test::expectSameResult;

/** The fixed budget every golden row runs. */
constexpr std::uint64_t goldenCommits = 3000;
constexpr Cycle goldenMaxCycles = 2'000'000;

struct GoldenRow
{
    PolicyKind policy;
    const char *benches[2];
    std::uint64_t warmup;
    Cycle cycles;
    /** Each thread's counters, in threadCounterFields order. */
    ThreadCounters threads[2];
    /** Cycles with n threads in a slow phase, n = 0..2. */
    std::uint64_t slowPhaseCycles[3];
    double mlpBusyMean;
};

SimResult
runGolden(const GoldenRow &row)
{
    SimConfig cfg; // paper-baseline defaults, default seed
    ChipSimulator chip(cfg, {row.benches[0], row.benches[1]},
                       row.policy);
    return chip.run(goldenCommits, goldenMaxCycles, row.warmup);
}

/**
 * Golden values for the scenarios above, regenerated with
 * SMT_PRINT_GOLDEN=1 (see file header). Covers the five headline
 * policies of the paper's evaluation, plus a warmed-up run.
 */
const std::vector<GoldenRow> &
goldenRows()
{
    static const std::vector<GoldenRow> rows = {
        {PolicyKind::Icount, {"gzip", "mcf"}, 0, 10898,
         {{3000, 5002, 1968, 1853, 429, 33, 0, 1329, 75, 72, 69},
          {1264, 4684, 3383, 3299, 149, 32, 0, 1043, 249, 245, 53}},
         {131, 4170, 6597}, 3.3188666729839857},
        {PolicyKind::Flush, {"gzip", "mcf"}, 0, 11235,
         {{3000, 5917, 2034, 2828, 543, 39, 19, 1354, 71, 69, 67},
          {1088, 5201, 3565, 4037, 186, 28, 13, 1032, 232, 227, 43}},
         {114, 2778, 8343}, 2.8241527359093817},
        {PolicyKind::FlushPp, {"gzip", "mcf"}, 0, 8311,
         {{3000, 4792, 1758, 1710, 429, 34, 0, 1299, 70, 69, 67},
          {993, 3635, 2634, 2333, 114, 22, 0, 806, 201, 199, 38}},
         {62, 1676, 6573}, 3.5744835965978128},
        {PolicyKind::Sra, {"gzip", "mcf"}, 0, 7320,
         {{3000, 5108, 2074, 2019, 429, 34, 0, 1330, 70, 69, 68},
          {1018, 3447, 2330, 2330, 126, 22, 0, 805, 199, 196, 41}},
         {31, 597, 6692}, 4.1620580547530608},
        {PolicyKind::Dcra, {"gzip", "mcf"}, 0, 7115,
         {{3000, 4985, 1951, 1896, 429, 34, 0, 1368, 69, 68, 67},
          {993, 3152, 2151, 1942, 114, 22, 0, 750, 197, 196, 38}},
         {43, 729, 6343}, 4.103964632059327},
        {PolicyKind::Dcra, {"gzip", "twolf"}, 500, 5610,
         {{2762, 4070, 1485, 1473, 361, 23, 0, 1152, 62, 59, 53},
          {3000, 6753, 3882, 3914, 439, 51, 0, 1649, 175, 175, 10}},
         {56, 1429, 4125}, 2.5560859188544152},
    };
    return rows;
}

std::string
rowName(const GoldenRow &row)
{
    return std::string(policyKindName(row.policy)) + " " +
        row.benches[0] + "," + row.benches[1] + " warmup " +
        std::to_string(row.warmup);
}

TEST(GoldenStats, MatchesCheckedInValues)
{
    for (const GoldenRow &row : goldenRows()) {
        const SimResult r = runGolden(row);
        const std::string name = rowName(row);
        EXPECT_EQ(r.cycles, row.cycles) << name;
        ASSERT_EQ(r.threads.size(), 2u) << name;
        for (int t = 0; t < 2; ++t) {
            EXPECT_EQ(r.threads[t].bench, row.benches[t]) << name;
            expectSameCounters(r.threads[t], row.threads[t],
                               name + " thread " + std::to_string(t));
            // IPC is derived from the pinned integers, so it only
            // needs a consistency check, not its own golden.
            EXPECT_DOUBLE_EQ(
                r.threads[t].ipc,
                static_cast<double>(r.threads[t].committed) /
                    static_cast<double>(r.cycles))
                << name << " thread " << t;
        }
        EXPECT_EQ(r.slowPhaseCycles,
                  std::vector<std::uint64_t>(
                      std::begin(row.slowPhaseCycles),
                      std::end(row.slowPhaseCycles)))
            << name;
        EXPECT_TRUE(r.mlpBusyMean == row.mlpBusyMean) // bitwise
            << name << ": " << fmtDoubleExact(r.mlpBusyMean);
        // Single-core results carry no chip extras (the sweep JSON
        // for one core must keep its pre-CMP bytes).
        EXPECT_TRUE(r.coreCommitHashes.empty()) << name;
        EXPECT_EQ(r.migrations, 0u) << name;
        EXPECT_TRUE(r.llcPerCore.empty()) << name;
    }
}

TEST(GoldenStats, BitDeterministicAcrossRuns)
{
    for (const GoldenRow &row : goldenRows()) {
        const SimResult a = runGolden(row);
        const SimResult b = runGolden(row);
        expectSameResult(a, b, rowName(row));
    }
}

/** Print @p v as a brace list of integers. */
void
printList(const std::vector<std::uint64_t> &v)
{
    std::printf("{");
    for (std::size_t i = 0; i < v.size(); ++i)
        std::printf("%s%llu", i ? ", " : "",
                    static_cast<unsigned long long>(v[i]));
    std::printf("}");
}

/** @p t's counters in threadCounterFields order, a golden row's. */
std::vector<std::uint64_t>
counterList(const ThreadCounters &t)
{
    std::vector<std::uint64_t> v;
    for (const ThreadCounterField &f : threadCounterFields)
        v.push_back(t.*f.member);
    return v;
}

TEST(GoldenStats, PrintCurrent)
{
    // smtlint:allow(D1): opt-in golden-regeneration gate, prints to a human terminal only
    if (std::getenv("SMT_PRINT_GOLDEN") == nullptr) {
        SUCCEED();
        return;
    }
    for (const GoldenRow &row : goldenRows()) {
        const SimResult r = runGolden(row);
        std::printf("        {PolicyKind::%s, {\"%s\", \"%s\"}, %llu, "
                    "%llu,\n         {",
                    [](PolicyKind k) {
                        switch (k) {
                          case PolicyKind::Icount: return "Icount";
                          case PolicyKind::Flush: return "Flush";
                          case PolicyKind::FlushPp: return "FlushPp";
                          case PolicyKind::Sra: return "Sra";
                          case PolicyKind::Dcra: return "Dcra";
                          default: return "?";
                        }
                    }(row.policy),
                    row.benches[0], row.benches[1],
                    static_cast<unsigned long long>(row.warmup),
                    static_cast<unsigned long long>(r.cycles));
        printList(counterList(r.threads[0]));
        std::printf(",\n          ");
        printList(counterList(r.threads[1]));
        std::printf("},\n         ");
        printList(r.slowPhaseCycles);
        // fmtDoubleExact round-trips every double exactly.
        std::printf(", %s},\n",
                    fmtDoubleExact(r.mlpBusyMean).c_str());
    }
}

} // anonymous namespace
