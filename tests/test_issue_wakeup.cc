/**
 * @file
 * Regression suite for the event-driven issue stage.
 *
 * The wakeup redesign (per-register consumer lists + age-ordered
 * ready lists replacing the full issue-queue poll) must be
 * behaviour-preserving to the cycle: these goldens were captured from
 * the seed (polled) issue stage and may NOT be regenerated in the PR
 * that introduces the wakeup structures. They pin a 4-thread mix —
 * the heaviest wakeup traffic the model supports — under the five
 * headline policies, including the rolling commit-stream hash, so
 * any reordering of issue, replay or squash shows up as an exact
 * diff.
 *
 * (Regenerating in a LATER behaviour-changing PR works like
 * test_golden_stats.cc: SMT_PRINT_WAKEUP_GOLDEN=1 ./test_issue_wakeup
 * and paste the rows.)
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;

constexpr std::uint64_t wakeupGoldenCommits = 3000;
constexpr Cycle wakeupGoldenMaxCycles = 2'000'000;

const std::vector<std::string> &
wakeupBenches()
{
    static const std::vector<std::string> b = {"gzip", "mcf", "art",
                                               "crafty"};
    return b;
}

const std::vector<PolicyKind> &
wakeupPolicies()
{
    static const std::vector<PolicyKind> p = {
        PolicyKind::Icount, PolicyKind::Flush, PolicyKind::FlushPp,
        PolicyKind::Sra, PolicyKind::Dcra};
    return p;
}

struct WakeupGoldenRow
{
    PolicyKind policy;
    Cycle cycles;
    std::uint64_t committed[4];
    std::uint64_t squashed[4];
    std::uint64_t commitHash[4];
};

/** Captured from the seed polled issue stage; do not regenerate. */
const std::vector<WakeupGoldenRow> &
wakeupGoldenRows()
{
    static const std::vector<WakeupGoldenRow> rows = {
        {PolicyKind::Icount, 14479,
         {3000, 851, 2751, 2462},
         {1292, 2207, 1063, 1425},
         {0xee6ec4b67c399f4aull, 0x75ff7a720a1e51d2ull,
          0x4b58daf4d26a3ad4ull, 0x187ef88bb8affd3eull}},
        {PolicyKind::Flush, 11064,
         {3000, 323, 323, 2813},
         {2836, 1168, 883, 3148},
         {0xee6ec4b67c399f4aull, 0xf8de833dda0d5e33ull,
          0xdd3d6629763f0892ull, 0x65e6e084f5ed53efull}},
        {PolicyKind::FlushPp, 10146,
         {2816, 400, 703, 3002},
         {1769, 768, 55, 2759},
         {0x709459444b181394ull, 0xeb8aa557071a52e8ull,
          0x91868ec8e0ce3988ull, 0x18365545cb883e25ull}},
        {PolicyKind::Sra, 9542,
         {3001, 471, 1267, 2776},
         {1646, 1105, 333, 1865},
         {0x19f958c7e90b06beull, 0x359f4cf1775937fcull,
          0x0d47148fa9b87a43ull, 0xb103f646ef33907bull}},
        {PolicyKind::Dcra, 9851,
         {3000, 552, 1726, 2776},
         {1164, 1082, 316, 1606},
         {0xee6ec4b67c399f4aull, 0x9c8000bf19e79e97ull,
          0x38b2571586315fe8ull, 0xb103f646ef33907bull}},
    };
    return rows;
}

TEST(IssueWakeupGolden, FourThreadMixByteIdenticalToSeed)
{
    for (const WakeupGoldenRow &row : wakeupGoldenRows()) {
        SimConfig cfg; // paper baseline, default seed
        ChipSimulator sim(cfg, wakeupBenches(), row.policy);
        const SimResult r =
            sim.run(wakeupGoldenCommits, wakeupGoldenMaxCycles);
        const PipelineStats &ps = sim.pipeline(0).stats();
        const char *name = policyKindName(row.policy);

        EXPECT_EQ(r.cycles, row.cycles) << name;
        ASSERT_EQ(r.threads.size(), 4u) << name;
        for (int t = 0; t < 4; ++t) {
            EXPECT_EQ(r.threads[t].committed, row.committed[t])
                << name << " thread " << t;
            EXPECT_EQ(r.threads[t].squashed, row.squashed[t])
                << name << " thread " << t;
            // The rolling (pc, op) commit-stream hash is the
            // strongest witness: issue-order, replay-order or
            // squash-order drift that somehow preserves the counts
            // still cannot preserve the architectural stream.
            EXPECT_EQ(ps.commitHash[t], row.commitHash[t])
                << name << " thread " << t;
        }
        // The structural bookkeeping must also be clean at the end.
        sim.pipeline(0).auditInvariants();
    }
}

TEST(IssueWakeupGolden, PrintCurrent)
{
    // smtlint:allow(D1): opt-in golden-regeneration gate, prints to a human terminal only
    if (std::getenv("SMT_PRINT_WAKEUP_GOLDEN") == nullptr) {
        SUCCEED();
        return;
    }
    for (const PolicyKind policy : wakeupPolicies()) {
        SimConfig cfg;
        ChipSimulator sim(cfg, wakeupBenches(), policy);
        const SimResult r =
            sim.run(wakeupGoldenCommits, wakeupGoldenMaxCycles);
        const PipelineStats &ps = sim.pipeline(0).stats();
        std::printf(
            "        {PolicyKind::%s, %llu,\n"
            "         {%llu, %llu, %llu, %llu},\n"
            "         {%llu, %llu, %llu, %llu},\n"
            "         {0x%llxull, 0x%llxull, 0x%llxull, "
            "0x%llxull}},\n",
            [](PolicyKind k) {
                switch (k) {
                  case PolicyKind::Icount: return "Icount";
                  case PolicyKind::Flush: return "Flush";
                  case PolicyKind::FlushPp: return "FlushPp";
                  case PolicyKind::Sra: return "Sra";
                  case PolicyKind::Dcra: return "Dcra";
                  default: return "?";
                }
            }(policy),
            static_cast<unsigned long long>(r.cycles),
            static_cast<unsigned long long>(r.threads[0].committed),
            static_cast<unsigned long long>(r.threads[1].committed),
            static_cast<unsigned long long>(r.threads[2].committed),
            static_cast<unsigned long long>(r.threads[3].committed),
            static_cast<unsigned long long>(r.threads[0].squashed),
            static_cast<unsigned long long>(r.threads[1].squashed),
            static_cast<unsigned long long>(r.threads[2].squashed),
            static_cast<unsigned long long>(r.threads[3].squashed),
            static_cast<unsigned long long>(ps.commitHash[0]),
            static_cast<unsigned long long>(ps.commitHash[1]),
            static_cast<unsigned long long>(ps.commitHash[2]),
            static_cast<unsigned long long>(ps.commitHash[3]));
    }
}

} // anonymous namespace
