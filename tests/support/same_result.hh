/**
 * @file
 * expectSameResult(): the one oracle for "these two runs agree". It
 * compares every SimResult field exactly, doubles included, takes the
 * per-thread counters from threadCounterFields so a new counter is
 * compared without an edit here, and names the field that differs.
 */

#ifndef DCRA_SMT_TESTS_SUPPORT_SAME_RESULT_HH
#define DCRA_SMT_TESTS_SUPPORT_SAME_RESULT_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "sim/simulator.hh"

namespace smt::test {

/** Every per-thread counter of @p a and @p b, named on a mismatch. */
inline void
expectSameCounters(const ThreadCounters &a, const ThreadCounters &b,
                   const std::string &what)
{
    for (const ThreadCounterField &f : threadCounterFields)
        EXPECT_EQ(a.*f.member, b.*f.member) << what << ": " << f.key;
}

/** Every field of two results, compared exactly. */
inline void
expectSameResult(const SimResult &a, const SimResult &b,
                 const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what << ": cycles";
    EXPECT_EQ(a.slowPhaseCycles, b.slowPhaseCycles)
        << what << ": slowPhaseCycles";
    EXPECT_EQ(a.mlpBusyMean, b.mlpBusyMean) << what << ": mlpBusyMean";
    ASSERT_EQ(a.threads.size(), b.threads.size())
        << what << ": threads";
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const ThreadResult &x = a.threads[t];
        const ThreadResult &y = b.threads[t];
        const std::string thread = what + ": thread " + std::to_string(t);
        EXPECT_EQ(x.bench, y.bench) << thread << ": bench";
        EXPECT_EQ(x.ipc, y.ipc) << thread << ": ipc";
        expectSameCounters(x, y, thread);
    }
    EXPECT_EQ(a.coreCommitHashes, b.coreCommitHashes)
        << what << ": coreCommitHashes";
    EXPECT_EQ(a.migrations, b.migrations) << what << ": migrations";
    EXPECT_EQ(a.allocEpochs, b.allocEpochs) << what << ": allocEpochs";
    EXPECT_EQ(a.llcAccesses, b.llcAccesses) << what << ": llcAccesses";
    EXPECT_EQ(a.llcMisses, b.llcMisses) << what << ": llcMisses";
    EXPECT_EQ(a.llcArbiter, b.llcArbiter) << what << ": llcArbiter";
    EXPECT_EQ(a.llcShareReassignments, b.llcShareReassignments)
        << what << ": llcShareReassignments";
    ASSERT_EQ(a.llcPerCore.size(), b.llcPerCore.size())
        << what << ": llcPerCore";
    for (std::size_t c = 0; c < a.llcPerCore.size(); ++c) {
        const LlcCoreStats &x = a.llcPerCore[c];
        const LlcCoreStats &y = b.llcPerCore[c];
        const std::string core = what + ": llcPerCore " + std::to_string(c);
        EXPECT_EQ(x.accesses, y.accesses) << core << ": accesses";
        EXPECT_EQ(x.misses, y.misses) << core << ": misses";
        EXPECT_EQ(x.mshrShare, y.mshrShare) << core << ": mshrShare";
        EXPECT_EQ(x.ways, y.ways) << core << ": ways";
        EXPECT_EQ(x.linesOwned, y.linesOwned) << core << ": linesOwned";
    }
}

} // namespace smt::test

#endif // DCRA_SMT_TESTS_SUPPORT_SAME_RESULT_HH
