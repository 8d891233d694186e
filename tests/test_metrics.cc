/**
 * @file
 * Unit tests for the performance metrics (sim/metrics.hh): Hmean
 * speedup edge cases and the relative-improvement helper.
 */

#include <gtest/gtest.h>

#include "sim/metrics.hh"
#include "support/dies_with_abort.hh"

namespace {

using namespace smt;

using smt::test::diesWithAbort;

TEST(HmeanSpeedup, EmptyVectorsGiveZero)
{
    EXPECT_DOUBLE_EQ(hmeanSpeedup({}, {}), 0.0);
}

TEST(HmeanSpeedup, MatchesClosedForm)
{
    // Speedups 0.5 and 0.5 -> harmonic mean 0.5.
    EXPECT_DOUBLE_EQ(hmeanSpeedup({1.0, 0.5}, {2.0, 1.0}), 0.5);
    // Speedups 1.0 and 0.5 -> 2 / (1/1 + 1/0.5) = 2/3.
    EXPECT_NEAR(hmeanSpeedup({2.0, 1.0}, {2.0, 2.0}), 2.0 / 3.0,
                1e-12);
}

TEST(HmeanSpeedup, ZeroSingleThreadIpcGivesZero)
{
    // A zero single-thread baseline maps to a zero speedup, which
    // zeroes the harmonic mean rather than dividing by zero.
    EXPECT_DOUBLE_EQ(hmeanSpeedup({1.0}, {0.0}), 0.0);
    EXPECT_DOUBLE_EQ(hmeanSpeedup({1.0, 1.0}, {1.0, 0.0}), 0.0);
}

TEST(HmeanSpeedup, MismatchedLengthsAreFatal)
{
    EXPECT_TRUE(diesWithAbort(
        [] { (void)hmeanSpeedup({1.0}, {1.0, 2.0}); }));
    EXPECT_TRUE(diesWithAbort(
        [] { (void)hmeanSpeedup({1.0, 2.0}, {}); }));
}

TEST(ImprovementPct, RelativeToBaseline)
{
    EXPECT_DOUBLE_EQ(improvementPct(1.5, 1.0), 50.0);
    EXPECT_DOUBLE_EQ(improvementPct(0.5, 1.0), -50.0);
    EXPECT_DOUBLE_EQ(improvementPct(2.0, 2.0), 0.0);
}

TEST(ImprovementPct, ZeroBaselineGivesZero)
{
    // Division by a zero baseline is reported as "no improvement"
    // instead of inf/NaN leaking into tables and JSON.
    EXPECT_DOUBLE_EQ(improvementPct(5.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(improvementPct(0.0, 0.0), 0.0);
}

} // anonymous namespace
