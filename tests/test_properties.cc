/**
 * @file
 * Property-based tests: structural invariants audited continuously
 * while the machine runs arbitrary workloads under every policy
 * (parameterised sweep), plus conservation properties of the
 * statistics.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;

using PropertyParam = std::tuple<PolicyKind, int /*workload idx*/>;

const std::vector<std::vector<std::string>> &
propertyWorkloads()
{
    static const std::vector<std::vector<std::string>> w = {
        {"gzip"},
        {"mcf"},
        {"swim", "crafty"},
        {"gzip", "mcf"},
        {"art", "twolf", "lucas"},
        {"gzip", "twolf", "bzip2", "mcf"},
    };
    return w;
}

class PipelineInvariants
    : public ::testing::TestWithParam<PropertyParam>
{
};

TEST_P(PipelineInvariants, HoldContinuously)
{
    const auto [policy, widx] = GetParam();
    SimConfig cfg;
    cfg.seed = 0xABCD + widx;
    ChipSimulator sim(cfg, propertyWorkloads()[widx], policy);
    Pipeline &pipe = sim.pipeline(0);
    for (int i = 0; i < 12000; ++i) {
        pipe.tick();
        if (i % 64 == 0)
            pipe.auditInvariants(); // panics on violation
    }
    SUCCEED();
}

TEST_P(PipelineInvariants, StatsConservation)
{
    const auto [policy, widx] = GetParam();
    SimConfig cfg;
    cfg.seed = 0xBEEF + widx;
    const auto &benches = propertyWorkloads()[widx];
    ChipSimulator sim(cfg, benches, policy);
    const SimResult r = sim.run(4000, 2'000'000);
    for (std::size_t t = 0; t < benches.size(); ++t) {
        const ThreadResult &tr = r.threads[t];
        // Everything fetched either commits, dies, or is in flight.
        const std::uint64_t accounted = tr.committed + tr.squashed;
        EXPECT_LE(accounted, tr.fetched);
        EXPECT_LE(tr.fetched - accounted, 700u)
            << "more in-flight than the machine can hold";
        // Wrong-path work never commits, so it must be squashed (or
        // still in flight).
        EXPECT_LE(tr.fetchedWrongPath, tr.squashed + 700u);
        // Mispredicts are a subset of fetched branches.
        EXPECT_LE(tr.mispredicts, tr.condBranches + tr.fetched / 4);
        EXPECT_LE(tr.l1dMisses, tr.l1dAccesses);
        EXPECT_LE(tr.l2Misses, tr.l2Accesses);
        EXPECT_LE(tr.l2Accesses, tr.l1dMisses);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllWorkloads, PipelineInvariants,
    ::testing::Combine(
        ::testing::Values(PolicyKind::RoundRobin, PolicyKind::Icount,
                          PolicyKind::Stall, PolicyKind::Flush,
                          PolicyKind::FlushPp,
                          PolicyKind::DataGating, PolicyKind::Pdg,
                          PolicyKind::Sra, PolicyKind::Dcra),
        ::testing::Range(0, 6)),
    [](const ::testing::TestParamInfo<PropertyParam> &info) {
        std::string name = policyKindName(std::get<0>(info.param));
        for (auto &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name + "_w" + std::to_string(std::get<1>(info.param));
    });

// ---------------- sharing-model properties ----------------

#include "policy/sharing_model.hh"

using ModelParam = std::tuple<int /*mode*/, int /*total*/>;

class SharingModelProperties
    : public ::testing::TestWithParam<ModelParam>
{
  protected:
    SharingFactorMode
    mode() const
    {
        return static_cast<SharingFactorMode>(
            std::get<0>(GetParam()));
    }
    int total() const { return std::get<1>(GetParam()); }
};

TEST_P(SharingModelProperties, LimitBounds)
{
    const SharingModel m(mode());
    for (int fa = 0; fa <= 8; ++fa) {
        for (int sa = 0; sa <= 8 - fa; ++sa) {
            const int lim = m.slowLimit(total(), fa, sa);
            EXPECT_GE(lim, 0);
            EXPECT_LE(lim, total());
            if (sa > 0 && fa + sa > 1) {
                // A slow thread among several active threads never
                // gets the whole resource.
                EXPECT_LT(lim, total());
                // ...but always at least the plain equal share.
                EXPECT_GE(lim,
                          static_cast<int>(total() / (fa + sa)));
            }
        }
    }
}

TEST_P(SharingModelProperties, MonotoneInSlowCount)
{
    // With FA fixed, more slow threads -> smaller per-thread share.
    const SharingModel m(mode());
    for (int fa = 0; fa <= 4; ++fa) {
        int prev = total() + 1;
        for (int sa = 1; sa <= 8 - fa; ++sa) {
            const int lim = m.slowLimit(total(), fa, sa);
            EXPECT_LE(lim, prev) << "fa=" << fa << " sa=" << sa;
            prev = lim;
        }
    }
}

TEST_P(SharingModelProperties, TotalDemandNeverOversubscribes)
{
    // SA threads at their limit plus the equal share of the fast
    // threads must stay near the resource size: the slow bonus comes
    // out of the fast threads' shares.
    const SharingModel m(mode());
    for (int fa = 1; fa <= 7; ++fa) {
        for (int sa = 1; sa <= 8 - fa; ++sa) {
            const int lim = m.slowLimit(total(), fa, sa);
            const double fastShare =
                static_cast<double>(total()) / (fa + sa);
            const double c =
                SharingModel::factor(m.mode(), fa + sa);
            const double fastRemainder = fastShare * (1.0 - c * sa);
            EXPECT_LE(sa * lim + fa * fastRemainder,
                      total() + (fa + sa))
                << "fa=" << fa << " sa=" << sa;
        }
    }
}

std::string
modelParamName(const ::testing::TestParamInfo<ModelParam> &info)
{
    static const char *names[] = {"OverActive", "Plus4", "Zero"};
    return std::string(names[std::get<0>(info.param)]) + "_R" +
        std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndSizes, SharingModelProperties,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(32, 80, 160, 272, 512)),
    modelParamName);

} // anonymous namespace
