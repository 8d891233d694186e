/**
 * @file
 * Cross-policy invariant tests (second new test layer of the build
 * bring-up): resource conservation in ResourceTracker, ROB and
 * issue-queue occupancy never exceeding the configured caps under any
 * policy, and the DCRA sharing model's allocations summing to the
 * physical resource budget (both the formula and the lookup-table
 * implementation).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.hh"
#include "core/resource_tracker.hh"
#include "policy/dcra.hh"
#include "policy/sharing_model.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

namespace {

using namespace smt;

// ---------------- ResourceTracker conservation ----------------

TEST(ResourceTracker, ConservationUnderRandomTraffic)
{
    const int nThreads = 4;
    ResourceTracker tracker(nThreads);
    Rng rng(0x7ac1);
    int shadow[NumResourceTypes][maxThreads] = {};

    for (Cycle now = 1; now <= 20'000; ++now) {
        const auto r = static_cast<ResourceType>(
            rng.below(NumResourceTypes));
        const auto t = static_cast<ThreadID>(rng.below(nThreads));
        if (rng.chance(0.55) || shadow[r][t] == 0) {
            tracker.allocate(r, t, now);
            ++shadow[r][t];
            EXPECT_EQ(tracker.lastAlloc(r, t), now);
        } else {
            tracker.release(r, t);
            --shadow[r][t];
        }
        EXPECT_EQ(tracker.occupancy(r, t), shadow[r][t]);
    }

    // Drain completely: every allocation must be releasable and the
    // tracker must land exactly back at zero.
    for (int r = 0; r < NumResourceTypes; ++r) {
        for (ThreadID t = 0; t < nThreads; ++t) {
            while (shadow[r][t] > 0) {
                tracker.release(static_cast<ResourceType>(r), t);
                --shadow[r][t];
            }
            EXPECT_EQ(
                tracker.occupancy(static_cast<ResourceType>(r), t), 0);
        }
    }
}

TEST(ResourceTracker, PreIssueAndCommitCountersAreIndependent)
{
    ResourceTracker tracker(2);
    for (int i = 0; i < 100; ++i)
        tracker.preIssueInc(0);
    for (int i = 0; i < 40; ++i)
        tracker.preIssueDec(0);
    for (int i = 0; i < 7; ++i)
        tracker.commitInc(1);
    EXPECT_EQ(tracker.preIssue(0), 60);
    EXPECT_EQ(tracker.preIssue(1), 0);
    EXPECT_EQ(tracker.committed(1), 7u);
    EXPECT_EQ(tracker.committed(0), 0u);
    EXPECT_EQ(tracker.numThreads(), 2);
}

// ---------------- occupancy caps under every policy ----------------

class OccupancyCaps : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(OccupancyCaps, NeverExceededWhileRunning)
{
    SimConfig cfg;
    cfg.seed = 0xCA95;
    const std::vector<std::string> benches = {"gzip", "mcf", "art",
                                              "crafty"};
    ChipSimulator sim(cfg, benches, GetParam());
    Pipeline &pipe = sim.pipeline(0);
    const SmtConfig &core = pipe.config();

    for (int i = 0; i < 8000; ++i) {
        pipe.tick();
        if (i % 16 != 0)
            continue;

        // Shared ROB: global cap, and the global count is exactly the
        // sum of the per-thread lists.
        int robSum = 0;
        for (ThreadID t = 0; t < pipe.numThreads(); ++t)
            robSum += pipe.rob().size(t);
        ASSERT_LE(pipe.rob().size(), core.robSize);
        ASSERT_EQ(pipe.rob().size(), robSum);

        // Issue queues: per-class cap, and the tracker's per-thread
        // occupancy counters must sum to the real queue contents
        // (resource conservation across the tracker/queue boundary).
        for (int q = 0; q < numQueueClasses; ++q) {
            const auto qc = static_cast<QueueClass>(q);
            ASSERT_LE(pipe.iq(qc).size(), core.iqSize[q]);
            int occSum = 0;
            for (ThreadID t = 0; t < pipe.numThreads(); ++t)
                occSum += pipe.tracker().occupancy(iqResource(qc), t);
            ASSERT_EQ(occSum, pipe.iq(qc).size());
        }

        // Rename registers: what the threads hold plus what is still
        // free can never exceed the rename pool, and nothing is lost.
        for (int fp = 0; fp < 2; ++fp) {
            int held = 0;
            for (ThreadID t = 0; t < pipe.numThreads(); ++t)
                held += pipe.tracker().occupancy(
                    regResource(fp != 0), t);
            ASSERT_EQ(held + pipe.regs().freeCount(fp != 0),
                      core.renameRegsPerFile());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, OccupancyCaps,
    ::testing::Values(PolicyKind::RoundRobin, PolicyKind::Icount,
                      PolicyKind::Stall, PolicyKind::Flush,
                      PolicyKind::FlushPp, PolicyKind::DataGating,
                      PolicyKind::Pdg, PolicyKind::Sra,
                      PolicyKind::Dcra),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        std::string name = policyKindName(info.param);
        for (auto &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

// ---------------- event-driven wakeup structures ----------------

/**
 * The wakeup redesign's structural contract, cross-checked while a
 * 4-thread mix runs under every policy: each waiting issue-queue
 * entry sits on exactly one consumer list per missing operand and
 * nowhere else, each ready-list entry has every operand ready, the
 * ready lists are strictly age-ordered subsets of their queues, and
 * squash unlinks consumer-list entries exactly (nothing leaked,
 * nothing dangling). The deep checks live in
 * Pipeline::auditInvariants(); this test drives them through the
 * squash- and replay-heavy phases of every policy.
 */
class WakeupStructures : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(WakeupStructures, ExactlyOneHomePerWaitingInstruction)
{
    SimConfig cfg;
    cfg.seed = 0x3ACE;
    ChipSimulator sim(cfg, {"gzip", "mcf", "art", "crafty"}, GetParam());
    Pipeline &pipe = sim.pipeline(0);

    for (int i = 0; i < 4000; ++i) {
        pipe.tick();
        // The ready list is a subset of its queue by definition of
        // readiness; check the cheap inclusion every cycle and the
        // full structural audit (consumer-list walk, age order,
        // pendingOps bookkeeping) periodically.
        for (int q = 0; q < numQueueClasses; ++q) {
            const auto qc = static_cast<QueueClass>(q);
            ASSERT_LE(pipe.readyCount(qc), pipe.iq(qc).size());
        }
        if (i % 7 == 0)
            pipe.auditInvariants();
    }
    pipe.auditInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, WakeupStructures,
    ::testing::Values(PolicyKind::RoundRobin, PolicyKind::Icount,
                      PolicyKind::Stall, PolicyKind::Flush,
                      PolicyKind::FlushPp, PolicyKind::DataGating,
                      PolicyKind::Pdg, PolicyKind::Sra,
                      PolicyKind::Dcra),
    [](const ::testing::TestParamInfo<PolicyKind> &info) {
        std::string name = policyKindName(info.param);
        for (auto &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

// ---------------- WakeupTable unit behaviour ----------------

TEST(WakeupTable, WakeMovesOnlyFullySatisfiedConsumers)
{
    InstPool pool(16);
    WakeupTable wt(64);
    const InstHandle a = pool.alloc();
    const InstHandle b = pool.alloc();

    pool[a].pendingOps = 2;
    wt.subscribe(pool, a, 0, false, 5);
    wt.subscribe(pool, a, 1, true, 7);
    pool[b].pendingOps = 1;
    wt.subscribe(pool, b, 0, false, 5);

    std::vector<InstHandle> ready;
    wt.wake(pool, false, 5,
            [&ready](InstHandle h) { ready.push_back(h); });
    // b's last operand arrived; a still waits on fp 7.
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0], b);
    EXPECT_EQ(pool[a].pendingOps, 1);
    EXPECT_EQ(pool[b].pendingOps, 0);
    EXPECT_EQ(wt.headOf(false, 5), invalidWaitLink);

    wt.wake(pool, true, 7,
            [&ready](InstHandle h) { ready.push_back(h); });
    ASSERT_EQ(ready.size(), 2u);
    EXPECT_EQ(ready[1], a);
    EXPECT_EQ(wt.headOf(true, 7), invalidWaitLink);
}

TEST(WakeupTable, UnsubscribeUnlinksMidListExactly)
{
    InstPool pool(16);
    WakeupTable wt(32);
    const InstHandle a = pool.alloc();
    const InstHandle b = pool.alloc();
    const InstHandle c = pool.alloc();
    for (const InstHandle h : {a, b, c}) {
        pool[h].pendingOps = 1;
        wt.subscribe(pool, h, 0, false, 3);
    }

    // Remove the middle of the three-node chain (squash case), then
    // wake: only the survivors may move, in list order.
    wt.unsubscribe(pool, b);
    EXPECT_EQ(pool[b].pendingOps, 0);
    std::vector<InstHandle> ready;
    wt.wake(pool, false, 3,
            [&ready](InstHandle h) { ready.push_back(h); });
    ASSERT_EQ(ready.size(), 2u);
    // subscribe() pushes to the front: c is first, then a.
    EXPECT_EQ(ready[0], c);
    EXPECT_EQ(ready[1], a);
    EXPECT_EQ(wt.headOf(false, 3), invalidWaitLink);
}

// ---------------- DCRA sharing-model budget ----------------

TEST(DcraSharingModel, RealValuedAllocationsSumToBudget)
{
    // The algebraic identity behind the sharing model: the slow
    // threads' bonus comes exactly out of the fast threads' shares,
    // so SA * E_slow + FA * E_fast == R for every configuration.
    for (const auto mode :
         {SharingFactorMode::OverActive,
          SharingFactorMode::OverActivePlus4, SharingFactorMode::Zero}) {
        for (const int total : {32, 80, 160, 272, 512}) {
            for (int fa = 0; fa <= maxThreads; ++fa) {
                for (int sa = 1; sa + fa <= maxThreads; ++sa) {
                    const double e =
                        static_cast<double>(total) / (fa + sa);
                    const double c =
                        SharingModel::factor(mode, fa + sa);
                    const double eSlow = e * (1.0 + c * fa);
                    const double eFast = e * (1.0 - c * sa);
                    EXPECT_NEAR(sa * eSlow + fa * eFast, total, 1e-6)
                        << "mode=" << static_cast<int>(mode)
                        << " R=" << total << " fa=" << fa
                        << " sa=" << sa;
                }
            }
        }
    }
}

TEST(DcraSharingModel, TableMatchesFormulaEverywhere)
{
    for (const auto mode :
         {SharingFactorMode::OverActive,
          SharingFactorMode::OverActivePlus4, SharingFactorMode::Zero}) {
        for (const int total : {32, 80, 272}) {
            const SharingModel formula(mode);
            const SharingModelTable table(mode, total, maxThreads);
            for (int fa = 0; fa <= maxThreads; ++fa) {
                for (int sa = 0; sa + fa <= maxThreads; ++sa) {
                    EXPECT_EQ(table.slowLimit(fa, sa),
                              formula.slowLimit(total, fa, sa))
                        << "mode=" << static_cast<int>(mode)
                        << " R=" << total << " fa=" << fa
                        << " sa=" << sa;
                }
            }
        }
    }
}

TEST(DcraSharingModel, RoundedLimitsStayWithinPhysicalBudget)
{
    // After integer rounding, SA slow threads at their limit can
    // overshoot R by at most one entry per active thread — never by
    // an unbounded amount, and never below zero.
    for (const auto mode :
         {SharingFactorMode::OverActive,
          SharingFactorMode::OverActivePlus4, SharingFactorMode::Zero}) {
        const SharingModel m(mode);
        for (const int total : {32, 80, 160, 272, 512}) {
            for (int fa = 0; fa <= maxThreads; ++fa) {
                for (int sa = 1; sa + fa <= maxThreads; ++sa) {
                    const int lim = m.slowLimit(total, fa, sa);
                    EXPECT_GE(lim, 0);
                    EXPECT_LE(lim, total);
                    EXPECT_LE(sa * lim, total + (fa + sa));
                }
            }
        }
    }
}

TEST(DcraPolicyRuntime, LimitsAndGatingConsistent)
{
    SimConfig cfg;
    cfg.seed = 0xD0C4;
    ChipSimulator sim(cfg, {"mcf", "gzip"}, PolicyKind::Dcra);
    auto &dcra = dynamic_cast<DcraPolicy &>(sim.policy(0));
    Pipeline &pipe = sim.pipeline(0);
    const SmtConfig &core = pipe.config();

    for (int i = 0; i < 6000; ++i) {
        pipe.tick();
        for (int r = 0; r < NumResourceTypes; ++r) {
            const auto rt = static_cast<ResourceType>(r);
            EXPECT_GE(dcra.slowLimit(rt), 0);
            EXPECT_LE(dcra.slowLimit(rt), core.resourceTotal(rt));
        }
        for (ThreadID t = 0; t < pipe.numThreads(); ++t) {
            // Only slow threads are ever fetch-gated by DCRA.
            if (dcra.isGated(t)) {
                EXPECT_TRUE(dcra.isSlow(t)) << "cycle " << i;
            }
        }
    }
}

} // anonymous namespace
