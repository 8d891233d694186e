/**
 * @file
 * Tunable parameters of all policies, with the paper's defaults.
 */

#ifndef DCRA_SMT_POLICY_POLICY_PARAMS_HH
#define DCRA_SMT_POLICY_POLICY_PARAMS_HH

#include <cstdint>

#include "common/types.hh"
#include "policy/sharing_model.hh"

namespace smt {

/** Knobs shared by the policy implementations. */
struct PolicyParams
{
    /** @name DCRA (paper sections 3.2, 3.4, 5.3) */
    /** @{ */

    /** Sharing factor for the issue queues (300-cycle default). */
    SharingFactorMode iqSharingMode =
        SharingFactorMode::OverActivePlus4;

    /** Sharing factor for the register files. */
    SharingFactorMode regSharingMode =
        SharingFactorMode::OverActivePlus4;

    /** Activity window Y in cycles (paper picks 256 of 64..8192). */
    Cycle activityThreshold = 256;

    /**
     * Track activity on every resource instead of only the fp ones
     * (ablation; the paper's hardware only watches fp IQ and fp
     * registers).
     */
    bool activityAllResources = false;

    /**
     * Classify threads slow on pending *L2* misses instead of L1
     * data misses (ablation; the paper explored both and chose L1,
     * section 3.1.1).
     */
    bool dcraSlowOnL2Only = false;

    /** @} */

    /** @name STALL / FLUSH family (Tullsen & Brown) */
    /** @{ */

    /**
     * Outstanding L2 data misses at which STALL/FLUSH-class policies
     * act. Tullsen & Brown evaluate both first-miss and second-miss
     * triggers; the second-miss trigger preserves a thread's
     * pairwise memory parallelism and behaves far better when
     * misses are independent.
     */
    int l2MissGateThreshold = 2;

    /** @} */

    /** @name DG / PDG (El-Moursy & Albonesi) */
    /** @{ */

    /** Outstanding L1D load misses that gate fetch. */
    int dgMissThreshold = 1;

    /** Miss-predictor table entries (2-bit counters). */
    int pdgTableEntries = 4096;

    /** @} */

    /** @name FLUSH++ (Cazorla et al., HPC 2003) */
    /** @{ */

    /** L2-miss-per-instruction rate marking a thread memory-bounded. */
    double flushppMissRateThreshold = 0.01;

    /** MEM-behaving threads needed to prefer FLUSH over STALL. */
    int flushppMemThreads = 2;

    /** Per-thread committed-instruction sampling window. */
    std::uint64_t flushppWindow = 8192;

    /** @} */
};

} // namespace smt

#endif // DCRA_SMT_POLICY_POLICY_PARAMS_HH
