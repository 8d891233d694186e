/**
 * @file
 * DCRA's sharing model (paper section 3.2).
 *
 * Starting from the equal share E = R/T, fast threads lend slow
 * threads a fraction C of their share; only threads *active* for a
 * resource take part. The number of entries a slow active thread may
 * hold is
 *
 *     E_slow = R / (F_A + S_A) * (1 + C * F_A)
 *
 * The sharing factor C depends on latency tuning (paper section 5.3):
 *
 *   - OverActive       C = 1/(F_A+S_A)  best for ~100-cycle memory;
 *                      also the value behind the paper's Table 1.
 *   - OverActivePlus4  C = 1/(F_A+S_A+4)  best for ~300 cycles (the
 *                      baseline).
 *   - Zero             C = 0  used for the IQs at 500 cycles.
 *
 * The paper proposes two implementations: a combinational circuit for
 * the formula and a small read-only table indexed by (F_A, S_A).
 * Both exist here: DCRA reads the table, which is built from the
 * formula, and unit tests pin the two to each other and to Table 1.
 */

#ifndef DCRA_SMT_POLICY_SHARING_MODEL_HH
#define DCRA_SMT_POLICY_SHARING_MODEL_HH

#include <vector>

#include "common/types.hh"

namespace smt {

/** How the sharing factor C is derived from the active counts. */
enum class SharingFactorMode {
    OverActive,      //!< C = 1/(F_A+S_A)
    OverActivePlus4, //!< C = 1/(F_A+S_A+4)
    Zero             //!< C = 0 (no borrowing)
};

/** Printable mode name. */
const char *sharingFactorModeName(SharingFactorMode m);

/**
 * Formula ("combinational circuit") implementation.
 */
class SharingModel
{
  public:
    /** @param mode sharing-factor flavour. */
    explicit SharingModel(SharingFactorMode mode)
        : cMode(mode)
    {
    }

    /**
     * Entries a slow active thread may hold.
     *
     * @param total resource size R.
     * @param fastActive number of fast threads active for it (F_A).
     * @param slowActive number of slow threads active for it (S_A).
     * @return the rounded E_slow; when nothing competes (S_A == 0 or
     *         no active threads) the resource is unconstrained and
     *         total is returned.
     */
    int slowLimit(int total, int fastActive, int slowActive) const;

    /** Sharing factor C for the given active-thread count. */
    static double factor(SharingFactorMode m, int activeThreads);

    /** Mode in use. */
    SharingFactorMode mode() const { return cMode; }

  private:
    SharingFactorMode cMode;
};

/**
 * Read-only lookup-table implementation, the paper's alternative
 * circuit: indexed by (F_A, S_A) with F_A + S_A <= maxThreads. New
 * tables can be loaded to change the sharing model (e.g. when the
 * memory latency changes).
 */
class SharingModelTable
{
  public:
    /**
     * Precompute the table from a formula model.
     *
     * @param mode sharing-factor flavour.
     * @param total resource size R.
     * @param maxActiveThreads largest F_A + S_A (context count).
     */
    SharingModelTable(SharingFactorMode mode, int total,
                      int maxActiveThreads);

    /** Table lookup; same contract as SharingModel::slowLimit. */
    int slowLimit(int fastActive, int slowActive) const;

    /** Number of (F_A, S_A) entries with S_A >= 1 (paper: 10). */
    int populatedEntries() const;

  private:
    int maxActive;
    std::vector<int> table; //!< (maxActive+1)^2 row-major [FA][SA]
};

} // namespace smt

#endif // DCRA_SMT_POLICY_SHARING_MODEL_HH
