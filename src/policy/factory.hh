/**
 * @file
 * Construction of policies by kind, the enumeration experiments
 * sweep over. Name, kind and constructor live in one name-keyed
 * registry row (alloc/registry.hh) — the same infrastructure the
 * LLC-arbiter factory uses — so the printable names, the parser and
 * the factory can never drift apart.
 */

#ifndef DCRA_SMT_POLICY_FACTORY_HH
#define DCRA_SMT_POLICY_FACTORY_HH

#include <memory>
#include <string>
#include <vector>

#include "policy/policy_params.hh"
#include "policy/policy.hh"

namespace smt {

/** Every policy the paper evaluates. */
enum class PolicyKind {
    RoundRobin,
    Icount,
    Stall,
    Flush,
    FlushPp,
    DataGating,
    Pdg,
    Sra,
    Dcra
};

/** Printable name matching the paper's spelling. */
const char *policyKindName(PolicyKind k);

/** Parse a name ("DCRA", "FLUSH++", ...); fatal() on bad input. */
PolicyKind parsePolicyKind(const std::string &name);

/** Instantiate a policy. */
std::unique_ptr<Policy> makePolicy(PolicyKind kind,
                                   const PolicyParams &params);

/** Registered policy names in registration order (--list-policies). */
std::vector<const char *> policyNames();

} // namespace smt

#endif // DCRA_SMT_POLICY_FACTORY_HH
