#include "policy/factory.hh"

#include <memory>
#include <string>

#include "alloc/registry.hh"
#include "common/logging.hh"
#include "policy/dcra.hh"
#include "policy/dgate.hh"
#include "policy/flush.hh"
#include "policy/flushpp.hh"
#include "policy/icount.hh"
#include "policy/pdg.hh"
#include "policy/round_robin.hh"
#include "policy/sra.hh"
#include "policy/stall.hh"

namespace smt {

namespace {

/** One registry row: the kind tag and the constructor. */
struct PolicyEntry
{
    PolicyKind kind;
    std::unique_ptr<Policy> (*make)(const PolicyParams &);
};

/** Stateless-policy constructor (ignores the parameters). */
template <typename P>
std::unique_ptr<Policy>
makePlain(const PolicyParams &)
{
    return std::make_unique<P>();
}

/** Parameterised-policy constructor. */
template <typename P>
std::unique_ptr<Policy>
makeWithParams(const PolicyParams &pp)
{
    return std::make_unique<P>(pp);
}

/**
 * The single source of truth: name, kind and constructor per row.
 * Names keep the paper's spelling; registration order is the order
 * --list-policies prints.
 */
const NamedRegistry<PolicyEntry> &
policyRegistry()
{
    static const NamedRegistry<PolicyEntry> reg = [] {
        NamedRegistry<PolicyEntry> r;
        r.add("ROUND-ROBIN", {PolicyKind::RoundRobin,
                              makePlain<RoundRobinPolicy>});
        r.add("ICOUNT", {PolicyKind::Icount, makePlain<IcountPolicy>});
        r.add("STALL",
              {PolicyKind::Stall, makeWithParams<StallPolicy>});
        r.add("FLUSH",
              {PolicyKind::Flush, makeWithParams<FlushPolicy>});
        r.add("FLUSH++",
              {PolicyKind::FlushPp, makeWithParams<FlushPpPolicy>});
        r.add("DG", {PolicyKind::DataGating,
                     makeWithParams<DataGatingPolicy>});
        r.add("PDG", {PolicyKind::Pdg, makeWithParams<PdgPolicy>});
        r.add("SRA", {PolicyKind::Sra, makePlain<SraPolicy>});
        r.add("DCRA", {PolicyKind::Dcra, makeWithParams<DcraPolicy>});
        return r;
    }();
    return reg;
}

} // anonymous namespace

const char *
policyKindName(PolicyKind k)
{
    for (const auto &row : policyRegistry().entries()) {
        if (row.second.kind == k)
            return row.first;
    }
    return "invalid";
}

PolicyKind
parsePolicyKind(const std::string &name)
{
    const PolicyEntry *e = policyRegistry().find(name);
    if (!e)
        fatal("unknown policy '%s' (run 'smtsim --list-policies')",
              name.c_str());
    return e->kind;
}

std::unique_ptr<Policy>
makePolicy(PolicyKind kind, const PolicyParams &params)
{
    for (const auto &row : policyRegistry().entries()) {
        if (row.second.kind == kind)
            return row.second.make(params);
    }
    panic("bad policy kind %d", static_cast<int>(kind));
}

std::vector<const char *>
policyNames()
{
    return policyRegistry().names();
}

} // namespace smt
