#include "mem/cache.hh"

#include <cstdint>

#include "common/bits.hh"
#include "common/logging.hh"

namespace smt {

Cache::Cache(const CacheParams &params)
    : p(params)
{
    SMT_ASSERT(isPow2(p.size), "%s: size must be a power of two",
               p.name.c_str());
    SMT_ASSERT(isPow2(static_cast<std::uint64_t>(p.lineSize)),
               "%s: line size must be a power of two", p.name.c_str());
    // Way masks are 32 bits wide (fillWays), and insert() keeps its
    // per-set next way in one byte.
    SMT_ASSERT(p.assoc >= 1 && p.assoc <= 32,
               "%s: associativity %d outside 1..32", p.name.c_str(),
               p.assoc);
    SMT_ASSERT(p.banks >= 1 &&
               isPow2(static_cast<std::uint64_t>(p.banks)),
               "%s: banks must be a power of two", p.name.c_str());

    sets = static_cast<int>(p.size /
                            (static_cast<Addr>(p.lineSize) * p.assoc));
    SMT_ASSERT(sets >= 1, "%s: fewer than one set", p.name.c_str());
    // Pow2 sets let every per-access index/tag/bank computation be a
    // shift and a mask instead of runtime division; with pow2 size
    // and line size this only constrains associativity to pow2.
    SMT_ASSERT(isPow2(static_cast<std::uint64_t>(sets)),
               "%s: set count %d must be a power of two "
               "(size / (lineSize * assoc))",
               p.name.c_str(), sets);
    lineMask = static_cast<Addr>(p.lineSize) - 1;
    lineShift = log2Exact(static_cast<std::uint64_t>(p.lineSize));
    setMask = static_cast<Addr>(sets) - 1;
    tagShift =
        lineShift + log2Exact(static_cast<std::uint64_t>(sets));
    // A tag drops at least one address bit, so it is never all ones
    // and can stand for "invalid".
    SMT_ASSERT(tagShift >= 1,
               "%s: a one-byte way leaves no tag value for invalid",
               p.name.c_str());
    bankMask = static_cast<Addr>(p.banks) - 1;
    lines.resize(static_cast<std::size_t>(sets) * p.assoc);
    bankBusy.assign(p.banks, neverCycle);
    nextWay.assign(static_cast<std::size_t>(sets), 0);
}

bool
Cache::access(Addr addr)
{
    ++nAccesses;
    const int set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    for (int w = 0; w < p.assoc; ++w) {
        if (base[w].tag == tag) {
            base[w].lruStamp = ++stampCounter;
            return true;
        }
    }
    ++nMisses;
    return false;
}

int
Cache::fillWays(Addr addr, std::uint32_t wayMask)
{
    const int set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    Line *victim = nullptr;
    for (int w = 0; w < p.assoc; ++w) {
        if (base[w].tag == tag) {
            base[w].lruStamp = ++stampCounter; // already present
            return set * p.assoc + w;
        }
        if (!((wayMask >> w) & 1u))
            continue; // way owned by another claimant
        if (base[w].tag == invalidTag) {
            victim = &base[w];
            break;
        }
        if (!victim || base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    SMT_ASSERT(victim != nullptr,
               "%s: way mask 0x%x allows none of %d ways",
               p.name.c_str(), wayMask, p.assoc);
    victim->tag = tag;
    victim->lruStamp = ++stampCounter;
    return static_cast<int>(victim - base) + set * p.assoc;
}

bool
Cache::probe(Addr addr) const
{
    const int set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *base = &lines[static_cast<std::size_t>(set) * p.assoc];
    for (int w = 0; w < p.assoc; ++w) {
        if (base[w].tag == tag)
            return true;
    }
    return false;
}

bool
Cache::reserveBank(Addr addr, Cycle now)
{
    const int bank =
        static_cast<int>((addr >> lineShift) & bankMask);
    if (bankBusy[bank] == now)
        return false;
    bankBusy[bank] = now;
    return true;
}

} // namespace smt
