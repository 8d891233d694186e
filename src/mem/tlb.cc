#include "mem/tlb.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace smt {

Tlb::Tlb(const TlbParams &params)
    : p(params)
{
    SMT_ASSERT(p.entries % p.assoc == 0,
               "TLB entries not divisible by associativity");
    sets = p.entries / p.assoc;
    // Pow2 page size and set count make the per-access vpn/set math
    // shift and mask (this is the same hot-path rule the caches
    // follow; the TLB sits on every fetch and data access).
    SMT_ASSERT(isPow2(p.pageBytes) && p.pageBytes > 1,
               "TLB page size must be a power of two above one");
    SMT_ASSERT(isPow2(static_cast<std::uint64_t>(sets)),
               "TLB set count must be a power of two");
    pageShift = log2Exact(p.pageBytes);
    setMask = static_cast<Addr>(sets) - 1;
    entries.resize(static_cast<std::size_t>(p.entries));
}

bool
Tlb::access(Addr addr)
{
    ++nAccesses;
    const Addr vpn = addr >> pageShift;
    const int set = static_cast<int>(vpn & setMask);
    Entry *base = &entries[static_cast<std::size_t>(set) * p.assoc];

    for (int w = 0; w < p.assoc; ++w) {
        if (base[w].vpn == vpn) {
            base[w].lruStamp = ++stampCounter;
            return true;
        }
    }

    ++nMisses;
    Entry *victim = &base[0];
    for (int w = 0; w < p.assoc; ++w) {
        if (base[w].vpn == invalidVpn) {
            victim = &base[w];
            break;
        }
        if (base[w].lruStamp < victim->lruStamp)
            victim = &base[w];
    }
    victim->vpn = vpn;
    victim->lruStamp = ++stampCounter;
    return false;
}

} // namespace smt
