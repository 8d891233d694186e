/**
 * @file
 * Minimal set-associative TLB. On a miss the translation is filled
 * immediately and the configured penalty is added to the access
 * latency (paper Table 2: 160 cycles).
 */

#ifndef DCRA_SMT_MEM_TLB_HH
#define DCRA_SMT_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smt {

/** TLB geometry. */
struct TlbParams
{
    int entries = 512;
    int assoc = 4;
    Addr pageBytes = 8 * 1024;
};

/**
 * One thread-private TLB (instruction or data).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbParams &params);

    /**
     * Translate; fills on miss.
     * @return true on hit (no penalty).
     */
    bool access(Addr addr);

    /** @name Statistics */
    /** @{ */
    std::uint64_t accesses() const { return nAccesses; }
    std::uint64_t misses() const { return nMisses; }
    /** @} */

  private:
    /** No address maps to this vpn: a vpn is an address shifted
     *  right by log2(pageBytes) >= 1 bits (asserted). */
    static constexpr Addr invalidVpn = ~Addr(0);

    /** 16 bytes: "invalid" lives in the vpn, not in a flag. */
    struct Entry
    {
        Addr vpn = invalidVpn;
        std::uint64_t lruStamp = 0;
    };
    static_assert(sizeof(Entry) == 16, "a TLB entry is 16 bytes");

    TlbParams p;
    int sets;
    int pageShift;   //!< log2(pageBytes)
    Addr setMask;    //!< sets - 1
    std::vector<Entry> entries;
    std::uint64_t stampCounter = 0;
    std::uint64_t nAccesses = 0;
    std::uint64_t nMisses = 0;
};

} // namespace smt

#endif // DCRA_SMT_MEM_TLB_HH
