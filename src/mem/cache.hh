/**
 * @file
 * Set-associative cache tag array with true-LRU replacement and
 * per-cycle bank arbitration. Data values are not simulated (the
 * simulator is trace driven); only tags, replacement state and
 * timing-relevant structure exist.
 */

#ifndef DCRA_SMT_MEM_CACHE_HH
#define DCRA_SMT_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace smt {

/** Geometry and naming for one cache level. */
struct CacheParams
{
    std::string name = "cache";
    Addr size = 64 * 1024;   //!< total capacity in bytes
    int assoc = 2;           //!< ways per set
    int lineSize = 64;       //!< line size in bytes
    int banks = 8;           //!< independently addressed banks
};

/**
 * Tag array of one cache. Thread-oblivious: SMT threads share all
 * levels and conflict naturally through the index bits.
 */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    /**
     * Look a line up and update LRU on hit. Misses do not allocate;
     * call fill() when the miss is handled so the outstanding-miss
     * window is owned by the MSHR file.
     *
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Allocate (or refresh) the line containing addr. */
    void fill(Addr addr) { (void)fillWays(addr, allWays); }

    /**
     * Prewarm: allocate the line containing addr in O(1), exactly
     * where fill() would put it. Exact only while the cache has
     * seen nothing but insert() calls, each of a line not inserted
     * before: then the k-th insertion into a set lands in way
     * k mod assoc with the next stamp, which is the way (first
     * invalid, else least recently used) and stamp fill() picks.
     * The first condition is checked (any access hit or fill
     * advances the stamp counter past the insertion count and makes
     * this panic); the second is the caller's to guarantee.
     */
    void
    insert(Addr addr)
    {
        SMT_ASSERT(stampCounter == nInserted,
                   "%s: insert() after the cache was accessed",
                   p.name.c_str());
        const auto set = static_cast<std::size_t>(setIndex(addr));
        std::uint8_t &way = nextWay[set];
        Line &l = lines[set * p.assoc + way];
        l.tag = tagOf(addr);
        l.lruStamp = ++stampCounter;
        ++nInserted;
        way = way + 1 == p.assoc ? 0 : static_cast<std::uint8_t>(way + 1);
    }

    /**
     * Allocate (or refresh) the line, restricting victim selection
     * to the ways whose bit is set in @p wayMask — the enforcement
     * point for way partitioning. A line already present in *any*
     * way is refreshed in place (partitioning restricts eviction,
     * not lookup). With allWays the choice is identical to fill().
     *
     * @return the global line slot (set * assoc + way) the line
     *         occupies, so callers can track per-claimant ownership.
     */
    int fillWays(Addr addr, std::uint32_t wayMask);

    /** Way mask allowing every way. */
    static constexpr std::uint32_t allWays = ~0u;

    /** LRU-update-free lookup for tests and probes. */
    bool probe(Addr addr) const;

    /** True until a line is first placed (a hit needs one). */
    bool empty() const { return stampCounter == 0; }

    /**
     * Try to claim the bank for addr in the given cycle.
     * @return false if the bank already served an access this cycle.
     */
    bool reserveBank(Addr addr, Cycle now);

    /** Line-aligned address. */
    Addr lineAddr(Addr addr) const { return addr & ~lineMask; }

    /** Number of sets. */
    int numSets() const { return sets; }

    /** @name Statistics */
    /** @{ */
    std::uint64_t accesses() const { return nAccesses; }
    std::uint64_t misses() const { return nMisses; }
    double
    missRate() const
    {
        return nAccesses
            ? static_cast<double>(nMisses) /
                  static_cast<double>(nAccesses)
            : 0.0;
    }
    void resetStats() { nAccesses = nMisses = 0; }
    /** @} */

    /** Configuration this cache was built with. */
    const CacheParams &params() const { return p; }

  private:
    /** No address maps to this tag: a tag is an address shifted
     *  right by at least one bit (asserted in the constructor). */
    static constexpr Addr invalidTag = ~Addr(0);

    /** 16 bytes: "invalid" lives in the tag, not in a flag. */
    struct Line
    {
        Addr tag = invalidTag;
        std::uint64_t lruStamp = 0;
    };
    static_assert(sizeof(Line) == 16, "a cache line entry is 16 bytes");

    /** All pow2 geometry (asserted in the constructor), so the
     *  per-access index/tag/bank math is pure shift and mask. */
    int
    setIndex(Addr addr) const
    {
        return static_cast<int>((addr >> lineShift) & setMask);
    }

    Addr tagOf(Addr addr) const { return addr >> tagShift; }

    CacheParams p;
    int sets;
    Addr lineMask;
    int lineShift;   //!< log2(lineSize)
    Addr setMask;    //!< sets - 1
    int tagShift;    //!< lineShift + log2(sets)
    Addr bankMask;   //!< banks - 1
    std::vector<Line> lines;        //!< sets * assoc, row-major
    std::vector<Cycle> bankBusy;    //!< last cycle each bank served
    /** insert()'s next way per set (its insertion count mod assoc). */
    std::vector<std::uint8_t> nextWay;
    std::uint64_t stampCounter = 0;
    /** insert() calls so far. Every set mutation advances
     *  stampCounter, so equality means only insert() ever ran. */
    std::uint64_t nInserted = 0;
    std::uint64_t nAccesses = 0;
    std::uint64_t nMisses = 0;
};

} // namespace smt

#endif // DCRA_SMT_MEM_CACHE_HH
