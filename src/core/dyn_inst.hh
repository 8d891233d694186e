/**
 * @file
 * In-flight dynamic instruction state and the fixed pool that owns
 * it. Pipeline structures hold InstHandle indices rather than
 * pointers so the pool can be a flat array.
 */

#ifndef DCRA_SMT_CORE_DYN_INST_HH
#define DCRA_SMT_CORE_DYN_INST_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "bpred/predictor.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "trace/trace_inst.hh"

namespace smt {

/** Index of a DynInst inside the InstPool. */
using InstHandle = std::uint32_t;

/** Sentinel handle. */
constexpr InstHandle invalidInst = ~InstHandle(0);

/**
 * Encoded reference into the wakeup consumer lists: either a wait
 * node ((handle << 1) | sourceSlot) or, in waitPrev only, a list
 * head (see WakeupTable). Nodes are intrusive so the lists never
 * allocate.
 */
using WaitLink = std::uint32_t;

/** Sentinel for "no link" / "slot not subscribed". */
constexpr WaitLink invalidWaitLink = ~WaitLink(0);

/**
 * One in-flight instruction. Reset to a default-constructed state on
 * pool allocation. Fields are grouped by size (8-byte, then 4-byte,
 * then flags) so the record — copied on every allocation and walked
 * by every stage — carries no interior padding.
 */
struct DynInst
{
    TraceInst ti;                 //!< static trace record

    InstSeqNum seq = 0;           //!< global age
    std::uint64_t traceIdx = ~0ull; //!< correct-path trace position
    Cycle fetchCycle = 0;
    std::uint64_t iqStamp = 0;    //!< issue-queue insertion age

    ThreadID tid = invalidThread;

    /** @name Rename state */
    /** @{ */
    PhysRegId pdst = invalidPhysReg;
    PhysRegId psrc1 = invalidPhysReg;
    PhysRegId psrc2 = invalidPhysReg;
    PhysRegId prevMap = invalidPhysReg;
    /** @} */

    /** @name Issue-wakeup state (kept by Pipeline + WakeupTable) */
    /** @{ */
    std::uint32_t iqSlot = 0;   //!< slot in the unordered IssueQueue
    /** Intrusive consumer-list links, one pair per source slot.
     *  waitPrev == invalidWaitLink means "slot not subscribed". */
    WaitLink waitNext[2] = {invalidWaitLink, invalidWaitLink};
    WaitLink waitPrev[2] = {invalidWaitLink, invalidWaitLink};
    /** @} */

    /** @name Same-dword store chain (stores only; see StoreSet) */
    /** @{ */
    InstHandle storePrev = invalidInst; //!< next-older, same dword
    InstHandle storeNext = invalidInst; //!< next-younger, same dword
    /** @} */

    BpredSnapshot snap;           //!< predictor state before fetch

    /** @name Status flags */
    /** @{ */
    bool wrongPath = false;
    bool inIQ = false;
    bool issued = false;
    bool done = false;
    bool squashed = false;
    bool predTaken = false;
    bool mispredicted = false;
    bool inReadyList = false;    //!< on its queue's ready list
    std::uint8_t memLevel = 0;   //!< load service level once issued
    std::uint8_t pendingOps = 0; //!< sources still awaited
    /** @} */

    /** True if the destination register is floating point. */
    bool
    dstFp() const
    {
        return ti.dst != invalidArchReg && isFpReg(ti.dst);
    }

    /**
     * Reset every field except the two payload blocks the fetch
     * stage assigns unconditionally right after allocation (`ti`,
     * `snap`). InstPool::alloc calls this instead of copying a
     * blank record so the payload bytes cross the arena once, not
     * twice. A field added to DynInst must be reset here unless
     * fetch assigns it on every path.
     */
    void
    resetForFetch()
    {
        seq = 0;
        traceIdx = ~0ull;
        fetchCycle = 0;
        iqStamp = 0;
        tid = invalidThread;
        pdst = invalidPhysReg;
        psrc1 = invalidPhysReg;
        psrc2 = invalidPhysReg;
        prevMap = invalidPhysReg;
        iqSlot = 0;
        waitNext[0] = waitNext[1] = invalidWaitLink;
        waitPrev[0] = waitPrev[1] = invalidWaitLink;
        storePrev = invalidInst;
        storeNext = invalidInst;
        wrongPath = false;
        inIQ = false;
        issued = false;
        done = false;
        squashed = false;
        predTaken = false;
        mispredicted = false;
        inReadyList = false;
        memLevel = 0;
        pendingOps = 0;
    }
};

/**
 * Fixed-capacity LIFO free-list allocator of DynInsts. Handle
 * numbering never feeds simulation results — every age comparison
 * uses DynInst::seq — so the allocation order is a pure locality
 * knob: LIFO reuses the most recently freed (cache-hot) slot.
 * A min-heap variant handing out the lowest free index ("arena
 * order", keeping live records contiguous for squash walks) was
 * measured ~20% slower end-to-end: two O(log n) heap fixups per
 * instruction outweigh any locality gain while the slab fits in
 * cache. Revisit only with pool capacities far beyond the current
 * few hundred records.
 *
 * The slab is reserved, not filled: a record is built on its first
 * allocation, so a machine pays (and its process holds) only the
 * records it ever had in flight, not the whole capacity up front.
 * A handle never allocated before is always the lowest such one, so
 * the slab's size stands in for the unbuilt tail of the free list.
 */
class InstPool
{
  public:
    /** @param capacity maximum simultaneous in-flight instructions. */
    explicit InstPool(std::size_t capacity) : cap(capacity)
    {
        slab.reserve(capacity);
        freeList.reserve(capacity);
    }

    /**
     * These guards keep DynInst memcpy-able so the pool can never
     * silently grow heap traffic or per-record destructor work.
     */
    static_assert(std::is_trivially_copyable<DynInst>::value,
                  "DynInst must stay trivially copyable");
    static_assert(std::is_trivially_destructible<DynInst>::value,
                  "DynInst must stay trivially destructible");

    /**
     * Allocate an instruction record with all pipeline state reset.
     * The `ti` and `snap` payload blocks of a reused record are NOT
     * cleared — they hold whatever the slot's previous occupant
     * left, and the caller (the fetch stage, the pool's only client)
     * must assign both before any other stage sees the record.
     */
    InstHandle
    alloc()
    {
        if (freeList.empty()) {
            SMT_ASSERT(slab.size() < cap, "InstPool exhausted (cap %zu)",
                       cap);
            slab.emplace_back();
            return static_cast<InstHandle>(slab.size() - 1);
        }
        const InstHandle h = freeList.back();
        freeList.pop_back();
        slab[h].resetForFetch();
        return h;
    }

    /** Return a record to the pool. */
    void
    free(InstHandle h)
    {
        SMT_ASSERT(h < slab.size(), "bad handle");
        freeList.push_back(h);
    }

    /** Access a live record. */
    DynInst &operator[](InstHandle h) { return slab[h]; }
    const DynInst &operator[](InstHandle h) const { return slab[h]; }

    /** Number of live records. */
    std::size_t live() const { return slab.size() - freeList.size(); }

    /** Capacity. */
    std::size_t capacity() const { return cap; }

  private:
    /** Records built so far; reserved to cap, so it never moves and
     *  handles >= its size are the unbuilt tail of the free list. */
    std::vector<DynInst> slab;
    std::size_t cap;
    std::vector<InstHandle> freeList; //!< freed built records, LIFO
};

} // namespace smt

#endif // DCRA_SMT_CORE_DYN_INST_HH
