/**
 * @file
 * Miss status holding registers: the bounded pool of outstanding
 * cache misses. Requests to a line that is already in flight merge
 * into the existing entry (they inherit its ready cycle and add no
 * new downstream traffic). The pool size bounds the achievable
 * memory-level parallelism, which is the quantity DCRA tries to
 * raise for slow threads.
 */

#ifndef DCRA_SMT_MEM_MSHR_HH
#define DCRA_SMT_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace smt {

/** Service level of a miss. */
enum class ServiceLevel : std::uint8_t {
    L1 = 1,   //!< hit in L1 (never allocates an MSHR)
    L2 = 2,   //!< L1 miss serviced by L2
    Memory = 3 //!< L1 and L2 miss serviced by main memory
};

/**
 * Fixed-size MSHR file for one cache.
 */
class MshrFile
{
  public:
    /** One in-flight miss (its line lives in the packed line array). */
    struct Entry
    {
        Cycle ready = 0;
        ThreadID tid = invalidThread;
        ServiceLevel level = ServiceLevel::L2;
        bool isLoad = false;
    };

    /** @param nEntries pool size. */
    explicit MshrFile(int nEntries);

    /** Entry holding this line, or nullptr. */
    const Entry *find(Addr line) const;

    /** True when no entry is free. */
    bool full() const { return liveCount == lines.size(); }

    /**
     * Allocate an entry.
     * @pre !full(), no entry for this line exists, and @p line is a
     *      line address (its low bit is clear).
     */
    void alloc(Addr line, Cycle ready, ThreadID tid,
               ServiceLevel level, bool isLoad);

    /**
     * Release all entries whose fill has arrived.
     * @return how many were released.
     */
    int retire(Cycle now);

    /** Earliest ready cycle among live entries; neverCycle when the
     *  file is empty. Nothing changes here before that cycle unless
     *  an entry is allocated. */
    Cycle nextFill() const { return nextReady; }

    /** Outstanding load misses of a thread at a given level or
     *  worse. Inline: polled every cycle by policies and metrics. */
    int
    pendingLoads(ThreadID tid, ServiceLevel atLeast) const
    {
        int n = 0;
        for (int lvl = static_cast<int>(atLeast); lvl <= 3; ++lvl)
            n += loadCount[tid][lvl];
        return n;
    }

    /** Outstanding memory-level load misses, all threads. */
    int outstandingMemLoads() const { return memLoadTotal; }

    /** Outstanding load misses at the given level for one thread. */
    int
    outstandingLoads(ThreadID tid, ServiceLevel level) const
    {
        return loadCount[tid][static_cast<int>(level)];
    }

    /** Current number of live entries. */
    int live() const { return static_cast<int>(liveCount); }

    /** Pool capacity. */
    int capacity() const { return static_cast<int>(lines.size()); }

  private:
    /** Marks a free slot in `lines`: a line address has its low bit
     *  clear, so no lookup can ever match it. */
    static constexpr Addr freeLine = 1;

    /**
     * Line address of each slot (freeLine when free), packed apart
     * from the entries: find(), which runs on every data access and
     * instruction fetch, scans 8 bytes per slot instead of a whole
     * Entry.
     */
    std::vector<Addr> lines;
    std::vector<Entry> entries; //!< parallel to lines
    std::size_t liveCount = 0;

    /** One past the highest live slot: alloc() takes the lowest free
     *  slot, so the live entries crowd the front and find() scans
     *  only that prefix. Lowered by the retire() scan. */
    std::size_t scanEnd = 0;

    /**
     * Earliest ready cycle among live entries (neverCycle when
     * empty): the per-cycle retire() is a single compare in the
     * common nothing-arrives-this-cycle case instead of a scan of
     * the whole file. Recomputed only on the cycles a fill lands.
     */
    Cycle nextReady = neverCycle;

    /** Incremental counts: loadCount[tid][level] (levels 2 and 3). */
    int loadCount[maxThreads][4] = {};
    int memLoadTotal = 0;
};

} // namespace smt

#endif // DCRA_SMT_MEM_MSHR_HH
