/**
 * @file
 * Chip-level (CMP) configuration: how many SMT cores, how many
 * hardware contexts each offers, which thread-to-core allocation
 * policy runs, how often it reallocates, and the shared-LLC/bus
 * geometry. A SimConfig carries one of these; numCores == 1 (the
 * default) means "the single-core machine of the paper" and changes
 * nothing anywhere.
 */

#ifndef DCRA_SMT_SOC_SOC_PARAMS_HH
#define DCRA_SMT_SOC_SOC_PARAMS_HH

#include <string>

#include "common/types.hh"
#include "mem/shared_cache.hh"

namespace smt {

/** Thread-to-core allocation policies the chip layer offers. */
enum class AllocatorKind {
    RoundRobin, //!< static spread by thread id; never reallocates
    Symbiosis,  //!< greedy IPC symbiosis: pair fast with memory-bound
    Synpa       //!< SYNPA-style metric-score balancing
};

/** Printable allocator name ("round-robin", "symbiosis", "synpa"). */
const char *allocatorKindName(AllocatorKind k);

/** Parse an allocator name; fatal() on bad input. */
AllocatorKind parseAllocatorKind(const std::string &name);

/** Chip-level parameters (single-core defaults are inert). */
struct SocParams
{
    /** SMT cores on the chip. 1 = the original single-core model. */
    int numCores = 1;

    /**
     * Hardware contexts per core in multi-core mode. With one core
     * the context count always equals the workload's thread count
     * (the paper's single-core machine), so this field is ignored.
     */
    int contextsPerCore = 4;

    /** Which allocator decides thread placement. */
    AllocatorKind allocator = AllocatorKind::RoundRobin;

    /**
     * Cycles between allocator invocations (the reallocation epoch).
     * 0 disables reallocation; the initial placement still comes
     * from the allocator.
     */
    Cycle epochCycles = 20'000;

    /**
     * Hard bound on the drain phase of a migration: a mover that
     * still has instructions in flight after this many cycles gets
     * them squashed (they refetch on the new core).
     */
    Cycle drainTimeout = 2'000;

    /** Shared LLC + bus; memLatency is taken from MemParams. */
    SharedCacheParams llc;

    /**
     * LLC arbiter name (alloc/chip_arbiters.hh registry): "static"
     * (the historical fixed per-core MSHR quota), "chip-dcra"
     * (dynamic per-core MSHR/bus shares), "way-equal"/"way-util"
     * (way partitioning). The default changes nothing anywhere.
     */
    std::string llcArbiter = "static";

    /**
     * LLC associativity override for way-partitioning experiments;
     * 0 keeps the SharedCacheParams default. Must keep the set
     * count a power of two (so itself a power of two up to 32).
     */
    int llcWays = 0;

    /**
     * Host worker threads ticking the chip's cores in parallel
     * (--chip-jobs): 1 = serial core-id-order ticking (the
     * historical loop, zero overhead), 0 = one per host hardware
     * thread, N = min(N, numCores). A host-execution knob, not
     * machine configuration: the result is byte-identical for every
     * value (see soc/tick_wavefront.hh), so it is never serialized
     * into result JSON.
     */
    int chipJobs = 1;
};

} // namespace smt

#endif // DCRA_SMT_SOC_SOC_PARAMS_HH
