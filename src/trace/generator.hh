/**
 * @file
 * Deterministic synthetic trace generation.
 *
 * A SyntheticTraceGenerator turns a BenchProfile into an endless,
 * reproducible correct-path instruction stream. The stream supports
 * bounded rewind (replayWindow() instructions back) because the FLUSH
 * policy squashes committed-path instructions that must then be
 * fetched again, and keeps no heap state per instruction.
 */

#ifndef DCRA_SMT_TRACE_GENERATOR_HH
#define DCRA_SMT_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "trace/bench_profile.hh"
#include "trace/trace_inst.hh"

namespace smt {

/**
 * Abstract correct-path instruction source for one thread. Users of
 * the library can implement this to feed real traces to the core.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Next not-yet-consumed correct-path instruction. */
    virtual const TraceInst &peek() = 0;

    /** Advance past the instruction peek() returned. */
    virtual void consume() = 0;

    /** Trace index of the instruction peek() returns. */
    virtual std::uint64_t nextIndex() const = 0;

    /**
     * Re-position so nextIndex() == idx; idx must lie within
     * replayWindow() of the furthest point ever reached.
     */
    virtual void rewindTo(std::uint64_t idx) = 0;

    /** How far back rewindTo() may go. */
    virtual std::uint64_t replayWindow() const = 0;
};

/**
 * Region base addresses used by generated code/data streams. The
 * low-order offsets stagger the regions across cache sets so a
 * thread's own regions do not all start at set 0.
 */
namespace layout {
constexpr Addr codeBase = 0x00400000ull;
constexpr Addr nearBase = 0x10002340ull;
constexpr Addr midBase = 0x20008100ull;
constexpr Addr farBase = 0x40004840ull;
constexpr Addr streamBase = 0x8000c3c0ull;
} // namespace layout

/**
 * Endless synthetic instruction stream for one benchmark profile.
 * Equal (profile, seed) pairs produce identical streams.
 */
class SyntheticTraceGenerator : public TraceSource
{
  public:
    /**
     * @param profile benchmark parameters (copied).
     * @param seed RNG seed; vary per thread for workload diversity.
     */
    SyntheticTraceGenerator(const BenchProfile &profile,
                            std::uint64_t seed);

    const TraceInst &peek() override;
    void consume() override;
    std::uint64_t nextIndex() const override { return readIdx; }
    void rewindTo(std::uint64_t idx) override;
    std::uint64_t replayWindow() const override { return ringCap; }

    /** Profile this generator follows. */
    const BenchProfile &profile() const { return prof; }

  private:
    /** Replay window. A squash rewinds at most a full ROB plus a
     *  full fetch queue plus one peeked instruction (545 at the
     *  defaults), and Pipeline refuses a core deeper than this. */
    static constexpr std::uint64_t ringCap = 2048;
    static constexpr int recentRegs = 32;

    /** Why a branch is being generated. */
    enum class BranchRole {
        Mix,       //!< per-PC branch site inside a loop body
        LoopBack,  //!< the loop's closing backward branch
        Return,    //!< forced subroutine return
        RegionJump //!< jump to a fresh code region
    };

    /** Produce the next instruction of the underlying stream. */
    TraceInst generate();

    /** Fill in branch-specific fields and advance the PC. */
    void genBranch(TraceInst &ti, BranchRole role);

    /** Begin a new loop at the given PC. */
    void startLoop(Addr start);

    /** Pick an effective address for a memory op; may set chasing. */
    void genMemAddr(TraceInst &ti, bool memPhase);

    /** Fresh integer destination register. */
    ArchRegId nextIntDst();

    /** Fresh fp destination register (unified id). */
    ArchRegId nextFpDst();

    /** Recently-written integer register, geometric distance. */
    ArchRegId pickIntSrc();

    /** Source register for a branch condition. */
    ArchRegId pickBranchSrc();

    /** Recently-written fp register, geometric distance. */
    ArchRegId pickFpSrc();

    /** Record a destination in the recency rings. */
    void recordDst(ArchRegId r);

    /** Wrap a PC into the code footprint. */
    Addr wrapPc(Addr pc) const;

    /** Deterministic per-site hash for instruction properties. */
    std::uint64_t siteHash(Addr pc) const;

    BenchProfile prof;
    Rng rng;
    std::uint64_t classSalt = 0;

    // --- generation state ---
    Addr curPc;
    std::uint64_t genIdx = 0; //!< index of next inst to generate
    std::uint64_t readIdx = 0; //!< index of next inst to deliver
    std::vector<TraceInst> ring;

    /** @name Phase-modulation constants (fixed per profile)
     * Precomputed once so the per-instruction phase test is a
     * counter compare instead of a divide plus double math; the
     * values are the exact expressions generate() used to evaluate
     * per call. */
    /** @{ */
    std::uint64_t memPhaseLen = 0; //!< cycles of phase in mem mode
    std::uint64_t phasePos = 0;    //!< genIdx % prof.phasePeriod
    double multMem = 1.0;          //!< region multiplier, mem phase
    double multCalm = 1.0;         //!< region multiplier, calm phase

    /**
     * Integer thresholds replacing the per-instruction double
     * compares (see Rng::chanceThreshold / frac16 in the .cc for
     * the exactness argument): each is the precomputed image of the
     * probability the original code compared against, so the
     * instruction stream is bit-identical.
     */
    std::uint64_t depThresh = 0;     //!< chanceThreshold(depP)
    std::uint64_t src2Thresh = 0;    //!< chanceThreshold(0.7)
    std::uint64_t brLoadThresh = 0;  //!< brDependsOnLoadFrac
    std::uint64_t chaseThresh = 0;   //!< chaseFrac
    std::uint64_t midHotThresh = 0;  //!< midHotFrac
    std::uint64_t nearHotThresh = 0; //!< nearHotFrac
    std::uint64_t newRegionThresh = 0; //!< newRegionProb
    std::uint64_t takeMinorityThresh = 0; //!< 0.25 (branch noise)
    /** Memory-region cascade, [0]=calm phase, [1]=mem phase. */
    std::uint64_t streamThresh[2] = {};
    std::uint64_t farThresh[2] = {};
    std::uint64_t midThresh[2] = {};
    /** 16-bit site-hash class thresholds (frac16 images). */
    std::uint32_t brThresh16 = 0;    //!< fracBranch
    std::uint32_t loadThresh16 = 0;  //!< fracBranch+fracLoad
    std::uint32_t storeThresh16 = 0; //!< +fracStore
    std::uint32_t fpDstThresh16 = 0; //!< 0.6 (fp dst split)
    std::uint32_t fpAluThresh16 = 0; //!< fracFpOfAlu
    std::uint32_t fpMulThresh16 = 0; //!< fracFpMulOfFp
    std::uint32_t intMulThresh16 = 0; //!< fracMulOfInt
    std::uint32_t callThresh16 = 0;  //!< brCallFrac
    std::uint32_t uncondThresh16 = 0; //!< 0.05 (forward jump)
    std::uint32_t biasedThresh16 = 0; //!< brBiasedFrac
    /** @} */

    // --- loop structure ---
    Addr loopStart = 0;
    Addr loopEndPc = 0;
    int itersLeft = 0;
    bool pendingRegionJump = false;
    std::vector<Addr> regionAnchors;

    ArchRegId recentInt[recentRegs] = {};
    ArchRegId recentFp[recentRegs] = {};
    int recentIntCount = 0;
    int recentFpCount = 0;
    int intDstCycle = 0;
    int fpDstCycle = 0;
    ArchRegId lastIntAluDst = invalidArchReg;

    struct Frame { Addr retAddr; int remaining; };
    std::vector<Frame> callStack;

    std::vector<Addr> streamPos;
    int chainNext = 0;
};

/**
 * Precomputed form of wrongPathInst() for the fetch hot path: the
 * probability thresholds become integer compares and the two
 * region moduli become reciprocal-multiply divisions (exact — the
 * one-step fixup corrects the at-most-one-off quotient), so per
 * instruction nothing is derived from the profile anymore. inst()
 * is bit-identical to wrongPathInst() for every (pc, salt).
 */
class WrongPathSynth
{
  public:
    WrongPathSynth() = default;

    /** Precompute from a profile; must be called before inst(). */
    void init(const BenchProfile &prof);

    /** Write wrongPathInst(pc, prof, salt) into @p ti (every field;
     *  the fetch stage synthesizes straight into a pool record). */
    void inst(Addr pc, std::uint64_t salt, TraceInst &ti) const;

  private:
    /** Exact x % d via double reciprocal plus one-step fixup;
     *  valid for x < 2^52 (callers pass 40-bit hash fields). */
    struct FastMod
    {
        std::uint64_t d = 1;
        double inv = 1.0;

        void
        set(std::uint64_t div)
        {
            d = div;
            inv = 1.0 / static_cast<double>(div);
        }

        std::uint64_t
        mod(std::uint64_t x) const
        {
            const std::uint64_t q = static_cast<std::uint64_t>(
                static_cast<double>(x) * inv);
            std::uint64_t r = x - q * d;
            if (static_cast<std::int64_t>(r) < 0)
                r += d;
            else if (r >= d)
                r -= d;
            return r;
        }
    };

    bool isFp = false;
    std::uint32_t brThresh20 = 0;    //!< fracBranch
    std::uint32_t loadThresh20 = 0;  //!< +fracLoad
    std::uint32_t storeThresh20 = 0; //!< +fracStore
    std::uint32_t midThresh16 = 0;   //!< 0.5 * fMid
    FastMod codeInsts;
    FastMod midRegion;  //!< midBytes / 64
    FastMod nearRegion; //!< nearBytes / 8
    Addr codeBase = 0;
    Addr midBase = 0;
    Addr nearBase = 0;
};

/**
 * Deterministic wrong-path instruction synthesis: what the front end
 * fetches from @p pc while running down a mispredicted path. Pure
 * function of (pc, salt, profile) so replay stays reproducible and
 * the correct-path RNG stream is not disturbed.
 */
TraceInst wrongPathInst(Addr pc, const BenchProfile &prof,
                        std::uint64_t salt);

} // namespace smt

#endif // DCRA_SMT_TRACE_GENERATOR_HH
