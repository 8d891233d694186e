#include "trace/generator.hh"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace smt {

namespace {

/** SplitMix64-style avalanche for per-site instruction properties. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Uniform double in [0,1) from 16 hash bits. */
double
hashFrac(std::uint64_t h, int shift)
{
    return static_cast<double>((h >> shift) & 0xffff) / 65536.0;
}

constexpr Addr align8(Addr a) { return a & ~Addr(7); }

/**
 * Integer image of `hashFrac(h, s) < f`: the 16-bit field x
 * satisfies x / 65536 < f iff x < ceil(f * 65536) (the product is
 * exact — a power-of-two scale only shifts the exponent — and an
 * integer is below a real bound iff it is below its ceiling).
 */
std::uint32_t
frac16(double f)
{
    if (f <= 0.0)
        return 0;
    if (f >= 1.0)
        return 1u << 16;
    return static_cast<std::uint32_t>(
        __builtin_ceil(f * 65536.0));
}

} // anonymous namespace

SyntheticTraceGenerator::SyntheticTraceGenerator(
        const BenchProfile &profile, std::uint64_t seed)
    : prof(profile),
      rng(seed ^ mix64(std::hash<std::string>{}(profile.name))),
      curPc(layout::codeBase),
      ring(ringCap)
{
    SMT_ASSERT(prof.fracLoad + prof.fracStore + prof.fracBranch < 1.0,
               "instruction mix fractions exceed 1 for %s", prof.name);
    classSalt = mix64(std::hash<std::string>{}(profile.name) ^
                      0xc0ffee);
    // Region anchors: the program's hot-function entry points. More
    // code footprint -> more anchors -> more I-cache pressure.
    const std::size_t nAnchors =
        8 + prof.codeFootprint / (16 * 1024);
    const Addr codeInsts = prof.codeFootprint / 4;
    for (std::size_t i = 0; i < nAnchors; ++i) {
        regionAnchors.push_back(wrapPc(
            layout::codeBase +
            (mix64(classSalt + 31 * i) % codeInsts) * 4));
    }
    streamPos.assign(std::max(prof.nStreams, 1), 0);

    // Phase-modulation constants (see generate()): identical to the
    // per-call expressions they replace, evaluated once.
    {
        const double mpf = prof.memPhaseFrac;
        const double calm = prof.calmFactor;
        const double norm = mpf + (1.0 - mpf) * calm;
        memPhaseLen = static_cast<std::uint64_t>(
            mpf * static_cast<double>(prof.phasePeriod));
        multMem = (norm <= 0.0) ? 1.0 : 1.0 / norm;
        multCalm = (norm <= 0.0) ? 1.0 : calm / norm;
    }

    // Integer thresholds for every per-instruction probability
    // compare; the probability expressions are copied verbatim from
    // the compares they replace so the images are exact.
    depThresh = Rng::chanceThreshold(prof.depP);
    src2Thresh = Rng::chanceThreshold(0.7);
    brLoadThresh = Rng::chanceThreshold(prof.brDependsOnLoadFrac);
    chaseThresh = Rng::chanceThreshold(prof.chaseFrac);
    midHotThresh = Rng::chanceThreshold(prof.midHotFrac);
    nearHotThresh = Rng::chanceThreshold(prof.nearHotFrac);
    newRegionThresh = Rng::chanceThreshold(prof.newRegionProb);
    takeMinorityThresh = Rng::chanceThreshold(0.25);
    for (int phase = 0; phase < 2; ++phase) {
        const double mult = phase ? multMem : multCalm;
        const double pStream = prof.fStream * mult;
        const double pFar = prof.fFar * mult;
        const double pMid = prof.fMid * mult;
        streamThresh[phase] = Rng::chanceThreshold(pStream);
        farThresh[phase] = Rng::chanceThreshold(pStream + pFar);
        midThresh[phase] =
            Rng::chanceThreshold(pStream + pFar + pMid);
    }
    brThresh16 = frac16(prof.fracBranch);
    loadThresh16 = frac16(prof.fracBranch + prof.fracLoad);
    storeThresh16 =
        frac16(prof.fracBranch + prof.fracLoad + prof.fracStore);
    fpDstThresh16 = frac16(0.6);
    fpAluThresh16 = frac16(prof.fracFpOfAlu);
    fpMulThresh16 = frac16(prof.fracFpMulOfFp);
    intMulThresh16 = frac16(prof.fracMulOfInt);
    callThresh16 = frac16(prof.brCallFrac);
    uncondThresh16 = frac16(0.05);
    biasedThresh16 = frac16(prof.brBiasedFrac);
    for (int i = 0; i < recentRegs; ++i) {
        recentInt[i] = 1 + (i % (numIntArchRegs - 1));
        recentFp[i] = numIntArchRegs + 1 + (i % (numFpArchRegs - 1));
    }
    recentIntCount = recentRegs;
    recentFpCount = recentRegs;
    startLoop(curPc);
}

const TraceInst &
SyntheticTraceGenerator::peek()
{
    if (readIdx == genIdx) {
        ring[genIdx % ringCap] = generate();
        ++genIdx;
        if (++phasePos >= static_cast<std::uint64_t>(
                prof.phasePeriod))
            phasePos = 0;
    }
    return ring[readIdx % ringCap];
}

void
SyntheticTraceGenerator::consume()
{
    peek();
    ++readIdx;
}

void
SyntheticTraceGenerator::rewindTo(std::uint64_t idx)
{
    SMT_ASSERT(idx <= genIdx, "rewind to the future (%llu > %llu)",
               static_cast<unsigned long long>(idx),
               static_cast<unsigned long long>(genIdx));
    SMT_ASSERT(genIdx - idx <= ringCap,
               "rewind beyond replay window");
    readIdx = idx;
}

Addr
SyntheticTraceGenerator::wrapPc(Addr pc) const
{
    const Addr lo = layout::codeBase;
    const Addr span = prof.codeFootprint;
    if (pc >= lo && pc < lo + span)
        return pc;
    return lo + (pc - lo) % span;
}

std::uint64_t
SyntheticTraceGenerator::siteHash(Addr pc) const
{
    return mix64((pc * 0x9e3779b97f4a7c15ull) ^ classSalt);
}

void
SyntheticTraceGenerator::startLoop(Addr start)
{
    loopStart = wrapPc(start);
    const Addr len = 8 + rng.below(static_cast<std::uint64_t>(
        2.0 * prof.loopMeanLen));
    // Keep the body clear of the code-footprint wrap boundary so PC
    // flow passes through loopEndPc monotonically.
    if (loopStart + len * 4 >= layout::codeBase + prof.codeFootprint)
        loopStart = layout::codeBase;
    loopEndPc = loopStart + len * 4;
    itersLeft = 2 + static_cast<int>(
        rng.below(static_cast<std::uint64_t>(
            2.0 * prof.loopMeanIters)));
}

ArchRegId
SyntheticTraceGenerator::nextIntDst()
{
    const int lo = 1 + prof.chaseChains;
    const int span = numIntArchRegs - lo;
    return lo + (intDstCycle++ % span);
}

ArchRegId
SyntheticTraceGenerator::nextFpDst()
{
    return numIntArchRegs + 1 +
        (fpDstCycle++ % (numFpArchRegs - 1));
}

ArchRegId
SyntheticTraceGenerator::pickIntSrc()
{
    const int d = 1 + static_cast<int>(
        rng.geometricFast(prof.depP, depThresh));
    if (d > recentIntCount)
        return 1;
    return recentInt[(recentIntCount - d) % recentRegs];
}

ArchRegId
SyntheticTraceGenerator::pickFpSrc()
{
    const int d = 1 + static_cast<int>(
        rng.geometricFast(prof.depP, depThresh));
    if (d > recentFpCount)
        return numIntArchRegs + 1;
    return recentFp[(recentFpCount - d) % recentRegs];
}

void
SyntheticTraceGenerator::recordDst(ArchRegId r)
{
    if (r == invalidArchReg)
        return;
    if (isFpReg(r))
        recentFp[recentFpCount++ % recentRegs] = r;
    else
        recentInt[recentIntCount++ % recentRegs] = r;
}

void
SyntheticTraceGenerator::genMemAddr(TraceInst &ti, bool memPhase)
{
    // One raw draw compared against the precomputed per-phase
    // cascade thresholds: same consumption, same outcomes as the
    // double cascade it replaces.
    const std::uint64_t u = rng.next() >> 11;
    const int ph = memPhase ? 1 : 0;

    if (u < streamThresh[ph] && prof.nStreams > 0) {
        const int s = static_cast<int>(rng.below(prof.nStreams));
        const Addr slice = prof.farBytes /
            static_cast<Addr>(prof.nStreams);
        ti.effAddr = layout::streamBase +
            static_cast<Addr>(s) * slice + streamPos[s];
        streamPos[s] = (streamPos[s] + prof.streamStride) %
            std::max<Addr>(slice, prof.streamStride);
    } else if (u < farThresh[ph]) {
        ti.effAddr = layout::farBase + align8(rng.below(prof.farBytes));
        if (isLoad(ti.op) && prof.chaseChains > 0 &&
            rng.chanceFast(chaseThresh)) {
            // Pointer chase: this load both reads and redefines one
            // of the chain registers, serialising within the chain.
            const ArchRegId chain = 1 + (chainNext++ %
                                         prof.chaseChains);
            ti.src1 = chain;
            ti.dst = chain;
        }
    } else if (u < midThresh[ph]) {
        // The hot layer is 1/64th of the region so its per-line
        // reuse distance stays short enough to survive cache
        // pressure from co-running threads.
        const Addr span = rng.chanceFast(midHotThresh)
            ? prof.midBytes / 64 : prof.midBytes;
        ti.effAddr = layout::midBase + align8(rng.below(span));
    } else {
        const Addr span = rng.chanceFast(nearHotThresh)
            ? prof.nearBytes / 8 : prof.nearBytes;
        ti.effAddr = layout::nearBase + align8(rng.below(span));
    }
}

void
SyntheticTraceGenerator::genBranch(TraceInst &ti, BranchRole role)
{
    ti.op = OpClass::Branch;
    const std::uint64_t h = siteHash(ti.pc);

    switch (role) {
      case BranchRole::Return:
        ti.isReturn = true;
        ti.taken = true;
        ti.target = callStack.back().retAddr;
        callStack.pop_back();
        curPc = ti.target;
        return;

      case BranchRole::RegionJump: {
        // Jump to one of the program's region anchors; the bounded
        // palette keeps the instruction working set finite (real
        // programs revisit a bounded set of hot functions), so the
        // I-cache and BTB reach a steady state.
        ti.taken = true;
        ti.target = regionAnchors[rng.below(regionAnchors.size())];
        curPc = ti.target;
        startLoop(curPc);
        return;
      }

      case BranchRole::LoopBack:
        // The loop's backward branch: taken while iterations remain.
        ti.isCond = true;
        ti.src1 = pickBranchSrc();
        ti.target = loopStart;
        ti.taken = --itersLeft > 0;
        if (ti.taken) {
            curPc = loopStart;
        } else if (rng.chanceFast(newRegionThresh)) {
            pendingRegionJump = true;
            curPc = ti.nextPc();
        } else {
            curPc = ti.nextPc();
            startLoop(curPc);
        }
        return;

      case BranchRole::Mix:
        break;
    }

    // Intra-loop branch site; static properties come from the site
    // hash so each loop iteration sees the same site behaviour.
    if ((h & 0xffff) < callThresh16 && callStack.size() < 24) {
        const Addr codeInsts = prof.codeFootprint / 4;
        ti.isCall = true;
        ti.taken = true;
        ti.target =
            wrapPc(layout::codeBase + ((h >> 16) % codeInsts) * 4);
        const int body = 12 + static_cast<int>(
            (h >> 40) % static_cast<std::uint64_t>(
                2.0 * prof.callMeanLen));
        callStack.push_back({ti.nextPc(), body});
        curPc = ti.target;
        return;
    }

    // Short forward jump. Inside a loop the target is clamped to the
    // loop-closing branch's PC so it can never be skipped.
    Addr target = ti.pc + 4 +
        4 * (1 + ((h >> 24) & 7));
    if (callStack.empty() && target > loopEndPc)
        target = loopEndPc;
    ti.target = wrapPc(target);

    if (((h >> 8) & 0xffff) < uncondThresh16) {
        ti.taken = true; // unconditional forward jump
        curPc = ti.target;
        return;
    }

    ti.isCond = true;
    ti.src1 = pickBranchSrc();
    // Biased sites are fully static (structured control flow);
    // data-dependent sites take their minority direction 25% of the
    // time. Per-instance coin flips at *biased* sites would poison
    // the global history register and are deliberately absent.
    const bool biased = ((h >> 48) & 0xffff) < biasedThresh16;
    const bool siteDir = (h >> 47) & 1;
    if (biased)
        ti.taken = siteDir;
    else
        ti.taken = rng.chanceFast(takeMinorityThresh) ? !siteDir
                                                      : siteDir;
    curPc = ti.taken ? ti.target : ti.nextPc();
}

ArchRegId
SyntheticTraceGenerator::pickBranchSrc()
{
    // Loop conditions usually test an induction value that an ALU
    // op produced moments ago; only brDependsOnLoadFrac of branches
    // hang off the general dataflow (and possibly a missing load).
    if (lastIntAluDst != invalidArchReg &&
        !rng.chanceFast(brLoadThresh)) {
        return lastIntAluDst;
    }
    return pickIntSrc();
}

TraceInst
SyntheticTraceGenerator::generate()
{
    TraceInst ti;
    ti.pc = curPc;

    const bool inCallee = !callStack.empty();
    if (inCallee)
        --callStack.back().remaining;

    // Phase modulation: memory-region probabilities are boosted
    // inside the memory phase and damped outside so the long-run
    // average matches the profile's nominal fractions. phasePos
    // tracks genIdx % phasePeriod incrementally and the multipliers
    // are per-profile constants (see the constructor).
    const bool memPhase = phasePos < memPhaseLen;

    // Structural branches take precedence over the per-PC class.
    if (inCallee && callStack.back().remaining <= 0) {
        genBranch(ti, BranchRole::Return);
        curPc = wrapPc(curPc);
        return ti;
    }
    if (!inCallee && pendingRegionJump) {
        pendingRegionJump = false;
        genBranch(ti, BranchRole::RegionJump);
        curPc = wrapPc(curPc);
        return ti;
    }
    if (!inCallee && ti.pc == loopEndPc) {
        genBranch(ti, BranchRole::LoopBack);
        curPc = wrapPc(curPc);
        return ti;
    }

    // The op class is a pure function of the PC, so each iteration
    // of a loop re-executes the same static instructions and the
    // branch predictor and BTB can learn per-site behaviour.
    const std::uint64_t h = siteHash(ti.pc);
    const std::uint32_t u16 =
        static_cast<std::uint32_t>((h >> 16) & 0xffff);
    const std::uint32_t fp16 =
        static_cast<std::uint32_t>((h >> 32) & 0xffff);
    if (u16 < brThresh16) {
        genBranch(ti, BranchRole::Mix);
    } else if (u16 < loadThresh16) {
        ti.op = OpClass::Load;
        ti.src1 = pickIntSrc();
        if (prof.isFp && fp16 < fpDstThresh16)
            ti.dst = nextFpDst();
        else
            ti.dst = nextIntDst();
        genMemAddr(ti, memPhase);
        curPc = ti.nextPc();
    } else if (u16 < storeThresh16) {
        ti.op = OpClass::Store;
        ti.src1 = pickIntSrc();
        ti.src2 = (prof.isFp && fp16 < fpDstThresh16)
            ? pickFpSrc() : pickIntSrc();
        genMemAddr(ti, memPhase);
        curPc = ti.nextPc();
    } else if (prof.isFp && fp16 < fpAluThresh16) {
        ti.op = ((h >> 40) & 0xffff) < fpMulThresh16
            ? OpClass::FpMulDiv : OpClass::FpAlu;
        ti.src1 = pickFpSrc();
        if (rng.chanceFast(src2Thresh))
            ti.src2 = pickFpSrc();
        ti.dst = nextFpDst();
        curPc = ti.nextPc();
    } else {
        ti.op = ((h >> 40) & 0xffff) < intMulThresh16
            ? OpClass::IntMul : OpClass::IntAlu;
        ti.src1 = pickIntSrc();
        if (rng.chanceFast(src2Thresh))
            ti.src2 = pickIntSrc();
        ti.dst = nextIntDst();
        lastIntAluDst = ti.dst;
        curPc = ti.nextPc();
    }

    curPc = wrapPc(curPc);
    recordDst(ti.dst);
    return ti;
}

TraceInst
wrongPathInst(Addr pc, const BenchProfile &prof, std::uint64_t salt)
{
    TraceInst ti;
    ti.pc = pc;
    const std::uint64_t h = mix64(pc ^ mix64(salt));
    const double u = static_cast<double>(h & 0xfffff) / 1048576.0;

    // Same coarse mix as the profile; registers and addresses come
    // straight from the hash. Wrong-path loads touch the near/mid
    // regions (cache pollution) but never the chase chains.
    if (u < prof.fracBranch) {
        ti.op = OpClass::Branch;
        ti.isCond = true;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.taken = (h >> 40) & 1;
        const Addr codeInsts = prof.codeFootprint / 4;
        ti.target = layout::codeBase + ((h >> 24) % codeInsts) * 4;
    } else if (u < prof.fracBranch + prof.fracLoad) {
        ti.op = OpClass::Load;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.dst = 1 + static_cast<ArchRegId>((h >> 28) %
                                            (numIntArchRegs - 1));
        // Wrong-path loads mostly revisit recently-touched (hot)
        // data; only a thinned share of the mid-region rate leaks
        // through. Without this, wrong-path excursions turn into
        // miss storms that make high-ILP threads look memory-bound.
        const bool mid = hashFrac(h, 36) < 0.5 * prof.fMid;
        const Addr region = mid ? prof.midBytes / 64
                                : prof.nearBytes / 8;
        ti.effAddr = (mid ? layout::midBase : layout::nearBase) +
            (((h >> 24) % region) & ~7ull);
    } else if (u < prof.fracBranch + prof.fracLoad + prof.fracStore) {
        ti.op = OpClass::Store;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.src2 = 1 + static_cast<ArchRegId>((h >> 28) %
                                             (numIntArchRegs - 1));
        ti.effAddr = layout::nearBase +
            (((h >> 24) % (prof.nearBytes / 8)) & ~7ull);
    } else if (prof.isFp && ((h >> 21) & 3) != 0) {
        ti.op = OpClass::FpAlu;
        ti.src1 = numIntArchRegs + 1 +
            static_cast<ArchRegId>((h >> 20) % (numFpArchRegs - 1));
        ti.dst = numIntArchRegs + 1 +
            static_cast<ArchRegId>((h >> 28) % (numFpArchRegs - 1));
    } else {
        ti.op = OpClass::IntAlu;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.src2 = 1 + static_cast<ArchRegId>((h >> 26) %
                                             (numIntArchRegs - 1));
        ti.dst = 1 + static_cast<ArchRegId>((h >> 32) %
                                            (numIntArchRegs - 1));
    }
    return ti;
}

void
WrongPathSynth::init(const BenchProfile &prof)
{
    // Threshold images of the wrongPathInst() probability cascade
    // over the 20-bit hash field (u < f ⟺ u20 < ceil(f * 2^20),
    // exact for the power-of-two scale); probability expressions
    // copied verbatim.
    auto frac20 = [](double f) -> std::uint32_t {
        if (f <= 0.0)
            return 0;
        if (f >= 1.0)
            return 1u << 20;
        return static_cast<std::uint32_t>(
            __builtin_ceil(f * 1048576.0));
    };
    isFp = prof.isFp;
    brThresh20 = frac20(prof.fracBranch);
    loadThresh20 = frac20(prof.fracBranch + prof.fracLoad);
    storeThresh20 =
        frac20(prof.fracBranch + prof.fracLoad + prof.fracStore);
    midThresh16 = frac16(0.5 * prof.fMid);
    codeInsts.set(prof.codeFootprint / 4);
    midRegion.set(prof.midBytes / 64);
    nearRegion.set(prof.nearBytes / 8);
    codeBase = layout::codeBase;
    midBase = layout::midBase;
    nearBase = layout::nearBase;
}

void
WrongPathSynth::inst(Addr pc, std::uint64_t salt, TraceInst &ti) const
{
    ti = TraceInst{};
    ti.pc = pc;
    const std::uint64_t h = mix64(pc ^ mix64(salt));
    const std::uint32_t u20 =
        static_cast<std::uint32_t>(h & 0xfffff);

    if (u20 < brThresh20) {
        ti.op = OpClass::Branch;
        ti.isCond = true;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.taken = (h >> 40) & 1;
        ti.target = codeBase + codeInsts.mod(h >> 24) * 4;
    } else if (u20 < loadThresh20) {
        ti.op = OpClass::Load;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.dst = 1 + static_cast<ArchRegId>((h >> 28) %
                                            (numIntArchRegs - 1));
        const bool mid = ((h >> 36) & 0xffff) < midThresh16;
        const FastMod &region = mid ? midRegion : nearRegion;
        ti.effAddr = (mid ? midBase : nearBase) +
            (region.mod(h >> 24) & ~7ull);
    } else if (u20 < storeThresh20) {
        ti.op = OpClass::Store;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.src2 = 1 + static_cast<ArchRegId>((h >> 28) %
                                             (numIntArchRegs - 1));
        ti.effAddr = nearBase + (nearRegion.mod(h >> 24) & ~7ull);
    } else if (isFp && ((h >> 21) & 3) != 0) {
        ti.op = OpClass::FpAlu;
        ti.src1 = numIntArchRegs + 1 +
            static_cast<ArchRegId>((h >> 20) % (numFpArchRegs - 1));
        ti.dst = numIntArchRegs + 1 +
            static_cast<ArchRegId>((h >> 28) % (numFpArchRegs - 1));
    } else {
        ti.op = OpClass::IntAlu;
        ti.src1 = 1 + static_cast<ArchRegId>((h >> 20) %
                                             (numIntArchRegs - 1));
        ti.src2 = 1 + static_cast<ArchRegId>((h >> 26) %
                                             (numIntArchRegs - 1));
        ti.dst = 1 + static_cast<ArchRegId>((h >> 32) %
                                            (numIntArchRegs - 1));
    }
}

} // namespace smt
