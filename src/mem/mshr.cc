#include "mem/mshr.hh"

#include "common/logging.hh"

namespace smt {

MshrFile::MshrFile(int nEntries)
    : entries(static_cast<std::size_t>(nEntries))
{
    SMT_ASSERT(nEntries > 0, "MSHR file needs at least one entry");
}

const MshrFile::Entry *
MshrFile::find(Addr line) const
{
    if (liveCount == 0)
        return nullptr;
    for (const auto &e : entries) {
        if (e.valid && e.line == line)
            return &e;
    }
    return nullptr;
}

void
MshrFile::alloc(Addr line, Cycle ready, ThreadID tid,
                ServiceLevel level, bool isLoad)
{
    SMT_ASSERT(!full(), "MSHR alloc on full file");
    for (auto &e : entries) {
        if (!e.valid) {
            e = Entry{line, ready, tid, level, isLoad, true};
            ++liveCount;
            if (ready < nextReady)
                nextReady = ready;
            if (isLoad) {
                ++loadCount[tid][static_cast<int>(level)];
                if (level == ServiceLevel::Memory)
                    ++memLoadTotal;
            }
            return;
        }
    }
    panic("MSHR file inconsistent: full() false but no free entry");
}

int
MshrFile::retire(Cycle now)
{
    if (now < nextReady)
        return 0; // nothing can arrive yet: skip the scan
    int released = 0;
    Cycle soonest = neverCycle;
    for (auto &e : entries) {
        if (!e.valid)
            continue;
        if (e.ready <= now) {
            e.valid = false;
            --liveCount;
            ++released;
            if (e.isLoad) {
                --loadCount[e.tid][static_cast<int>(e.level)];
                if (e.level == ServiceLevel::Memory)
                    --memLoadTotal;
            }
        } else if (e.ready < soonest) {
            soonest = e.ready;
        }
    }
    nextReady = soonest;
    return released;
}

} // namespace smt
