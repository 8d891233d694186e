#include "mem/mshr.hh"

#include <algorithm>

#include "common/logging.hh"

namespace smt {

MshrFile::MshrFile(int nEntries)
    : lines(static_cast<std::size_t>(nEntries > 0 ? nEntries : 0),
            freeLine),
      entries(lines.size())
{
    SMT_ASSERT(nEntries > 0, "MSHR file needs at least one entry");
}

const MshrFile::Entry *
MshrFile::find(Addr line) const
{
    for (std::size_t i = 0; i < scanEnd; ++i) {
        if (lines[i] == line)
            return &entries[i];
    }
    return nullptr;
}

void
MshrFile::alloc(Addr line, Cycle ready, ThreadID tid,
                ServiceLevel level, bool isLoad)
{
    SMT_ASSERT(!full(), "MSHR alloc on full file");
    SMT_ASSERT((line & 1) == 0, "MSHR alloc of a non-line address");
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (lines[i] != freeLine)
            continue;
        lines[i] = line;
        entries[i] = Entry{ready, tid, level, isLoad};
        ++liveCount;
        scanEnd = std::max(scanEnd, i + 1);
        if (ready < nextReady)
            nextReady = ready;
        if (isLoad) {
            ++loadCount[tid][static_cast<int>(level)];
            if (level == ServiceLevel::Memory)
                ++memLoadTotal;
        }
        return;
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
    std::size_t end = 0;
    for (std::size_t i = 0; i < scanEnd; ++i) {
        if (lines[i] == freeLine)
            continue;
        const Entry &e = entries[i];
        if (e.ready <= now) {
            lines[i] = freeLine;
            --liveCount;
            ++released;
            if (e.isLoad) {
                --loadCount[e.tid][static_cast<int>(e.level)];
                if (e.level == ServiceLevel::Memory)
                    --memLoadTotal;
            }
        } else {
            soonest = std::min(soonest, e.ready);
            end = i + 1;
        }
    }
    nextReady = soonest;
    scanEnd = end;
    return released;
}

} // namespace smt
