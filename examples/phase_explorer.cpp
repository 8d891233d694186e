/**
 * @file
 * Watch DCRA make its decisions in real time: every sampling period
 * this prints each thread's phase (slow/fast), per-resource activity
 * and occupancy against the current E_slow limits, and whether the
 * thread is fetch-gated. A direct visualisation of paper sections
 * 3.1-3.2.
 *
 * Usage: phase_explorer [bench1 bench2 ...]   (default: gzip mcf)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "policy/dcra.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"

int
main(int argc, char **argv)
{
    using namespace smt;

    std::vector<std::string> benches;
    for (int i = 1; i < argc; ++i)
        benches.emplace_back(argv[i]);
    if (benches.empty())
        benches = {"gzip", "mcf"};

    SimConfig cfg;
    ChipSimulator sim(cfg, benches, PolicyKind::Dcra);
    Pipeline &pipe = sim.pipeline(0);
    auto &dcra = static_cast<DcraPolicy &>(sim.policy(0));

    const ResourceType watched[] = {ResIqInt, ResIqLs, ResRegInt,
                                    ResRegFp};

    std::printf("cycle-by-cycle DCRA state, sampled every 2000 "
                "cycles\n");
    std::printf("occupancy cells: occ/limit (limit = E_slow of that "
                "resource)\n\n");
    std::printf("%8s", "cycle");
    for (std::size_t t = 0; t < benches.size(); ++t)
        std::printf(" | %-8s phase gate  iqInt   iqLs  regInt  regFp",
                    benches[t].c_str());
    std::printf("\n");

    for (int sample = 0; sample < 20; ++sample) {
        for (int i = 0; i < 2000; ++i)
            pipe.tick();
        std::printf("%8llu",
                    static_cast<unsigned long long>(pipe.now()));
        for (ThreadID t = 0;
             t < static_cast<ThreadID>(benches.size()); ++t) {
            std::printf(" | %-8s %-5s %-4s", "",
                        dcra.isSlow(t) ? "slow" : "fast",
                        dcra.isGated(t) ? "YES" : "-");
            for (const ResourceType r : watched) {
                std::printf(" %3d/%-3d",
                            pipe.tracker().occupancy(r, t),
                            dcra.slowLimit(r));
            }
        }
        std::printf("\n");
    }

    std::printf("\nfinal: ");
    for (ThreadID t = 0; t < static_cast<ThreadID>(benches.size());
         ++t) {
        std::printf("%s ipc=%.3f  ", benches[t].c_str(),
                    pipe.stats().ipc(t));
    }
    std::printf("\n");
    return 0;
}
