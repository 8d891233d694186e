/**
 * @file
 * Experiment X3 -- google-benchmark microbenchmarks of the substrate
 * components: cache access, gshare prediction, sharing-model
 * evaluation, trace generation and whole-pipeline tick rate. Sanity
 * and performance-regression tracking, not paper reproduction.
 */

#include <benchmark/benchmark.h>
#include <string>
#include <vector>

#include "bpred/gshare.hh"
#include "mem/cache.hh"
#include "policy/sharing_model.hh"
#include "sim/simulator.hh"
#include "soc/chip.hh"
#include "trace/generator.hh"

namespace {

using namespace smt;

void
BM_CacheAccess(benchmark::State &state)
{
    Cache c(CacheParams{"l1d", 64 * 1024, 2, 64, 8});
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.access(a));
        c.fill(a);
        a += 64;
        if (a > 256 * 1024)
            a = 0;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_GsharePredictUpdate(benchmark::State &state)
{
    Gshare g(16 * 1024, 14, 4);
    Addr pc = 0x400000;
    for (auto _ : state) {
        const bool taken = g.predict(0, pc);
        g.update(pc, g.history(0), taken);
        g.pushHistory(0, taken);
        pc += 4;
        if (pc > 0x440000)
            pc = 0x400000;
    }
}
BENCHMARK(BM_GsharePredictUpdate);

void
BM_SharingModelFormula(benchmark::State &state)
{
    const SharingModel m(SharingFactorMode::OverActivePlus4);
    int fa = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.slowLimit(80, fa & 3, 4 - (fa & 3)));
        ++fa;
    }
}
BENCHMARK(BM_SharingModelFormula);

void
BM_SharingModelTableLookup(benchmark::State &state)
{
    const SharingModelTable t(SharingFactorMode::OverActivePlus4, 80,
                              4);
    int fa = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.slowLimit(fa & 3, 4 - (fa & 3)));
        ++fa;
    }
}
BENCHMARK(BM_SharingModelTableLookup);

void
BM_TraceGeneration(benchmark::State &state)
{
    SyntheticTraceGenerator g(benchProfile("gcc"), 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.peek());
        g.consume();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration);

void
BM_PipelineTick(benchmark::State &state)
{
    SimConfig cfg;
    const std::vector<std::string> benches = {"gzip", "twolf",
                                              "bzip2", "mcf"};
    ChipSimulator sim(cfg, benches, PolicyKind::Dcra);
    Pipeline &pipe = sim.pipeline(0);
    for (auto _ : state)
        pipe.tick();
    state.SetItemsProcessed(state.iterations());
    state.counters["commits/cycle"] = benchmark::Counter(
        static_cast<double>(pipe.stats().committed[0] +
                            pipe.stats().committed[1] +
                            pipe.stats().committed[2] +
                            pipe.stats().committed[3]) /
        static_cast<double>(pipe.stats().cycles));
}
BENCHMARK(BM_PipelineTick);

} // anonymous namespace

BENCHMARK_MAIN();
