/**
 * @file
 * smtsim: command-line driver for the simulator.
 *
 * Two modes:
 *
 *  - single run (default): one workload under one policy with the
 *    paper's baseline configuration (overridable); prints a full
 *    per-thread report, or the sweep JSON schema with --json.
 *  - `smtsim sweep`: a declarative grid of workloads x policies x
 *    config overrides executed in parallel across host cores by the
 *    runner subsystem (src/runner/), emitted as a table, CSV or
 *    JSON. Parallel output is bit-identical to --jobs 1.
 *
 * Examples:
 *   smtsim --workload gzip,mcf --policy DCRA
 *   smtsim --workload mcf,twolf,vpr,parser --policy FLUSH++ \
 *          --mem-latency 500 --l2-latency 25 --commits 200000
 *   smtsim --workload gzip,mcf --policy DCRA --json
 *   smtsim sweep --cells ILP2,MEM2 --policies ICOUNT,DCRA \
 *          --jobs 8 --format csv
 *   smtsim sweep --benches gzip+mcf,gzip+twolf --policies DCRA \
 *          --mem-latency 100,300,500 --format json
 *   smtsim --list-benchmarks
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "alloc/chip_arbiters.hh"
#include "common/bits.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "prof/host_profiler.hh"
#include "prof/prof_report.hh"
#include "runner/result_sink.hh"
#include "runner/runner.hh"
#include "sim/simulator.hh"
#include "sim/workload.hh"
#include "soc/chip.hh"
#include "telemetry/telemetry.hh"
#include "trace/bench_profile.hh"

namespace {

using namespace smt;

void
usage()
{
    std::printf(
        "usage: smtsim [options]\n"
        "       smtsim sweep [sweep options]\n"
        "       smtsim prof-report [--top N] FILE.prof.ndjson...\n"
        "\n"
        "single-run options:\n"
        "  --workload a,b,c     comma-separated benchmarks (1-%d)\n"
        "  --policy NAME        ROUND-ROBIN ICOUNT STALL FLUSH\n"
        "                       FLUSH++ DG PDG SRA DCRA DCRA-DEG\n"
        "  --commits N          first-thread commit budget\n"
        "  --warmup N           warmup commits before measuring\n"
        "  --mem-latency N      main memory latency (cycles)\n"
        "  --l2-latency N       L2 access latency (cycles)\n"
        "  --regs N             physical registers per file\n"
        "  --iq N               entries per issue queue\n"
        "  --seed N             workload generation seed\n"
        "  --perfect-dcache     all data accesses hit L1\n"
        "  --cores N            SMT cores on the chip (default 1 =\n"
        "                       the paper's single-core machine)\n"
        "  --contexts N         hardware contexts per core in\n"
        "                       multi-core mode (default 4)\n"
        "  --allocator NAME     thread-to-core allocator:\n"
        "                       round-robin symbiosis synpa\n"
        "  --epoch N            cycles between reallocations\n"
        "                       (0 disables; default 20000)\n"
        "  --llc-arbiter NAME   chip-level LLC arbiter (multi-core):\n"
        "                       static chip-dcra way-equal way-util\n"
        "  --llc-ways N         LLC associativity (pow2, <= 32) for\n"
        "                       way-partitioning experiments\n"
        "  --chip-jobs N        host threads ticking the chip's\n"
        "                       cores (1 = serial, 0 = one per host\n"
        "                       thread); results are byte-identical\n"
        "                       for every value\n"
        "  --trace-out PREFIX   record telemetry, writing\n"
        "                       PREFIX.job0.ts.ndjson (time series)\n"
        "                       and PREFIX.job0.trace.json (Chrome\n"
        "                       trace, loadable in Perfetto)\n"
        "  --ts-out PREFIX      record the time series alone:\n"
        "                       PREFIX.job0.ts.ndjson, no event\n"
        "                       trace file\n"
        "  --stats-interval N   cycles between telemetry samples\n"
        "                       (default 10000; needs --trace-out\n"
        "                       or --ts-out)\n"
        "  --prof PREFIX        host wall-clock profiling: sampled\n"
        "                       stage/component attribution written\n"
        "                       to PREFIX.job0.prof.ndjson (host\n"
        "                       data, nondeterministic; simulation\n"
        "                       results stay byte-identical). With\n"
        "                       --trace-out, host spans are merged\n"
        "                       into the Perfetto trace\n"
        "  --prof-every N       host-time 1 in N ticks (default 64)\n"
        "  --json               emit the sweep JSON schema instead\n"
        "                       of the human report\n"
        "  --list-benchmarks    show available benchmarks\n"
        "  --list-workloads     show the paper's Table 4 workloads\n"
        "  --list-policies      show registered fetch/alloc policies\n"
        "  --list-arbiters      show registered LLC arbiters\n"
        "  --selftest           10k-cycle 2-thread DCRA smoke run\n"
        "                       plus a 2-core chip smoke; exits\n"
        "                       nonzero on NaN/zero IPC or\n"
        "                       nondeterminism\n"
        "\n"
        "sweep options (grid = workloads x policies x configs):\n"
        "  --benches a+b,c+d    ad-hoc workloads ('+' joins the\n"
        "                       threads of one workload)\n"
        "  --workloads id,...   paper Table 4 workload ids\n"
        "                       (e.g. MEM2.g1; see --list-workloads)\n"
        "  --cells MEM2,ILP4    all four groups of a workload cell\n"
        "  --policies A,B       policies to sweep (default\n"
        "                       ICOUNT,DCRA)\n"
        "  --mem-latency a,b    memory-latency axis (cycles)\n"
        "  --l2-latency a,b     L2-latency axis (cycles)\n"
        "  --regs a,b           register-file-size axis\n"
        "  --iq a,b             issue-queue-size axis\n"
        "  --cores a,b          chip-size axis (cores > 1 run on\n"
        "                       the CMP layer)\n"
        "  --allocator a,b      thread-to-core allocator axis\n"
        "  --llc-arbiter a,b    LLC-arbiter axis (multi-core)\n"
        "  --llc-ways a,b       LLC-associativity axis (multi-core)\n"
        "  --chip-jobs N        host threads per multi-core chip\n"
        "                       (byte-identical for every value)\n"
        "  --contexts N         contexts per core (multi-core)\n"
        "  --epoch N            reallocation epoch in cycles\n"
        "  --commits N          per-run commit budget (default\n"
        "                       60000)\n"
        "  --warmup N           warmup commits (default 10000)\n"
        "  --seed N             workload generation seed\n"
        "  --perfect-dcache     all data accesses hit L1\n"
        "  --no-hmean           skip single-thread baselines\n"
        "  --jobs N             worker threads (default: all host\n"
        "                       cores); results are identical for\n"
        "                       every N\n"
        "  --trace-out PREFIX   per-job telemetry sidecar files\n"
        "                       (PREFIX.job<i>.ts.ndjson and\n"
        "                       PREFIX.job<i>.trace.json, named by\n"
        "                       the deterministic job order); bumps\n"
        "                       the JSON schema to smtsim-sweep-v2\n"
        "  --ts-out PREFIX      per-job time series alone (no event\n"
        "                       trace files); also schema v2\n"
        "  --stats-interval N   cycles between telemetry samples\n"
        "                       (default 10000; needs --trace-out\n"
        "                       or --ts-out)\n"
        "  --prof PREFIX        host wall-clock profiling sidecars:\n"
        "                       PREFIX.job<i>.prof.ndjson per job\n"
        "                       plus PREFIX.runner.prof.ndjson\n"
        "                       (job wall/queue times, baseline-\n"
        "                       cache contention); deterministic\n"
        "                       outputs are unchanged\n"
        "  --prof-every N       host-time 1 in N ticks (default 64)\n"
        "  --format F           table | csv | json (default table)\n"
        "  --output FILE        write to FILE instead of stdout\n"
        "\n"
        "prof-report: aggregate one or more .prof.ndjson sidecars\n"
        "(from --prof) into a table: top host-time scopes, wavefront\n"
        "gate waits and per-worker utilization, job wall-time\n"
        "percentiles, baseline-cache contention. --top N limits the\n"
        "scope table (default 20).\n"
        "\n"
        "sweep fault tolerance (see README 'Fault tolerance'):\n"
        "  --journal FILE       append one durable NDJSON record per\n"
        "                       completed job (fsync'd); a fresh\n"
        "                       sweep truncates FILE first\n"
        "  --resume             replay completed jobs from --journal\n"
        "                       and run only the rest; merged output\n"
        "                       is byte-identical to an\n"
        "                       uninterrupted run\n"
        "  --isolate-jobs       fork each job into a child process\n"
        "                       so a crash loses one job, not the\n"
        "                       sweep\n"
        "  --job-timeout SEC    kill an isolated job after SEC\n"
        "                       seconds (needs --isolate-jobs)\n"
        "  --job-retries N      re-run a failed job up to N extra\n"
        "                       times with deterministic backoff\n"
        "  --job-backoff MS     base retry backoff in milliseconds\n"
        "                       (attempt k waits MS << (k-1);\n"
        "                       default 50)\n"
        "\n"
        "sweep exit codes: 0 success, 1 usage/config error, 3 sweep\n"
        "completed but jobs failed (see the JSON failures block),\n"
        "130 interrupted by SIGINT/SIGTERM (journal stays resumable)\n",
        maxThreads);
}

/**
 * Smoke mode wired into CTest: run a short 2-thread DCRA simulation
 * and sanity-check the results. Returns the process exit code.
 */
int
selftest()
{
    SimConfig cfg;
    cfg.seed = 0x5e1f;
    Simulator sim(cfg, {"gzip", "mcf"}, PolicyKind::Dcra);
    Pipeline &pipe = sim.pipeline();
    for (int i = 0; i < 10'000; ++i)
        pipe.tick();
    pipe.auditInvariants();

    const PipelineStats &ps = pipe.stats();
    bool ok = true;
    double throughput = 0.0;
    for (ThreadID t = 0; t < 2; ++t) {
        const double ipc = ps.ipc(t);
        if (std::isnan(ipc) || ipc <= 0.0) {
            std::fprintf(stderr,
                         // smtlint:allow(D2): diagnostic for a human; C locale is pinned (D1 bans setlocale)
                         "selftest: thread %d IPC %.4f is NaN/zero\n",
                         t, ipc);
            ok = false;
        }
        throughput += ipc;
    }
    if (ps.cycles != 10'000) {
        std::fprintf(stderr, "selftest: expected 10000 cycles, got "
                     "%llu\n",
                     static_cast<unsigned long long>(ps.cycles));
        ok = false;
    }

    // Second leg: a 2-core chip with an active allocator, so the
    // smoke mode covers the CMP layer (migrations included). Run it
    // twice: the chip must be bit-deterministic.
    SimConfig ccfg; // default seed: the migration-rich scenario
    ccfg.soc.numCores = 2;
    ccfg.soc.contextsPerCore = 2;
    ccfg.soc.allocator = AllocatorKind::Symbiosis;
    ccfg.soc.epochCycles = 700; // short: the smoke run must migrate
    ccfg.soc.drainTimeout = 200;
    // This order cold-spreads the two memory hogs onto one core
    // (mcf+art), which the symbiosis allocator then corrects — the
    // smoke run covers a real migration.
    const std::vector<std::string> chipMix = {"mcf", "gzip", "art",
                                              "crafty"};
    auto chipRun = [&]() {
        ChipSimulator chip(ccfg, chipMix, PolicyKind::Dcra);
        const SimResult r = chip.run(8'000, 200'000);
        chip.auditInvariants();
        return r;
    };
    const SimResult c1 = chipRun();
    const SimResult c2 = chipRun();
    // Third pass on two worker threads: the parallel tick path must
    // reproduce the serial bytes (this is also the TSan smoke).
    ccfg.soc.chipJobs = 2;
    const SimResult c3 = chipRun();
    ccfg.soc.chipJobs = 1;
    double chipTp = 0.0;
    for (const ThreadResult &t : c1.threads) {
        if (std::isnan(t.ipc) || t.ipc <= 0.0) {
            std::fprintf(stderr,
                         // smtlint:allow(D2): diagnostic for a human; C locale is pinned (D1 bans setlocale)
                         "selftest: chip thread %s IPC %.4f is "
                         "NaN/zero\n", t.bench.c_str(), t.ipc);
            ok = false;
        }
        chipTp += t.ipc;
    }
    if (c1.cycles != c2.cycles ||
        c1.coreCommitHashes != c2.coreCommitHashes ||
        c1.migrations != c2.migrations) {
        std::fprintf(stderr, "selftest: 2-core chip run is not "
                     "deterministic\n");
        ok = false;
    }
    if (c1.cycles != c3.cycles ||
        c1.coreCommitHashes != c3.coreCommitHashes ||
        c1.migrations != c3.migrations ||
        c1.llcAccesses != c3.llcAccesses) {
        std::fprintf(stderr, "selftest: --chip-jobs 2 diverged from "
                     "the serial 2-core run\n");
        ok = false;
    }
    if (c1.migrations == 0) {
        std::fprintf(stderr, "selftest: 2-core chip never "
                     "migrated a thread\n");
        ok = false;
    }
    // smtlint:allow(D2): human-facing selftest summary; C locale is pinned (D1 bans setlocale)
    std::printf("selftest: %s (throughput %.3f over %llu cycles; "
                "2-core chip %.3f over %llu cycles, %llu " // smtlint:allow(D2): same summary line
                "migrations)\n",
                ok ? "PASS" : "FAIL", throughput,
                static_cast<unsigned long long>(ps.cycles), chipTp,
                static_cast<unsigned long long>(c1.cycles),
                static_cast<unsigned long long>(c1.migrations));
    return ok ? 0 : 1;
}

std::vector<std::string>
splitOn(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::vector<std::string>
splitCommas(const std::string &s)
{
    return splitOn(s, ',');
}

/** How many software threads a chip shape can hold. */
struct ChipShape
{
    int cores = 1;
    int contexts = maxThreads; //!< per core

    int capacity() const { return cores * contexts; }
};

/**
 * Check a workload's benchmark list: nonempty, within the chip's
 * thread capacity (cores x contexts; a single core offers the
 * model's maxThreads contexts), every name known. Reports to stderr
 * and returns false on any problem, so callers can exit nonzero
 * instead of hitting fatal() (or undefined behaviour) deep inside
 * the simulator.
 */
bool
validateBenches(const std::vector<std::string> &benches,
                const ChipShape &shape)
{
    if (benches.empty() ||
        (benches.size() == 1 && benches[0].empty())) {
        std::fprintf(stderr, "error: empty workload\n");
        return false;
    }
    if (static_cast<int>(benches.size()) > shape.capacity()) {
        if (shape.cores > 1) {
            std::fprintf(stderr,
                         "error: workload has %zu benchmarks, "
                         "exceeding the chip's %d cores x %d "
                         "contexts = %d threads\n",
                         benches.size(), shape.cores, shape.contexts,
                         shape.capacity());
        } else {
            std::fprintf(stderr,
                         "error: workload has %zu benchmarks; the "
                         "model supports at most %d hardware "
                         "contexts (use --cores for more)\n",
                         benches.size(), shape.capacity());
        }
        return false;
    }
    const std::vector<std::string> &known = allBenchNames();
    for (const std::string &b : benches) {
        if (std::find(known.begin(), known.end(), b) == known.end()) {
            std::fprintf(stderr,
                         "error: unknown benchmark '%s' (run "
                         "'smtsim --list-benchmarks' for the list)\n",
                         b.c_str());
            return false;
        }
    }
    return true;
}

/** Validate an --llc-ways value; reports to stderr on rejection. */
bool
validateLlcWays(int n)
{
    if (n < 1 || n > 32 ||
        !isPow2(static_cast<std::uint64_t>(n))) {
        std::fprintf(stderr,
                     "error: --llc-ways wants a power of two in "
                     "1..32 (got %d); the LLC's set count must stay "
                     "a power of two\n",
                     n);
        return false;
    }
    return true;
}

/**
 * The one parser behind every numeric flag: a non-empty run of
 * decimal digits whose value fits in @p T. Anything else (empty, a
 * sign, hex, a unit suffix, trailing garbage, overflow) gets a
 * one-line error and false, and the caller exits 1.
 */
template <typename T>
bool
parseDecimal(const std::string &flag, const std::string &text, T &out)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr,
                     "error: %s wants a decimal integer (got '%s')\n",
                     flag.c_str(), text.c_str());
        return false;
    }
    errno = 0;
    const unsigned long long v =
        std::strtoull(text.c_str(), nullptr, 10);
    const auto max =
        static_cast<unsigned long long>(std::numeric_limits<T>::max());
    if (errno == ERANGE || v > max) {
        std::fprintf(stderr,
                     "error: %s value '%s' is out of range (max %llu)\n",
                     flag.c_str(), text.c_str(), max);
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

/** Parse a comma list of decimal integers for @p flag; false (with
 *  the parser's error) on junk or an empty list. */
bool
parseU64List(const std::string &flag, const std::string &s,
             std::vector<std::uint64_t> &out)
{
    for (const std::string &tok : splitCommas(s)) {
        std::uint64_t v = 0;
        if (!parseDecimal(flag, tok, v))
            return false;
        out.push_back(v);
    }
    return true;
}

/**
 * Fail fast on an unwritable output path: probe with fopen(path,
 * "a") before the (possibly hours-long) sweep starts, removing the
 * probe file again when it did not exist before. Reports to stderr
 * and returns false on an unwritable path.
 */
bool
probeWritable(const std::string &path, const char *flag)
{
    if (path.empty())
        return true;
    struct stat st;
    const bool existed = ::stat(path.c_str(), &st) == 0;
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (!f) {
        std::fprintf(stderr,
                     "error: %s path '%s' is not writable: %s\n",
                     flag, path.c_str(), std::strerror(errno));
        return false;
    }
    std::fclose(f);
    if (!existed)
        std::remove(path.c_str());
    return true;
}

/** Emit to --output FILE or stdout. */
int
emitOutput(const std::string &text, const std::string &path)
{
    if (path.empty()) {
        std::fputs(text.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     path.c_str());
        return 1;
    }
    const bool wrote = std::fputs(text.c_str(), f) >= 0;
    // fclose flushes the buffered tail; a full disk surfaces here.
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
        std::fprintf(stderr, "error: failed writing '%s'\n",
                     path.c_str());
        return 1;
    }
    return 0;
}

/** `smtsim sweep ...`: build a SweepSpec from the flags and run it. */
int
sweepMain(int argc, char **argv)
{
    SweepSpec spec;
    spec.name = "cli-sweep";
    spec.commits = 60'000;
    spec.warmup = 10'000;

    std::vector<std::uint64_t> memLats, l2Lats, regSizes, iqSizes;
    std::vector<std::uint64_t> coreCounts, llcWaysAxis;
    std::vector<AllocatorKind> allocKinds;
    std::vector<std::string> llcArbs;
    std::string format = "table";
    std::string outPath;
    int jobs = 0;
    std::uint64_t statsInterval = 0;
    RunnerOptions ropts;

    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--benches") {
            // Names and capacity are validated after the whole
            // command line is parsed: the thread capacity depends
            // on --cores/--contexts, which may come later.
            for (const std::string &spec_s : splitCommas(next())) {
                const std::vector<std::string> benches =
                    splitOn(spec_s, '+');
                if (benches.empty() ||
                    (benches.size() == 1 && benches[0].empty())) {
                    std::fprintf(stderr, "error: empty workload\n");
                    return 1;
                }
                spec.workloads.push_back(adHocWorkload(benches));
            }
        } else if (arg == "--workloads") {
            for (const std::string &id : splitCommas(next())) {
                const std::vector<Workload> &all = allWorkloads();
                auto it = std::find_if(
                    all.begin(), all.end(),
                    [&](const Workload &w) { return w.id == id; });
                if (it == all.end()) {
                    std::fprintf(stderr,
                                 "error: unknown workload id '%s' "
                                 "(run 'smtsim --list-workloads')\n",
                                 id.c_str());
                    return 1;
                }
                spec.workloads.push_back(*it);
            }
        } else if (arg == "--cells") {
            for (const std::string &cell : splitCommas(next())) {
                WorkloadType ty;
                if (cell.rfind("ILP", 0) == 0)
                    ty = WorkloadType::ILP;
                else if (cell.rfind("MIX", 0) == 0)
                    ty = WorkloadType::MIX;
                else if (cell.rfind("MEM", 0) == 0)
                    ty = WorkloadType::MEM;
                else {
                    std::fprintf(stderr,
                                 "error: bad cell '%s' (want e.g. "
                                 "ILP2, MIX3, MEM4)\n",
                                 cell.c_str());
                    return 1;
                }
                int n = 0;
                if (!parseDecimal(arg, cell.substr(3), n))
                    return 1;
                const std::vector<Workload> group =
                    workloadsOf(n, ty);
                if (group.empty()) {
                    std::fprintf(stderr,
                                 "error: no workloads in cell '%s'\n",
                                 cell.c_str());
                    return 1;
                }
                spec.workloads.insert(spec.workloads.end(),
                                      group.begin(), group.end());
            }
        } else if (arg == "--policies") {
            for (const std::string &p : splitCommas(next()))
                spec.policies.push_back(parsePolicyKind(p));
        } else if (arg == "--mem-latency") {
            if (!parseU64List(arg, next(), memLats))
                return 1;
        } else if (arg == "--l2-latency") {
            if (!parseU64List(arg, next(), l2Lats))
                return 1;
        } else if (arg == "--regs") {
            if (!parseU64List(arg, next(), regSizes))
                return 1;
        } else if (arg == "--iq") {
            if (!parseU64List(arg, next(), iqSizes))
                return 1;
        } else if (arg == "--cores") {
            if (!parseU64List(arg, next(), coreCounts))
                return 1;
        } else if (arg == "--allocator") {
            for (const std::string &a : splitCommas(next()))
                allocKinds.push_back(parseAllocatorKind(a));
        } else if (arg == "--llc-arbiter") {
            for (const std::string &a : splitCommas(next())) {
                if (!isLlcArbiterName(a)) {
                    std::fprintf(stderr,
                                 "error: unknown LLC arbiter '%s' "
                                 "(run 'smtsim --list-arbiters')\n",
                                 a.c_str());
                    return 1;
                }
                llcArbs.push_back(a);
            }
        } else if (arg == "--llc-ways") {
            std::vector<std::uint64_t> ways;
            if (!parseU64List(arg, next(), ways))
                return 1;
            for (const std::uint64_t w : ways) {
                if (!validateLlcWays(static_cast<int>(w)))
                    return 1;
                llcWaysAxis.push_back(w);
            }
        } else if (arg == "--contexts") {
            int n = 0;
            if (!parseDecimal(arg, next(), n))
                return 1;
            if (n < 1 || n > maxThreads) {
                std::fprintf(stderr,
                             "error: --contexts wants 1..%d\n",
                             maxThreads);
                return 1;
            }
            spec.base.soc.contextsPerCore = n;
        } else if (arg == "--epoch") {
            if (!parseDecimal(arg, next(), spec.base.soc.epochCycles))
                return 1;
        } else if (arg == "--commits") {
            if (!parseDecimal(arg, next(), spec.commits))
                return 1;
        } else if (arg == "--warmup") {
            if (!parseDecimal(arg, next(), spec.warmup))
                return 1;
        } else if (arg == "--seed") {
            if (!parseDecimal(arg, next(), spec.base.seed))
                return 1;
        } else if (arg == "--perfect-dcache") {
            spec.base.mem.perfectDcache = true;
        } else if (arg == "--no-hmean") {
            spec.computeHmean = false;
        } else if (arg == "--chip-jobs") {
            if (!parseDecimal(arg, next(), spec.base.soc.chipJobs))
                return 1;
        } else if (arg == "--jobs") {
            if (!parseDecimal(arg, next(), jobs))
                return 1;
            if (jobs < 1) {
                std::fprintf(stderr, "error: --jobs wants N >= 1\n");
                return 1;
            }
        } else if (arg == "--trace-out") {
            spec.telemetry.tracePrefix = next();
        } else if (arg == "--ts-out") {
            spec.telemetry.tsPrefix = next();
        } else if (arg == "--prof") {
            spec.prof.prefix = next();
        } else if (arg == "--prof-every") {
            if (!parseDecimal(arg, next(), spec.prof.sampleEvery))
                return 1;
            if (spec.prof.sampleEvery < 1) {
                std::fprintf(stderr,
                             "error: --prof-every wants N >= 1\n");
                return 1;
            }
        } else if (arg == "--stats-interval") {
            if (!parseDecimal(arg, next(), statsInterval))
                return 1;
            if (statsInterval < 1) {
                std::fprintf(stderr,
                             "error: --stats-interval wants N >= 1\n");
                return 1;
            }
        } else if (arg == "--format") {
            format = next();
        } else if (arg == "--output") {
            outPath = next();
        } else if (arg == "--journal") {
            ropts.journalPath = next();
        } else if (arg == "--resume") {
            ropts.resume = true;
        } else if (arg == "--isolate-jobs") {
            ropts.exec.isolate = true;
        } else if (arg == "--job-timeout") {
            if (!parseDecimal(arg, next(), ropts.exec.timeoutSec))
                return 1;
            if (ropts.exec.timeoutSec < 1) {
                std::fprintf(stderr,
                             "error: --job-timeout wants N >= 1 "
                             "seconds\n");
                return 1;
            }
        } else if (arg == "--job-retries") {
            if (!parseDecimal(arg, next(), ropts.exec.retries))
                return 1;
        } else if (arg == "--job-backoff") {
            if (!parseDecimal(arg, next(), ropts.exec.backoffMs))
                return 1;
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown sweep option '%s'\n",
                         arg.c_str());
            usage();
            return 1;
        }
    }

    if (ropts.resume && ropts.journalPath.empty()) {
        std::fprintf(stderr, "error: --resume needs --journal (the "
                     "file to replay)\n");
        return 1;
    }
    if (ropts.exec.timeoutSec > 0 && !ropts.exec.isolate) {
        std::fprintf(stderr, "error: --job-timeout needs "
                     "--isolate-jobs (only a child process can be "
                     "killed without losing the sweep)\n");
        return 1;
    }
    ropts.faults = FaultPlan::fromEnv();

    if (statsInterval > 0 && !spec.telemetry.enabled()) {
        std::fprintf(stderr, "error: --stats-interval needs "
                     "--trace-out or --ts-out (nowhere to write "
                     "samples)\n");
        return 1;
    }
    if (spec.telemetry.enabled())
        spec.telemetry.statsInterval =
            statsInterval ? statsInterval : 10'000;

    if (spec.workloads.empty()) {
        std::fprintf(stderr,
                     "error: no workloads; give --benches, "
                     "--workloads and/or --cells\n");
        return 1;
    }
    if (spec.policies.empty())
        spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};

    // Every workload must fit every chip in the sweep. Capacity is
    // not monotonic in the core count: one core offers maxThreads
    // contexts, while a multi-core chip offers cores x --contexts —
    // so validate against the tightest shape on the axis, not just
    // the smallest core count.
    ChipShape shape;
    bool haveShape = false;
    for (const std::uint64_t c : coreCounts) {
        if (c < 1) {
            std::fprintf(stderr, "error: --cores wants N >= 1\n");
            return 1;
        }
        ChipShape cand; // c == 1: the single-core default shape
        if (c > 1) {
            cand.cores = static_cast<int>(c);
            cand.contexts = spec.base.soc.contextsPerCore;
        }
        if (!haveShape || cand.capacity() < shape.capacity()) {
            shape = cand;
            haveShape = true;
        }
    }
    for (const Workload &w : spec.workloads) {
        if (!validateBenches(w.benches, shape))
            return 1;
    }

    const std::unique_ptr<ResultSink> sink = makeSink(format);
    if (!sink) {
        std::fprintf(stderr,
                     "error: unknown format '%s' (table, csv, "
                     "json)\n",
                     format.c_str());
        return 1;
    }

    // Cross product of the explicitly given config axes; an axis the
    // user omitted contributes no label and no override.
    auto axis = [](const std::vector<std::uint64_t> &v) {
        return v.empty() ? std::vector<std::uint64_t>{0} : v;
    };
    const std::vector<AllocatorKind> allocAxis = allocKinds.empty()
        ? std::vector<AllocatorKind>{AllocatorKind::RoundRobin}
        : allocKinds;
    const std::vector<std::string> arbAxis = llcArbs.empty()
        ? std::vector<std::string>{"static"}
        : llcArbs;
    for (const std::uint64_t nc : axis(coreCounts)) {
     for (const AllocatorKind ak : allocAxis) {
      for (const std::string &la : arbAxis) {
       for (const std::uint64_t lw : axis(llcWaysAxis)) {
        for (const std::uint64_t ml : axis(memLats)) {
          for (const std::uint64_t l2 : axis(l2Lats)) {
            for (const std::uint64_t rg : axis(regSizes)) {
                for (const std::uint64_t iq : axis(iqSizes)) {
                    ConfigOverride o;
                    auto addPart = [&](const char *k,
                                       std::uint64_t v) {
                        if (!o.label.empty())
                            o.label += ',';
                        o.label += k;
                        o.label += '=';
                        o.label += std::to_string(v);
                    };
                    auto addName = [&](const char *k,
                                       const std::string &v) {
                        if (!o.label.empty())
                            o.label += ',';
                        o.label += k;
                        o.label += '=';
                        o.label += v;
                    };
                    if (!coreCounts.empty()) {
                        o.numCores = static_cast<int>(nc);
                        addPart("cores", nc);
                    }
                    if (!allocKinds.empty()) {
                        o.allocator = ak;
                        addName("alloc", allocatorKindName(ak));
                    }
                    if (!llcArbs.empty()) {
                        o.llcArbiter = la;
                        addName("llcarb", la);
                    }
                    if (!llcWaysAxis.empty()) {
                        o.llcWays = static_cast<int>(lw);
                        addPart("llcways", lw);
                    }
                    if (!memLats.empty()) {
                        o.memLatency = ml;
                        addPart("mem", ml);
                    }
                    if (!l2Lats.empty()) {
                        o.l2Latency = l2;
                        addPart("l2", l2);
                    }
                    if (!regSizes.empty()) {
                        o.physRegsPerFile = static_cast<int>(rg);
                        addPart("regs", rg);
                    }
                    if (!iqSizes.empty()) {
                        o.iqSize = static_cast<int>(iq);
                        addPart("iq", iq);
                    }
                    if (!o.label.empty())
                        spec.configs.push_back(std::move(o));
                }
            }
          }
        }
       }
      }
     }
    }

    // Fail fast on unwritable destinations before hours of
    // simulation, not after.
    if (!probeWritable(outPath, "--output") ||
        !probeWritable(ropts.journalPath, "--journal"))
        return 1;
    if (spec.telemetry.enabled() &&
        !probeWritable(
            telemetryFileBase(spec.telemetry.tsOutPrefix(), 0) +
                ".ts.ndjson",
            spec.telemetry.tsPrefix.empty() ? "--trace-out"
                                            : "--ts-out"))
        return 1;
    if (spec.prof.enabled() &&
        !probeWritable(profFileBase(spec.prof.prefix, 0) +
                           ".prof.ndjson",
                       "--prof"))
        return 1;

    SweepRunner runner(std::move(spec), jobs, nullptr,
                       std::move(ropts));
    const SweepResults results = runner.run();
    if (results.interrupted) {
        std::fprintf(stderr,
                     "sweep interrupted; completed jobs are in the "
                     "journal — re-run with --resume to finish\n");
        return 130;
    }
    const int rc = emitOutput(sink->render(results), outPath);
    if (rc)
        return rc;
    if (!results.failures.empty()) {
        std::fprintf(stderr,
                     "sweep completed with %zu failed job(s); see "
                     "the failures block (--format json)\n",
                     results.failures.size());
        return 3;
    }
    return 0;
}

/** `smtsim prof-report FILE...`: aggregate --prof sidecars. */
int
profReportMain(int argc, char **argv)
{
    ProfReportOptions opts;
    std::vector<std::string> paths;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--top") {
            if (i + 1 >= argc)
                fatal("missing value for --top");
            if (!parseDecimal(arg, argv[++i], opts.topScopes))
                return 1;
            if (opts.topScopes < 1) {
                std::fprintf(stderr,
                             "error: --top wants N >= 1\n");
                return 1;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr,
                         "unknown prof-report option '%s'\n",
                         arg.c_str());
            usage();
            return 1;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::fprintf(stderr,
                     "error: prof-report wants at least one "
                     ".prof.ndjson file (from --prof)\n");
        return 1;
    }
    std::string out;
    std::string err;
    if (!renderProfReport(paths, opts, out, err)) {
        std::fprintf(stderr, "error: %s\n", err.c_str());
        return 1;
    }
    std::fputs(out.c_str(), stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "sweep") == 0)
        return sweepMain(argc - 2, argv + 2);
    if (argc > 1 && std::strcmp(argv[1], "prof-report") == 0)
        return profReportMain(argc - 2, argv + 2);

    std::vector<std::string> workload = {"gzip", "twolf"};
    PolicyKind policy = PolicyKind::Dcra;
    std::uint64_t commits = 100'000;
    std::uint64_t warmup = 10'000;
    bool jsonOut = false;
    std::string traceOut;
    std::string tsOut;
    std::string profOut;
    std::uint64_t profEvery = 64;
    std::uint64_t statsInterval = 0;
    SimConfig cfg;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            workload = splitCommas(next());
        } else if (arg == "--policy") {
            policy = parsePolicyKind(next());
        } else if (arg == "--commits") {
            if (!parseDecimal(arg, next(), commits))
                return 1;
        } else if (arg == "--warmup") {
            if (!parseDecimal(arg, next(), warmup))
                return 1;
        } else if (arg == "--mem-latency") {
            if (!parseDecimal(arg, next(), cfg.mem.memLatency))
                return 1;
        } else if (arg == "--l2-latency") {
            if (!parseDecimal(arg, next(), cfg.mem.l2Latency))
                return 1;
        } else if (arg == "--regs") {
            if (!parseDecimal(arg, next(), cfg.core.physRegsPerFile))
                return 1;
        } else if (arg == "--iq") {
            int n = 0;
            if (!parseDecimal(arg, next(), n))
                return 1;
            for (int q = 0; q < numQueueClasses; ++q)
                cfg.core.iqSize[q] = n;
        } else if (arg == "--seed") {
            if (!parseDecimal(arg, next(), cfg.seed))
                return 1;
        } else if (arg == "--perfect-dcache") {
            cfg.mem.perfectDcache = true;
        } else if (arg == "--cores") {
            if (!parseDecimal(arg, next(), cfg.soc.numCores))
                return 1;
            if (cfg.soc.numCores < 1) {
                std::fprintf(stderr, "error: --cores wants N >= 1\n");
                return 1;
            }
        } else if (arg == "--contexts") {
            if (!parseDecimal(arg, next(), cfg.soc.contextsPerCore))
                return 1;
            if (cfg.soc.contextsPerCore < 1 ||
                cfg.soc.contextsPerCore > maxThreads) {
                std::fprintf(stderr,
                             "error: --contexts wants 1..%d\n",
                             maxThreads);
                return 1;
            }
        } else if (arg == "--allocator") {
            cfg.soc.allocator = parseAllocatorKind(next());
        } else if (arg == "--epoch") {
            if (!parseDecimal(arg, next(), cfg.soc.epochCycles))
                return 1;
        } else if (arg == "--llc-arbiter") {
            cfg.soc.llcArbiter = next();
            if (!isLlcArbiterName(cfg.soc.llcArbiter)) {
                std::fprintf(stderr,
                             "error: unknown LLC arbiter '%s' (run "
                             "'smtsim --list-arbiters')\n",
                             cfg.soc.llcArbiter.c_str());
                return 1;
            }
        } else if (arg == "--llc-ways") {
            if (!parseDecimal(arg, next(), cfg.soc.llcWays))
                return 1;
            if (!validateLlcWays(cfg.soc.llcWays))
                return 1;
        } else if (arg == "--chip-jobs") {
            if (!parseDecimal(arg, next(), cfg.soc.chipJobs))
                return 1;
        } else if (arg == "--trace-out") {
            traceOut = next();
        } else if (arg == "--ts-out") {
            tsOut = next();
        } else if (arg == "--prof") {
            profOut = next();
        } else if (arg == "--prof-every") {
            if (!parseDecimal(arg, next(), profEvery))
                return 1;
            if (profEvery < 1) {
                std::fprintf(stderr,
                             "error: --prof-every wants N >= 1\n");
                return 1;
            }
        } else if (arg == "--stats-interval") {
            if (!parseDecimal(arg, next(), statsInterval))
                return 1;
            if (statsInterval < 1) {
                std::fprintf(stderr,
                             "error: --stats-interval wants N >= 1\n");
                return 1;
            }
        } else if (arg == "--json") {
            jsonOut = true;
        } else if (arg == "--list-benchmarks") {
            for (const auto &b : allBenchNames()) {
                const BenchProfile &p = benchProfile(b);
                // smtlint:allow(D2): human-facing table; C locale is pinned (D1 bans setlocale)
                std::printf("%-8s %s  %s  (paper L2 miss %.1f%%)\n",
                            b.c_str(), p.isFp ? "FP " : "INT",
                            isMemBench(b) ? "MEM" : "ILP",
                            p.paperL2MissRate);
            }
            return 0;
        } else if (arg == "--list-workloads") {
            for (const Workload &w : allWorkloads()) {
                std::printf("%-8s", w.id.c_str());
                for (const auto &b : w.benches)
                    std::printf(" %s", b.c_str());
                std::printf("\n");
            }
            return 0;
        } else if (arg == "--list-policies") {
            for (const char *n : policyNames())
                std::printf("%s\n", n);
            return 0;
        } else if (arg == "--list-arbiters") {
            for (const char *n : llcArbiterNames())
                std::printf("%s\n", n);
            return 0;
        } else if (arg == "--selftest") {
            return selftest();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 1;
        }
    }

    ChipShape shape;
    if (cfg.soc.numCores > 1) {
        shape.cores = cfg.soc.numCores;
        shape.contexts = cfg.soc.contextsPerCore;
    }
    if (!validateBenches(workload, shape))
        return 1;

    if (statsInterval > 0 && traceOut.empty() && tsOut.empty()) {
        std::fprintf(stderr, "error: --stats-interval needs "
                     "--trace-out or --ts-out (nowhere to write "
                     "samples)\n");
        return 1;
    }
    const Cycle interval = statsInterval ? statsInterval : 10'000;
    const std::string tsOutPrefix = tsOut.empty() ? traceOut : tsOut;
    if (!tsOutPrefix.empty() &&
        !probeWritable(telemetryFileBase(tsOutPrefix, 0) +
                           ".ts.ndjson",
                       tsOut.empty() ? "--trace-out" : "--ts-out"))
        return 1;
    if (!profOut.empty() &&
        !probeWritable(profFileBase(profOut, 0) + ".prof.ndjson",
                       "--prof"))
        return 1;

    if (jsonOut) {
        // A single run is a one-job sweep; the runner gives it the
        // exact same JSON schema a sweep emits (telemetry and host
        // profiling included: the sidecar files are PREFIX.job0.*).
        SweepSpec spec;
        spec.name = "cli-run";
        spec.base = cfg;
        spec.commits = commits;
        spec.warmup = warmup;
        spec.maxCycles = 100'000'000;
        spec.computeHmean = false;
        spec.workloads = {adHocWorkload(workload)};
        spec.policies = {policy};
        spec.telemetry.tracePrefix = traceOut;
        spec.telemetry.tsPrefix = tsOut;
        if (spec.telemetry.enabled())
            spec.telemetry.statsInterval = interval;
        spec.prof.prefix = profOut;
        spec.prof.sampleEvery = profEvery;
        SweepRunner runner(std::move(spec), 1);
        const SweepResults results = runner.run();
        return emitOutput(JsonSink().render(results), "");
    }

    std::unique_ptr<TelemetryHub> hub;
    if (!tsOutPrefix.empty())
        hub = std::make_unique<TelemetryHub>(interval);
    std::unique_ptr<HostProfiler> hprof;
    if (!profOut.empty()) {
        hprof = std::make_unique<HostProfiler>(profEvery);
        hprof->enableSpans(!traceOut.empty());
    }
    const std::uint64_t runT0 = hprof ? hprof->nowNs() : 0;

    SimResult r;
    if (cfg.soc.numCores > 1) {
        ChipSimulator chip(cfg, workload, policy);
        if (hub)
            chip.setTelemetry(hub.get());
        if (hprof)
            chip.setHostProfiler(hprof.get());
        r = chip.run(commits, 100'000'000, warmup);
    } else {
        Simulator sim(cfg, workload, policy);
        if (hub)
            sim.setTelemetry(hub.get());
        if (hprof)
            sim.setHostProfiler(hprof.get());
        r = sim.run(commits, 100'000'000, warmup);
    }
    if (hprof) {
        hprof->record("{\"type\": \"run\", \"wallNs\": " +
                      fmtU64(hprof->nowNs() - runT0) + "}");
        if (!writeHostProfile(*hprof, profFileBase(profOut, 0),
                              "job0"))
            return 1;
        std::printf("prof: %zu scopes, %zu records, %zu spans -> "
                    "%s.job0.prof.ndjson (host wall-clock; "
                    "nondeterministic)\n",
                    hprof->scopeCount(), hprof->recordCount(),
                    hprof->spanCount(), profOut.c_str());
    }
    if (hub) {
        if (!writeTelemetryFiles(
                *hub, telemetryFileBase(tsOutPrefix, 0),
                traceOut.empty()
                    ? std::string()
                    : telemetryFileBase(traceOut, 0),
                hprof ? hprof->chromeTraceEvents() : std::string()))
            return 1;
        if (traceOut.empty()) {
            std::printf("telemetry: %zu samples -> "
                        "%s.job0.ts.ndjson\n",
                        hub->sampleCount(), tsOut.c_str());
        } else if (tsOut.empty()) {
            std::printf("telemetry: %zu samples, %zu events -> "
                        "%s.job0.{ts.ndjson,trace.json}\n",
                        hub->sampleCount(), hub->eventCount(),
                        traceOut.c_str());
        } else {
            std::printf("telemetry: %zu samples, %zu events -> "
                        "%s.job0.ts.ndjson, %s.job0.trace.json\n",
                        hub->sampleCount(), hub->eventCount(),
                        tsOut.c_str(), traceOut.c_str());
        }
    }

    // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
    std::printf("policy=%s cycles=%llu throughput=%.3f mlp=%.2f\n",
                policyKindName(policy),
                static_cast<unsigned long long>(r.cycles),
                r.throughput(), r.mlpBusyMean);
    if (cfg.soc.numCores > 1) {
        const double llcMissPct = r.llcAccesses
            ? 100.0 * static_cast<double>(r.llcMisses) /
                static_cast<double>(r.llcAccesses)
            : 0.0;
        std::printf("chip: cores=%d contexts=%d allocator=%s "
                    "epoch=%llu migrations=%llu llc-acc=%llu "
                    // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
                    "llc-miss=%.2f%% llc-arbiter=%s "
                    "share-reassignments=%llu\n",
                    cfg.soc.numCores, cfg.soc.contextsPerCore,
                    allocatorKindName(cfg.soc.allocator),
                    static_cast<unsigned long long>(
                        cfg.soc.epochCycles),
                    static_cast<unsigned long long>(r.migrations),
                    static_cast<unsigned long long>(r.llcAccesses),
                    llcMissPct, r.llcArbiter.c_str(),
                    static_cast<unsigned long long>(
                        r.llcShareReassignments));
        for (std::size_t c = 0; c < r.llcPerCore.size(); ++c) {
            const LlcCoreStats &cs = r.llcPerCore[c];
            std::printf("  llc core %zu: acc=%llu miss=%llu "
                        "mshr-share=%d ways=%d lines=%llu\n",
                        c,
                        static_cast<unsigned long long>(cs.accesses),
                        static_cast<unsigned long long>(cs.misses),
                        cs.mshrShare, cs.ways,
                        static_cast<unsigned long long>(
                            cs.linesOwned));
        }
    }
    std::printf("%-8s %10s %7s %9s %9s %8s %8s %8s %8s\n", "thread",
                "commits", "IPC", "fetched", "squashed", "misp%",
                "L1D%", "L2%", "flushes");
    for (const ThreadResult &t : r.threads) {
        const double mispPct = t.condBranches
            ? 100.0 * static_cast<double>(t.mispredicts) /
                static_cast<double>(t.condBranches)
            : 0.0;
        const double l1Pct = t.l1dAccesses
            ? 100.0 * static_cast<double>(t.l1dMisses) /
                static_cast<double>(t.l1dAccesses)
            : 0.0;
        // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
        std::printf("%-8s %10llu %7.3f %9llu %9llu %7.2f%% %7.2f%% "
                    "%7.2f%% %8llu\n", // smtlint:allow(D2): same report row
                    t.bench.c_str(),
                    static_cast<unsigned long long>(t.committed),
                    t.ipc,
                    static_cast<unsigned long long>(t.fetched),
                    static_cast<unsigned long long>(t.squashed),
                    mispPct, l1Pct, t.l2MissRatePct(),
                    static_cast<unsigned long long>(t.flushes));
    }
    std::printf("phase mix (cycles with n slow threads):");
    for (std::size_t n = 0; n < r.slowPhaseCycles.size(); ++n) {
        // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
        std::printf(" %zu-slow=%.1f%%", n,
                    100.0 *
                        static_cast<double>(r.slowPhaseCycles[n]) /
                        static_cast<double>(r.cycles));
    }
    std::printf("\n");
    return 0;
}
