/**
 * @file
 * smtsim: command-line driver for the simulator.
 *
 * One front end, two modes:
 *
 *  - single run (default): one workload under one policy with the
 *    paper's baseline configuration (overridable); prints a full
 *    per-thread report, or the sweep JSON schema with --json.
 *  - `smtsim sweep`: a declarative grid of workloads x policies x
 *    config overrides executed in parallel across host cores,
 *    emitted as a table, CSV or JSON. Parallel output is
 *    bit-identical to --jobs 1.
 *
 * Both modes parse one flag table into one SweepSpec and run it on
 * the runner subsystem (src/runner/): a single run is the one-job
 * sweep "cli-run". The grid flags (--cores ... --iq) take one value
 * in a single run and comma lists in a sweep.
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
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <sys/stat.h>

#include "alloc/chip_arbiters.hh"
#include "common/bits.hh"
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

/**
 * Smoke mode wired into CTest: run a short 2-thread DCRA simulation
 * and sanity-check the results. Returns the process exit code.
 */
int
selftest()
{
    SimConfig cfg;
    cfg.seed = 0x5e1f;
    ChipSimulator sim(cfg, {"gzip", "mcf"}, PolicyKind::Dcra);
    Pipeline &pipe = sim.pipeline(0);
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

// ---------------------------------------------------------------
// One flag table for both modes
// ---------------------------------------------------------------

/** Which modes accept a flag. */
enum : unsigned { RunMode = 1, SweepMode = 2, BothModes = 3 };

/** A setter's verdict: keep parsing, or exit with this code. */
constexpr int kNext = -1;

struct Flag;

/** One sweep value of a grid flag: its label part and its field. */
struct AxisPoint
{
    std::string label; //!< e.g. "regs=256"
    std::function<void(ConfigOverride &)> set;
};

/**
 * What the command line asks for. Both modes fill one SweepSpec: a
 * single run is the one-job sweep "cli-run" on one worker.
 */
struct Cli
{
    bool sweep = false;
    SweepSpec spec;
    RunnerOptions ropts;
    int jobs = 0;
    std::string format; //!< sink name; "" = the human report
    std::string outPath;
    /** A sweep's values of each grid flag, keyed by table row. */
    std::map<const Flag *, std::vector<AxisPoint>> axes;
};

/** One command-line flag: name, usage text, where its value goes. */
struct Flag
{
    const char *name;
    const char *arg;  //!< value placeholder; nullptr for a switch
    unsigned modes;
    const char *help; //!< nullptr keeps the row out of usage()
    /** Store one occurrence ("" for a switch): kNext or an exit code. */
    int (*set)(Cli &, const Flag &, const std::string &);
    std::uint64_t min = 0; //!< decimal bounds; max 0 = the type's
    std::uint64_t max = 0;
    const char *axis = nullptr; //!< a grid flag's sweep label key
};

void usage();

/** Parse a decimal of @p field's type within @p f's bounds. */
template <typename T>
int
number(const Flag &f, const std::string &text, T &field)
{
    if (!parseDecimal(f.name, text, field))
        return 1;
    const auto v = static_cast<unsigned long long>(field);
    if (v >= f.min && (f.max == 0 || v <= f.max))
        return kNext;
    if (f.max) {
        std::fprintf(stderr, "error: %s wants %llu..%llu\n", f.name,
                     static_cast<unsigned long long>(f.min),
                     static_cast<unsigned long long>(f.max));
    } else {
        std::fprintf(stderr, "error: %s wants %s >= %llu\n", f.name,
                     f.arg, static_cast<unsigned long long>(f.min));
    }
    return 1;
}

/** One grid value, its label text appended to @p label: a decimal
 *  of the field's type, ... */
template <typename T>
bool
gridValue(const Flag &f, const std::string &text, T &out,
          std::string &label)
{
    if (number(f, text, out) != kNext)
        return false;
    label += std::to_string(out);
    return true;
}

/** ... a registered allocator (labelled by its canonical name), ... */
bool
gridValue(const Flag &, const std::string &text, AllocatorKind &out,
          std::string &label)
{
    out = parseAllocatorKind(text);
    label += allocatorKindName(out);
    return true;
}

/** ... or a registered LLC arbiter. */
bool
gridValue(const Flag &, const std::string &text, std::string &out,
          std::string &label)
{
    if (!isLlcArbiterName(text)) {
        std::fprintf(stderr,
                     "error: unknown LLC arbiter '%s' (run 'smtsim "
                     "--list-arbiters')\n",
                     text.c_str());
        return false;
    }
    out = text;
    label += text;
    return true;
}

/**
 * The setter of a grid flag. A single run takes exactly one value
 * and folds it into the base config with no label, so its cli-run
 * document stays the same; a sweep takes a comma list, one axis of
 * the grid.
 */
template <typename T>
int
grid(Cli &c, const Flag &f, const std::string &text,
     std::optional<T> ConfigOverride::*field,
     bool (*valid)(T) = nullptr)
{
    const std::vector<std::string> values =
        c.sweep ? splitCommas(text) : std::vector<std::string>{text};
    for (const std::string &v : values) {
        T x{};
        std::string label = std::string(f.axis) + "=";
        if (!gridValue(f, v, x, label) || (valid && !valid(x)))
            return 1;
        AxisPoint p{std::move(label),
                    [field, x](ConfigOverride &o) { o.*field = x; }};
        if (c.sweep) {
            c.axes[&f].push_back(std::move(p));
            continue;
        }
        ConfigOverride o;
        p.set(o);
        c.spec.base = o.apply(c.spec.base);
    }
    return kNext;
}

/**
 * An ad-hoc workload as given: benches only, no id. validateJobs
 * checks it against every job's chip before adHocWorkload types it.
 */
Workload
pendingWorkload(std::vector<std::string> benches)
{
    Workload w{};
    w.benches = std::move(benches);
    return w;
}

int
addWorkloadIds(Cli &c, const Flag &, const std::string &text)
{
    const std::vector<Workload> &all = allWorkloads();
    for (const std::string &id : splitCommas(text)) {
        auto it = std::find_if(
            all.begin(), all.end(),
            [&](const Workload &w) { return w.id == id; });
        if (it == all.end()) {
            std::fprintf(stderr,
                         "error: unknown workload id '%s' (run "
                         "'smtsim --list-workloads')\n",
                         id.c_str());
            return 1;
        }
        c.spec.workloads.push_back(*it);
    }
    return kNext;
}

int
addCells(Cli &c, const Flag &f, const std::string &text)
{
    for (const std::string &cell : splitCommas(text)) {
        WorkloadType ty;
        if (cell.rfind("ILP", 0) == 0)
            ty = WorkloadType::ILP;
        else if (cell.rfind("MIX", 0) == 0)
            ty = WorkloadType::MIX;
        else if (cell.rfind("MEM", 0) == 0)
            ty = WorkloadType::MEM;
        else {
            std::fprintf(stderr,
                         "error: bad cell '%s' (want e.g. ILP2, MIX3, "
                         "MEM4)\n",
                         cell.c_str());
            return 1;
        }
        int n = 0;
        if (!parseDecimal(f.name, cell.substr(3), n))
            return 1;
        const std::vector<Workload> group = workloadsOf(n, ty);
        if (group.empty()) {
            std::fprintf(stderr, "error: no workloads in cell '%s'\n",
                         cell.c_str());
            return 1;
        }
        c.spec.workloads.insert(c.spec.workloads.end(), group.begin(),
                                group.end());
    }
    return kNext;
}

int
listBenchmarks(Cli &, const Flag &, const std::string &)
{
    for (const auto &b : allBenchNames()) {
        const BenchProfile &p = benchProfile(b);
        // smtlint:allow(D2): human-facing table; C locale is pinned (D1 bans setlocale)
        std::printf("%-8s %s  %s  (paper L2 miss %.1f%%)\n", b.c_str(),
                    p.isFp ? "FP " : "INT",
                    isMemBench(b) ? "MEM" : "ILP", p.paperL2MissRate);
    }
    return 0;
}

int
listWorkloads(Cli &, const Flag &, const std::string &)
{
    for (const Workload &w : allWorkloads()) {
        std::printf("%-8s", w.id.c_str());
        for (const auto &b : w.benches)
            std::printf(" %s", b.c_str());
        std::printf("\n");
    }
    return 0;
}

int
listNames(const std::vector<const char *> &names)
{
    for (const char *n : names)
        std::printf("%s\n", n);
    return 0;
}

using Text = const std::string &;

/**
 * Every flag of both modes, documented once. The grid flags (the
 * rows with an axis key) cross in table order, so a sweep's config
 * labels read "cores=2,alloc=symbiosis,...,iq=32".
 */
const Flag kFlags[] = {
    // Single run only.
    {"--workload", "a,b,c", RunMode,
     "comma-separated benchmarks, one thread each (default gzip,twolf)",
     [](Cli &c, const Flag &, Text v) {
         c.spec.workloads = {pendingWorkload(splitCommas(v))};
         return kNext;
     }},
    {"--policy", "NAME", RunMode,
     "fetch/allocation policy (default DCRA; see --list-policies)",
     [](Cli &c, const Flag &, Text v) {
         c.spec.policies = {parsePolicyKind(v)};
         return kNext;
     }},
    {"--json", nullptr, RunMode,
     "print the sweep JSON schema instead of the human report",
     [](Cli &c, const Flag &, Text) { c.format = "json"; return kNext; }},
    {"--list-benchmarks", nullptr, RunMode, "show available benchmarks",
     listBenchmarks},
    {"--list-workloads", nullptr, RunMode,
     "show the paper's Table 4 workloads", listWorkloads},
    {"--list-policies", nullptr, RunMode,
     "show registered fetch/alloc policies",
     [](Cli &, const Flag &, Text) { return listNames(policyNames()); }},
    {"--list-arbiters", nullptr, RunMode, "show registered LLC arbiters",
     [](Cli &, const Flag &, Text) { return listNames(llcArbiterNames()); }},
    {"--selftest", nullptr, RunMode,
     "10k-cycle 2-thread DCRA smoke run plus a 2-core chip smoke; exits "
     "nonzero on NaN/zero IPC or nondeterminism",
     [](Cli &, const Flag &, Text) { return selftest(); }},

    // Sweep only.
    {"--benches", "a+b,c+d", SweepMode,
     "ad-hoc workloads ('+' joins the threads of one workload)",
     [](Cli &c, const Flag &, Text v) {
         for (const std::string &w : splitCommas(v))
             c.spec.workloads.push_back(pendingWorkload(splitOn(w, '+')));
         return kNext;
     }},
    {"--workloads", "id,...", SweepMode,
     "paper Table 4 workload ids (e.g. MEM2.g1; see --list-workloads)",
     addWorkloadIds},
    {"--cells", "MEM2,ILP4", SweepMode,
     "all four groups of a workload cell", addCells},
    {"--policies", "A,B", SweepMode, "policies to sweep (default ICOUNT,DCRA)",
     [](Cli &c, const Flag &, Text v) {
         for (const std::string &p : splitCommas(v))
             c.spec.policies.push_back(parsePolicyKind(p));
         return kNext;
     }},
    {"--no-hmean", nullptr, SweepMode, "skip single-thread baselines",
     [](Cli &c, const Flag &, Text) {
         c.spec.computeHmean = false;
         return kNext;
     }},
    {"--jobs", "N", SweepMode,
     "worker threads (default: all host cores); results are identical "
     "for every N",
     [](Cli &c, const Flag &f, Text v) { return number(f, v, c.jobs); }, 1},
    {"--format", "F", SweepMode, "table | csv | json (default table)",
     [](Cli &c, const Flag &, Text v) { c.format = v; return kNext; }},
    {"--output", "FILE", SweepMode, "write to FILE instead of stdout",
     [](Cli &c, const Flag &, Text v) { c.outPath = v; return kNext; }},
    {"--journal", "FILE", SweepMode,
     "append one durable NDJSON record per completed job (fsync'd); a "
     "fresh sweep truncates FILE first",
     [](Cli &c, const Flag &, Text v) {
         c.ropts.journalPath = v;
         return kNext;
     }},
    {"--resume", nullptr, SweepMode,
     "replay completed jobs from --journal and run only the rest; merged "
     "output is byte-identical to an uninterrupted run",
     [](Cli &c, const Flag &, Text) { c.ropts.resume = true; return kNext; }},
    {"--isolate-jobs", nullptr, SweepMode,
     "fork each job into a child process so a crash loses one job, not "
     "the sweep",
     [](Cli &c, const Flag &, Text) {
         c.ropts.exec.isolate = true;
         return kNext;
     }},
    {"--job-timeout", "SEC", SweepMode,
     "kill an isolated job after SEC seconds (needs --isolate-jobs)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.ropts.exec.timeoutSec);
     },
     1},
    {"--job-retries", "N", SweepMode,
     "re-run a failed job up to N extra times with deterministic backoff",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.ropts.exec.retries);
     }},
    {"--job-backoff", "MS", SweepMode,
     "base retry backoff in milliseconds (attempt k waits MS << (k-1); "
     "default 50)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.ropts.exec.backoffMs);
     }},

    // Both modes.
    {"--commits", "N", BothModes,
     "first-thread commit budget (default 100000; sweep 60000)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.commits);
     },
     1},
    {"--warmup", "N", BothModes,
     "warmup commits before measuring (default 10000)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.warmup);
     }},
    {"--seed", "N", BothModes, "workload generation seed",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.base.seed);
     }},
    {"--perfect-dcache", nullptr, BothModes, "all data accesses hit L1",
     [](Cli &c, const Flag &, Text) {
         c.spec.base.mem.perfectDcache = true;
         return kNext;
     }},
    {"--contexts", "N", BothModes,
     "hardware contexts per core on a multi-core chip (default 4)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.base.soc.contextsPerCore);
     },
     1, maxThreads},
    {"--epoch", "N", BothModes,
     "cycles between thread reallocations (0 disables; default 20000)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.base.soc.epochCycles);
     }},
    {"--chip-jobs", "N", BothModes,
     "host threads ticking a chip's cores (1 = serial, 0 = one per host "
     "thread); results are byte-identical for every value",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.base.soc.chipJobs);
     }},
    {"--trace-out", "PREFIX", BothModes,
     "record telemetry: PREFIX.job<i>.ts.ndjson (time series) and "
     "PREFIX.job<i>.trace.json (Chrome trace, loadable in Perfetto) per "
     "job, named by the deterministic job order; sweep JSON becomes "
     "schema smtsim-sweep-v2",
     [](Cli &c, const Flag &, Text v) {
         c.spec.telemetry.tracePrefix = v;
         return kNext;
     }},
    {"--ts-out", "PREFIX", BothModes,
     "record the time series alone: PREFIX.job<i>.ts.ndjson, no trace file",
     [](Cli &c, const Flag &, Text v) {
         c.spec.telemetry.tsPrefix = v;
         return kNext;
     }},
    {"--stats-interval", "N", BothModes,
     "cycles between telemetry samples (default 10000; needs --trace-out "
     "or --ts-out)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.telemetry.statsInterval);
     },
     1},
    {"--prof", "PREFIX", BothModes,
     "host wall-clock profiling: PREFIX.job<i>.prof.ndjson per job plus "
     "PREFIX.runner.prof.ndjson (job wall/queue times, baseline-cache "
     "contention). Host data, nondeterministic; simulated results stay "
     "byte-identical. With --trace-out, host spans are merged into the "
     "Perfetto trace",
     [](Cli &c, const Flag &, Text v) {
         c.spec.prof.prefix = v;
         return kNext;
     }},
    {"--prof-every", "N", BothModes, "host-time 1 in N ticks (default 64)",
     [](Cli &c, const Flag &f, Text v) {
         return number(f, v, c.spec.prof.sampleEvery);
     },
     1},
    {"--help", nullptr, BothModes, "show this text (also -h)",
     [](Cli &, const Flag &, Text) { usage(); return 0; }},

    // The grid, in crossing order.
    {"--cores", "N", BothModes,
     "SMT cores on the chip (default 1, the paper's single-core machine; "
     "more run on the CMP layer)",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::numCores);
     },
     1, 0, "cores"},
    {"--allocator", "NAME", BothModes,
     "thread-to-core allocator: round-robin symbiosis synpa (default "
     "round-robin)",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::allocator);
     },
     0, 0, "alloc"},
    {"--llc-arbiter", "NAME", BothModes,
     "chip-level LLC arbiter: static chip-dcra way-equal way-util "
     "(default static)",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::llcArbiter);
     },
     0, 0, "llcarb"},
    {"--llc-ways", "N", BothModes,
     "LLC associativity (a power of two <= 32) for way-partitioning "
     "experiments",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::llcWays, validateLlcWays);
     },
     0, 0, "llcways"},
    {"--mem-latency", "N", BothModes, "main memory latency (cycles)",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::memLatency);
     },
     0, 0, "mem"},
    {"--l2-latency", "N", BothModes, "L2 access latency (cycles)",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::l2Latency);
     },
     0, 0, "l2"},
    {"--regs", "N", BothModes,
     "physical registers per file; more than 40 per context of a core",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::physRegsPerFile);
     },
     0, 0, "regs"},
    {"--iq", "N", BothModes, "entries per issue queue",
     [](Cli &c, const Flag &f, Text v) {
         return grid(c, f, v, &ConfigOverride::iqSize);
     },
     1, 0, "iq"},
};

/** Print one usage row, its help word-wrapped into a column. */
void
printFlag(const Flag &f)
{
    constexpr std::size_t col = 24;
    constexpr std::size_t width = 78;
    std::string line = std::string("  ") + f.name;
    if (f.arg)
        line.append(" ").append(f.arg);
    if (line.size() >= col) {
        std::printf("%s\n", line.c_str());
        line.clear();
    }
    line.resize(col, ' ');
    for (const std::string &word : splitOn(f.help, ' ')) {
        if (line.size() > col && line.size() + 1 + word.size() > width) {
            std::printf("%s\n", line.c_str());
            line.assign(col, ' ');
        } else if (line.size() > col) {
            line += ' ';
        }
        line += word;
    }
    std::printf("%s\n", line.c_str());
}

void
usage()
{
    std::printf(
        "usage: smtsim [options]\n"
        "       smtsim sweep [options]\n"
        "       smtsim prof-report [--top N] FILE.prof.ndjson...\n"
        "\n"
        "A single run is the one-job sweep \"cli-run\": workload gzip,twolf\n"
        "under DCRA, 100000 commits after 10000 of warmup, a 100M-cycle\n"
        "cap, no Hmean baselines; it prints a per-thread report, or the\n"
        "sweep JSON schema with --json. `smtsim sweep` runs the grid\n"
        "workloads x policies x configs (\"cli-sweep\": policies\n"
        "ICOUNT,DCRA, 60000 commits after 10000 of warmup, a 50M-cycle\n"
        "cap) on a pool of workers and prints a table, CSV or JSON. A\n"
        "core holds at most %d threads; a chip, cores x --contexts.\n",
        maxThreads);
    const struct
    {
        const char *title;
        bool (*in)(const Flag &);
    } sections[] = {
        {"single-run options:",
         [](const Flag &f) { return f.modes == RunMode; }},
        {"sweep options:",
         [](const Flag &f) { return f.modes == SweepMode; }},
        {"options of both modes:",
         [](const Flag &f) { return f.modes == BothModes && !f.axis; }},
        {"grid flags (one value in a single run; comma lists in a\n"
         "sweep, crossed in this order into the config axis):",
         [](const Flag &f) { return f.axis != nullptr; }},
    };
    for (const auto &s : sections) {
        std::printf("\n%s\n", s.title);
        for (const Flag &f : kFlags) {
            if (f.help && s.in(f))
                printFlag(f);
        }
    }
    std::printf(
        "\n"
        "prof-report: aggregate one or more .prof.ndjson sidecars\n"
        "(from --prof) into a table: top host-time scopes, wavefront\n"
        "gate waits and per-worker utilization, job wall-time\n"
        "percentiles, baseline-cache contention. --top N limits the\n"
        "scope table (default 20).\n"
        "\n"
        "exit codes: 0 success, 1 usage/config error or a failed\n"
        "single run, 3 sweep completed but jobs failed (see the JSON\n"
        "failures block), 130 sweep interrupted by SIGINT/SIGTERM\n"
        "(journal stays resumable)\n");
}

/** Parse the mode's arguments into @p c: kNext or an exit code. */
int
parseArgs(Cli &c, int argc, char **argv)
{
    const unsigned mode = c.sweep ? SweepMode : RunMode;
    for (int i = 0; i < argc; ++i) {
        const std::string arg =
            std::strcmp(argv[i], "-h") == 0 ? "--help" : argv[i];
        const Flag *flag = std::find_if(
            std::begin(kFlags), std::end(kFlags), [&](const Flag &f) {
                return (f.modes & mode) && arg == f.name;
            });
        if (flag == std::end(kFlags)) {
            std::fprintf(stderr,
                         c.sweep ? "unknown sweep option '%s'\n"
                                 : "unknown option '%s'\n",
                         arg.c_str());
            usage();
            return 1;
        }
        std::string value;
        if (flag->arg) {
            if (i + 1 >= argc)
                fatal("missing value for %s", arg.c_str());
            value = argv[++i];
        }
        const int rc = flag->set(c, *flag, value);
        if (rc != kNext)
            return rc;
    }
    return kNext;
}

/** Cross a sweep's grid values, in table order, into spec.configs;
 *  a grid flag the user omitted adds no label and no override. */
void
crossAxes(Cli &c)
{
    std::vector<ConfigOverride> configs(1);
    for (const Flag &f : kFlags) {
        const auto it = c.axes.find(&f);
        if (it == c.axes.end())
            continue;
        std::vector<ConfigOverride> crossed;
        for (const ConfigOverride &o : configs) {
            for (const AxisPoint &p : it->second) {
                ConfigOverride n = o;
                p.set(n);
                if (!n.label.empty())
                    n.label += ',';
                n.label += p.label;
                crossed.push_back(std::move(n));
            }
        }
        configs = std::move(crossed);
    }
    if (!configs[0].label.empty())
        c.spec.configs = std::move(configs);
}

/**
 * Check every job before any runs: its workload must fit its chip
 * (validateBenches), and its register file must leave rename
 * registers beyond the contexts' architectural state (the file
 * asserts otherwise). Then type the pending ad-hoc workloads.
 */
bool
validateJobs(SweepSpec &spec)
{
    for (const SweepJob &job : expandSweep(spec)) {
        const SocParams &soc = job.config.soc;
        ChipShape shape;
        if (soc.numCores > 1) {
            shape.cores = soc.numCores;
            shape.contexts = soc.contextsPerCore;
        }
        if (!validateBenches(job.workload.benches, shape))
            return false;
        const int contexts = soc.numCores > 1
            ? soc.contextsPerCore
            : static_cast<int>(job.workload.benches.size());
        const int regs = job.config.core.physRegsPerFile;
        if (regs <= contexts * numIntArchRegs) {
            std::fprintf(stderr,
                         "error: --regs %d leaves no rename registers: "
                         "%d contexts per core hold %d architectural "
                         "registers per file\n",
                         regs, contexts, contexts * numIntArchRegs);
            return false;
        }
    }
    for (Workload &w : spec.workloads) {
        if (w.id.empty())
            w = adHocWorkload(w.benches);
    }
    return true;
}

/**
 * The human single-run report, rendered from the one job's result:
 * where the sidecars went, then the run's statistics.
 */
void
printReport(const SweepSpec &spec, const JobResult &job)
{
    if (spec.prof.enabled()) {
        const char *p = spec.prof.prefix.c_str();
        std::printf("prof: host profile -> %s.job0.prof.ndjson, "
                    "%s.runner.prof.ndjson (host wall-clock; "
                    "nondeterministic)\n",
                    p, p);
    }
    const TelemetrySpec &tel = spec.telemetry;
    if (tel.enabled()) {
        std::printf("telemetry: time series -> %s.job0.ts.ndjson",
                    tel.tsOutPrefix().c_str());
        if (tel.traceEnabled())
            std::printf(", events -> %s.job0.trace.json",
                        tel.tracePrefix.c_str());
        std::printf("\n");
    }

    const SimResult &r = job.summary.raw;
    const SocParams &soc = job.job.config.soc;
    // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
    std::printf("policy=%s cycles=%llu throughput=%.3f mlp=%.2f\n",
                policyKindName(job.job.policy),
                static_cast<unsigned long long>(r.cycles),
                r.throughput(), r.mlpBusyMean);
    if (soc.numCores > 1) {
        const double llcMissPct = r.llcAccesses
            ? 100.0 * static_cast<double>(r.llcMisses) /
                static_cast<double>(r.llcAccesses)
            : 0.0;
        std::printf("chip: cores=%d contexts=%d allocator=%s "
                    "epoch=%llu migrations=%llu llc-acc=%llu "
                    // smtlint:allow(D2): width-padded human report; C locale is pinned (D1 bans setlocale)
                    "llc-miss=%.2f%% llc-arbiter=%s "
                    "share-reassignments=%llu\n",
                    soc.numCores, soc.contextsPerCore,
                    allocatorKindName(soc.allocator),
                    static_cast<unsigned long long>(soc.epochCycles),
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
}

/** Validate @p c, run its spec on the runner, and emit the result. */
int
runCli(Cli &c)
{
    SweepSpec &spec = c.spec;
    RunnerOptions &ropts = c.ropts;
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
    // A single run keeps the default RunnerOptions, fault plan too.
    if (c.sweep)
        ropts.faults = FaultPlan::fromEnv();

    TelemetrySpec &tel = spec.telemetry;
    if (tel.statsInterval > 0 && !tel.enabled()) {
        std::fprintf(stderr, "error: --stats-interval needs "
                     "--trace-out or --ts-out (nowhere to write "
                     "samples)\n");
        return 1;
    }
    if (tel.enabled() && tel.statsInterval == 0)
        tel.statsInterval = 10'000;

    if (spec.workloads.empty()) {
        std::fprintf(stderr,
                     "error: no workloads; give --benches, "
                     "--workloads and/or --cells\n");
        return 1;
    }
    if (spec.policies.empty())
        spec.policies = {PolicyKind::Icount, PolicyKind::Dcra};
    crossAxes(c);
    if (!validateJobs(spec))
        return 1;

    std::unique_ptr<ResultSink> sink;
    if (!c.format.empty()) {
        sink = makeSink(c.format);
        if (!sink) {
            std::fprintf(stderr,
                         "error: unknown format '%s' (table, csv, "
                         "json)\n",
                         c.format.c_str());
            return 1;
        }
    }

    // Fail fast on unwritable destinations before hours of
    // simulation, not after.
    if (!probeWritable(c.outPath, "--output") ||
        !probeWritable(ropts.journalPath, "--journal"))
        return 1;
    if (tel.enabled() &&
        !probeWritable(telemetryFileBase(tel.tsOutPrefix(), 0) +
                           ".ts.ndjson",
                       tel.tsPrefix.empty() ? "--trace-out" : "--ts-out"))
        return 1;
    if (spec.prof.enabled() &&
        !probeWritable(profFileBase(spec.prof.prefix, 0) +
                           ".prof.ndjson",
                       "--prof"))
        return 1;

    SweepRunner runner(std::move(spec), c.jobs, nullptr,
                       std::move(ropts));
    const SweepResults results = runner.run();
    if (results.interrupted) {
        std::fprintf(stderr,
                     "sweep interrupted; completed jobs are in the "
                     "journal — re-run with --resume to finish\n");
        return 130;
    }
    if (!c.sweep && !results.failures.empty()) {
        std::fprintf(stderr, "error: the run failed (%s)\n",
                     results.failures[0].cause.c_str());
        return 1;
    }
    if (!sink) {
        printReport(results.spec, results.results[0]);
        return 0;
    }
    const int rc = emitOutput(sink->render(results), c.outPath);
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
    if (argc > 1 && std::strcmp(argv[1], "prof-report") == 0)
        return profReportMain(argc - 2, argv + 2);

    Cli c;
    c.sweep = argc > 1 && std::strcmp(argv[1], "sweep") == 0;
    if (c.sweep) {
        c.spec.name = "cli-sweep";
        c.format = "table";
    } else {
        c.spec.name = "cli-run";
        c.spec.commits = 100'000;
        c.spec.maxCycles = 100'000'000;
        c.spec.computeHmean = false;
        c.spec.workloads = {pendingWorkload({"gzip", "twolf"})};
        c.spec.policies = {PolicyKind::Dcra};
        c.jobs = 1;
    }
    const int skip = c.sweep ? 2 : 1;
    const int rc = parseArgs(c, argc - skip, argv + skip);
    return rc == kNext ? runCli(c) : rc;
}
