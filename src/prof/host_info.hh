/**
 * @file
 * Host-environment facts for the profiling and provenance layers:
 * CPU count, /proc/cpuinfo model name, load average. Everything here
 * describes the *host*, never the simulated machine, and none of it
 * may flow into golden-checked output. The stable subset (cpus,
 * model) can appear in the sweep v2 provenance block — it is
 * constant for every run on one host, so cross-worker-count byte
 * diffs still hold — while the load average is nondeterministic
 * across runs and is confined to prof sidecars.
 */

#ifndef DCRA_SMT_PROF_HOST_INFO_HH
#define DCRA_SMT_PROF_HOST_INFO_HH

#include <string>

namespace smt {

struct HostInfo
{
    int cpus = 0;              //!< online CPU count (0 = unknown)
    std::string cpuModel;      //!< /proc/cpuinfo "model name" ("" = unknown)
    bool haveLoadavg = false;  //!< loadavg fields below are valid
    double load1 = 0.0;
    double load5 = 0.0;
    double load15 = 0.0;
};

/** Snapshot the host facts (loadavg is "at call time"). */
HostInfo readHostInfo();

/**
 * Render as a JSON object literal. withLoadavg selects whether the
 * run-varying loadavg fields are included; pass false anywhere the
 * output participates in a cross-run byte diff.
 */
std::string hostInfoJson(const HostInfo &info, bool withLoadavg);

} // namespace smt

#endif // DCRA_SMT_PROF_HOST_INFO_HH
