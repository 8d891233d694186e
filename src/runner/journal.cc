#include "runner/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"

namespace smt {

namespace {

constexpr const char *journalSchema = "smtsim-journal-v1";

std::uint64_t
fnv1a(std::uint64_t h, const std::string &s)
{
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= v & 0xff;
        h *= 0x100000001b3ull;
        v >>= 8;
    }
    return h;
}

/** Write all of @p len bytes, riding out EINTR/short writes. */
bool
writeAll(int fd, const char *buf, std::size_t len)
{
    while (len) {
        const ssize_t n = write(fd, buf, len);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        buf += n;
        len -= static_cast<std::size_t>(n);
    }
    return true;
}

} // anonymous namespace

std::string
sweepSpecKey(const SweepSpec &spec, const std::vector<SweepJob> &jobs)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, configKey(spec.base));
    h = fnv1a(h, spec.commits);
    h = fnv1a(h, spec.warmup);
    h = fnv1a(h, spec.maxCycles);
    h = fnv1a(h, static_cast<std::uint64_t>(spec.computeHmean));
    for (const SweepJob &j : jobs) {
        h = fnv1a(h, sweepJobKey(j));
        // configKey covers the single-core machine; the chip shape
        // must distinguish journal identities too.
        h = fnv1a(h, configKey(j.config));
        h = fnv1a(h, static_cast<std::uint64_t>(
                         j.config.soc.numCores));
        h = fnv1a(h, static_cast<std::uint64_t>(
                         j.config.soc.contextsPerCore));
        h = fnv1a(h, std::string(allocatorKindName(
                         j.config.soc.allocator)));
        h = fnv1a(h, j.config.soc.epochCycles);
        h = fnv1a(h, j.config.soc.llcArbiter);
        h = fnv1a(h,
                  static_cast<std::uint64_t>(j.config.soc.llcWays));
    }
    return hexU64(h);
}

std::string
sweepJobKey(const SweepJob &job)
{
    std::string key = job.workload.id;
    key += '|';
    key += policyKindName(job.policy);
    key += '|';
    key += job.configLabel;
    return key;
}

bool
readJournal(const std::string &path, JournalReplay &out, bool &exists,
            std::string &err)
{
    out = JournalReplay();
    err.clear();
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f) {
        exists = false;
        return true;
    }
    exists = true;

    std::string line;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    bool tornTail = false;
    char buf[4096];
    std::string pending;
    auto handleLine = [&](const std::string &text) -> bool {
        ++lineNo;
        if (text.empty())
            return true;
        if (tornTail) {
            err = "journal '" + path +
                "': malformed record mid-file (line " +
                std::to_string(lineNo - 1) + ")";
            return false;
        }
        JsonValue doc;
        if (!parseJson(text, doc) ||
            doc.kind != JsonValue::Object) {
            // A torn final line is what a crash mid-append leaves
            // behind; only reject when more records follow it.
            tornTail = true;
            return true;
        }
        if (!sawHeader) {
            const JsonValue *schema = doc.find("schema");
            const JsonValue *spec = doc.find("spec");
            const JsonValue *jobs = doc.find("jobs");
            if (!schema || schema->kind != JsonValue::String ||
                schema->str != journalSchema) {
                err = "journal '" + path +
                    "': missing/unknown schema header (want " +
                    journalSchema + ")";
                return false;
            }
            if (!spec || spec->kind != JsonValue::String || !jobs ||
                !jobs->toInteger(out.jobCount)) {
                err = "journal '" + path + "': malformed header";
                return false;
            }
            out.specKey = spec->str;
            sawHeader = true;
            return true;
        }
        const JsonValue *job = doc.find("job");
        const JsonValue *key = doc.find("key");
        const JsonValue *summary = doc.find("summary");
        std::uint64_t idx = 0;
        if (!job || !job->toInteger(idx) || !key ||
            key->kind != JsonValue::String || !summary) {
            tornTail = true;
            return true;
        }
        RunSummary s;
        if (!runSummaryFromJson(*summary, s)) {
            tornTail = true;
            return true;
        }
        out.summaries[idx] = std::move(s);
        out.keys[idx] = key->str;
        return true;
    };

    bool ok = true;
    for (;;) {
        const std::size_t n = std::fread(buf, 1, sizeof(buf), f);
        if (n == 0)
            break;
        std::size_t start = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (buf[i] != '\n')
                continue;
            pending.append(buf + start, i - start);
            start = i + 1;
            line.swap(pending);
            pending.clear();
            if (!handleLine(line)) {
                ok = false;
                break;
            }
        }
        if (!ok)
            break;
        pending.append(buf + start, n - start);
    }
    if (ok && !pending.empty())
        ok = handleLine(pending); // unterminated tail line
    std::fclose(f);
    if (!ok)
        return false;
    if (tornTail) {
        warn("journal '%s': dropped a torn trailing record "
             "(crash mid-append); the job will be re-run",
             path.c_str());
    }
    if (!sawHeader && (!out.summaries.empty() || tornTail)) {
        err = "journal '" + path + "': records without a header";
        return false;
    }
    return true;
}

JournalWriter::~JournalWriter()
{
    if (fd >= 0)
        close(fd);
}

void
JournalWriter::open(const std::string &path,
                    const std::string &specKey,
                    std::uint64_t jobCount, bool truncate)
{
    SMT_ASSERT(fd < 0, "journal opened twice");
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        fatal("cannot open journal '%s' for writing: %s",
              path.c_str(), std::strerror(errno));
    }
    struct stat st;
    if (fstat(fd, &st) != 0)
        fatal("cannot stat journal '%s': %s", path.c_str(),
              std::strerror(errno));
    if (st.st_size > 0)
        return; // resuming: the header is already on disk
    std::string header = "{\"schema\":\"";
    header += journalSchema;
    header += "\",\"spec\":\"" + jsonEscape(specKey) +
        "\",\"jobs\":" + fmtU64(jobCount) + "}\n";
    if (!writeAll(fd, header.data(), header.size()) ||
        fsync(fd) != 0) {
        fatal("cannot write journal header to '%s': %s",
              path.c_str(), std::strerror(errno));
    }
}

void
JournalWriter::append(std::size_t jobIndex, const std::string &jobKey,
                      const RunSummary &summary)
{
    if (fd < 0)
        return;
    std::string rec = "{\"job\":" +
        fmtU64(static_cast<std::uint64_t>(jobIndex));
    rec += ",\"key\":\"" + jsonEscape(jobKey) + "\"";
    rec += ",\"summary\":" + runSummaryToJson(summary) + "}\n";
    std::lock_guard<std::mutex> lock(mu);
    if (!writeAll(fd, rec.data(), rec.size()) || fsync(fd) != 0) {
        // A full disk must not kill the sweep: the in-memory result
        // is still good, only resumability degrades.
        warn("journal append failed (job %zu): %s; continuing "
             "without durability for this record",
             jobIndex, std::strerror(errno));
    }
}

} // namespace smt
