/**
 * @file
 * Small statistics toolkit: scalar counters with names, running means,
 * histograms and table-style formatting used by the experiment
 * harnesses to print paper-style rows.
 */

#ifndef DCRA_SMT_COMMON_STATS_HH
#define DCRA_SMT_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace smt {

/**
 * Arithmetic-mean accumulator.
 */
class RunningMean
{
  public:
    /** Add one sample. */
    void
    sample(double v)
    {
        sum += v;
        ++n;
    }

    /** Mean of all samples, 0 if empty. */
    double mean() const { return n ? sum / static_cast<double>(n) : 0.0; }

    /** Number of samples. */
    std::uint64_t count() const { return n; }

    /** Sum of all samples. */
    double total() const { return sum; }

    /** Forget all samples. */
    void
    reset()
    {
        sum = 0.0;
        n = 0;
    }

  private:
    double sum = 0.0;
    std::uint64_t n = 0;
};

/**
 * Fixed-bucket histogram over [0, buckets); samples beyond the last
 * bucket are clamped into it, but counted: overflow() reports how
 * many samples landed past the end, so exported tails are honest
 * about the clamping instead of silently folding it into the last
 * bucket. Used e.g. for the per-cycle count of outstanding L2 misses
 * (memory-level parallelism).
 */
class Histogram
{
  public:
    /** @param nbuckets number of buckets, one per integer value. */
    explicit Histogram(std::size_t nbuckets);

    /** Record @p n samples of one integer value. Inline: sampled
     *  every cycle by the run loop's MLP metric. */
    void
    sample(std::uint64_t v, std::uint64_t n = 1)
    {
        std::size_t idx = static_cast<std::size_t>(v);
        if (v >= counts.size()) {
            idx = counts.size() - 1;
            overflowCnt += n;
        }
        counts[idx] += n;
        total += n;
    }

    /** Count in one bucket. */
    std::uint64_t bucket(std::size_t i) const { return counts.at(i); }

    /** Total number of samples. */
    std::uint64_t count() const { return total; }

    /** Samples that fell beyond the last bucket (clamped into it). */
    std::uint64_t overflow() const { return overflowCnt; }

    /** Mean of all samples (clamped values included as clamped). */
    double mean() const;

    /** Mean of samples with value >= 1 (e.g. overlap-when-busy). */
    double meanNonZero() const;

    /** Number of buckets. */
    std::size_t size() const { return counts.size(); }

    /** Forget everything. */
    void reset();

  private:
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    std::uint64_t overflowCnt = 0;
};

/**
 * Harmonic mean of a sample vector; 0 if empty or if any sample is
 * non-positive (a dead thread makes the workload's Hmean 0, matching
 * Luo et al.'s metric semantics).
 */
double harmonicMean(const std::vector<double> &xs);

/**
 * Plain-text table writer that prints aligned columns, used by bench
 * binaries to emit paper-style tables.
 */
class TextTable
{
  public:
    /** Set the column headers. */
    void header(std::vector<std::string> cells);

    /** Append one data row. */
    void row(std::vector<std::string> cells);

    /** Render to a string with aligned columns. */
    std::string str() const;

    /** Format helper: fixed-point double. */
    static std::string fmt(double v, int prec = 2);

  private:
    std::vector<std::vector<std::string>> rows;
    bool hasHeader = false;
};

} // namespace smt

#endif // DCRA_SMT_COMMON_STATS_HH
