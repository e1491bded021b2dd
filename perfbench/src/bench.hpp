/**
 * @file
 * Shared vocabulary of the repository benchmark: run arguments, the
 * metric sink, offline jobs and small statistics helpers.
 *
 * The benchmark runs one workload per process. Every workload has an
 * offline phase (direct searchNetwork/searchLayer calls) and a served
 * phase (an open loop through a Router in front of two Servers), so
 * every end-to-end metric is measured on every workload; the
 * workloads differ in what dominates each phase (see README.md).
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ruby/search/driver.hpp"
#include "ruby/workload/conv.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** Command-line arguments of one run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = "."; ///< where the traced run writes spans
};

/** Ordered name -> (value, unit) sink printed as the result line. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<std::pair<std::string,
                                std::pair<double, std::string>>> &
    all() const
    {
        return items_;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items_;
};

/** Pass/fail ledger of one run: every checked operation counts. */
struct Ledger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    /** Count one operation; @p ok false counts it failed. */
    void record(bool ok) { ++attempted; failed += ok ? 0 : 1; }
    /** A wrong answer: fails the run and counts as failed. */
    void wrong(const std::string &what);
};

/** One offline search call: a whole network or a single layer. */
struct OfflineJob
{
    std::string label;
    bool network = false;      ///< searchNetwork (else searchLayer)
    /** Non-empty: a `map` job, searchLayer on this config's problem
     *  and architecture (layers/arch/preset unused). */
    std::string configText;
    std::vector<ruby::Layer> layers;
    std::string arch;          ///< "eyeriss" | "simba"
    ruby::ConstraintPreset preset = ruby::ConstraintPreset::None;
    ruby::MapspaceVariant variant = ruby::MapspaceVariant::RubyS;
    ruby::SearchOptions options;
};

/** The constraint preset paired with each preset architecture. */
ruby::ConstraintPreset presetFor(const std::string &arch);

/** q-quantile (0..1) by linear interpolation; 0 for no samples. */
double quantile(std::vector<double> values, double q);

/** Samples of one metric, grouped by the round of the run (see
 *  main.cpp) they were taken in. */
using ByRound = std::vector<std::vector<double>>;

/**
 * The q-quantile of each round's samples, median over the rounds that
 * have any. A host slowdown confined to fewer than half of the rounds
 * does not move it, where it would set the tail of the pooled samples.
 */
double roundQuantile(const ByRound &rounds, double q);

/**
 * The q-quantile of each round's samples, lowest over the rounds that
 * have any: the round the host disturbed least. Host steal comes in
 * storms that cover most rounds of a run and only ever add time, so
 * the quickest round tracks the program's own cost where the median
 * round tracks the storm.
 */
double bestRoundQuantile(const ByRound &rounds, double q);

/** Number of samples over all rounds. */
std::size_t sampleCount(const ByRound &rounds);

/** The samples of all rounds in one list. */
std::vector<double> pooled(const ByRound &rounds);

/** Geometric mean; 0 for no samples. */
double geomean(const std::vector<double> &values);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Process CPU time (all threads), seconds. */
double processCpuSeconds();

/**
 * Best EDP over the compute-only ideal of the same layer: the MAC
 * energy of every operation times the cycles of a fully utilized
 * array. Dimensionless (>= 1 for any real mapping), so layers and
 * seeds of very different sizes average meaningfully.
 */
double edpOverIdeal(const ruby::EvalResult &result,
                    const ruby::ArchSpec &arch);

/** Split @p seed into an independent stream seed for @p stream. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
