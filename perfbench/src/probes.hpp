/**
 * @file
 * Layer probes of the traced run: direct, timed calls into the
 * mapspace (Mapspace::sample), the model (checkValidity, the batch
 * engine, the scalar evaluate) and the four search strategies, on the
 * workload's own problems, plus certificate runs of the optimal search.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace perfbench
{

struct ProbeResult
{
    double samples = 0;        ///< mappings drawn
    double sampleNs = 0;       ///< per Mapspace::sample
    double validityNs = 0;     ///< per scalar checkValidity
    double batchNsPerLane = 0; ///< BatchEvaluator add + run, per lane
    double fullEvalNs = 0;     ///< per scalar evaluate (valid ones)
    /** Evaluations per second of randomSearch, localSearch,
     *  geneticSearch and optimalSearch (SearchStrategy order). */
    double evalsPerS[5] = {0, 0, 0, 0, 0};
    /** SearchTimers buckets over totalNs, summed over the calls. */
    double evalShare = 0, breedShare = 0, reduceShare = 0;
    /** Process CPU time over wall x threads of the search calls. */
    double cpuUtil = 0;
    /** Stage counters of the local and genetic calls (delta eval). */
    ruby::EvalStats deltaStats;
    /** optimalSearch calls, how many certified, leaves accounted. */
    std::uint64_t optimalCalls = 0;
    std::uint64_t optimalCertified = 0;
    std::uint64_t optimalEvaluated = 0;
};

/**
 * Probe the first two distinct layers of @p jobs, and run
 * optimalSearch to its certificate (or a cap) on a small seeded
 * awkward shape per preset.
 */
ProbeResult runProbes(const std::vector<OfflineJob> &jobs,
                      std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
