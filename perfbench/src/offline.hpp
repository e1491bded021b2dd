/**
 * @file
 * Offline phase: the workload's searchNetwork / searchLayer calls,
 * timed pass by pass with tracing off, every best mapping re-scored.
 */

#ifndef PERFBENCH_OFFLINE_HPP
#define PERFBENCH_OFFLINE_HPP

#include <cstdint>
#include <random>
#include <vector>

#include "bench.hpp"

namespace perfbench
{

/**
 * A small conv or GEMM (as a 1x1 conv) with deliberately awkward,
 * mostly non-power-of-2 extents: the shapes Ruby's imperfect factors
 * are for.
 */
ruby::ConvShape randomShape(std::mt19937_64 &rng, const std::string &name);

/** The offline jobs of both workloads: searchNetwork on resnet50 and
 *  deepbench x both archs (the paper's experiment). */
std::vector<OfflineJob> netRandomJobs(std::uint64_t seed);

struct OfflineResult
{
    ByRound passWallS;  ///< summed call time per timed pass
    /** Host ms per searched layer, one sample per timed call. */
    ByRound searchMs;
    /** Per searched layer, of the first edpPasses passes. */
    std::vector<double> edpRatios;
    std::uint64_t layerMemoHits = 0;   ///< first pass
    std::uint64_t layersSearched = 0;  ///< first pass
    ruby::EvalStats stats;             ///< first pass, summed
    /** With asDaemon: each job's first-pass answer (answerBytes). */
    std::vector<std::string> answers;
};

/**
 * The answer part of a network / layer outcome as canonical bytes:
 * the wire encoding with the accounting fields that warm caches
 * legitimately change (evaluated, stage counters, memoized flags)
 * zeroed. Two runs agree on the answer iff these bytes are equal.
 */
std::string answerBytes(ruby::NetworkOutcome net);
std::string answerBytes(ruby::LayerOutcome outcome);

/**
 * Passes over a fixed list of jobs, run a few at a time so that they
 * can be interleaved with the served phase. Every layer outcome is
 * checked into the ledger: found and re-scored bit for bit. Answers
 * and stats come from the first pass and cover searched (not
 * memoized) layers only.
 */
class OfflineRunner
{
  public:
    /**
     * The first @p edpPasses passes give edpRatios; with more than
     * one, every pass after the first runs each search with its own
     * seed (derived from the job's), so that the ratios cover
     * independent searches of every layer. With @p asDaemon the jobs
     * are served requests: the calls of one pass share a cross-call
     * layer memo, as the daemon's requests do, and each job's
     * first-pass answer is kept.
     */
    OfflineRunner(const std::vector<OfflineJob> &jobs, Ledger &ledger,
                  unsigned edpPasses = 1, bool asDaemon = false);

    /** Run one pass; when @p timed its times join passWallS and
     *  searchMs. Returns the pass's summed call time, s. */
    double pass(bool timed);

    /** Start a round: timed passes until @p budgetSeconds of call time
     *  have elapsed (at least one). */
    void runFor(double budgetSeconds);

    const OfflineResult &result() const { return out_; }

  private:
    const std::vector<OfflineJob> &jobs_;
    Ledger &ledger_;
    bool asDaemon_;
    unsigned edpPasses_;
    unsigned passes_ = 0;
    /** Problems and architectures outlive the calls: the re-scored
     *  mappings point into them. */
    std::vector<std::vector<ruby::Problem>> problems_;
    std::vector<ruby::ArchSpec> archs_;
    OfflineResult out_;
};

} // namespace perfbench

#endif // PERFBENCH_OFFLINE_HPP
