/**
 * @file
 * Certified-optimal mapping search: parallel best-first
 * branch-and-bound over the exhaustive mapspace. The enumeration
 * space is viewed as a prefix tree over the mixed-radix index digits
 * (outer-dimension chain picks first, the innermost dimension plus
 * every permutation pick forming the leaf frontier); each internal
 * node carries a partial-mapping objective lower bound, nodes are
 * expanded cheapest-bound-first, and any subtree whose bound cannot
 * strictly beat the shared incumbent is pruned wholesale. Run to
 * completion the result is a *certified* optimum — bit-identical to
 * the serial exhaustive search's best at any thread count. Stopped
 * early (time budget, evaluation cap, cancellation) it reports the
 * best found plus an optimality gap derived from the smallest bound
 * still open.
 */

#ifndef RUBY_SEARCH_OPTIMAL_SEARCH_HPP
#define RUBY_SEARCH_OPTIMAL_SEARCH_HPP

#include <chrono>
#include <cstdint>
#include <optional>

#include "ruby/common/cancel.hpp"
#include "ruby/mapspace/mapspace.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/search/random_search.hpp"

namespace ruby
{

/** Branch-and-bound configuration. */
struct OptimalOptions
{
    Objective objective = Objective::EDP;

    /**
     * Cross the chain enumeration with all temporal permutations per
     * level (same semantics as ExhaustiveOptions::permutations).
     * Permutation-symmetric leaves — orders differing only in the
     * placement of dimensions whose temporal factor is trivial at a
     * level — are pruned down to their lowest-index representative.
     */
    bool permutations = false;

    /**
     * Cap on *individually decided* leaves — candidates the search
     * actually spent work on (batch-invalid, leaf-level bound-pruned,
     * symmetry-skipped or fully modeled). Subtrees discarded by a
     * node-level bound are not charged against the cap: discarding
     * them is the whole point. 0 = unlimited. Hitting the cap stops
     * the search with certified=false and a gap.
     */
    std::uint64_t maxEvaluations = 1'000'000;

    /**
     * Wall-clock budget for the whole search (0 = unlimited). On
     * expiry workers re-queue whatever they were processing, so the
     * reported gap still covers every unexplored leaf.
     */
    std::chrono::milliseconds timeBudget{0};

    /**
     * Prune subtrees (and individual leaves) whose objective lower
     * bound cannot *strictly* beat the incumbent. Never changes the
     * best mapping found; with it off the search degrades to a
     * best-first full enumeration that still certifies.
     */
    bool boundPruning = true;

    /**
     * Skip permutation-symmetric duplicate leaves (see
     * `permutations`). Sound: a skipped leaf evaluates bit-identically
     * to its kept lower-index representative, so neither the best
     * mapping nor the certificate can change. No effect when
     * permutations are off (the identity order has no duplicates).
     */
    bool symmetryPruning = true;

    /**
     * Worker threads expanding the tree (0 = one per hardware
     * thread). Workers pop the globally cheapest open node from a
     * shared queue and split large leaf blocks, so subtree stealing
     * is implicit; the strict incumbent predicate plus the
     * (objective, index) reduction keep a certified best mapping
     * bit-identical across thread counts. A run stopped by its
     * evaluation cap is not thread-invariant: which leaves the cap
     * reaches depends on the workers' interleaving, so its best
     * mapping and `evaluated` may differ from run to run above one
     * thread.
     */
    unsigned threads = 1;

    /** External cooperative cancellation. Not owned. */
    const CancelToken *cancel = nullptr;
};

/** Branch-and-bound outcome. */
struct OptimalResult
{
    std::optional<Mapping> best;
    EvalResult bestResult;

    /**
     * Leaves accounted for, *including* whole pruned subtrees and
     * symmetry-skipped duplicates (folded into stats.prunedBound so
     * the partition identity holds). Equals the full mapspace size
     * exactly when `certified`.
     */
    std::uint64_t evaluated = 0;
    std::uint64_t valid = 0;
    /** Per-stage counters (cache fields stay zero). */
    EvalStats stats;

    /** True when the search stopped before exhausting the tree. */
    bool truncated = false;
    /** True when the wall-clock budget caused the stop. */
    bool deadlineExceeded = false;

    /**
     * True when every subtree was either explored or soundly pruned:
     * `best` is then the global optimum for the objective (and
     * gapPercent is 0).
     */
    bool certified = false;

    /**
     * Optimality gap on early stop:
     * 100 * (incumbent - min open bound) / incumbent, clamped to
     * >= 0; 100 when no valid mapping was found yet. 0 when
     * certified.
     */
    double gapPercent = 0.0;

    /** Coarse wall-clock breakdown (see SearchTimers). */
    SearchTimers timers;
};

/**
 * Branch-and-bound search over @p space (keep-all residency; identity
 * or enumerated permutations — the same candidate set as
 * exhaustiveSearch). Requires an index space small enough for exact
 * 64-bit range arithmetic (rejects saturated sizes with an Error).
 */
OptimalResult optimalSearch(const Mapspace &space,
                            const Evaluator &evaluator,
                            const OptimalOptions &options = {});

} // namespace ruby

#endif // RUBY_SEARCH_OPTIMAL_SEARCH_HPP
