/**
 * @file
 * Timeloop-style random-sampling mapspace search (the only search the
 * paper uses, to isolate mapspace quality from search heuristics).
 *
 * Draw i of a restart reads its own keyed stream, Rng::keyed(seed, i),
 * and draws are committed strictly in index order, so the best
 * mapping, the counters and the trajectory do not depend on the
 * thread count; only the bound-pruned/modeled split may shift.
 */

#ifndef RUBY_SEARCH_RANDOM_SEARCH_HPP
#define RUBY_SEARCH_RANDOM_SEARCH_HPP

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "ruby/common/cancel.hpp"
#include "ruby/mapspace/mapspace.hpp"
#include "ruby/model/evaluator.hpp"

namespace ruby
{

class LayerMemo; // driver-layer cross-sweep outcome memo (driver.hpp)

/**
 * Which search algorithm the driver dispatches to (random sampling is
 * the paper's choice; the rest are the orthogonal "better search"
 * strategies of Sec. II).
 */
enum class SearchStrategy
{
    Random,
    Exhaustive,
    Genetic,
    Local,
    Optimal,
};

/** Search configuration. */
struct SearchOptions
{
    /** Metric to minimize. */
    Objective objective = Objective::EDP;

    /** Algorithm used by the driver layer (searchLayer/searchNetwork). */
    SearchStrategy strategy = SearchStrategy::Random;

    /**
     * Terminate after this many consecutive *valid* mappings without
     * improvement (the paper uses 3000). 0 disables the rule.
     */
    std::uint64_t terminationStreak = 3000;

    /** Hard cap on evaluated mappings (0 = unlimited). */
    std::uint64_t maxEvaluations = 0;

    /** RNG seed. A random search's answer never depends on threads;
     *  see each strategy for its own contract. */
    std::uint64_t seed = 42;

    /**
     * Worker threads (the paper uses 24). 0 selects
     * std::thread::hardware_concurrency(). Capped at 4096. Inside
     * searchNetwork() this is one factor of the sweep's thread
     * budget (see networkThreads).
     */
    unsigned threads = 1;

    /**
     * Independent restarts (fresh seed each); the best result across
     * restarts is kept. Smooths random-search variance when
     * comparing mapspaces of very different sizes. Local search
     * climbs from this many starts (LocalSearchOptions::starts).
     * Must be >= 1; capped at 4096.
     */
    unsigned restarts = 1;

    /**
     * Wall-clock budget for the whole search (all restarts together);
     * zero = unlimited. Checked on a coarse evaluation stride, so the
     * search may overshoot by a few dozen evaluations. On expiry the
     * search returns the best-so-far with deadlineExceeded set.
     */
    std::chrono::milliseconds timeBudget{0};

    /**
     * Wall-clock budget for a whole searchNetwork() sweep; zero =
     * unlimited. The driver apportions the remaining budget evenly
     * across the layers still to be searched (never exceeding
     * timeBudget when both are set). Ignored by randomSearch itself.
     */
    std::chrono::milliseconds networkTimeBudget{0};

    /**
     * Record the best-objective-so-far after every evaluated mapping
     * (Fig. 7 trajectories). Random search runs one restart when set.
     */
    bool recordTrajectory = false;

    /**
     * Skip the full cost model for valid mappings whose objective
     * lower bound proves they cannot beat the incumbent. Never
     * changes the best mapping found (see Evaluator::evaluateStaged);
     * disable only for stage-counter experiments.
     */
    bool boundPruning = true;

    /**
     * Serve neighbour/child candidates through the incremental
     * (delta) evaluation engine where a strategy supports it (local
     * and genetic search, and random search's restart refinement).
     * The engine recomputes exactly — results are bit-identical with
     * the flag on or off — so disable only to measure its effect.
     * EvalStats.deltaHits / deltaFallbacks report the split.
     */
    bool incremental = true;

    /**
     * Hill-climbing steps applied to the best mapping after random
     * sampling finishes (0 = off, the classic sampler). Each step
     * evaluates one mutated neighbour — counted in the usual
     * evaluation stats — and keeps it on strict improvement.
     * Deterministic per seed; ignored by the other strategies.
     */
    unsigned refineSteps = 0;

    /**
     * Island count for the genetic strategy (ignored by the others).
     * Each island evolves its own population on its own RNG stream;
     * see GeneticOptions::islands.
     */
    unsigned islands = 1;

    /**
     * searchNetwork()'s other budget factor (0 = one per hardware
     * thread). The sweep's thread budget W is networkThreads x
     * threads, capped at 4096. Layers fill it first: min(W, distinct
     * layers) layer searches run at once, each on W / that many
     * threads, so the two factors are interchangeable. Ignored by
     * the single-layer entry points.
     */
    unsigned networkThreads = 1;

    /**
     * Search each distinct layer *shape* once per searchNetwork()
     * sweep and replicate the outcome across duplicates (marked
     * memoized, with zeroed evaluation counters so aggregate stats
     * count real work only). Keyed on the numeric ConvShape fields,
     * never the layer name.
     */
    bool layerMemo = true;

    /**
     * Cross-sweep layer-outcome memo shared by a long-lived host
     * (ruby-served): searchNetwork() consults it before searching a
     * primary layer and publishes deterministic outcomes into it.
     * Only exact context matches hit (shape + variant + preset +
     * options), and only when no wall-clock budget is armed. Not
     * owned; must outlive the search.
     */
    LayerMemo *sharedLayerMemo = nullptr;

    /**
     * External cooperative cancellation (e.g. a serving drain).
     * Polled at the same stride as the wall-clock deadline by every
     * strategy; on cancellation the search winds down and returns its
     * best-so-far with deadlineExceeded set, exactly like a budget
     * expiry. Not owned; must outlive the search.
     */
    const CancelToken *cancel = nullptr;
};

/**
 * Coarse per-stage wall-clock buckets of one search, in nanoseconds.
 * Buckets from parallel sections accumulate per-worker time, so their
 * sum can exceed totalNs; the buckets are for *relative* attribution
 * (where did the time go), not wall-clock accounting. Never printed
 * by the deterministic report — the scaling bench records them.
 */
struct SearchTimers
{
    std::uint64_t totalNs = 0;  ///< whole search call
    std::uint64_t evalNs = 0;   ///< candidate evaluation
    std::uint64_t breedNs = 0;  ///< neighbour/offspring generation
    std::uint64_t reduceNs = 0; ///< reductions, migration, bookkeeping

    SearchTimers &operator+=(const SearchTimers &o)
    {
        totalNs += o.totalNs;
        evalNs += o.evalNs;
        breedNs += o.breedNs;
        reduceNs += o.reduceNs;
        return *this;
    }
};

/** Search outcome. */
struct SearchResult
{
    /** Best valid mapping found, if any. */
    std::optional<Mapping> best;
    /** Its evaluation. */
    EvalResult bestResult;

    std::uint64_t evaluated = 0; ///< mappings drawn
    std::uint64_t valid = 0;     ///< mappings passing validity

    /**
     * Per-stage fast-path counters: how the drawn mappings were
     * decided (invalid / bound-pruned / fully modeled).
     * invalid + prunedBound + modeled == evaluated.
     */
    EvalStats stats;

    /** True when the time budget expired before natural termination. */
    bool deadlineExceeded = false;

    /**
     * True when the strategy proved `best` globally optimal for the
     * objective over the whole mapspace (branch-and-bound ran to
     * completion). Sampling strategies always leave this false.
     */
    bool certified = false;

    /**
     * Optimality gap in percent when a bounded strategy stopped
     * early: 100 * (incumbent - minimum remaining bound) / incumbent,
     * clamped to >= 0; 100 when no incumbent was found. Negative
     * (-1) when the strategy does not track a gap. A certified
     * result always reports 0.
     */
    double gapPercent = -1.0;

    /** Coarse wall-clock breakdown (see SearchTimers). */
    SearchTimers timers;

    /**
     * bestObjective[i] = best metric seen after i+1 evaluations
     * (infinity until the first valid mapping); only filled when
     * recordTrajectory is set.
     */
    std::vector<double> trajectory;
};

/**
 * Randomly sample @p space, evaluate with @p evaluator, and keep the
 * best valid mapping under the configured objective.
 *
 * Throws ruby::Error on out-of-range options (restarts == 0 or either
 * of threads/restarts above 4096). A fault injected into evaluation
 * (see FaultInjector) cancels the worker pool, drains it cleanly and
 * propagates as InjectedFault; the driver layer turns that into a
 * structured per-layer failure.
 */
SearchResult randomSearch(const Mapspace &space,
                          const Evaluator &evaluator,
                          const SearchOptions &options = {});

} // namespace ruby

#endif // RUBY_SEARCH_RANDOM_SEARCH_HPP
