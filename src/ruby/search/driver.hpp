/**
 * @file
 * High-level search driver: run one mapspace search per layer and
 * aggregate whole-network results (the per-layer bars and "total"
 * columns of the paper's Figs. 10-12).
 */

#ifndef RUBY_SEARCH_DRIVER_HPP
#define RUBY_SEARCH_DRIVER_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ruby/mapspace/mapspace.hpp"
#include "ruby/search/random_search.hpp"
#include "ruby/workload/conv.hpp"

namespace ruby
{

/** Constraint presets mirroring the paper's setups. */
enum class ConstraintPreset
{
    None,      ///< unconstrained
    EyerissRS, ///< row-stationary Eyeriss (Sec. IV-A)
    Simba,     ///< channel-parallel Simba (Sec. IV-C)
    ToyCM,     ///< C/M-only PE parallelism (Figs. 7c/7d)
};

/** Build the constraints object for a preset. */
MappingConstraints makeConstraints(ConstraintPreset preset,
                                   const Problem &problem,
                                   const ArchSpec &arch);

/**
 * Why a layer search produced no mapping. The taxonomy mirrors the
 * Error-vs-ASSERT split in common/error.hpp: user-fixable conditions
 * (InvalidConfig, NoValidMapping), operational limits
 * (DeadlineExceeded) and unexpected worker failures (InternalError,
 * e.g. injected faults). RUBY_ASSERT violations still abort — they
 * are library bugs, not recoverable outcomes.
 */
enum class FailureKind
{
    None,             ///< the search succeeded
    InvalidConfig,    ///< constraints/mapspace setup rejected inputs
    NoValidMapping,   ///< search completed; nothing valid found
    DeadlineExceeded, ///< time budget expired before a valid mapping
    InternalError,    ///< an exception escaped the search itself
};

/** Stable lower-case label for a FailureKind ("invalid-config"...). */
const char *failureKindName(FailureKind kind);

/** Result of searching one layer. */
struct LayerOutcome
{
    std::string name;  ///< layer name
    std::string group; ///< layer-type/category label
    int count = 1;     ///< occurrences in the network
    bool found = false;
    EvalResult result; ///< best mapping's evaluation
    std::uint64_t evaluated = 0;
    /** Fast-path stage counters: how the drawn mappings were decided
     *  (invalid / bound-pruned / fully modeled / cache hits). */
    EvalStats stats;
    std::string bestMapping; ///< rendered best mapping

    /** None iff found; otherwise why the layer has no mapping. */
    FailureKind failure = FailureKind::None;
    /** Human-readable failure detail (empty on success). */
    std::string diagnostic;
    /**
     * True when the time budget expired during this layer's search.
     * Can hold together with found: the best-so-far mapping is then
     * still returned (and failure stays None).
     */
    bool timedOut = false;

    /**
     * True when this outcome was replicated from an earlier layer
     * with an identical shape instead of being searched (layer memo).
     * evaluated and stats are zeroed on such copies so aggregates
     * count real work exactly once.
     */
    bool memoized = false;

    /**
     * True when the strategy proved the returned mapping globally
     * optimal (branch-and-bound ran to completion). Only the
     * `optimal` strategy can set this.
     */
    bool certified = false;

    /**
     * Optimality gap in percent when a bounded strategy stopped
     * early (see SearchResult::gapPercent); negative when the
     * strategy does not track a gap.
     */
    double gapPercent = -1.0;

    /**
     * Non-empty when the per-stage counters violated the partition
     * identity invalid + prunedBound + modeled == evaluated. Checked in every build (not just asserts); reports
     * surface the note as a one-line diagnostic.
     */
    std::string statsNote;
};

/**
 * Cross-sweep memo of finished layer outcomes, owned by a long-lived
 * host (the ruby-served daemon) and handed to searchNetwork() through
 * SearchOptions::sharedLayerMemo. Keys encode the full search context
 * (shape, variant, preset, padding and every result-affecting option),
 * so a hit replays exactly the outcome the same request would have
 * recomputed; only deterministic, un-time-boxed searches are inserted.
 * Thread safe; entries live until the memo is destroyed.
 */
class LayerMemo
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t inserts = 0;
        std::uint64_t entries = 0;
    };

    /**
     * Copy the memoized outcome for @p key into @p out, returning
     * whether it was present. The copy comes back exactly as
     * inserted; the caller restamps name/group/count and the
     * memoized/zeroed-counter convention.
     */
    bool lookup(const std::string &key, LayerOutcome &out) const;

    /** Publish an outcome; the first insert for a key wins. */
    void insert(const std::string &key, const LayerOutcome &outcome);

    Stats stats() const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, LayerOutcome> entries_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
    std::uint64_t inserts_ = 0;
};

/** Whole-network aggregate (count-weighted). */
struct NetworkOutcome
{
    std::vector<LayerOutcome> layers;
    double totalEnergy = 0.0;
    double totalCycles = 0.0;
    /** Network EDP: total energy x total delay. */
    double edp = 0.0;
    bool allFound = true;
    /** Layers with found == false (unique shapes, not counts). */
    int failedLayers = 0;
    /** Layers whose outcome was replicated by the layer memo. */
    int memoizedLayers = 0;
    /** Fast-path stage counters summed across layers (unweighted);
     *  memoized copies contribute nothing (their stats are zeroed). */
    EvalStats stats;
};

/**
 * Search one problem with the strategy selected by options.strategy
 * (random sampling by default; exhaustive, genetic and local search
 * all honour options.objective, seed, threads and — where meaningful —
 * maxEvaluations and boundPruning). When @p pad is true the problem is
 * first padded for the architecture's widest fanout level (the
 * PFM+padding baseline); the searched mapspace is then @p variant on
 * the padded problem.
 *
 * Never throws for recoverable conditions: bad inputs, exhausted
 * budgets and worker exceptions (including injected faults) come back
 * as a structured failure in the outcome.
 */
LayerOutcome searchLayer(const Problem &problem, const ArchSpec &arch,
                         ConstraintPreset preset,
                         MapspaceVariant variant,
                         const SearchOptions &options, bool pad = false);

/**
 * Search every layer of a network and aggregate. A failing layer is
 * recorded and skipped in the totals; the sweep always continues.
 *
 * The sweep's thread budget W is options.networkThreads x
 * options.threads (each 0 = one per hardware thread; W capped at
 * 4096). Layers fill it before any one layer splits: C = min(W,
 * layers to search) layer searches run concurrently, each on W / C
 * threads, so a one-layer sweep still searches on all W. Per-layer
 * answers are the same for any split (each layer's search options do
 * not depend on the execution order, except for time shares under a
 * finite budget, which are inherently wall-clock-dependent, and an
 * optimal search stopped by its evaluation cap, whose answer is
 * thread-invariant only once certified). Random search's per-layer
 * bound-pruned/modeled split may move with the per-layer threads.
 *
 * options.networkTimeBudget bounds the whole sweep through a budget
 * ledger: each layer's share is computed from a fresh monotonic clock
 * read when its search starts, and layers reached after expiry are
 * marked DeadlineExceeded without searching.
 *
 * options.layerMemo searches each distinct layer shape once and
 * replicates the outcome to duplicates (memoized = true, zeroed
 * counters); totals stay count-weighted exactly as if every layer had
 * been searched.
 */
NetworkOutcome searchNetwork(const std::vector<Layer> &layers,
                             const ArchSpec &arch,
                             ConstraintPreset preset,
                             MapspaceVariant variant,
                             const SearchOptions &options,
                             bool pad = false);

} // namespace ruby

#endif // RUBY_SEARCH_DRIVER_HPP
