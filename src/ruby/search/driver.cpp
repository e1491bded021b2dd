#include "ruby/search/driver.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <thread>

#include "ruby/common/budget_ledger.hpp"
#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/mapspace/padding.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/search/genetic_search.hpp"
#include "ruby/search/local_search.hpp"
#include "ruby/search/optimal_search.hpp"

namespace ruby
{

namespace
{

constexpr unsigned kMaxParallelism = 4096;

/** Dispatch to the strategy selected in the options. */
SearchResult
runStrategyImpl(const Mapspace &space, const Evaluator &evaluator,
                const SearchOptions &options)
{
    switch (options.strategy) {
      case SearchStrategy::Random:
        return randomSearch(space, evaluator, options);
      case SearchStrategy::Exhaustive: {
        ExhaustiveOptions ex;
        ex.objective = options.objective;
        ex.boundPruning = options.boundPruning;
        ex.threads = options.threads;
        ex.cancel = options.cancel;
        if (options.maxEvaluations != 0)
            ex.maxEvaluations = options.maxEvaluations;
        ExhaustiveResult res =
            exhaustiveSearch(space, evaluator, ex);
        SearchResult out;
        out.best = std::move(res.best);
        out.bestResult = std::move(res.bestResult);
        out.evaluated = res.evaluated;
        out.valid = res.valid;
        out.stats = res.stats;
        out.timers = res.timers;
        return out;
      }
      case SearchStrategy::Optimal: {
        OptimalOptions op;
        op.objective = options.objective;
        op.boundPruning = options.boundPruning;
        op.threads = options.threads;
        op.cancel = options.cancel;
        op.timeBudget = options.timeBudget;
        if (options.maxEvaluations != 0)
            op.maxEvaluations = options.maxEvaluations;
        OptimalResult res = optimalSearch(space, evaluator, op);
        SearchResult out;
        out.best = std::move(res.best);
        out.bestResult = std::move(res.bestResult);
        out.evaluated = res.evaluated;
        out.valid = res.valid;
        out.stats = res.stats;
        out.deadlineExceeded = res.deadlineExceeded;
        out.certified = res.certified;
        out.gapPercent = res.certified ? 0.0 : res.gapPercent;
        out.timers = res.timers;
        return out;
      }
      case SearchStrategy::Genetic: {
        GeneticOptions g;
        g.objective = options.objective;
        g.seed = options.seed;
        g.islands = options.islands;
        g.threads = options.threads;
        g.incremental = options.incremental;
        g.cancel = options.cancel;
        return geneticSearch(space, evaluator, g);
      }
      case SearchStrategy::Local: {
        LocalSearchOptions l;
        l.objective = options.objective;
        l.seed = options.seed;
        l.incremental = options.incremental;
        l.cancel = options.cancel;
        if (options.maxEvaluations != 0)
            l.maxEvaluations = options.maxEvaluations;
        // The climbing starts are the restarts, so the answer is a
        // function of (seed, restarts) at any thread count.
        l.starts = options.restarts;
        l.threads = options.threads;
        return localSearch(space, evaluator, l);
      }
    }
    RUBY_ASSERT(false, "unknown search strategy");
    return {};
}

/**
 * Run the configured strategy, then normalize external cancellation:
 * every strategy winds down cooperatively when options.cancel fires,
 * and the driver uniformly reports that as a deadline so callers (and
 * the serving drain) see one consistent "stopped early, best-so-far
 * returned" shape regardless of strategy.
 */
SearchResult
runStrategy(const Mapspace &space, const Evaluator &evaluator,
            const SearchOptions &options)
{
    SearchResult res = runStrategyImpl(space, evaluator, options);
    if (options.cancel != nullptr && options.cancel->cancelled())
        res.deadlineExceeded = true;
    return res;
}

/** Numeric shape fingerprint for the layer memo (never the name). */
using ShapeKey = std::array<std::uint64_t, 11>;

ShapeKey
shapeKeyOf(const ConvShape &sh)
{
    return ShapeKey{sh.n,       sh.c,       sh.m,         sh.p,
                    sh.q,       sh.r,       sh.s,         sh.strideH,
                    sh.strideW, sh.dilationH, sh.dilationW};
}

/** The outcome recorded for a layer never searched: budget gone. */
LayerOutcome
makeBudgetSkipped(const Layer &layer)
{
    LayerOutcome skipped;
    skipped.name = layer.shape.name;
    skipped.group = layer.group;
    skipped.count = layer.count;
    skipped.failure = FailureKind::DeadlineExceeded;
    skipped.timedOut = true;
    skipped.diagnostic =
        "network time budget exhausted before this layer";
    return skipped;
}

/** Likewise for a layer reached after an external cancellation. */
LayerOutcome
makeCancelSkipped(const Layer &layer)
{
    LayerOutcome skipped;
    skipped.name = layer.shape.name;
    skipped.group = layer.group;
    skipped.count = layer.count;
    skipped.failure = FailureKind::DeadlineExceeded;
    skipped.timedOut = true;
    skipped.diagnostic = "cancelled before this layer's search";
    return skipped;
}

/**
 * Whether a sweep's outcomes may be served from / published into a
 * cross-sweep LayerMemo. Only configurations that reproduce the same
 * outcome on every run qualify: no wall-clock budgets (shares are
 * scheduling-dependent) and no fault injection. Every strategy is
 * deterministic for any fixed option set, which the key encodes.
 */
bool
layerMemoEligible(const SearchOptions &options)
{
    if (options.sharedLayerMemo == nullptr || !options.layerMemo)
        return false;
    if (options.timeBudget.count() != 0 ||
        options.networkTimeBudget.count() != 0)
        return false;
    if (FaultInjector::global().enabled())
        return false;
    return true;
}

/**
 * Exact-identity architecture signature for the memo key. A shared
 * LayerMemo outlives one sweep (the ruby-served daemon feeds it
 * requests against different architectures), so the key must cover
 * every arch parameter the model reads; doubles are rendered in
 * hexfloat so two archs differing below the default stream precision
 * cannot collide.
 */
std::string
archMemoSignature(const ArchSpec &arch)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << arch.name() << ';' << arch.wordBits() << ';'
       << arch.macEnergy();
    for (int l = 0; l < arch.numLevels(); ++l) {
        const StorageLevelSpec &lvl = arch.level(l);
        os << ';' << lvl.name << ',' << lvl.capacityWords << ',';
        for (const std::uint64_t words : lvl.perTensorCapacity)
            os << words << '+';
        os << ',' << lvl.bandwidthWordsPerCycle << ','
           << lvl.fanoutX << ',' << lvl.fanoutY << ','
           << lvl.readEnergy << ',' << lvl.writeEnergy;
    }
    return os.str();
}

/**
 * Exact-context memo key: the numeric shape (never the name), the
 * architecture, the mapspace context, and every option that can
 * change a deterministic search's outcome. Anything excluded here
 * must be outcome-neutral by construction (e.g. networkThreads).
 */
std::string
layerMemoKey(const ConvShape &sh, const ArchSpec &arch,
             ConstraintPreset preset, MapspaceVariant variant,
             bool pad, const SearchOptions &o)
{
    return detail::composeMessage(
        archMemoSignature(arch), '|',
        sh.n, ',', sh.c, ',', sh.m, ',', sh.p, ',', sh.q, ',', sh.r,
        ',', sh.s, ',', sh.strideH, ',', sh.strideW, ',',
        sh.dilationH, ',', sh.dilationW, '|',
        static_cast<int>(preset), ',', static_cast<int>(variant), ',',
        pad ? 1 : 0, '|', static_cast<int>(o.objective), ',',
        static_cast<int>(o.strategy), ',', o.terminationStreak, ',',
        o.maxEvaluations, ',', o.seed, ',', o.threads, ',',
        o.restarts, ',', o.boundPruning ? 1 : 0, ',', o.islands, ',',
        o.recordTrajectory ? 1 : 0, ',', o.incremental ? 1 : 0, ',',
        o.refineSteps);
}

} // namespace

bool
LayerMemo::lookup(const std::string &key, LayerOutcome &out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        return false;
    }
    ++hits_;
    out = it->second;
    return true;
}

void
LayerMemo::insert(const std::string &key, const LayerOutcome &outcome)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.emplace(key, outcome).second)
        ++inserts_;
}

LayerMemo::Stats
LayerMemo::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return Stats{hits_, misses_, inserts_,
                 static_cast<std::uint64_t>(entries_.size())};
}

MappingConstraints
makeConstraints(ConstraintPreset preset, const Problem &problem,
                const ArchSpec &arch)
{
    switch (preset) {
      case ConstraintPreset::None:
        return MappingConstraints(problem, arch);
      case ConstraintPreset::EyerissRS:
        return MappingConstraints::eyerissRowStationary(problem, arch);
      case ConstraintPreset::Simba:
        return MappingConstraints::simba(problem, arch);
      case ConstraintPreset::ToyCM:
        return MappingConstraints::toySpatialCM(problem, arch);
    }
    RUBY_ASSERT(false, "unknown constraint preset");
    return MappingConstraints(problem, arch);
}

const char *
failureKindName(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None:
        return "none";
      case FailureKind::InvalidConfig:
        return "invalid-config";
      case FailureKind::NoValidMapping:
        return "no-valid-mapping";
      case FailureKind::DeadlineExceeded:
        return "deadline-exceeded";
      case FailureKind::InternalError:
        return "internal-error";
    }
    RUBY_ASSERT(false, "unknown failure kind");
    return "?";
}

LayerOutcome
searchLayer(const Problem &problem, const ArchSpec &arch,
            ConstraintPreset preset, MapspaceVariant variant,
            const SearchOptions &options, bool pad)
{
    LayerOutcome outcome;
    outcome.name = problem.name();

    try {
        // Padding baseline: round dims up, then search the (usually
        // PFM) space over the padded problem. Costs include the
        // padded work.
        const MappingConstraints pad_probe =
            makeConstraints(preset, problem, arch);
        const Problem searched =
            pad ? padForArray(problem, pad_probe) : problem;

        const MappingConstraints constraints =
            makeConstraints(preset, searched, arch);
        const Mapspace space(constraints, variant);
        const Evaluator evaluator(searched, arch);

        SearchResult res;
        try {
            res = runStrategy(space, evaluator, options);
        } catch (const InjectedFault &e) {
            outcome.failure = FailureKind::InternalError;
            outcome.diagnostic = e.what();
            return outcome;
        } catch (const Error &e) {
            // An Error escaping the search itself (not setup) means
            // rejected options or a user-visible condition raised
            // mid-search; either way the input needs fixing.
            outcome.failure = FailureKind::InvalidConfig;
            outcome.diagnostic = e.what();
            return outcome;
        } catch (const std::exception &e) {
            outcome.failure = FailureKind::InternalError;
            outcome.diagnostic = e.what();
            return outcome;
        }

        outcome.evaluated = res.evaluated;
        outcome.stats = res.stats;
        // Partition identity, checked in every build: each drawn
        // mapping is decided exactly once (invalid, bound-pruned or
        // fully modeled). A mismatch means a counter bug; surface it
        // rather than silently reporting bad stats.
        if (res.stats.decided() != res.evaluated)
            outcome.statsNote = detail::composeMessage(
                "eval-stats mismatch: invalid+pruned+modeled = ",
                res.stats.decided(),
                " != evaluated = ", res.evaluated);
        // Same idea for the incremental engine's own partition: every
        // delta attempt is served either incrementally or by the
        // in-engine fallback (rebases are deliberately outside — they
        // repeat already-counted evaluations).
        else if (res.stats.deltaHits + res.stats.deltaFallbacks !=
                 res.stats.deltaAttempts)
            outcome.statsNote = detail::composeMessage(
                "delta-stats mismatch: hits + fallbacks = ",
                res.stats.deltaHits + res.stats.deltaFallbacks,
                " != attempts = ", res.stats.deltaAttempts);
        outcome.timedOut = res.deadlineExceeded;
        outcome.certified = res.certified;
        outcome.gapPercent = res.gapPercent;
        outcome.found = res.best.has_value();
        if (outcome.found) {
            outcome.result = res.bestResult;
            outcome.bestMapping = res.best->toString();
        } else if (res.deadlineExceeded) {
            outcome.failure = FailureKind::DeadlineExceeded;
            outcome.diagnostic = detail::composeMessage(
                "time budget expired after ", res.evaluated,
                " evaluations with no valid mapping");
        } else {
            outcome.failure = FailureKind::NoValidMapping;
            outcome.diagnostic = detail::composeMessage(
                "no valid mapping among ", res.evaluated,
                " evaluated");
        }
    } catch (const Error &e) {
        outcome.failure = FailureKind::InvalidConfig;
        outcome.diagnostic = e.what();
    } catch (const std::exception &e) {
        outcome.failure = FailureKind::InternalError;
        outcome.diagnostic = e.what();
    }
    return outcome;
}

NetworkOutcome
searchNetwork(const std::vector<Layer> &layers, const ArchSpec &arch,
              ConstraintPreset preset, MapspaceVariant variant,
              const SearchOptions &options, bool pad)
{
    NetworkOutcome net;
    net.layers.resize(layers.size());
    if (layers.empty())
        return net;

    unsigned net_threads = options.networkThreads;
    if (net_threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        net_threads = hw != 0 ? hw : 1;
    }
    if (net_threads > kMaxParallelism)
        net_threads = kMaxParallelism;

    // Memo plan: the first layer with a given numeric shape is the
    // primary and is searched; later identical shapes replicate its
    // outcome. The plan is computed up front so the budget ledger
    // apportions time over real searches only.
    std::vector<std::ptrdiff_t> primary_of(layers.size(), -1);
    std::vector<std::size_t> primaries;
    if (options.layerMemo) {
        std::map<ShapeKey, std::size_t> first_seen;
        for (std::size_t i = 0; i < layers.size(); ++i) {
            const auto [it, inserted] = first_seen.emplace(
                shapeKeyOf(layers[i].shape), i);
            if (inserted)
                primaries.push_back(i);
            else
                primary_of[i] =
                    static_cast<std::ptrdiff_t>(it->second);
        }
    } else {
        for (std::size_t i = 0; i < layers.size(); ++i)
            primaries.push_back(i);
    }

    BudgetLedger ledger(options.networkTimeBudget, primaries.size(),
                        net_threads);
    // Tracks which primaries actually ran a search (vs. were skipped
    // on an exhausted budget): duplicates of a skipped primary are
    // skipped in their own right, not "memoized" from nothing.
    std::vector<char> searched(layers.size(), 0);

    const bool memo_eligible = layerMemoEligible(options);

    auto runLayer = [&](std::size_t i) {
        const Layer &layer = layers[i];
        // A drain cancellation observed before the search starts
        // skips the layer outright (inflight layers wind down via
        // the strategy-level polling instead).
        if (options.cancel != nullptr && options.cancel->cancelled()) {
            net.layers[i] = makeCancelSkipped(layer);
            return;
        }
        SearchOptions layer_opts = options;
        const auto share = ledger.grant();
        if (ledger.armed()) {
            if (share.count() <= 0) {
                net.layers[i] = makeBudgetSkipped(layer);
                return;
            }
            // A tighter per-layer budget keeps precedence.
            if (layer_opts.timeBudget.count() == 0 ||
                share < layer_opts.timeBudget)
                layer_opts.timeBudget = share;
        }

        // Cross-sweep memo: an identical (shape, context, options)
        // search finished earlier in this process — replay it as a
        // memoized outcome, exactly like an in-sweep duplicate.
        std::string memo_key;
        if (memo_eligible) {
            memo_key =
                layerMemoKey(layer.shape, arch, preset, variant,
                             pad, options);
            LayerOutcome hit;
            if (options.sharedLayerMemo->lookup(memo_key, hit)) {
                hit.name = layer.shape.name;
                hit.group = layer.group;
                hit.count = layer.count;
                hit.evaluated = 0;
                hit.stats = EvalStats{};
                hit.statsNote.clear();
                hit.memoized = true;
                net.layers[i] = std::move(hit);
                searched[i] = 1;
                return;
            }
        }

        LayerOutcome outcome;
        try {
            const Problem problem = makeConv(layer.shape);
            outcome = searchLayer(problem, arch, preset, variant,
                                  layer_opts, pad);
        } catch (const Error &e) {
            outcome.failure = FailureKind::InvalidConfig;
            outcome.diagnostic = e.what();
        }
        if (outcome.name.empty())
            outcome.name = layer.shape.name;
        outcome.count = layer.count;
        outcome.group = layer.group;
        // Publish reproducible, fully-finished outcomes only:
        // deadline-hit or internal-error results must never be
        // replayed as if they were the search's true answer.
        if (memo_eligible && !outcome.timedOut &&
            outcome.statsNote.empty() &&
            (outcome.failure == FailureKind::None ||
             outcome.failure == FailureKind::NoValidMapping))
            options.sharedLayerMemo->insert(memo_key, outcome);
        searched[i] = 1;
        net.layers[i] = std::move(outcome);
    };

    // Each job writes only its own outcome slot; the ledger and the
    // fault injector are the only shared mutable state, and both are
    // internally synchronized. searchLayer converts every recoverable
    // failure into a structured outcome, so jobs do not throw.
    const auto workers = static_cast<unsigned>(
        std::min<std::size_t>(net_threads, primaries.size()));
    if (workers <= 1) {
        for (const std::size_t i : primaries)
            runLayer(i);
    } else {
        ThreadPool pool(workers);
        std::atomic<std::size_t> next{0};
        const CancelToken &cancel = pool.cancelToken();
        for (unsigned w = 0; w < workers; ++w)
            pool.submit([&]() {
                for (;;) {
                    const std::size_t idx = next.fetch_add(
                        1, std::memory_order_relaxed);
                    if (idx >= primaries.size() ||
                        cancel.cancelled())
                        return;
                    runLayer(primaries[idx]);
                }
            });
        pool.waitIdle();
    }

    // Replicate primaries onto their duplicates. Counters are zeroed
    // on the copies so summed stats count each distinct shape exactly
    // once; count-weighted totals below still use every layer.
    for (std::size_t i = 0; i < layers.size(); ++i) {
        if (primary_of[i] < 0)
            continue;
        const auto p = static_cast<std::size_t>(primary_of[i]);
        // An unsearched primary (budget or cancellation skip) has a
        // skip outcome in its slot already; duplicates share it
        // verbatim rather than being labelled memoized.
        LayerOutcome copy = net.layers[p];
        copy.name = layers[i].shape.name;
        copy.group = layers[i].group;
        copy.count = layers[i].count;
        copy.evaluated = 0;
        copy.stats = EvalStats{};
        copy.statsNote.clear();
        copy.memoized = searched[p] != 0;
        net.layers[i] = std::move(copy);
    }

    for (const LayerOutcome &outcome : net.layers) {
        net.stats += outcome.stats;
        if (outcome.memoized)
            ++net.memoizedLayers;
        if (outcome.found) {
            const double n = static_cast<double>(outcome.count);
            net.totalEnergy += n * outcome.result.energy;
            net.totalCycles += n * outcome.result.cycles;
        } else {
            net.allFound = false;
            ++net.failedLayers;
        }
    }
    net.edp = net.totalEnergy * net.totalCycles;
    return net;
}

} // namespace ruby
