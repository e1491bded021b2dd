#include "ruby/search/random_search.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "ruby/common/cancel.hpp"
#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/model/delta_eval.hpp"
#include "ruby/search/genome.hpp"

namespace ruby
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point start, Clock::time_point end)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                             start)
            .count());
}

std::uint64_t
nsSince(Clock::time_point start)
{
    return nsBetween(start, Clock::now());
}

/** Upper bound keeping thread/restart typos from exhausting the OS. */
constexpr unsigned kMaxParallelism = 4096;

/**
 * Evaluations between wall-clock checks: coarse enough that the hot
 * loop never waits on the clock, fine enough that a 100 ms budget is
 * honoured within a few milliseconds of slack.
 */
constexpr std::uint64_t kDeadlineStride = 64;

/**
 * Validate and normalize user-settable options: threads == 0 means
 * "one per hardware thread", restarts must be a positive count, and
 * both are capped to sane bounds.
 */
SearchOptions
resolveOptions(const SearchOptions &options)
{
    SearchOptions opts = options;
    if (opts.threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        opts.threads = hw != 0 ? hw : 1;
    }
    RUBY_CHECK(opts.threads <= kMaxParallelism,
               "search options: threads (", opts.threads,
               ") exceeds the cap of ", kMaxParallelism);
    RUBY_CHECK(opts.restarts >= 1,
               "search options: restarts must be >= 1");
    RUBY_CHECK(opts.restarts <= kMaxParallelism,
               "search options: restarts (", opts.restarts,
               ") exceeds the cap of ", kMaxParallelism);
    return opts;
}

/** How one drawn index was decided. */
enum class Fate : char
{
    Rejected, ///< the sampler stopped the draw on a capacity overflow
    Invalid,  ///< completed, but failed the validity stage
    Pruned,   ///< valid; its lower bound cannot beat the threshold
    Modeled,  ///< valid and fully modeled
};

struct Verdict
{
    Fate fate = Fate::Rejected;
    double metric = kInf; ///< objective when modeled
};

/** A modeled draw that beat its pruning threshold: only these can
 *  become the incumbent at commit, so only these keep a Mapping. */
struct Candidate
{
    std::size_t lane;
    Mapping mapping;
    EvalResult result;
};

/** One claimed block of consecutive draw indices, decided and
 *  waiting for its commit. */
struct Block
{
    std::uint64_t number = 0; ///< draws [number * K, number * K + size)
    std::size_t size = 0;
    bool ranBatch = false; ///< one BatchEvaluator::run() was made
    std::array<Verdict, kDefaultEvalBatch> verdicts;
    std::vector<Candidate> candidates; ///< ascending lane
};

/**
 * One restart's state, shared by its workers. Workers claim draw
 * indices a block at a time with one fetch_add, draw and decide the
 * block on their own, and commit blocks strictly in index order under
 * `mutex`: whoever holds the next block commits it and any parked
 * successors. Every committed fact is therefore a function of the
 * index sequence alone, whatever the thread count.
 */
struct Search
{
    const Mapspace &space;
    const Evaluator &evaluator;
    const SearchOptions &opts;
    const Deadline &deadline;
    const bool batched; ///< scored through the batch engine

    std::atomic<std::uint64_t> nextBlock{0};
    std::atomic<bool> stop{false};
    /** Best committed objective; only ever decreases. */
    std::atomic<double> committedBest{kInf};

    std::mutex mutex{}; ///< guards everything below
    std::uint64_t nextCommit = 0;
    /** First block that never commits (the deadline cut). */
    std::uint64_t endBlock = std::numeric_limits<std::uint64_t>::max();
    bool finished = false; ///< the streak or the cap ended the search
    std::map<std::uint64_t, Block> parked{}; ///< decided, by number
    double best = kInf;
    std::uint64_t streak = 0;
    SearchResult out{};
};

/**
 * Apply one block's verdicts in index order: the counters, the
 * strict-< incumbent (so the lowest index wins ties), the trajectory,
 * the streak stop and the maxEvaluations cap. Draws past the stop are
 * discarded uncounted, which keeps invalid + prunedBound + modeled ==
 * evaluated exact.
 */
void
commitBlock(Search &s, Block &block)
{
    ++s.nextCommit;
    if (s.finished || block.number >= s.endBlock)
        return;
    const SearchOptions &opts = s.opts;
    EvalStats &stats = s.out.stats;
    auto candidate = block.candidates.begin();
    for (std::size_t j = 0; j < block.size; ++j) {
        const Verdict &v = block.verdicts[j];
        ++s.out.evaluated;
        stats.invalid += v.fate == Fate::Rejected || v.fate == Fate::Invalid;
        stats.prunedBound += v.fate == Fate::Pruned;
        stats.modeled += v.fate == Fate::Modeled;
        if (s.batched && v.fate != Fate::Rejected) {
            ++stats.batchedEvals;
            stats.batchRejects += v.fate == Fate::Invalid;
        }
        if (v.fate == Fate::Pruned || v.fate == Fate::Modeled) {
            ++s.out.valid;
            if (v.fate == Fate::Modeled && v.metric < s.best) {
                // A strict improvement beat the worker's threshold
                // too (that threshold was never below this prefix's
                // best), so the worker kept its mapping.
                while (candidate != block.candidates.end() &&
                       candidate->lane < j)
                    ++candidate;
                RUBY_ASSERT(candidate != block.candidates.end() &&
                            candidate->lane == j);
                s.best = v.metric;
                s.out.best = std::move(candidate->mapping);
                s.out.bestResult = std::move(candidate->result);
                s.streak = 0;
            } else {
                ++s.streak;
            }
        }
        if (opts.recordTrajectory)
            s.out.trajectory.push_back(s.best);
        if (opts.terminationStreak != 0 &&
            s.streak >= opts.terminationStreak) {
            s.finished = true;
            break;
        }
    }
    if (block.ranBatch)
        ++stats.batchCalls;
    if (opts.maxEvaluations != 0 &&
        s.out.evaluated >= opts.maxEvaluations)
        s.finished = true;
    if (s.finished)
        s.stop.store(true, std::memory_order_relaxed);
    s.committedBest.store(s.best, std::memory_order_relaxed);
}

/**
 * Decide draw @p j of a block, cheapest check first (validity ->
 * objective lower bound -> full model), from the batch engine's lane
 * @p lane or through the scalar evaluator, identically. A draw whose
 * bound cannot beat @p threshold is pruned; a modeled draw that beats
 * it tightens the threshold and becomes a candidate.
 */
void
decideLane(const Search &s, const BatchEvaluator *batch,
           std::size_t lane, const Decisions &drawn, std::size_t j,
           double &threshold, EvalScratch &scratch, Block &block)
{
    const SearchOptions &opts = s.opts;
    Verdict &v = block.verdicts[j];
    std::optional<Mapping> mapping;
    if (batch != nullptr) {
        if (!batch->valid(lane)) {
            v.fate = Fate::Invalid;
            return;
        }
        if (opts.boundPruning && batch->bound(lane) >= threshold) {
            v.fate = Fate::Pruned;
            return;
        }
        mapping.emplace(s.space.materialize(drawn));
        batch->prepareScratch(lane, scratch);
    } else {
        mapping.emplace(s.space.materialize(drawn));
        if (!s.evaluator.checkValidity(*mapping, scratch, false)) {
            v.fate = Fate::Invalid;
            return;
        }
        if (opts.boundPruning &&
            s.evaluator.objectiveLowerBound(*mapping, opts.objective) >=
                threshold) {
            v.fate = Fate::Pruned;
            return;
        }
    }
    s.evaluator.modelValidated(*mapping, scratch);
    v.fate = Fate::Modeled;
    v.metric = scratch.result.objective(opts.objective);
    if (v.metric < threshold) {
        threshold = v.metric;
        block.candidates.push_back(
            Candidate{j, std::move(*mapping), scratch.result});
    }
}

/**
 * One worker: claim a block, draw it (draw i reads its own keyed
 * stream; a draw the sampler rejects takes no batch lane), run the
 * batch stages over the completed draws, decide them in order, and
 * commit. Drawing is charged to timers.breedNs, deciding to evalNs,
 * committing to reduceNs.
 *
 * The pruning threshold folds the committed prefix's best (possibly
 * stale, so never below the best before the block) with the block's
 * own running best, so it is never below the best of all draws before
 * the one it judges: a pruned draw is never a strict improvement.
 */
void
runWorker(Search &s, const CancelToken &cancel)
{
    const SearchOptions &opts = s.opts;
    FaultInjector &faults = FaultInjector::global();
    EvalScratch scratch;
    std::optional<BatchEvaluator> batch;
    if (s.batched)
        batch.emplace(s.evaluator);
    EvalStats unused; // the commit counts batch calls, not run()
    std::vector<Decisions> drawn(kDefaultEvalBatch);
    std::array<std::size_t, kDefaultEvalBatch> laneOf{};
    SearchTimers timers;
    Block block;

    while (!s.stop.load(std::memory_order_relaxed) &&
           !cancel.cancelled()) {
        const std::uint64_t number =
            s.nextBlock.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t first = number * kDefaultEvalBatch;
        if (opts.maxEvaluations != 0 && first >= opts.maxEvaluations)
            break;
        if (s.deadline.expired() ||
            (opts.cancel != nullptr && opts.cancel->cancelled())) {
            std::lock_guard lock(s.mutex);
            s.endBlock = std::min(s.endBlock, number);
            s.stop.store(true, std::memory_order_relaxed);
            break;
        }
        const std::size_t size =
            opts.maxEvaluations == 0
                ? kDefaultEvalBatch
                : static_cast<std::size_t>(std::min<std::uint64_t>(
                      kDefaultEvalBatch, opts.maxEvaluations - first));
        block.number = number;
        block.size = size;
        block.candidates.clear();

        const auto draw0 = Clock::now();
        std::size_t lanes = 0;
        if (batch)
            batch->begin(size);
        for (std::size_t j = 0; j < size; ++j) {
            Rng rng = Rng::keyed(opts.seed, first + j);
            const bool completed = s.space.sampleInto(rng, drawn[j]);
            // A completed draw's verdict is set by decideLane() below.
            block.verdicts[j] =
                Verdict{completed ? Fate::Invalid : Fate::Rejected, kInf};
            if (completed && batch) {
                laneOf[j] = lanes++;
                batch->add(drawn[j]);
            }
        }
        const auto eval0 = Clock::now();
        timers.breedNs += nsBetween(draw0, eval0);
        block.ranBatch = lanes > 0;
        if (block.ranBatch)
            batch->run(opts.objective, unused, opts.boundPruning);
        double threshold = kInf;
        for (std::size_t j = 0; j < size; ++j) {
            if (faults.enabled())
                faults.maybeThrow("random_search.evaluate");
            if (block.verdicts[j].fate == Fate::Rejected)
                continue;
            threshold = std::min(
                threshold,
                s.committedBest.load(std::memory_order_relaxed));
            decideLane(s, batch ? &*batch : nullptr, laneOf[j],
                       drawn[j], j, threshold, scratch, block);
        }
        const auto commit0 = Clock::now();
        timers.evalNs += nsBetween(eval0, commit0);

        std::lock_guard lock(s.mutex);
        if (number != s.nextCommit) {
            s.parked.emplace(number, std::move(block));
        } else {
            commitBlock(s, block);
            for (auto it = s.parked.find(s.nextCommit);
                 it != s.parked.end(); it = s.parked.find(s.nextCommit)) {
                commitBlock(s, it->second);
                s.parked.erase(it);
            }
        }
        timers.reduceNs += nsSince(commit0);
    }
    std::lock_guard lock(s.mutex);
    s.out.timers += timers;
}

/**
 * One restart: the single sampling loop, at any thread count. The
 * calling thread is one worker and an exception-safe pool runs the
 * rest: a pool worker that throws (e.g. an injected fault) trips the
 * pool's cancel token, the others observe it and drain, and
 * waitIdle() rethrows once the pool is quiescent; when the calling
 * thread throws, the stop flag drains the pool before it is joined.
 */
SearchResult
runOne(const Mapspace &space, const Evaluator &evaluator,
       const SearchOptions &options, const Deadline &deadline)
{
    // Rare configurations whose keep/axis tables overflow the batch
    // engine's mask lanes are scored by the scalar step.
    Search s{space, evaluator, options, deadline,
             options.batchEval &&
                 BatchEvaluator::supports(evaluator.problem(),
                                          evaluator.arch())};
    const CancelToken never;
    std::optional<ThreadPool> pool;
    if (options.threads > 1) {
        pool.emplace(options.threads - 1);
        for (unsigned i = 1; i < options.threads; ++i)
            pool->submit([&] { runWorker(s, pool->cancelToken()); });
    }
    try {
        runWorker(s, pool ? pool->cancelToken() : never);
    } catch (...) {
        s.stop.store(true, std::memory_order_relaxed);
        throw;
    }
    if (pool)
        pool->waitIdle();
    s.out.deadlineExceeded =
        s.endBlock != std::numeric_limits<std::uint64_t>::max() &&
        !s.finished;
    return std::move(s.out);
}

/**
 * Greedy post-sampling refinement (SearchOptions::refineSteps): walk
 * mutated neighbours of the best sampled mapping, keeping each strict
 * improvement. The stream is derived from the resolved seed — never
 * the sampler's — so enabling refinement leaves the sampling prefix
 * untouched. Each step is one evaluation counted in the normal stats
 * (full model: the neighbour's actual metric is the acceptance test,
 * so the bound prune does not apply); the
 * termination streak does not — refineSteps is its own budget.
 */
void
refineBest(const Mapspace &space, const Evaluator &evaluator,
           const SearchOptions &opts, const Deadline &deadline,
           SearchResult &best)
{
    if (opts.refineSteps == 0 || !best.best)
        return;
    FaultInjector &faults = FaultInjector::global();
    const auto t0 = Clock::now();
    Rng rng(opts.seed ^ 0x9e3779b97f4a7c15ull);
    MappingGenome genome = extractGenome(*best.best);
    double best_metric = best.bestResult.objective(opts.objective);
    EvalScratch scratch;
    std::optional<DeltaEvaluator> engine;
    if (opts.incremental) {
        engine.emplace(evaluator);
        engine->rebase(*best.best, best.stats);
    }
    for (unsigned s = 0; s < opts.refineSteps; ++s) {
        if ((s % kDeadlineStride) == 0 &&
            (deadline.expired() ||
             (opts.cancel != nullptr && opts.cancel->cancelled()))) {
            best.deadlineExceeded = true;
            break;
        }
        MappingGenome neighbour = genome;
        mutate(neighbour, space, rng);
        if (faults.enabled())
            faults.maybeThrow("random_search.evaluate");
        ++best.evaluated;
        if (engine) {
            const MappingComponents comp{&neighbour.steady,
                                         &neighbour.perms,
                                         &neighbour.keep,
                                         &neighbour.axes};
            const EvalResult &res =
                engine->evaluateCandidate(comp, best.stats);
            if (!res.valid) {
                ++best.stats.invalid;
                continue;
            }
            ++best.stats.modeled;
            ++best.valid;
            const double metric = res.objective(opts.objective);
            if (metric < best_metric) {
                best_metric = metric;
                best.best = neighbour.materialize(space.problem(),
                                                  space.arch());
                // Copy before the promote: the reference points into
                // the engine's candidate buffer, which promoteLast()
                // swaps away.
                best.bestResult = res;
                engine->promoteLast();
                genome = std::move(neighbour);
            }
            continue;
        }
        const Mapping mapping =
            neighbour.materialize(space.problem(), space.arch());
        evaluator.evaluate(mapping, scratch);
        if (!scratch.result.valid) {
            ++best.stats.invalid;
            continue;
        }
        ++best.stats.modeled;
        ++best.valid;
        const double metric = scratch.result.objective(opts.objective);
        if (metric < best_metric) {
            best_metric = metric;
            best.best = mapping;
            best.bestResult = scratch.result;
            genome = std::move(neighbour);
        }
    }
    best.timers.evalNs += nsSince(t0);
}

} // namespace

SearchResult
randomSearch(const Mapspace &space, const Evaluator &evaluator,
             const SearchOptions &options)
{
    const auto total0 = Clock::now();
    const SearchOptions resolved = resolveOptions(options);
    // One deadline covers every restart: timeBudget bounds the whole
    // call, not each restart individually.
    const Deadline deadline = Deadline::after(resolved.timeBudget);

    SearchResult best;
    if (resolved.restarts <= 1 || resolved.recordTrajectory) {
        best = runOne(space, evaluator, resolved, deadline);
    } else {
        for (unsigned r = 0; r < resolved.restarts; ++r) {
            SearchOptions opts = resolved;
            opts.seed = resolved.seed + 1000003ull * r;
            SearchResult res = runOne(space, evaluator, opts, deadline);
            const bool better =
                res.best &&
                (!best.best ||
                 res.bestResult.objective(resolved.objective) <
                     best.bestResult.objective(resolved.objective));
            if (better) {
                best.best = std::move(res.best);
                best.bestResult = std::move(res.bestResult);
            }
            best.evaluated += res.evaluated;
            best.valid += res.valid;
            best.stats += res.stats;
            best.timers += res.timers;
            if (res.deadlineExceeded) {
                best.deadlineExceeded = true;
                break;
            }
        }
    }
    refineBest(space, evaluator, resolved, deadline, best);
    best.timers.totalNs = nsSince(total0);
    return best;
}

} // namespace ruby
