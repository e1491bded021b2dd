#include "ruby/search/random_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
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

/** What one drawn sample turned out to be. */
struct SampleOutcome
{
    bool valid = false;   ///< passed validity
    bool modeled = false; ///< scratch.result holds full-model output
    double metric = kInf; ///< objective when modeled
};

/**
 * The per-sample fast path, cheapest check first:
 *
 *   validity -> objective lower bound -> full model.
 */
SampleOutcome
evalSample(const Mapping &mapping, const Evaluator &evaluator,
           const SearchOptions &opts, double bestSoFar,
           EvalScratch &scratch, EvalStats &stats)
{
    SampleOutcome out;
    if (!evaluator.checkValidity(mapping, scratch, false)) {
        ++stats.invalid;
        return out;
    }
    out.valid = true;
    // Provably non-improving: the metric stays kInf, which is fine
    // because the caller only compares it for strict improvement.
    if (opts.boundPruning &&
        evaluator.objectiveLowerBound(mapping, opts.objective) >=
            bestSoFar) {
        ++stats.prunedBound;
        return out;
    }
    evaluator.modelValidated(mapping, scratch);
    ++stats.modeled;
    out.modeled = true;
    out.metric = scratch.result.objective(opts.objective);
    return out;
}

/**
 * The batched twin of evalSample(): validity and bound were computed
 * batch-wide by BatchEvaluator::run(); everything from the prune on —
 * the full model and the counter bumps — replays the scalar sequence
 * exactly, against the same live @p bestSoFar, so the two paths are
 * bit-identical per candidate.
 *
 * Lanes are ingested as flat decisions; the Mapping that the full
 * model needs is built into @p mapping only past the prune, so the
 * ~90 % of draws that die in the batch stages never construct one.
 * @p mapping is left empty for those.
 */
SampleOutcome
consumeBatched(const BatchEvaluator &batch, std::size_t j,
               const Decisions &drawn, const Mapspace &space,
               const Evaluator &evaluator, const SearchOptions &opts,
               double bestSoFar, EvalScratch &scratch, EvalStats &stats,
               std::optional<Mapping> &mapping)
{
    SampleOutcome out;
    ++stats.batchedEvals;
    if (!batch.valid(j)) {
        ++stats.invalid;
        ++stats.batchRejects;
        return out;
    }
    out.valid = true;
    if (opts.boundPruning && batch.bound(j) >= bestSoFar) {
        ++stats.prunedBound;
        return out;
    }
    mapping.emplace(space.materialize(drawn));
    batch.prepareScratch(j, scratch);
    evaluator.modelValidated(*mapping, scratch);
    ++stats.modeled;
    out.modeled = true;
    out.metric = scratch.result.objective(opts.objective);
    return out;
}

/** Shared best-so-far state for the multithreaded path. */
struct SharedState
{
    std::mutex mutex;
    std::optional<Mapping> best;
    EvalResult bestResult;
    double bestObjective = kInf;
    EvalStats stats; ///< merged per-shard counters (under mutex)
    SearchTimers timers; ///< merged per-shard stage time (under mutex)
    /** Lock-free snapshot of bestObjective for the pruning stage; a
     *  stale read is only ever too *large*, which prunes less, never
     *  wrongly. */
    std::atomic<double> bestSnapshot{kInf};
    std::atomic<std::uint64_t> evaluated{0};
    std::atomic<std::uint64_t> valid{0};
    std::atomic<std::uint64_t> streak{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> deadlineHit{false};
};

/**
 * Claim one evaluation against the shared cap before deciding a
 * candidate. A shard decides a candidate only with a ticket in hand,
 * so concurrent shards can never overshoot maxEvaluations (@p cap; 0
 * is unlimited), and every ticket is one decided candidate, which
 * keeps decided() == evaluated.
 */
bool
claimEvaluation(std::atomic<std::uint64_t> &evaluated, std::uint64_t cap)
{
    if (cap == 0) {
        evaluated.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    std::uint64_t seen = evaluated.load(std::memory_order_relaxed);
    do {
        if (seen >= cap)
            return false;
    } while (!evaluated.compare_exchange_weak(
        seen, seen + 1, std::memory_order_relaxed));
    return true;
}

void
shardLoop(const Mapspace &space, const Evaluator &evaluator,
          const SearchOptions &opts, Rng rng, SharedState &state,
          const CancelToken &cancel, const Deadline &deadline)
{
    FaultInjector &faults = FaultInjector::global();
    EvalScratch scratch;
    EvalStats stats;
    std::uint64_t local = 0;
    while (!state.stop.load(std::memory_order_relaxed)) {
        if (cancel.cancelled())
            break;
        if ((local++ % kDeadlineStride) == 0 &&
            (deadline.expired() ||
             (opts.cancel != nullptr && opts.cancel->cancelled()))) {
            state.deadlineHit.store(true, std::memory_order_relaxed);
            state.stop.store(true, std::memory_order_relaxed);
            break;
        }
        if (!claimEvaluation(state.evaluated, opts.maxEvaluations)) {
            state.stop.store(true, std::memory_order_relaxed);
            break;
        }
        const Mapping mapping = space.sample(rng);
        if (faults.enabled())
            faults.maybeThrow("random_search.evaluate");
        const double bestSoFar =
            state.bestSnapshot.load(std::memory_order_relaxed);
        const SampleOutcome sample =
            evalSample(mapping, evaluator, opts, bestSoFar, scratch,
                       stats);
        if (!sample.valid)
            continue;
        state.valid.fetch_add(1, std::memory_order_relaxed);

        bool improved = false;
        if (sample.modeled) {
            std::lock_guard lock(state.mutex);
            if (sample.metric < state.bestObjective) {
                state.bestObjective = sample.metric;
                state.bestSnapshot.store(sample.metric,
                                         std::memory_order_relaxed);
                state.best = mapping;
                state.bestResult = scratch.result;
                improved = true;
            }
        }
        if (improved) {
            state.streak.store(0, std::memory_order_relaxed);
        } else if (opts.terminationStreak != 0) {
            const auto streak =
                state.streak.fetch_add(1, std::memory_order_relaxed) +
                1;
            if (streak >= opts.terminationStreak)
                state.stop.store(true, std::memory_order_relaxed);
        }
    }
    std::lock_guard lock(state.mutex);
    state.stats += stats;
}

/**
 * shardLoop() with the K-wide batch front end. Samples are pre-drawn
 * as flat decisions (evaluation never touches the RNG, so the stream
 * is unchanged; draws abandoned at a stop point are simply discarded)
 * and every per-candidate check — stop flag, cancellation, deadline
 * stride, the maxEvaluations ticket — runs at consumption, in the
 * scalar order, so the stop points and counter totals match the
 * scalar shard exactly. Drawing and ingesting a batch is charged to
 * timers.breedNs, running and consuming it to timers.evalNs, with one
 * clock read per stage per batch.
 */
void
shardLoopBatched(const Mapspace &space, const Evaluator &evaluator,
                 const SearchOptions &opts, Rng rng,
                 SharedState &state, const CancelToken &cancel,
                 const Deadline &deadline)
{
    FaultInjector &faults = FaultInjector::global();
    EvalScratch scratch;
    EvalStats stats;
    SearchTimers timers;
    BatchEvaluator batch(evaluator);
    DivisorMemo memo;
    std::vector<Decisions> drawn(kDefaultEvalBatch);
    std::uint64_t local = 0;
    bool done = false;
    while (!done) {
        std::size_t want = kDefaultEvalBatch;
        if (opts.maxEvaluations != 0) {
            const std::uint64_t seen =
                state.evaluated.load(std::memory_order_relaxed);
            if (seen >= opts.maxEvaluations)
                break;
            want = static_cast<std::size_t>(
                std::min<std::uint64_t>(want,
                                        opts.maxEvaluations - seen));
        }
        const auto draw0 = Clock::now();
        batch.begin(want);
        for (std::size_t j = 0; j < want; ++j) {
            space.sampleInto(rng, drawn[j], memo);
            batch.add(drawn[j]);
        }
        const auto eval0 = Clock::now();
        timers.breedNs += nsBetween(draw0, eval0);
        batch.run(opts.objective, stats, opts.boundPruning);
        for (std::size_t j = 0; j < want; ++j) {
            if (state.stop.load(std::memory_order_relaxed) ||
                cancel.cancelled()) {
                done = true;
                break;
            }
            if ((local++ % kDeadlineStride) == 0 &&
                (deadline.expired() ||
                 (opts.cancel != nullptr &&
                  opts.cancel->cancelled()))) {
                state.deadlineHit.store(true,
                                        std::memory_order_relaxed);
                state.stop.store(true, std::memory_order_relaxed);
                done = true;
                break;
            }
            if (!claimEvaluation(state.evaluated,
                                 opts.maxEvaluations)) {
                state.stop.store(true, std::memory_order_relaxed);
                done = true;
                break;
            }
            if (faults.enabled())
                faults.maybeThrow("random_search.evaluate");
            const double bestSoFar =
                state.bestSnapshot.load(std::memory_order_relaxed);
            std::optional<Mapping> mapping;
            const SampleOutcome sample = consumeBatched(
                batch, j, drawn[j], space, evaluator, opts, bestSoFar,
                scratch, stats, mapping);
            if (!sample.valid)
                continue;
            state.valid.fetch_add(1, std::memory_order_relaxed);

            bool improved = false;
            if (sample.modeled) {
                std::lock_guard lock(state.mutex);
                if (sample.metric < state.bestObjective) {
                    state.bestObjective = sample.metric;
                    state.bestSnapshot.store(
                        sample.metric, std::memory_order_relaxed);
                    state.best = std::move(mapping);
                    state.bestResult = scratch.result;
                    improved = true;
                }
            }
            if (improved) {
                state.streak.store(0, std::memory_order_relaxed);
            } else if (opts.terminationStreak != 0) {
                const auto streak =
                    state.streak.fetch_add(
                        1, std::memory_order_relaxed) +
                    1;
                if (streak >= opts.terminationStreak)
                    state.stop.store(true, std::memory_order_relaxed);
            }
        }
        timers.evalNs += nsSince(eval0);
    }
    std::lock_guard lock(state.mutex);
    state.stats += stats;
    state.timers += timers;
}

SearchResult
runOne(const Mapspace &space, const Evaluator &evaluator,
       const SearchOptions &options, const Deadline &deadline)
{
    SearchResult out;

    // Rare configurations whose keep/axis tables overflow the batch
    // engine's mask lanes simply take the scalar path.
    const bool batched =
        options.batchEval &&
        BatchEvaluator::supports(evaluator.problem(),
                                 evaluator.arch());

    if ((options.recordTrajectory || options.threads <= 1) &&
        batched) {
        // The K-wide serial loop. Checks run per consumed candidate at
        // the same global index i as the scalar loop below, the
        // incumbent is live across the batch, and abandoned draws are
        // discarded uncounted — so best mapping, trajectory, and every
        // counter are bit-identical to the scalar path at any K. Stage
        // time is charged as in shardLoopBatched().
        FaultInjector &faults = FaultInjector::global();
        Rng rng(options.seed);
        EvalScratch scratch;
        BatchEvaluator batch(evaluator);
        DivisorMemo memo;
        std::vector<Decisions> drawn(kDefaultEvalBatch);
        double best = kInf;
        std::uint64_t streak = 0;
        std::uint64_t i = 0;
        bool done = false;
        while (!done) {
            std::size_t want = kDefaultEvalBatch;
            if (options.maxEvaluations != 0) {
                if (i >= options.maxEvaluations)
                    break;
                want = static_cast<std::size_t>(std::min<std::uint64_t>(
                    want, options.maxEvaluations - i));
            }
            const auto draw0 = Clock::now();
            batch.begin(want);
            for (std::size_t j = 0; j < want; ++j) {
                space.sampleInto(rng, drawn[j], memo);
                batch.add(drawn[j]);
            }
            const auto eval0 = Clock::now();
            out.timers.breedNs += nsBetween(draw0, eval0);
            batch.run(options.objective, out.stats,
                      options.boundPruning);
            for (std::size_t j = 0; j < want; ++j, ++i) {
                if ((i % kDeadlineStride) == 0 &&
                    (deadline.expired() ||
                     (options.cancel != nullptr &&
                      options.cancel->cancelled()))) {
                    out.deadlineExceeded = true;
                    done = true;
                    break;
                }
                if (faults.enabled())
                    faults.maybeThrow("random_search.evaluate");
                std::optional<Mapping> mapping;
                const SampleOutcome sample = consumeBatched(
                    batch, j, drawn[j], space, evaluator, options, best,
                    scratch, out.stats, mapping);
                ++out.evaluated;
                if (sample.valid) {
                    ++out.valid;
                    if (sample.modeled && sample.metric < best) {
                        best = sample.metric;
                        out.best = std::move(mapping);
                        out.bestResult = scratch.result;
                        streak = 0;
                    } else {
                        ++streak;
                    }
                }
                if (options.recordTrajectory)
                    out.trajectory.push_back(best);
                if (options.terminationStreak != 0 &&
                    streak >= options.terminationStreak) {
                    done = true;
                    break;
                }
            }
            out.timers.evalNs += nsSince(eval0);
        }
        return out;
    }

    if (options.recordTrajectory || options.threads <= 1) {
        FaultInjector &faults = FaultInjector::global();
        Rng rng(options.seed);
        EvalScratch scratch;
        double best = kInf;
        std::uint64_t streak = 0;
        for (std::uint64_t i = 0;; ++i) {
            if (options.maxEvaluations != 0 &&
                i >= options.maxEvaluations)
                break;
            if ((i % kDeadlineStride) == 0 &&
                (deadline.expired() ||
                 (options.cancel != nullptr &&
                  options.cancel->cancelled()))) {
                out.deadlineExceeded = true;
                break;
            }
            const Mapping mapping = space.sample(rng);
            if (faults.enabled())
                faults.maybeThrow("random_search.evaluate");
            const SampleOutcome sample =
                evalSample(mapping, evaluator, options, best, scratch,
                           out.stats);
            ++out.evaluated;
            if (sample.valid) {
                ++out.valid;
                if (sample.modeled && sample.metric < best) {
                    best = sample.metric;
                    out.best = mapping;
                    out.bestResult = scratch.result;
                    streak = 0;
                } else {
                    ++streak;
                }
            }
            if (options.recordTrajectory)
                out.trajectory.push_back(best);
            if (options.terminationStreak != 0 &&
                streak >= options.terminationStreak)
                break;
        }
        return out;
    }

    // One shard per worker on an exception-safe pool: a shard that
    // throws (e.g. an injected fault) trips the pool's cancel token,
    // the remaining shards observe it and drain, and waitIdle()
    // rethrows the failure once the pool is quiescent.
    SharedState state;
    ThreadPool pool(options.threads);
    const CancelToken &cancel = pool.cancelToken();
    Rng seeder(options.seed);
    for (unsigned i = 0; i < options.threads; ++i)
        pool.submit([&, stream = seeder.split()]() mutable {
            if (batched)
                shardLoopBatched(space, evaluator, options, stream,
                                 state, cancel, deadline);
            else
                shardLoop(space, evaluator, options, stream, state,
                          cancel, deadline);
        });
    pool.waitIdle();

    out.best = std::move(state.best);
    out.bestResult = std::move(state.bestResult);
    out.evaluated = state.evaluated.load();
    out.valid = state.valid.load();
    out.stats = state.stats;
    out.timers = state.timers;
    out.deadlineExceeded = state.deadlineHit.load();
    return out;
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
