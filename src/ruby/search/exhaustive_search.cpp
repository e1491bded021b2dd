#include "ruby/search/exhaustive_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <thread>

#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/incumbent.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/mapspace/factor_space.hpp"
#include "ruby/mapspace/index_space.hpp"
#include "ruby/model/batch_eval.hpp"

namespace ruby
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr unsigned kMaxParallelism = 4096;

/** The fixed enumeration context shared (read-only) by all shards. */
struct EnumContext
{
    const Mapspace &space;
    const ExhaustiveOptions &opts;
    /** Canonical chains per dimension. */
    std::vector<std::vector<std::vector<std::uint64_t>>> chains;
    /** Shared permutation set (identity, or all permutations). */
    std::vector<std::vector<DimId>> perm_set;
    /** The rows every leaf shares (leafRows()); each shard decodes
     *  indices into its own copy. */
    Decisions leaf;
};

/**
 * One shard's running best. Within a shard indices are claimed in
 * increasing order, so keeping the first strict improvement keeps the
 * lowest index attaining the shard's minimum; the cross-shard
 * reduction then breaks metric ties by index, which reproduces the
 * serial "first strict improvement wins" rule exactly.
 */
struct ShardBest
{
    double metric = kInf;
    std::uint64_t index = std::numeric_limits<std::uint64_t>::max();
    std::optional<Mapping> mapping;
    EvalResult result;
    EvalStats stats;
    std::uint64_t valid = 0;
};

/**
 * Evaluate indices claimed chunk-by-chunk from the shared counter
 * until the range [0, limit) is exhausted, K at a time through the
 * batch engine. Each index is decoded into reused decision rows that
 * go straight into the batch engine — no Mapping, no FactorChain
 * division — and a Mapping is built only for candidates that survive
 * both the batch validity stages and the incumbent prune. Candidates
 * are consumed in index order with per-index cancellation and fault
 * points and first-strict-improvement selection. All shards prune
 * against the same incumbent with a strict predicate, so the set of
 * modeled mappings may differ across thread counts but the reduced
 * best never does.
 */
void
shardLoop(const EnumContext &ctx, const Evaluator &evaluator,
          std::atomic<std::uint64_t> &next, std::uint64_t limit,
          std::uint64_t chunk, const ExhaustiveIndexSpace &index_space,
          SharedIncumbent &incumbent, const CancelToken *cancel,
          ShardBest &best)
{
    FaultInjector &faults = FaultInjector::global();
    EvalScratch scratch;
    BatchEvaluator batch(evaluator);
    std::vector<std::size_t> pick, perm_pick;
    Decisions rows = ctx.leaf;

    for (;;) {
        const std::uint64_t start =
            next.fetch_add(chunk, std::memory_order_relaxed);
        if (start >= limit)
            return;
        const std::uint64_t end = std::min(start + chunk, limit);
        for (std::uint64_t s = start; s < end;) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(kDefaultEvalBatch, end - s));
            batch.begin(want);
            for (std::size_t j = 0; j < want; ++j) {
                index_space.decode(s + j, pick, perm_pick);
                writeLeaf(ctx.chains, ctx.perm_set, pick, perm_pick,
                          rows);
                batch.add(rows);
            }
            batch.run(ctx.opts.objective, best.stats,
                      ctx.opts.boundPruning);
            for (std::size_t j = 0; j < want; ++j) {
                if ((cancel != nullptr && cancel->cancelled()) ||
                    (ctx.opts.cancel != nullptr &&
                     ctx.opts.cancel->cancelled()))
                    return;
                if (faults.enabled())
                    faults.maybeThrow("exhaustive_search.evaluate");
                ++best.stats.batchedEvals;
                if (!batch.valid(j)) {
                    ++best.stats.invalid;
                    ++best.stats.batchRejects;
                    continue;
                }
                // Strict predicate: bound == incumbent is NOT pruned.
                // A pruned mapping therefore has metric >= bound >
                // final minimum, so the lowest-index mapping attaining
                // the minimum is always modeled — whichever shard
                // lowered the incumbent, and whenever.
                if (ctx.opts.boundPruning &&
                    batch.bound(j) > incumbent.load()) {
                    ++best.stats.prunedBound;
                    ++best.valid;
                    continue;
                }
                const std::uint64_t i = s + j;
                index_space.decode(i, pick, perm_pick);
                writeLeaf(ctx.chains, ctx.perm_set, pick, perm_pick,
                          rows);
                Mapping mapping = ctx.space.materialize(rows);
                batch.prepareScratch(j, scratch);
                evaluator.modelValidated(mapping, scratch);
                incumbent.observeMin(
                    scratch.result.objective(ctx.opts.objective));
                ++best.stats.modeled;
                ++best.valid;
                const double metric =
                    scratch.result.objective(ctx.opts.objective);
                if (metric < best.metric) {
                    best.metric = metric;
                    best.index = i;
                    best.mapping = std::move(mapping);
                    best.result = scratch.result;
                }
            }
            s += want;
        }
    }
}

} // namespace

ExhaustiveResult
exhaustiveSearch(const Mapspace &space, const Evaluator &evaluator,
                 const ExhaustiveOptions &options)
{
    const auto total0 = std::chrono::steady_clock::now();
    const Problem &prob = space.problem();
    const ArchSpec &arch = space.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();

    unsigned threads = options.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw != 0 ? hw : 1;
    }
    RUBY_CHECK(threads <= kMaxParallelism,
               "exhaustive search: threads (", threads,
               ") exceeds the cap of ", kMaxParallelism);

    EnumContext ctx{space, options, {}, {}, {}};

    // Enumerate each dimension's canonical chains once.
    ctx.chains.resize(static_cast<std::size_t>(nd));
    std::vector<std::uint64_t> chain_counts(
        static_cast<std::size_t>(nd));
    for (DimId d = 0; d < nd; ++d) {
        ctx.chains[static_cast<std::size_t>(d)] =
            enumerateChains(prob.dimSize(d), chainRules(space, d));
        RUBY_CHECK(!ctx.chains[static_cast<std::size_t>(d)].empty(),
                   "dimension ", prob.dimName(d),
                   " has no feasible chain");
        chain_counts[static_cast<std::size_t>(d)] =
            ctx.chains[static_cast<std::size_t>(d)].size();
    }

    // Permutation sets.
    {
        std::vector<DimId> identity(static_cast<std::size_t>(nd));
        std::iota(identity.begin(), identity.end(), 0);
        if (options.permutations) {
            std::vector<DimId> p = identity;
            do {
                ctx.perm_set.push_back(p);
            } while (std::next_permutation(p.begin(), p.end()));
        } else {
            ctx.perm_set.push_back(identity);
        }
    }

    ctx.leaf = leafRows(space);

    const ExhaustiveIndexSpace index_space(std::move(chain_counts),
                                           ctx.perm_set.size(), nl);
    const std::uint64_t total = index_space.size();
    const std::uint64_t limit =
        options.maxEvaluations != 0
            ? std::min(total, options.maxEvaluations)
            : total;

    ExhaustiveResult out;
    out.truncated = limit < total || index_space.saturated();
    if (limit == 0)
        return out;

    SharedIncumbent incumbent;
    std::atomic<std::uint64_t> next{0};
    const unsigned workers = static_cast<unsigned>(std::min<
        std::uint64_t>(threads, limit));
    std::vector<ShardBest> shard_bests(workers);

    if (workers <= 1) {
        shardLoop(ctx, evaluator, next, limit, limit, index_space,
                  incumbent, nullptr, shard_bests[0]);
    } else {
        const std::uint64_t chunk =
            ExhaustiveIndexSpace::chunkSizeFor(limit, workers);
        ThreadPool pool(workers);
        const CancelToken &cancel = pool.cancelToken();
        for (unsigned w = 0; w < workers; ++w)
            pool.submit([&, w]() {
                shardLoop(ctx, evaluator, next, limit, chunk,
                          index_space, incumbent, &cancel,
                          shard_bests[w]);
            });
        pool.waitIdle();
    }

    // Deterministic reduction: lowest metric, then lowest index —
    // exactly the mapping the serial first-strict-improvement loop
    // would have kept.
    ShardBest *winner = nullptr;
    for (ShardBest &sb : shard_bests) {
        out.evaluated +=
            sb.stats.invalid + sb.stats.prunedBound + sb.stats.modeled;
        out.valid += sb.valid;
        out.stats += sb.stats;
        if (!sb.mapping)
            continue;
        if (winner == nullptr || sb.metric < winner->metric ||
            (sb.metric == winner->metric &&
             sb.index < winner->index))
            winner = &sb;
    }
    if (winner != nullptr) {
        out.best = std::move(winner->mapping);
        out.bestResult = winner->result;
    }
    out.timers.totalNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - total0)
            .count());
    return out;
}

} // namespace ruby
