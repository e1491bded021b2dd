#include "ruby/search/optimal_search.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/common/incumbent.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/mapspace/factor_space.hpp"
#include "ruby/mapspace/index_space.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/model/latency.hpp"
#include "ruby/model/tile_analysis.hpp"

namespace ruby
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr unsigned kMaxParallelism = 4096;
/** Minimum leaves a frontier node should span: wide enough that the
 *  gathered feasible leaves fill the batch engine's lanes even when
 *  most of the block folds as infeasible. */
constexpr std::uint64_t kFrontierTarget = 1024;

/**
 * One open subtree: the contiguous index range [begin, end) whose
 * undecided digits are free, with a sound objective lower bound over
 * every leaf in the range. The decided chain picks are recovered by
 * decoding `begin` (undecided digits are zero at the range start), so
 * nodes stay four words and the queue stays cheap to sift.
 */
struct Node
{
    double bound = kInf;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    int depth = 0;
};

/** Max-heap comparator that makes std::*_heap a (bound, begin) min-
 *  heap: cheapest bound first, lowest range start on ties — the
 *  DFS-order tie-break that mirrors the serial enumeration. */
struct NodeWorse
{
    bool
    operator()(const Node &a, const Node &b) const
    {
        if (a.bound != b.bound)
            return a.bound > b.bound;
        return a.begin > b.begin;
    }
};

/** The fixed enumeration context shared (read-only) by all workers. */
struct BnbContext
{
    BnbContext(const Mapspace &s, const OptimalOptions &o)
        : space(s), opts(o)
    {
    }

    const Mapspace &space;
    const OptimalOptions &opts;
    /** Canonical chains per dimension. */
    std::vector<std::vector<std::vector<std::uint64_t>>> chains;
    /** Shared permutation set (identity, or all permutations). */
    std::vector<std::vector<DimId>> perm_set;
    /** Keep-all residency honouring forced bypasses. */
    std::vector<std::vector<char>> keep;

    /**
     * Exact serial compute steps per (dimension, chain), and each
     * dimension's minimum over its chains: the per-dim floors the
     * partial-mapping bound multiplies together. Doubles so node
     * bounds reproduce Evaluator::objectiveLowerBound bit for bit.
     */
    std::vector<std::vector<double>> steps;
    std::vector<double> minSteps;

    /**
     * Validity floors, both monotone non-decreasing in every
     * dimension's contribution — so replacing undecided dims with
     * their minima yields quantities no leaf of the subtree can go
     * below, and a floor-level violation proves every leaf invalid.
     *
     * ext[d][c][l]: dim d's steady tile extent below the level-l
     * capacity boundary under chain c (what analyzeTilesInto feeds
     * tileVolume); levels 0..nl-2 (the backing store is unbounded).
     * spat[d][c][l]: dim d's spatial factor at level l under chain c
     * (what spatialUsage multiplies); levels 0..nl-1.
     */
    std::vector<std::vector<std::vector<std::uint64_t>>> ext;
    std::vector<std::vector<std::uint64_t>> minExt;
    std::vector<std::vector<std::vector<std::uint64_t>>> spat;
    std::vector<std::vector<std::uint64_t>> minSpat;

    /** Index stride of dimension d's chain digit. */
    std::vector<std::uint64_t> dimStride;
    /** Leaves per fully-decided chain assignment: perm_set^numLevels
     *  consecutive indices share every chain pick. */
    std::uint64_t permBlock = 1;
    /** Tree depth of leaf-frontier nodes: numDims() - 1. */
    int frontierDepth = 0;
    /** Leaves per frontier work unit before splitting for stealing. */
    std::uint64_t splitChunk = 0;
    /** Symmetry pruning actually armed (perms on, <= 64 dims). */
    bool symmetry = false;
};

/**
 * State shared by the workers: the open-node min-heap, the in-flight
 * count that detects global exhaustion, the stop latch, and the
 * work-cap counter. Queue operations are rare next to leaf
 * evaluation, so one mutex is plenty.
 */
struct SharedState
{
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Node> heap;
    unsigned inflight = 0;
    bool stop = false;
    /** Individually decided leaves, against opts.maxEvaluations. */
    std::atomic<std::uint64_t> work{0};
    std::atomic<bool> deadlineHit{false};
};

/** One worker's running best; reduced like the exhaustive shards:
 *  lowest metric, then lowest index. */
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
 * One branch-and-bound worker. Pops the globally cheapest open node,
 * prunes / expands / evaluates it, and loops until the tree is
 * exhausted or the stop latch fires. Owns all per-thread scratch
 * (batch engine, decode vectors, symmetry tables).
 */
class BnbWorker
{
  public:
    BnbWorker(const BnbContext &ctx, const Evaluator &evaluator,
              const ExhaustiveIndexSpace &index_space,
              SharedState &st, SharedIncumbent &incumbent,
              const Deadline &deadline, const CancelToken *cancel,
              bool batched, ShardBest &best)
        : ctx_(ctx), evaluator_(evaluator), index_space_(index_space),
          st_(st), incumbent_(incumbent), deadline_(deadline),
          cancel_(cancel), best_(best),
          nd_(ctx.space.problem().numDims()),
          nl_(ctx.space.arch().numLevels()),
          nt_(ctx.space.problem().numTensors())
    {
        if (batched)
            batch_.emplace(evaluator);
        steady_.resize(static_cast<std::size_t>(nd_));
        perms_.resize(static_cast<std::size_t>(nl_));
        floor_.resize(static_cast<std::size_t>(nd_));
        extLB_.resize(static_cast<std::size_t>(nd_));
    }

    void
    run()
    {
        for (;;) {
            Node node;
            {
                std::unique_lock<std::mutex> lk(st_.mu);
                st_.cv.wait(lk, [&]() {
                    return st_.stop || !st_.heap.empty() ||
                           st_.inflight == 0;
                });
                if (st_.stop)
                    return;
                if (st_.heap.empty()) {
                    // inflight == 0 too: the tree is exhausted.
                    st_.cv.notify_all();
                    return;
                }
                std::pop_heap(st_.heap.begin(), st_.heap.end(),
                              NodeWorse{});
                node = st_.heap.back();
                st_.heap.pop_back();
                ++st_.inflight;
            }
            processNode(node);
            {
                std::lock_guard<std::mutex> lk(st_.mu);
                --st_.inflight;
                if (st_.inflight == 0 &&
                    (st_.heap.empty() || st_.stop))
                    st_.cv.notify_all();
            }
        }
    }

  private:
    bool
    cancelRequested() const
    {
        return (cancel_ != nullptr && cancel_->cancelled()) ||
               (ctx_.opts.cancel != nullptr &&
                ctx_.opts.cancel->cancelled());
    }

    void
    setStop(bool byDeadline)
    {
        if (byDeadline)
            st_.deadlineHit.store(true, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lk(st_.mu);
            st_.stop = true;
        }
        st_.cv.notify_all();
    }

    /** Return an unprocessed tail to the queue so the final gap
     *  still covers it. The parent's bound stays sound for any
     *  sub-range. */
    void
    repush(double bound, std::uint64_t begin, std::uint64_t end,
           int depth)
    {
        std::lock_guard<std::mutex> lk(st_.mu);
        st_.heap.push_back(Node{bound, begin, end, depth});
        std::push_heap(st_.heap.begin(), st_.heap.end(), NodeWorse{});
    }

    void
    processNode(const Node &node)
    {
        // Same strict predicate as the leaf-level incumbent prune:
        // a bound equal to the incumbent is NOT pruned here either,
        // so the (metric, index) winner matches serial exhaustive.
        if (ctx_.opts.boundPruning &&
            node.bound > incumbent_.load()) {
            best_.stats.prunedBound += node.end - node.begin;
            return;
        }
        if (node.depth == ctx_.frontierDepth)
            processFrontier(node);
        else
            expand(node);
    }

    /**
     * True when every leaf of the subtree that fixes dim @p k to
     * chain @p c (dims > k already decided per pick_, dims < k open)
     * is provably invalid: some bounded level's capacity or some
     * level's fanout is exceeded by the floor quantities alone.
     * Tile extents and spatial factors are both monotone
     * non-decreasing products over per-dim contributions, so
     * substituting each undecided dim's minimum yields values no
     * leaf can undercut — a violation here is a violation for all.
     * With k == 0 every dim is decided, the floors are exact, and
     * the verdict matches the model's own capacity/fanout reject.
     */
    bool
    rangeInfeasible(int k, std::size_t c)
    {
        const Problem &prob = ctx_.space.problem();
        const ArchSpec &arch = ctx_.space.arch();
        // Capacity at every bounded level (the outermost level is
        // the unbounded backing store), capacityCheckImpl's walk over
        // the keep-all residency the enumeration uses.
        for (int l = 0; l < nl_ - 1; ++l) {
            const auto &lvl = arch.level(l);
            if (lvl.perTensorCapacity.empty() && lvl.capacityWords == 0)
                continue;
            const std::size_t sl = static_cast<std::size_t>(l);
            for (DimId d = 0; d < nd_; ++d) {
                const std::size_t sd = static_cast<std::size_t>(d);
                const std::size_t cd = d == k ? c : pick_[sd];
                extLB_[sd] = d >= k ? ctx_.ext[sd][cd][sl]
                                    : ctx_.minExt[sd][sl];
            }
            std::uint64_t shared = 0;
            if (capacityOverflow(
                    lvl, nt_,
                    [&](int t) {
                        return ctx_.keep[sl][static_cast<std::size_t>(
                                   t)] != 0;
                    },
                    [&](int t) { return prob.tileVolume(t, extLB_); },
                    shared) >= 0)
                return true;
        }
        // Spatial fanout: the enumerated mappings declare no mesh
        // axes, so every dimension lands on axis X and the Y usage
        // is identically 1 — mirror spatialFitImpl accordingly.
        for (int l = 0; l < nl_; ++l) {
            const std::size_t sl = static_cast<std::size_t>(l);
            std::uint64_t x = 1;
            for (DimId d = 0; d < nd_; ++d) {
                const std::size_t sd = static_cast<std::size_t>(d);
                const std::size_t cd = d == k ? c : pick_[sd];
                x *= d >= k ? ctx_.spat[sd][cd][sl]
                            : ctx_.minSpat[sd][sl];
            }
            if (x > arch.level(l).fanoutX ||
                std::uint64_t{1} > arch.level(l).fanoutY)
                return true;
        }
        return false;
    }

    /**
     * Decide the next chain digit: one child per candidate chain of
     * dimension nd-1-depth. Children bounds tighten the parent's by
     * replacing that dimension's floor with the chosen chain's exact
     * steps; children that already cannot beat the incumbent are
     * folded (never queued), and children whose floor quantities
     * already break a capacity or fanout limit fold their whole
     * range into the invalid count — exactly how the model would
     * score each of their leaves, minus the per-leaf work.
     */
    void
    expand(const Node &node)
    {
        const int k = nd_ - 1 - node.depth;
        index_space_.decode(node.begin, pick_, perm_pick_);
        for (DimId d = 0; d < nd_; ++d)
            floor_[static_cast<std::size_t>(d)] =
                d > k ? ctx_.steps[static_cast<std::size_t>(d)]
                                  [pick_[static_cast<std::size_t>(d)]]
                      : ctx_.minSteps[static_cast<std::size_t>(d)];

        const std::uint64_t stride =
            ctx_.dimStride[static_cast<std::size_t>(k)];
        const std::size_t nc =
            ctx_.chains[static_cast<std::size_t>(k)].size();
        children_.clear();
        for (std::size_t c = 0; c < nc; ++c) {
            if (rangeInfeasible(k, c)) {
                best_.stats.invalid += stride;
                continue;
            }
            floor_[static_cast<std::size_t>(k)] =
                ctx_.steps[static_cast<std::size_t>(k)][c];
            const double bound = evaluator_.objectiveLowerBound(
                floor_, ctx_.opts.objective);
            const std::uint64_t begin =
                node.begin + static_cast<std::uint64_t>(c) * stride;
            if (ctx_.opts.boundPruning &&
                bound > incumbent_.load()) {
                best_.stats.prunedBound += stride;
                continue;
            }
            children_.push_back(
                Node{bound, begin, begin + stride, node.depth + 1});
        }
        if (children_.empty())
            return;
        {
            std::lock_guard<std::mutex> lk(st_.mu);
            for (const Node &child : children_) {
                st_.heap.push_back(child);
                std::push_heap(st_.heap.begin(), st_.heap.end(),
                               NodeWorse{});
            }
        }
        st_.cv.notify_all();
    }

    /**
     * Score a leaf block: every index in [begin, end) shares its
     * chain picks for dims >= 1 and sweeps dim 0's chains plus all
     * permutation picks. Consumed in index order through the batch
     * engine with the exhaustive loop's per-leaf accounting, so the
     * reduced best is bit-identical to the serial search.
     */
    void
    processFrontier(Node node)
    {
        // Leave the tail for another worker when the block is large:
        // the re-queued remainder keeps the same (sound) bound and
        // sorts after this piece on the begin tie-break.
        if (ctx_.splitChunk != 0 &&
            node.end - node.begin > 2 * ctx_.splitChunk) {
            repush(node.bound, node.begin + ctx_.splitChunk, node.end,
                   node.depth);
            st_.cv.notify_all();
            node.end = node.begin + ctx_.splitChunk;
        }

        FaultInjector &faults = FaultInjector::global();
        const std::uint64_t cap = ctx_.opts.maxEvaluations;

        std::uint64_t s = node.begin;
        while (s < node.end) {
            if (cancelRequested()) {
                repush(node.bound, s, node.end, node.depth);
                setStop(false);
                return;
            }
            if (deadline_.expired()) {
                repush(node.bound, s, node.end, node.depth);
                setStop(true);
                return;
            }
            // Every leaf in a dim-0 sub-block shares all chain picks
            // and differs only in permutations, which the capacity
            // and fanout checks never see — one exact infeasibility
            // test covers the block, and a failing block folds into
            // the invalid count without touching the eval cap.
            // Feasible leaves (possibly separated by folded blocks)
            // gather into one window so the batch engine keeps full
            // lanes. Fold counts stay pending until a window entry
            // past them is consumed: a repush resumes right after
            // the last consumed leaf, so uncommitted folds are
            // re-derived instead of double-counted.
            window_.clear();
            foldBefore_.clear();
            std::uint64_t w = s;
            std::uint64_t pending = 0;
            while (w < node.end &&
                   window_.size() < kDefaultEvalBatch) {
                const std::uint64_t blockEnd = std::min(
                    node.end,
                    (w / ctx_.permBlock + 1) * ctx_.permBlock);
                index_space_.decode(w, pick_, perm_pick_);
                if (rangeInfeasible(0, pick_[0])) {
                    pending += blockEnd - w;
                    w = blockEnd;
                    continue;
                }
                while (w < blockEnd &&
                       window_.size() < kDefaultEvalBatch) {
                    window_.push_back(w);
                    foldBefore_.push_back(pending);
                    pending = 0;
                    ++w;
                }
            }
            if (window_.empty()) {
                // The whole remaining range folded; nothing can be
                // repushed past it, so commit the folds now.
                best_.stats.invalid += pending;
                s = w;
                continue;
            }
            // Claim the window's leaves against the work cap before
            // spending anything on them. Folded blocks are free.
            std::uint64_t n = window_.size();
            const std::uint64_t base = st_.work.fetch_add(
                n, std::memory_order_relaxed);
            if (cap != 0) {
                if (base >= cap) {
                    // Nothing consumed, nothing committed: the whole
                    // tail (gathered folds included) is re-derived.
                    repush(node.bound, s, node.end, node.depth);
                    setStop(false);
                    return;
                }
                if (base + n > cap)
                    n = cap - base;
            }
            for (std::size_t j = 0; j < n; ++j)
                best_.stats.invalid += foldBefore_[j];
            if (batch_)
                consumeWindowBatched(static_cast<std::size_t>(n),
                                     faults);
            else
                consumeWindowScalar(static_cast<std::size_t>(n),
                                    faults);
            s = window_[static_cast<std::size_t>(n) - 1] + 1;
            if (cap != 0 && base + n >= cap && s < node.end) {
                repush(node.bound, s, node.end, node.depth);
                setStop(false);
                return;
            }
        }
    }

    /** True when index @p i is a symmetry duplicate: some level's
     *  permutation pick is not the lowest-index member of its
     *  equivalence class (orders identical over the dims whose
     *  temporal factor is non-trivial at that level). */
    bool
    symmetryDuplicate()
    {
        for (int l = 0; l < nl_; ++l) {
            std::uint64_t mask = 0;
            for (DimId d = 0; d < nd_; ++d) {
                const auto &steady =
                    ctx_.chains[static_cast<std::size_t>(d)]
                               [pick_[static_cast<std::size_t>(d)]];
                if (steady[static_cast<std::size_t>(
                        temporalSlot(l))] > 1)
                    mask |= std::uint64_t{1} << d;
            }
            const std::vector<char> &rep = repsFor(mask);
            if (!rep[perm_pick_[static_cast<std::size_t>(l)]])
                return true;
        }
        return false;
    }

    /** rep[p] = true iff permutation p is the lowest-index member of
     *  its class under @p mask (cached per worker). */
    const std::vector<char> &
    repsFor(std::uint64_t mask)
    {
        auto it = repCache_.find(mask);
        if (it != repCache_.end())
            return it->second;
        std::vector<char> rep(ctx_.perm_set.size(), 0);
        std::map<std::vector<DimId>, std::size_t> seen;
        std::vector<DimId> key;
        for (std::size_t p = 0; p < ctx_.perm_set.size(); ++p) {
            key.clear();
            for (const DimId d : ctx_.perm_set[p])
                if ((mask >> d) & 1)
                    key.push_back(d);
            if (seen.emplace(key, p).second)
                rep[p] = 1;
        }
        return repCache_.emplace(mask, std::move(rep)).first->second;
    }

    /** Score window_[0..n): the gathered feasible leaves, in index
     *  order, through the batch engine with the exhaustive loop's
     *  per-leaf accounting. */
    void
    consumeWindowBatched(std::size_t n, FaultInjector &faults)
    {
        BatchEvaluator &batch = *batch_;
        lane_index_.clear();
        batch.begin(n);
        const std::vector<std::vector<SpatialAxis>> no_axes;
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t i = window_[j];
            index_space_.decode(i, pick_, perm_pick_);
            if (ctx_.symmetry && symmetryDuplicate()) {
                // Folded like a pruned subtree of size one: the kept
                // lower-index representative evaluates identically.
                ++best_.stats.prunedBound;
                continue;
            }
            for (DimId d = 0; d < nd_; ++d)
                steady_[static_cast<std::size_t>(d)] =
                    ctx_.chains[static_cast<std::size_t>(d)]
                               [pick_[static_cast<std::size_t>(d)]];
            batch.add(steady_, ctx_.keep, no_axes);
            lane_index_.push_back(i);
        }
        if (lane_index_.empty())
            return;
        batch.run(ctx_.opts.objective, best_.stats,
                  ctx_.opts.boundPruning);
        for (std::size_t j = 0; j < lane_index_.size(); ++j) {
            if (faults.enabled())
                faults.maybeThrow("optimal_search.evaluate");
            ++best_.stats.batchedEvals;
            if (!batch.valid(j)) {
                ++best_.stats.invalid;
                ++best_.stats.batchRejects;
                continue;
            }
            // Strict, like the staged incumbent overload: a bound
            // equal to the incumbent is NOT pruned.
            if (ctx_.opts.boundPruning &&
                batch.bound(j) > incumbent_.load()) {
                ++best_.stats.prunedBound;
                ++best_.valid;
                continue;
            }
            const std::uint64_t i = lane_index_[j];
            index_space_.decode(i, pick_, perm_pick_);
            for (DimId d = 0; d < nd_; ++d)
                steady_[static_cast<std::size_t>(d)] =
                    ctx_.chains[static_cast<std::size_t>(d)]
                               [pick_[static_cast<std::size_t>(d)]];
            for (int l = 0; l < nl_; ++l)
                perms_[static_cast<std::size_t>(l)] =
                    ctx_.perm_set[perm_pick_[
                        static_cast<std::size_t>(l)]];
            Mapping mapping(ctx_.space.problem(), ctx_.space.arch(),
                            steady_, perms_, ctx_.keep);
            batch.prepareScratch(j, scratch_);
            evaluator_.modelValidated(mapping, scratch_);
            const double metric =
                scratch_.result.objective(ctx_.opts.objective);
            incumbent_.observeMin(metric);
            ++best_.stats.modeled;
            ++best_.valid;
            if (metric < best_.metric) {
                best_.metric = metric;
                best_.index = i;
                best_.mapping = std::move(mapping);
                best_.result = scratch_.result;
            }
        }
    }

    void
    consumeWindowScalar(std::size_t n, FaultInjector &faults)
    {
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t i = window_[j];
            index_space_.decode(i, pick_, perm_pick_);
            if (ctx_.symmetry && symmetryDuplicate()) {
                ++best_.stats.prunedBound;
                continue;
            }
            for (DimId d = 0; d < nd_; ++d)
                steady_[static_cast<std::size_t>(d)] =
                    ctx_.chains[static_cast<std::size_t>(d)]
                               [pick_[static_cast<std::size_t>(d)]];
            for (int l = 0; l < nl_; ++l)
                perms_[static_cast<std::size_t>(l)] =
                    ctx_.perm_set[perm_pick_[
                        static_cast<std::size_t>(l)]];
            Mapping mapping(ctx_.space.problem(), ctx_.space.arch(),
                            steady_, perms_, ctx_.keep);
            if (faults.enabled())
                faults.maybeThrow("optimal_search.evaluate");
            const StagedEval staged = evaluator_.evaluateStaged(
                mapping, ctx_.opts.objective, incumbent_,
                ctx_.opts.boundPruning, scratch_);
            switch (staged) {
              case StagedEval::Invalid:
                ++best_.stats.invalid;
                break;
              case StagedEval::PrunedBound:
                ++best_.stats.prunedBound;
                ++best_.valid;
                break;
              case StagedEval::Modeled: {
                ++best_.stats.modeled;
                ++best_.valid;
                const double metric =
                    scratch_.result.objective(ctx_.opts.objective);
                if (metric < best_.metric) {
                    best_.metric = metric;
                    best_.index = i;
                    best_.mapping = std::move(mapping);
                    best_.result = scratch_.result;
                }
                break;
              }
            }
        }
    }

    const BnbContext &ctx_;
    const Evaluator &evaluator_;
    const ExhaustiveIndexSpace &index_space_;
    SharedState &st_;
    SharedIncumbent &incumbent_;
    const Deadline &deadline_;
    const CancelToken *cancel_;
    ShardBest &best_;
    const int nd_;
    const int nl_;
    const int nt_;

    std::optional<BatchEvaluator> batch_;
    EvalScratch scratch_;
    std::vector<std::size_t> pick_, perm_pick_;
    std::vector<std::vector<std::uint64_t>> steady_;
    std::vector<std::vector<DimId>> perms_;
    std::vector<double> floor_;
    std::vector<std::uint64_t> extLB_;
    std::vector<Node> children_;
    std::vector<std::uint64_t> lane_index_;
    /** Gathered feasible leaf indices of the current frontier
     *  window, and the folded-invalid leaf count preceding each. */
    std::vector<std::uint64_t> window_;
    std::vector<std::uint64_t> foldBefore_;
    std::unordered_map<std::uint64_t, std::vector<char>> repCache_;
};

} // namespace

OptimalResult
optimalSearch(const Mapspace &space, const Evaluator &evaluator,
              const OptimalOptions &options)
{
    const auto total0 = std::chrono::steady_clock::now();
    const Problem &prob = space.problem();
    const ArchSpec &arch = space.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();
    const int nt = prob.numTensors();

    unsigned threads = options.threads;
    if (threads == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        threads = hw != 0 ? hw : 1;
    }
    RUBY_CHECK(threads <= kMaxParallelism,
               "optimal search: threads (", threads,
               ") exceeds the cap of ", kMaxParallelism);

    BnbContext ctx{space, options};

    // Enumerate each dimension's canonical chains once, and the
    // per-chain serial step counts the bounds multiply.
    ctx.chains.resize(static_cast<std::size_t>(nd));
    ctx.steps.resize(static_cast<std::size_t>(nd));
    ctx.minSteps.assign(static_cast<std::size_t>(nd), kInf);
    std::vector<std::uint64_t> chain_counts(
        static_cast<std::size_t>(nd));
    for (DimId d = 0; d < nd; ++d) {
        const std::size_t sd = static_cast<std::size_t>(d);
        ctx.chains[sd] =
            enumerateChains(prob.dimSize(d), chainRules(space, d));
        RUBY_CHECK(!ctx.chains[sd].empty(), "dimension ",
                   prob.dimName(d), " has no feasible chain");
        chain_counts[sd] = ctx.chains[sd].size();
        ctx.steps[sd].reserve(ctx.chains[sd].size());
        for (const auto &steady : ctx.chains[sd]) {
            const double st = static_cast<double>(serialSteps(
                FactorChain(prob.dimSize(d), steady)));
            ctx.steps[sd].push_back(st);
            ctx.minSteps[sd] = std::min(ctx.minSteps[sd], st);
        }
    }

    // Validity floors per (dim, chain): steady tile extents below
    // each bounded level's boundary slot (prefix products of the
    // chain, what analyzeTilesInto feeds tileVolume) and spatial
    // factors per level — plus each dim's minima over its chains.
    const int capLevels = nl > 1 ? nl - 1 : 0;
    ctx.ext.resize(static_cast<std::size_t>(nd));
    ctx.spat.resize(static_cast<std::size_t>(nd));
    ctx.minExt.assign(
        static_cast<std::size_t>(nd),
        std::vector<std::uint64_t>(
            static_cast<std::size_t>(capLevels),
            std::numeric_limits<std::uint64_t>::max()));
    ctx.minSpat.assign(
        static_cast<std::size_t>(nd),
        std::vector<std::uint64_t>(
            static_cast<std::size_t>(nl),
            std::numeric_limits<std::uint64_t>::max()));
    for (DimId d = 0; d < nd; ++d) {
        const std::size_t sd = static_cast<std::size_t>(d);
        ctx.ext[sd].reserve(ctx.chains[sd].size());
        ctx.spat[sd].reserve(ctx.chains[sd].size());
        for (const auto &steady : ctx.chains[sd]) {
            std::vector<std::uint64_t> ext(
                static_cast<std::size_t>(capLevels));
            std::vector<std::uint64_t> spat(
                static_cast<std::size_t>(nl));
            for (int l = 0; l < capLevels; ++l) {
                const int boundary = std::min(
                    TileInfo::boundarySlot(l),
                    static_cast<int>(steady.size()));
                std::uint64_t e = 1;
                for (int k = 0; k < boundary; ++k)
                    e *= steady[static_cast<std::size_t>(k)];
                ext[static_cast<std::size_t>(l)] = e;
                auto &me = ctx.minExt[sd][static_cast<std::size_t>(l)];
                me = std::min(me, e);
            }
            for (int l = 0; l < nl; ++l) {
                const std::uint64_t f =
                    steady[static_cast<std::size_t>(spatialSlot(l))];
                spat[static_cast<std::size_t>(l)] = f;
                auto &ms =
                    ctx.minSpat[sd][static_cast<std::size_t>(l)];
                ms = std::min(ms, f);
            }
            ctx.ext[sd].push_back(std::move(ext));
            ctx.spat[sd].push_back(std::move(spat));
        }
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

    // Keep-all residency honouring forced bypasses.
    ctx.keep.assign(static_cast<std::size_t>(nl),
                    std::vector<char>(static_cast<std::size_t>(nt),
                                      1));
    for (int l = 1; l < nl - 1; ++l)
        for (int t = 0; t < nt; ++t)
            if (space.constraints().bypassForced(l, t))
                ctx.keep[static_cast<std::size_t>(l)]
                        [static_cast<std::size_t>(t)] = 0;

    const ExhaustiveIndexSpace index_space(chain_counts,
                                           ctx.perm_set.size(), nl);
    // Subtree ranges need exact 64-bit index arithmetic; a space this
    // large has no business being certified anyway.
    RUBY_CHECK(!index_space.saturated(),
               "optimal search: mapspace size overflows the 64-bit "
               "index range; use a sampling strategy");
    const std::uint64_t total = index_space.size();

    // Tighten the floors: a chain whose own floor contribution breaks
    // a capacity or fanout limit even with every other dim at its
    // minimum can appear in no valid mapping, so the bound and fold
    // floors may ignore it — only valid leaves can win, and a bound
    // needs to undercut winners, not invalid leaves. Iterate to a
    // fixpoint: each round's tighter minima expose more impossible
    // chains and shrink the reported optimality gap.
    {
        const auto chainImpossible = [&](DimId d, std::size_t c) {
            const std::size_t sd = static_cast<std::size_t>(d);
            for (int l = 0; l < capLevels; ++l) {
                const auto &lvl = arch.level(l);
                const bool partitioned =
                    !lvl.perTensorCapacity.empty();
                if (!partitioned && lvl.capacityWords == 0)
                    continue;
                const std::size_t sl = static_cast<std::size_t>(l);
                std::vector<std::uint64_t> extLB(
                    static_cast<std::size_t>(nd));
                for (DimId e = 0; e < nd; ++e) {
                    const std::size_t se = static_cast<std::size_t>(e);
                    extLB[se] = e == d ? ctx.ext[sd][c][sl]
                                       : ctx.minExt[se][sl];
                }
                std::uint64_t shared = 0;
                for (int t = 0; t < nt; ++t) {
                    if (!ctx.keep[sl][static_cast<std::size_t>(t)])
                        continue;
                    const std::uint64_t tile =
                        prob.tileVolume(t, extLB);
                    const std::uint64_t partition =
                        partitioned
                            ? lvl.perTensorCapacity
                                  [static_cast<std::size_t>(t)]
                            : 0;
                    if (partition > 0) {
                        if (tile > partition)
                            return true;
                    } else {
                        shared += tile;
                    }
                }
                if (lvl.capacityWords > 0 &&
                    shared > lvl.capacityWords)
                    return true;
            }
            for (int l = 0; l < nl; ++l) {
                const std::size_t sl = static_cast<std::size_t>(l);
                std::uint64_t x = 1;
                for (DimId e = 0; e < nd; ++e)
                    x *= e == d
                             ? ctx.spat[sd][c][sl]
                             : ctx.minSpat[static_cast<std::size_t>(
                                   e)][sl];
                if (x > arch.level(l).fanoutX ||
                    std::uint64_t{1} > arch.level(l).fanoutY)
                    return true;
            }
            return false;
        };

        std::vector<std::vector<char>> alive(
            static_cast<std::size_t>(nd));
        for (DimId d = 0; d < nd; ++d)
            alive[static_cast<std::size_t>(d)].assign(
                ctx.chains[static_cast<std::size_t>(d)].size(), 1);
        bool impossible = false;
        for (bool changed = true; changed && !impossible;) {
            changed = false;
            for (DimId d = 0; d < nd && !impossible; ++d) {
                const std::size_t sd = static_cast<std::size_t>(d);
                bool any = false;
                for (std::size_t c = 0; c < alive[sd].size(); ++c) {
                    if (!alive[sd][c])
                        continue;
                    if (chainImpossible(d, c)) {
                        alive[sd][c] = 0;
                        changed = true;
                    } else {
                        any = true;
                    }
                }
                impossible = !any;
            }
            if (!changed || impossible)
                break;
            for (DimId d = 0; d < nd; ++d) {
                const std::size_t sd = static_cast<std::size_t>(d);
                ctx.minSteps[sd] = kInf;
                ctx.minExt[sd].assign(
                    static_cast<std::size_t>(capLevels),
                    std::numeric_limits<std::uint64_t>::max());
                ctx.minSpat[sd].assign(
                    static_cast<std::size_t>(nl),
                    std::numeric_limits<std::uint64_t>::max());
                for (std::size_t c = 0; c < alive[sd].size(); ++c) {
                    if (!alive[sd][c])
                        continue;
                    ctx.minSteps[sd] = std::min(ctx.minSteps[sd],
                                                ctx.steps[sd][c]);
                    for (int l = 0; l < capLevels; ++l) {
                        auto &me =
                            ctx.minExt[sd][static_cast<std::size_t>(
                                l)];
                        me = std::min(
                            me,
                            ctx.ext[sd][c][static_cast<std::size_t>(
                                l)]);
                    }
                    for (int l = 0; l < nl; ++l) {
                        auto &ms =
                            ctx.minSpat[sd][static_cast<std::size_t>(
                                l)];
                        ms = std::min(
                            ms,
                            ctx.spat[sd][c][static_cast<std::size_t>(
                                l)]);
                    }
                }
            }
        }
        if (impossible) {
            // Some dimension has no chain that could ever satisfy
            // the capacity/fanout limits: every leaf is invalid, the
            // certificate is immediate.
            OptimalResult empty;
            empty.evaluated = total;
            empty.stats.invalid = total;
            empty.certified = true;
            empty.gapPercent = 0.0;
            empty.timers.totalNs = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - total0)
                    .count());
            return empty;
        }
    }

    // Digit strides: permutation picks innermost, then dim 0's chain
    // pick, outward to dim nd-1 (the root's first decision).
    std::uint64_t permBlock = 1;
    for (int l = 0; l < nl; ++l)
        permBlock *= ctx.perm_set.size();
    ctx.dimStride.resize(static_cast<std::size_t>(nd));
    std::uint64_t stride = permBlock;
    for (DimId d = 0; d < nd; ++d) {
        ctx.dimStride[static_cast<std::size_t>(d)] = stride;
        stride *= chain_counts[static_cast<std::size_t>(d)];
    }
    ctx.permBlock = permBlock;
    // Frontier nodes sweep the innermost dims 0..kf plus all
    // permutation digits. Widen the sweep until it spans at least
    // kFrontierTarget leaves: the per-leaf windows decode exact
    // digits anyway, so a wider frontier costs no bound soundness
    // and keeps the batch lanes full when feasible leaves are rare.
    {
        int kf = 0;
        std::uint64_t range = permBlock * chain_counts[0];
        while (kf + 1 < nd && range < kFrontierTarget) {
            ++kf;
            range *= chain_counts[static_cast<std::size_t>(kf)];
        }
        ctx.frontierDepth = nd - 1 - kf;
    }
    ctx.symmetry = options.symmetryPruning && options.permutations &&
                   ctx.perm_set.size() > 1 && nd <= 64;

    OptimalResult out;

    SharedIncumbent incumbent;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::uint64_t>(threads, total));
    ctx.splitChunk =
        workers > 1 ? std::max<std::uint64_t>(
                          ExhaustiveIndexSpace::chunkSizeFor(
                              total, workers),
                          kDefaultEvalBatch)
                    : 0;

    SharedState st;
    {
        // Root: every digit open, bound from the per-dim floors.
        std::vector<double> floors(ctx.minSteps);
        const double rootBound = evaluator.objectiveLowerBound(
            floors, options.objective);
        st.heap.push_back(
            Node{rootBound, 0, total, 0});
    }

    const Deadline deadline = Deadline::after(options.timeBudget);
    std::vector<ShardBest> shard_bests(workers);

    const bool batched =
        options.batchEval &&
        BatchEvaluator::supports(evaluator.problem(),
                                 evaluator.arch());

    if (workers <= 1) {
        BnbWorker worker(ctx, evaluator, index_space, st, incumbent,
                         deadline, nullptr, batched, shard_bests[0]);
        worker.run();
    } else {
        ThreadPool pool(workers);
        const CancelToken &cancel = pool.cancelToken();
        for (unsigned w = 0; w < workers; ++w)
            pool.submit([&, w]() {
                BnbWorker worker(ctx, evaluator, index_space, st,
                                 incumbent, deadline, &cancel,
                                 batched, shard_bests[w]);
                try {
                    worker.run();
                } catch (...) {
                    // Wake peers blocked on the queue so the pool's
                    // first-exception rethrow is not deadlocked
                    // behind them.
                    {
                        std::lock_guard<std::mutex> lk(st.mu);
                        st.stop = true;
                    }
                    st.cv.notify_all();
                    throw;
                }
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

    // Whatever is still queued was neither explored nor soundly
    // pruned: its cheapest bound is the certificate's other side.
    double minOpen = kInf;
    for (const Node &node : st.heap)
        minOpen = std::min(minOpen, node.bound);
    out.certified = st.heap.empty();
    out.truncated = !out.certified;
    out.deadlineExceeded =
        st.deadlineHit.load(std::memory_order_relaxed);
    if (out.certified) {
        out.gapPercent = 0.0;
    } else if (winner == nullptr) {
        out.gapPercent = 100.0;
    } else {
        const double inc = winner->metric;
        const double floor = std::min(minOpen, inc);
        out.gapPercent =
            inc > 0.0 ? (inc - floor) / inc * 100.0 : 0.0;
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
