#include "ruby/model/delta_eval.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "ruby/common/error.hpp"
#include "ruby/model/tile_analysis.hpp"

namespace ruby
{

namespace
{

/**
 * Diffs touching more rows than this fall back to a full in-place
 * recomputation: the dirtiness rules stay exact at any size, but a
 * wide diff (e.g. a crossover child drawing half its rows from the
 * other parent) invalidates most terms anyway, so the bookkeeping
 * would only add overhead.
 */
constexpr std::size_t kMaxDeltaRows = 4;

/** Row @p r of width @p w of a flat decision table. */
template <typename T>
std::span<const T>
rowOf(const std::vector<T> &rows, std::size_t r, std::size_t w)
{
    return std::span<const T>(rows).subspan(r * w, w);
}

} // namespace

DeltaEvaluator::DeltaEvaluator(const Evaluator &eval) : eval_(&eval)
{
    const int nl = eval.arch().numLevels();
    const int nt = eval.problem().numTensors();
    baseCache_.reset(nl, nt);
    candCache_.reset(nl, nt);
}

const EvalResult &
DeltaEvaluator::rebase(const Mapping &mapping, EvalStats &stats)
{
    ++stats.deltaRebases;
    if (base_) {
        *base_ = mapping;
        *cand_ = mapping;
    } else {
        base_.emplace(mapping);
        cand_.emplace(mapping);
    }
    baseCache_.invalidateAll();
    hasValidBase_ = false;
    lastWasValidCandidate_ = false;
    if (eval_->checkValidity(*base_, baseScratch_)) {
        baseScratch_.nest.rebuild(*base_);
        computeAccessesInto(*base_, baseScratch_.nest,
                            baseScratch_.tiles, eval_->modelOptions(),
                            baseScratch_.result.accesses,
                            baseScratch_.kept, baseScratch_.avgExtents,
                            &baseCache_);
        eval_->finalizeModel(*base_, baseScratch_);
        hasValidBase_ = true;
    }
    return baseScratch_.result;
}

const EvalResult &
DeltaEvaluator::evaluateCandidate(const Decisions &candidate,
                                  EvalStats &stats)
{
    RUBY_ASSERT(base_, "rebase() before evaluating candidates");
    ++stats.deltaAttempts;

    computeDiff(candidate, diffScratch_);
    if (diffScratch_.rows() == 0 && hasValidBase_) {
        // Exact duplicate of the base: zero model work.
        ++stats.deltaHits;
        lastWasValidCandidate_ = false;
        return baseScratch_.result;
    }

    cand_->assign(candidate);

    const bool incremental =
        hasValidBase_ && diffScratch_.rows() <= kMaxDeltaRows;
    if (incremental) {
        invalidateDirtyTerms(diffScratch_);
        ++stats.deltaHits;
        if (checkValidityIncremental(diffScratch_))
            runModelOnCandidate();
    } else {
        candCache_.invalidateAll();
        ++stats.deltaFallbacks;
        // A fallback redoes every access term, but the validity rules
        // hold at any diff width — a valid base still lets clean
        // levels and tile rows be reused.
        const bool valid =
            hasValidBase_ ? checkValidityIncremental(diffScratch_)
                          : eval_->checkValidity(*cand_, candScratch_);
        if (valid)
            runModelOnCandidate();
    }
#ifndef NDEBUG
    crossCheckCandidate();
#endif
    lastWasValidCandidate_ = candScratch_.result.valid;
    return candScratch_.result;
}

void
DeltaEvaluator::promoteLast()
{
    if (!lastWasValidCandidate_)
        return;
    std::swap(base_, cand_);
    std::swap(baseScratch_, candScratch_);
    std::swap(baseCache_, candCache_);
    hasValidBase_ = true;
    lastWasValidCandidate_ = false;
}

void
DeltaEvaluator::computeDiff(const Decisions &candidate, Diff &out) const
{
    out.clear();
    const std::size_t nd =
        static_cast<std::size_t>(eval_->problem().numDims());
    const std::size_t nl =
        static_cast<std::size_t>(eval_->arch().numLevels());
    const std::size_t nt =
        static_cast<std::size_t>(eval_->problem().numTensors());
    const std::size_t slots = 2 * nl;
    RUBY_ASSERT(candidate.steady.size() == nd * slots &&
                    candidate.perms.size() == nl * nd &&
                    candidate.keep.size() == nl * nt &&
                    candidate.axes.size() == nl * nd,
                "candidate rows do not match the problem and "
                "architecture shape");

    const Decisions &baseRows = base_->decisions();
    const auto differ = [](const auto &rows, const auto &base,
                           std::size_t r, std::size_t w) {
        const auto a = rowOf(rows, r, w);
        return !std::equal(a.begin(), a.end(), rowOf(base, r, w).begin());
    };
    for (std::size_t d = 0; d < nd; ++d)
        if (differ(candidate.steady, baseRows.steady, d, slots))
            out.chains.push_back(static_cast<DimId>(d));
    for (std::size_t l = 0; l < nl; ++l) {
        if (differ(candidate.perms, baseRows.perms, l, nd))
            out.perms.push_back(static_cast<int>(l));
        if (differ(candidate.keep, baseRows.keep, l, nt))
            out.keeps.push_back(static_cast<int>(l));
        if (differ(candidate.axes, baseRows.axes, l, nd))
            out.axes.push_back(static_cast<int>(l));
    }
}

void
DeltaEvaluator::invalidateDirtyTerms(const Diff &diff)
{
    candCache_ = baseCache_;

    const Problem &prob = eval_->problem();
    const int nl = eval_->arch().numLevels();
    const int nt = prob.numTensors();
    const int slots = base_->numSlots();

    // Invalidate every boundary pair whose child boundary b_c =
    // 2(c+1) lies at or below the outermost changed slot: the walk
    // over the region [b_c, ...) reads some changed loop.
    auto dirtyPairsUpTo = [&](int max_changed_slot) {
        for (int c = 0; c < nl; ++c) {
            if (2 * (c + 1) > max_changed_slot)
                break;
            for (int t = 0; t < nt; ++t)
                candCache_.pairValid[static_cast<std::size_t>(
                    t * nl + c)] = 0;
        }
    };

    for (DimId d : diff.chains) {
        const FactorChain &oc = base_->chain(d);
        const FactorChain &nc = cand_->chain(d);
        int max_changed = -1;
        bool slot0_changed = false;
        for (int j = 0; j < slots; ++j) {
            // Exact old-vs-new comparison: a steady edit at one slot
            // can shift tails and ragged body counts (mixed-radix
            // digits) at slots far above it, so the derived arrays —
            // not the edited row — define dirtiness.
            const bool changed =
                oc.at(j).steady != nc.at(j).steady ||
                oc.at(j).tail != nc.at(j).tail ||
                oc.bodyCount(j) != nc.bodyCount(j) ||
                oc.bodyCount(j + 1) != nc.bodyCount(j + 1);
            if (changed) {
                max_changed = j;
                if (j == 0)
                    slot0_changed = true;
            }
        }
        if (max_changed < 0)
            continue;
        dirtyPairsUpTo(max_changed);
        // The datapath sharing factor reads only slot-0 spatial loops
        // of dimensions irrelevant to the tensor.
        if (slot0_changed)
            for (int t = 0; t < nt; ++t)
                if (!prob.relevant(t, d))
                    candCache_.sharingValid[static_cast<std::size_t>(
                        t)] = 0;
    }

    for (int l : diff.perms) {
        // Level l's temporal slot 2l+1 reordered: regions with
        // b_c = 2(c+1) <= 2l+1, i.e. c < l, walk those loops.
        for (int c = 0; c < l; ++c)
            for (int t = 0; t < nt; ++t)
                candCache_.pairValid[static_cast<std::size_t>(
                    t * nl + c)] = 0;
    }

    for (int l : diff.keeps) {
        // A re-homed tensor's whole kept-ancestor chain moves, so
        // every one of its boundary pairs is dirty (the pair memo is
        // keyed by child level only, but the parent is implied by the
        // keep rows). Other tensors' terms never read t's keeps.
        for (int t = 0; t < nt; ++t) {
            if (cand_->keeps(l, t) == base_->keeps(l, t))
                continue;
            for (int c = 0; c < nl; ++c)
                candCache_.pairValid[static_cast<std::size_t>(
                    t * nl + c)] = 0;
        }
    }

    // Axis rows: nothing in the cost model reads mesh axes (only the
    // spatial-fit validity check, rechecked at the touched levels).
}

bool
DeltaEvaluator::checkValidityIncremental(const Diff &diff)
{
    // Exactly Evaluator::checkValidity(), but against a *valid* base:
    // every base level fits the mesh and baseScratch_ holds its tile
    // table, so only levels the diff can reach are rechecked and only
    // their tile rows recomputed. Failure messages are composed by the
    // same full walks the evaluator uses — clean levels cannot fail,
    // so the first failing level (and thus the message) is identical.
    EvalResult &res = candScratch_.result;
    res.valid = false;
    res.invalidReason.clear();
    res.ops = eval_->problem().totalOperations();

    const Problem &prob = eval_->problem();
    const int nl = eval_->arch().numLevels();
    const int nt = prob.numTensors();
    const int slots = base_->numSlots();

    // Spatial fit at level l reads slot 2l of every chain plus axis
    // row l; anything else leaves the base's (passing) usage intact.
    for (int l = 0; l < nl; ++l) {
        bool dirty = false;
        for (const int a : diff.axes) {
            if (a == l) {
                dirty = true;
                break;
            }
        }
        if (!dirty) {
            const int s = spatialSlot(l);
            for (const DimId d : diff.chains) {
                if (base_->factor(d, s).steady !=
                    cand_->factor(d, s).steady) {
                    dirty = true;
                    break;
                }
            }
        }
        if (dirty && !spatialFitOkAt(*cand_, l)) {
            res.invalidReason = checkSpatialFit(*cand_);
            return false;
        }
    }

    // Tile row l projects the steady extents of slots
    // [0, boundarySlot(l)): it moves iff some chain's steady factor
    // changed strictly below that boundary. Clean rows are copied from
    // the base so the table is complete (a promoted candidate becomes
    // the next base).
    int min_changed = slots;
    for (const DimId d : diff.chains) {
        for (int k = 0; k < min_changed; ++k) {
            if (base_->factor(d, k).steady !=
                cand_->factor(d, k).steady) {
                min_changed = k;
                break;
            }
        }
    }
    TileInfo &tiles = candScratch_.tiles;
    tiles.tileWords.resize(static_cast<std::size_t>(nl));
    for (int l = 0; l < nl; ++l) {
        auto &row = tiles.tileWords[static_cast<std::size_t>(l)];
        const int boundary =
            std::min(TileInfo::boundarySlot(l), slots);
        if (boundary <= min_changed) {
            row = baseScratch_.tiles
                      .tileWords[static_cast<std::size_t>(l)];
            continue;
        }
        row.assign(static_cast<std::size_t>(nt), 0);
        cand_->extentsBelowInto(boundary, candScratch_.extents);
        for (int t = 0; t < nt; ++t)
            row[static_cast<std::size_t>(t)] =
                prob.tileVolume(t, candScratch_.extents);
    }
    if (!capacityOk(*cand_, tiles)) {
        res.invalidReason = checkCapacity(*cand_, tiles);
        return false;
    }
    return true;
}

void
DeltaEvaluator::runModelOnCandidate()
{
    candScratch_.nest.rebuild(*cand_);
    computeAccessesInto(*cand_, candScratch_.nest, candScratch_.tiles,
                        eval_->modelOptions(),
                        candScratch_.result.accesses,
                        candScratch_.kept, candScratch_.avgExtents,
                        &candCache_);
    eval_->finalizeModel(*cand_, candScratch_);
}

#ifndef NDEBUG
void
DeltaEvaluator::crossCheckCandidate()
{
    eval_->evaluate(*cand_, checkScratch_);
    const EvalResult &a = candScratch_.result;
    const EvalResult &b = checkScratch_.result;
    RUBY_ASSERT(a.valid == b.valid,
                "delta eval: validity diverged from the full model");
    RUBY_ASSERT(a.invalidReason == b.invalidReason,
                "delta eval: invalidity reason diverged");
    if (!a.valid)
        return;
    RUBY_ASSERT(a.ops == b.ops && a.energy == b.energy &&
                    a.cycles == b.cycles && a.edp == b.edp &&
                    a.utilization == b.utilization &&
                    a.macEnergy == b.macEnergy &&
                    a.networkEnergy == b.networkEnergy,
                "delta eval: headline metrics diverged");
    RUBY_ASSERT(a.levelEnergy == b.levelEnergy,
                "delta eval: level energies diverged");
    RUBY_ASSERT(a.accesses.reads == b.accesses.reads &&
                    a.accesses.writes == b.accesses.writes &&
                    a.accesses.networkWords == b.accesses.networkWords,
                "delta eval: access counts diverged");
    RUBY_ASSERT(a.latency.computeCycles == b.latency.computeCycles &&
                    a.latency.bandwidthCycles ==
                        b.latency.bandwidthCycles &&
                    a.latency.cycles == b.latency.cycles &&
                    a.latency.utilization == b.latency.utilization,
                "delta eval: latency diverged");
}
#endif

} // namespace ruby
