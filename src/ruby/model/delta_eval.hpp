/**
 * @file
 * Incremental (delta) evaluation for the iterative searches.
 *
 * The iterative searches evaluate long runs of *adjacent* mappings: a
 * hill-climbing neighbour changes one row of its Decisions, a
 * mutation-only genetic child differs from its parent in a single
 * row. The full model re-derives every per-tensor access term from
 * scratch each time; the DeltaEvaluator instead keeps one
 * fully-evaluated *base* mapping and the per-term memo the model
 * produced for it (AccessTermCache). It takes each candidate as the
 * same flat Decisions rows the searches edit, diffs them against the
 * rows the base mapping stores (one contiguous compare per chain,
 * loop-order, residency and axis row), assigns them to its reused
 * candidate Mapping (Mapping::assign rederives only the chains whose
 * steady row changed), and re-derives only the terms the touched rows
 * can reach:
 *
 *   chain(d)  — exact per-slot comparison of the old and new factor
 *               chains (steady, tail, ragged body counts); a boundary
 *               pair (t, c) is dirty iff some slot >= b_c changed,
 *               the datapath sharing factor of tensor t is dirty iff
 *               slot 0 changed and t is irrelevant to d.
 *   perm(l)   — loop order above boundary 2l+1 changed: pairs with
 *               child level c < l are dirty; sharing is untouched.
 *   keep(l)   — every boundary pair of each re-homed tensor is dirty
 *               (its kept-ancestor chain moved); sharing untouched.
 *   axes(l)   — nothing in the cost model reads mesh axes; only the
 *               spatial-fit validity check can change, so a valid
 *               candidate reuses every cached term.
 *
 * Clean terms are consumed verbatim by the *same* accumulation code
 * the full model runs (computeAccessesInto with the cache), and the
 * latency / energy assembly is re-run in full, so the produced
 * EvalResult is bit-identical to Evaluator::evaluate() on the
 * candidate — the delta path is an exact recomputation, not an
 * approximation. Validity is served incrementally too: against a
 * valid base only levels whose spatial factors or axis rows moved are
 * rechecked against the mesh, and only tile rows whose chain
 * projection changed are recomputed (clean rows copy from the base).
 * Debug builds verify all of this per candidate against a
 * from-scratch evaluation.
 *
 * Candidates whose diff touches more than a few rows (e.g. genetic
 * crossover children) fall back to a full in-place recomputation —
 * still allocation-free through the candidate buffers, but with no
 * term reuse. EvalStats.deltaHits / deltaFallbacks count the split.
 */

#ifndef RUBY_MODEL_DELTA_EVAL_HPP
#define RUBY_MODEL_DELTA_EVAL_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "ruby/mapping/mapping.hpp"
#include "ruby/model/evaluator.hpp"

namespace ruby
{

/**
 * Incremental evaluation engine for one (problem, arch) pair. Owns a
 * base mapping, its full evaluation, and the per-term memo; serves
 * candidate evaluations against that base. Not thread-safe: each
 * search thread owns its own engine (like EvalScratch).
 *
 * Protocol: rebase() once on a fully-constructed mapping, then any
 * number of evaluateCandidate() calls; promoteLast() adopts the most
 * recent *valid* candidate as the new base in O(1) (buffer swaps).
 */
class DeltaEvaluator
{
  public:
    explicit DeltaEvaluator(const Evaluator &eval);

    /**
     * Make @p mapping the base: evaluate it fully (priming the term
     * memo) and remember the outcome. Counts one EvalStats
     * deltaRebase. An invalid base is tolerated — subsequent
     * candidates are then served by full recomputation until a valid
     * base exists.
     */
    const EvalResult &rebase(const Mapping &mapping, EvalStats &stats);

    /**
     * Evaluate the mapping whose decision rows are @p candidate (axis
     * rows complete, keep flags 0 or 1, as every Mapspace draw and
     * edit writes them). Produces exactly
     * what Evaluator::evaluate() would (validity flag, reason and all
     * metrics bit-identical); counts one deltaAttempt plus either a
     * deltaHit (served against the base, possibly with zero model
     * work for an exact duplicate) or a deltaFallback (full in-place
     * recomputation). Requires a prior rebase(). The rows are read
     * during the call only.
     */
    const EvalResult &evaluateCandidate(const Decisions &candidate,
                                        EvalStats &stats);

    /**
     * Adopt the last evaluateCandidate() result as the new base.
     * Only meaningful immediately after a *valid* candidate
     * evaluation; otherwise a no-op. O(1): swaps the base and
     * candidate buffers.
     */
    void promoteLast();

    /** The base evaluation result (valid after the first rebase()). */
    const EvalResult &baseResult() const { return baseScratch_.result; }

  private:
    /** The rows where a candidate differs from the base. */
    struct Diff
    {
        std::vector<DimId> chains;
        std::vector<int> perms;
        std::vector<int> keeps;
        std::vector<int> axes;

        std::size_t rows() const
        {
            return chains.size() + perms.size() + keeps.size() +
                   axes.size();
        }
        void clear()
        {
            chains.clear();
            perms.clear();
            keeps.clear();
            axes.clear();
        }
    };

    void computeDiff(const Decisions &candidate, Diff &out) const;
    void invalidateDirtyTerms(const Diff &diff);
    bool checkValidityIncremental(const Diff &diff);
    void runModelOnCandidate();
#ifndef NDEBUG
    void crossCheckCandidate();
#endif

    const Evaluator *eval_;
    std::optional<Mapping> base_;
    std::optional<Mapping> cand_;
    EvalScratch baseScratch_;
    EvalScratch candScratch_;
    AccessTermCache baseCache_;
    AccessTermCache candCache_;
    /** Per-call diff buffer (kept to avoid reallocation). */
    Diff diffScratch_;
    bool hasValidBase_ = false;
    bool lastWasValidCandidate_ = false;

#ifndef NDEBUG
    EvalScratch checkScratch_;
#endif
};

} // namespace ruby

#endif // RUBY_MODEL_DELTA_EVAL_HPP
