/**
 * @file
 * Batched, data-oriented evaluation of K candidate mappings per call.
 *
 * The scalar fast path (evaluator.hpp) walks one pointer-rich Mapping
 * at a time: every validity check chases FactorChain vectors level by
 * level, and most random samples die in those first stages. The batch
 * evaluator restructures exactly those stages into structure-of-arrays
 * form. Candidates arrive as flat Decisions rows (a sampler draw, a
 * genetic child, an exhaustive index decoded into reused rows) and
 * are ingested as contiguous per-(row) lanes — steady bounds, boundary
 * extents, tile footprints, spatial usage — laid out so the validity
 * stages' inner loops always run over the batch dimension. The stage
 * loops are branch-light (selects, no early exits) and cache-dense,
 * which lets the compiler vectorize them; the staged reject (spatial
 * fit -> tiles/capacity -> objective bound) runs batch-wide so
 * rejected candidates never reach the expensive per-candidate
 * access-count model, and the bound stage (mixed-radix tail
 * derivation included) runs only over the survivors. A Mapping is
 * built only for the candidates that survive.
 *
 * The engine owns its layout: it packs each candidate's keep and
 * axis rows into its own mask words at ingest, as many as the tables
 * need, so it takes every problem and architecture and is the one
 * scoring path of the searches that score candidates in bulk
 * (genetic, exhaustive, optimal). Random search does not use it: its
 * sampler rejects invalid draws and bounds the rest while drawing
 * (Mapspace::sampleTiling()). No other encoding carries the packed
 * masks.
 *
 * The engine is an *exact* reformulation, not an approximation: every
 * per-lane recurrence is the same integer/double arithmetic, in the
 * same order, as the scalar walk it replaces, so valid(), bound() and
 * the tile table handed to Evaluator::modelValidated() are
 * bit-identical to checkValidity() / objectiveLowerBound() /
 * analyzeTilesInto(). Debug builds cross-check every lane against the
 * scalar path (same discipline as DeltaEvaluator). Searches consume
 * the batch results strictly in candidate order against their live
 * incumbent, which keeps best mappings, trajectories and stage
 * counters independent of the batch size.
 *
 * Ownership mirrors EvalScratch: one BatchEvaluator per search thread,
 * never shared. The underlying Evaluator stays immutable and shared.
 */

#ifndef RUBY_MODEL_BATCH_EVAL_HPP
#define RUBY_MODEL_BATCH_EVAL_HPP

#include <cstdint>
#include <vector>

#include "ruby/model/evaluator.hpp"

namespace ruby
{

/** Preferred batch width for the search loops: big enough that the
 *  lane loops amortize their setup and vectorize, small enough that a
 *  whole batch's lanes stay cache-resident. */
constexpr std::size_t kDefaultEvalBatch = 32;

class BatchEvaluator
{
  public:
    /** Bind to the scalar evaluator whose results must be matched.
     *  Any problem and architecture: the mask words grow with the
     *  keep and axis tables. */
    explicit BatchEvaluator(const Evaluator &evaluator);

    /**
     * Always true: the engine lays out every configuration. Kept only
     * for perfbench's probes, which still ask; delete it at the next
     * benchmark change.
     */
    static bool supports(const Problem &, const ArchSpec &)
    {
        return true;
    }

    /** Start a new batch; @p expected reserves lanes (grow-only). */
    void begin(std::size_t expected = kDefaultEvalBatch);

    /**
     * Ingest one candidate from a constructed Mapping: add() of its
     * decisions(). Kept for perfbench's probes, which hold mappings.
     */
    void add(const Mapping &mapping);

    /**
     * Ingest one candidate from flat decision rows: the steady row is
     * copied lane-wise as it stands and the keep and axis rows are
     * packed into the lane's mask words; nothing is borrowed. Every
     * search feeds its candidates this way and materializes a
     * Mapping only for the ones that survive the batch stages.
     */
    void add(const Decisions &decisions);

    /** Candidates ingested since begin(). */
    std::size_t size() const { return k_; }

    /**
     * Run the batch-wide staged reject over every ingested candidate:
     * boundary extents, spatial fit, tile footprints and capacity run
     * full-width over the lanes; when @p withBound is set, the exact
     * objective lower bound then runs only over the candidates that
     * survived validity, deriving their tails from the steady lanes
     * (mixed-radix digits of the dimension size, FactorChain::assign's
     * forward pass). Results are pure per-candidate facts; counters
     * for the stage buckets are bumped by the consumer, in candidate
     * order, so partially consumed batches (deadline, streak) stay
     * exact. Increments stats.batchCalls only.
     */
    void run(Objective obj, EvalStats &stats, bool withBound = true);

    /** Validity of candidate i (== Evaluator::checkValidity). */
    bool valid(std::size_t i) const
    {
        return valid_[i] != 0;
    }

    /**
     * Objective lower bound of candidate i, bit-identical to
     * Evaluator::objectiveLowerBound(). Only meaningful after a run()
     * with withBound = true, and only for candidates with valid(i) —
     * exactly the lanes the scalar fast path would have bounded.
     */
    double bound(std::size_t i) const
    {
        return bound_[i];
    }

    /**
     * Prepare @p scratch for Evaluator::modelValidated() on candidate
     * i exactly as checkValidity() would have: the tile table is
     * copied out of the batch lanes and the result header reset. Only
     * call for candidates with valid(i).
     */
    void prepareScratch(std::size_t i, EvalScratch &scratch) const;

  private:
    /** Grow every lane array to at least @p cap lanes. */
    void reserveLanes(std::size_t cap);

    /** Row base offset into a lane array. */
    std::size_t row(std::size_t r) const { return r * cap_; }

#ifndef NDEBUG
    /** Re-run the scalar path on every lane and compare. */
    void crossCheck(Objective obj, bool withBound) const;
#endif

    const Evaluator *eval_;
    const Problem *prob_;
    const ArchSpec *arch_;
    int nd_ = 0; ///< problem dimensions
    int nl_ = 0; ///< storage levels
    int nt_ = 0; ///< tensors
    int ns_ = 0; ///< tiling slots (2 * nl_)
    std::size_t keepWords_ = 0; ///< mask words per lane: nl_ * nt_ bits
    std::size_t axisWords_ = 0; ///< mask words per lane: nl_ * nd_ bits

    std::size_t k_ = 0;   ///< candidates in the current batch
    std::size_t cap_ = 0; ///< lane capacity (grow-only)

    // SoA lane arrays, all indexed [row * cap_ + lane]. Kept lean on
    // purpose: ingestion's per-candidate scatter touches one cache
    // line per row, so every row avoided is an L1 line the stage
    // loops keep. The boolean tables (keep, spatial axis) ride in
    // bitmask rows — flag r is bit r & 63 of word row r >> 6, one
    // word row for every practical accelerator — and the kernel
    // unpacks them with a constant shift-and-mask, which costs two
    // vector ops against the ~40 scattered stores full-width rows
    // would.
    std::vector<std::uint64_t> steady_;   ///< row d * ns_ + slot
    std::vector<std::uint64_t> ext_;      ///< row l * nd_ + d: extent
                                          ///< below boundarySlot(l)
    std::vector<std::uint64_t> tile_;     ///< row l * nt_ + t
    std::vector<std::uint64_t> keepMask_; ///< keepWords_ rows:
                                          ///< flag l*nt_+t
    std::vector<std::uint64_t> axisYMask_; ///< axisWords_ rows:
                                           ///< flag l*nd_+d is Y
    std::vector<std::uint64_t> acc_;    ///< one row: lane accumulator
    std::vector<std::uint64_t> acc2_;   ///< one row: lane accumulator
    std::vector<std::uint64_t> valid_;  ///< one row (0/1)
    std::vector<double> bound_;         ///< one row
};

} // namespace ruby

#endif // RUBY_MODEL_BATCH_EVAL_HPP
