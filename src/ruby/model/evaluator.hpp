/**
 * @file
 * The top of the analytic cost model: validity, energy, latency, EDP.
 *
 * Two entry points exist. evaluate() is the simple allocating form.
 * The *fast path* used by the searches splits the work into three
 * stages driven through a reusable EvalScratch:
 *
 *   1. checkValidity()      — spatial-fit + tile + capacity checks;
 *                             no cost model is run.
 *   2. objectiveLowerBound()— a cheap, provably-sound lower bound on
 *                             the objective (exact serial compute
 *                             steps x a mapping-independent energy
 *                             floor: MACs, one backing-store pass per
 *                             tensor and the level-0 datapath reads).
 *                             Mappings whose bound cannot beat the
 *                             incumbent are pruned before the full
 *                             model runs.
 *   3. the full model       — evaluate(mapping, scratch), writing
 *                             into scratch.result with zero heap
 *                             allocations in steady state.
 *
 * evaluateStaged() sequences the three stages and reports which one
 * decided the outcome, so searches can keep per-stage counters.
 */

#ifndef RUBY_MODEL_EVALUATOR_HPP
#define RUBY_MODEL_EVALUATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ruby/arch/arch_spec.hpp"
#include "ruby/common/error.hpp"
#include "ruby/mapping/mapping.hpp"
#include "ruby/mapping/nest.hpp"
#include "ruby/model/access_counts.hpp"
#include "ruby/model/latency.hpp"
#include "ruby/model/tile_analysis.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby
{

/** Search objective (the paper optimizes EDP; Sec. IV-D also delay). */
enum class Objective
{
    EDP,
    Energy,
    Delay,
};

/** Full evaluation of one mapping. */
struct EvalResult
{
    /** False when the mapping violates capacity or fanout. */
    bool valid = false;
    /** Human-readable reason when invalid. */
    std::string invalidReason;

    std::uint64_t ops = 0;      ///< total MACs
    double energy = 0.0;        ///< total energy, pJ
    double cycles = 0.0;        ///< total delay, cycles
    double edp = 0.0;           ///< energy * cycles
    double utilization = 0.0;   ///< datapath utilization in [0, 1]

    /** Energy per storage level (pJ), same order as arch levels. */
    std::vector<double> levelEnergy;
    double macEnergy = 0.0;     ///< datapath energy, pJ
    double networkEnergy = 0.0; ///< array-network energy, pJ

    AccessCounts accesses;      ///< access-count breakdown
    LatencyResult latency;      ///< latency breakdown

    /** The metric being minimized under @p obj. */
    double objective(Objective obj) const;
};

/**
 * Per-evaluation scratch workspace: every buffer the staged fast path
 * writes, owned by exactly one search thread (never shared — see
 * docs/PERFORMANCE.md). After warm-up on a given (problem, arch)
 * shape, evaluations through a scratch perform no heap allocation.
 */
struct EvalScratch
{
    /** Full-model output; valid after Modeled (or Invalid) stages. */
    EvalResult result;
    /** Per-level, per-tensor steady tile volumes. */
    TileInfo tiles;
    /** Reusable flattened loop nest. */
    Nest nest;
    /** Per-dimension steady extents (tile analysis). */
    std::vector<std::uint64_t> extents;
    /** Per-dimension average extents (access counting). */
    std::vector<double> avgExtents;
    /** Kept-level list (access counting). */
    std::vector<int> kept;
};

/** Which stage decided a staged evaluation. */
enum class StagedEval
{
    Invalid,     ///< failed validity; scratch.result.valid == false
    PrunedBound, ///< valid, but provably cannot beat the incumbent
    Modeled,     ///< full model ran; scratch.result is complete
};

/**
 * Per-stage evaluation counters kept by the searches (surfaced in
 * SearchResult / LayerOutcome and the network summary).
 */
struct EvalStats
{
    std::uint64_t invalid = 0;     ///< rejected by validity stage
    std::uint64_t prunedBound = 0; ///< skipped by the lower bound
    std::uint64_t modeled = 0;     ///< full cost-model runs

    /*
     * Retired: the memo cache these counted is gone, so both stay
     * zero. Nothing sets, sums, encodes or prints them; they remain
     * only for out-of-tree readers of the struct and go with them.
     */
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /*
     * Incremental-evaluation counters (orthogonal to the decided()
     * partition: a delta-served candidate still counts under one of
     * the stage buckets above, exactly as if evaluated fully).
     * Their own partition identity deltaHits + deltaFallbacks ==
     * deltaAttempts is checked by the driver's stats diagnostic.
     */
    std::uint64_t deltaAttempts = 0;  ///< candidates offered as deltas
    std::uint64_t deltaHits = 0;      ///< served incrementally
    std::uint64_t deltaFallbacks = 0; ///< fell back to full recompute
    std::uint64_t deltaRebases = 0;   ///< full evals to set a base

    /*
     * Batched (SoA) evaluation counters — same companion-ledger
     * discipline as the delta counters: a batch-served candidate still
     * lands in exactly one decided() bucket above (batchRejects is the
     * batch-served share of `invalid`), so the partition identity is
     * untouched. batchCalls is bumped once per BatchEvaluator::run();
     * the consumer bumps batchedEvals/batchRejects per candidate it
     * actually consumes, so abandoned batch tails never count.
     * Random search screens in the sampler instead of a batch and
     * keeps the same values: batchCalls counts its blocks of 32 draw
     * indices with a completed draw, batchedEvals its completed draws,
     * and batchRejects the survivors Evaluator::evaluate() finds
     * invalid (0 by construction).
     */
    std::uint64_t batchCalls = 0;   ///< BatchEvaluator::run() calls
    std::uint64_t batchedEvals = 0; ///< candidates served from a batch
    std::uint64_t batchRejects = 0; ///< batch-served validity rejects

    /**
     * Samples accounted for by some stage. The partition invariant
     * decided() == evaluated must hold for every completed search;
     * the driver checks it in all build types and surfaces a
     * per-layer diagnostic in the report on violation (silent
     * mis-accounting would corrupt every downstream aggregate).
     */
    std::uint64_t decided() const
    {
        return invalid + prunedBound + modeled;
    }

    EvalStats &operator+=(const EvalStats &o)
    {
        invalid += o.invalid;
        prunedBound += o.prunedBound;
        modeled += o.modeled;
        deltaAttempts += o.deltaAttempts;
        deltaHits += o.deltaHits;
        deltaFallbacks += o.deltaFallbacks;
        deltaRebases += o.deltaRebases;
        batchCalls += o.batchCalls;
        batchedEvals += o.batchedEvals;
        batchRejects += o.batchRejects;
        return *this;
    }
};

/**
 * Evaluates mappings of one (problem, architecture) pair. Stateless
 * apart from cached references; cheap to copy and thread-safe to use
 * concurrently from multiple threads (each with its own EvalScratch).
 */
class Evaluator
{
  public:
    /**
     * @param problem Problem every evaluated mapping must reference.
     * @param arch    Architecture every evaluated mapping must target.
     * @param opts    Model feature toggles (ablations).
     */
    Evaluator(const Problem &problem, const ArchSpec &arch,
              ModelOptions opts = {});

    /** The modeled problem. */
    const Problem &problem() const { return *problem_; }

    /** The modeled architecture. */
    const ArchSpec &arch() const { return *arch_; }

    /**
     * Evaluate @p mapping. Invalid mappings get valid == false and a
     * reason; metric fields are then unspecified.
     */
    EvalResult evaluate(const Mapping &mapping) const;

    /**
     * Full evaluation through @p scratch: identical numbers to
     * evaluate(), but all buffers are reused. The outcome (including
     * invalidity) lands in scratch.result.
     */
    void evaluate(const Mapping &mapping, EvalScratch &scratch) const;

    /**
     * Stage 1: capacity/fanout validity only; no cost model. Fills
     * scratch.tiles and, on failure, scratch.result.invalidReason.
     * Returns true iff the mapping is valid. Pass composeReason =
     * false to skip building the failure message — searches discard
     * it, and composing it is the only allocation on the reject path.
     */
    bool checkValidity(const Mapping &mapping, EvalScratch &scratch,
                       bool composeReason = true) const;

    /**
     * Stage 2: a sound lower bound on the mapping's objective,
     * computable without the full model. Combines the exact serial
     * compute-cycle count (actual cycles can only be larger) with the
     * compulsory energy floor (compulsoryEnergyFloor()). For every
     * valid mapping m:
     * objectiveLowerBound(m, obj) <= evaluate(m).objective(obj).
     */
    double objectiveLowerBound(const Mapping &mapping,
                               Objective obj) const;

    /**
     * Partial-mapping variant of the bound above, for branch-and-bound
     * search. @p stepsFloor holds one serial-step floor per problem
     * dimension: the exact serialSteps() of the chosen chain for
     * decided dims, and a lower bound over all candidate chains for
     * undecided ones. Multiplies in the same dim order as the Mapping
     * overload so a fully-decided vector reproduces it bit for bit —
     * bound comparisons against BatchEvaluator::bound() stay exact.
     */
    double objectiveLowerBound(const std::vector<double> &stepsFloor,
                               Objective obj) const;

    /**
     * The mapping- and option-independent energy floor used by
     * objectiveLowerBound(). Three terms, each at most the energy the
     * model charges to one place: every MAC (macEnergy), one traversal
     * of every tensor through the backing store (level nl-1, if not
     * 0), and the level-0 operand reads and output read-modify-writes
     * of every MAC, shared at most fanout(0)-fold by slot-0 spatial
     * loops (level 0; derivation in the constructor).
     */
    double compulsoryEnergyFloor() const { return compulsoryEnergy_; }

    /**
     * The bound of a serial-cycle floor under @p obj: the one
     * (cycles, objective) -> bound formula shared by both
     * objectiveLowerBound() overloads and the batched lane bound, so
     * all three agree bit for bit.
     */
    double boundFromCycles(double cycles, Objective obj) const
    {
        switch (obj) {
          case Objective::EDP:
            return compulsoryEnergy_ * cycles;
          case Objective::Energy:
            return compulsoryEnergy_;
          case Objective::Delay:
            return cycles;
        }
        RUBY_ASSERT(false, "unknown objective");
        return 0.0;
    }

    /**
     * Run the staged fast path: validity, then (optionally) the
     * lower-bound prune against @p bestSoFar, then the full model.
     * A mapping is pruned only when its bound is >= bestSoFar, i.e.
     * when it provably cannot *strictly* improve on the incumbent —
     * so searches that keep the first strict improvement find exactly
     * the same best mapping with pruning on or off.
     */
    StagedEval evaluateStaged(const Mapping &mapping, Objective obj,
                              double bestSoFar, bool boundPruning,
                              EvalScratch &scratch) const;

    /**
     * Stage 3 alone: run the full model on a mapping that already
     * passed checkValidity() with the SAME scratch (the model reads
     * scratch.tiles). Lets callers interleave their own work — e.g.
     * a memo-cache lookup — between the stages.
     */
    void modelValidated(const Mapping &mapping,
                        EvalScratch &scratch) const;

    /**
     * The tail of the full model: latency, per-level energy, EDP and
     * the final result fields, computed from scratch.result.accesses
     * (which the caller must already have filled). The incremental
     * evaluator reruns exactly this assembly after patching only the
     * dirty access terms; runFullModel() is nest rebuild + access
     * counting + finalizeModel().
     */
    void finalizeModel(const Mapping &mapping,
                       EvalScratch &scratch) const;

    /** The model feature toggles this evaluator was built with. */
    const ModelOptions &modelOptions() const { return opts_; }

  private:
    /** Stage 3: the full model; requires scratch.tiles to be fresh. */
    void runFullModel(const Mapping &mapping,
                      EvalScratch &scratch) const;

    const Problem *problem_;
    const ArchSpec *arch_;
    ModelOptions opts_;
    /** Energy floor: MACs, backing-store pass, level-0 datapath. */
    double compulsoryEnergy_ = 0.0;
};

} // namespace ruby

#endif // RUBY_MODEL_EVALUATOR_HPP
