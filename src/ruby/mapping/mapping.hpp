/**
 * @file
 * The mapping IR: a complete allocation of a problem onto an
 * architecture. It stores the mapping's flat decision rows
 * (Decisions: per-dimension steady bounds, per-level temporal loop
 * orders, residency and mesh axes) and derives from them only the
 * factor chains — the ragged tails and body counts of paper eq. (5).
 * Every other view (loop orders, keep flags, axes) indexes the rows.
 */

#ifndef RUBY_MAPPING_MAPPING_HPP
#define RUBY_MAPPING_MAPPING_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "ruby/arch/arch_spec.hpp"
#include "ruby/mapping/decisions.hpp"
#include "ruby/mapping/factor_chain.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby
{

/**
 * A complete mapping of @c Problem onto @c ArchSpec: its Decisions
 * rows and the factor chains derived from them. Both constructors
 * validate the rows once; assign() replaces them in place without
 * allocating, so the incremental evaluator can morph one mapping
 * through thousands of candidates without rebuilding it.
 *
 * The referenced problem and architecture must outlive the mapping.
 */
class Mapping
{
  public:
    /**
     * A mapping from flat decision rows (see Decisions): every row
     * complete, each permutation covering every dimension once, the
     * innermost and outermost levels keeping every tensor. Keep flags
     * are stored as 0 or 1. Validity additionally requires the
     * per-axis spatial products to fit each level's fanoutX / fanoutY.
     */
    Mapping(const Problem &problem, const ArchSpec &arch,
            Decisions decisions);

    /**
     * The same mapping from nested tables, flattened into Decisions.
     *
     * @param steady  steady[d] = per-slot steady bounds of dimension
     *                d, inner to outer; 2 * numLevels slots each.
     *                prod(steady[d]) must be >= dimSize(d).
     * @param perms   perms[l] = order of level l's temporal loops,
     *                outermost first; each a permutation of all dims.
     * @param keep    keep[l][t] = tensor t resides at level l.
     * @param axes    axes[l][d] = mesh axis dimension d's spatial
     *                factor at level l occupies; empty = all X.
     */
    Mapping(const Problem &problem, const ArchSpec &arch,
            const std::vector<std::vector<std::uint64_t>> &steady,
            const std::vector<std::vector<DimId>> &perms,
            const std::vector<std::vector<char>> &keep,
            const std::vector<std::vector<SpatialAxis>> &axes = {});

    /**
     * Replace every row with @p decisions, which must have this
     * mapping's shape and satisfy the constructor's rules (asserted,
     * not thrown). The result equals Mapping(problem(), arch(),
     * decisions); only chains whose steady row changed are
     * rederived, and no heap allocation is performed.
     */
    void assign(const Decisions &decisions);

    /** The mapped problem. */
    const Problem &problem() const { return *problem_; }

    /** The target architecture. */
    const ArchSpec &arch() const { return *arch_; }

    /** Number of tiling slots (2 per storage level). */
    int numSlots() const { return 2 * arch_->numLevels(); }

    /** Factor chain of dimension d. */
    const FactorChain &chain(DimId d) const;

    /** The (steady, tail) pair of dimension d at slot k. */
    const FactorPair &factor(DimId d, int slot) const
    {
        return chain(d).at(slot);
    }

    /** Temporal loop order of level l, outermost first. */
    std::span<const DimId> permutation(int level) const;

    /** True iff tensor t is kept (not bypassed) at level l. */
    bool keeps(int level, int tensor) const;

    /**
     * Per-dimension steady tile extents at slot boundary @p slot:
     * the iteration-space box covered by slots [0, slot).
     */
    std::vector<std::uint64_t> extentsBelow(int slot) const;

    /**
     * extentsBelow() into a caller-owned buffer (resized to the
     * dimension count); performs no heap allocation once the buffer
     * has capacity for numDims() entries.
     */
    void extentsBelowInto(int slot,
                          std::vector<std::uint64_t> &extents) const;

    /**
     * Product over dimensions of the steady spatial bounds at level
     * l: how many child instances level l drives concurrently in
     * steady state. Must not exceed the level's fanout for the
     * mapping to be valid.
     */
    std::uint64_t spatialUsage(int level) const;

    /** Spatial usage restricted to one mesh axis of level l. */
    std::uint64_t spatialUsage(int level, SpatialAxis axis) const;

    /** Mesh axis dimension d's spatial factor occupies at level l. */
    SpatialAxis spatialAxis(int level, DimId d) const;

    /** The decision rows this mapping stores. */
    const Decisions &decisions() const { return rows_; }

    /** True iff every chain is perfect (a PFM mapping). */
    bool fullyPerfect() const;

    /**
     * True iff all *temporal* slots are perfect (a Ruby-S mapping:
     * remainders only at spatial slots). PFMs satisfy this trivially.
     */
    bool spatialOnlyImperfection() const;

    /** Human-readable multi-line rendering of the loop nest. */
    std::string toString() const;

  private:
    const Problem *problem_;
    const ArchSpec *arch_;
    Decisions rows_;
    /** chains_[d], derived from rows_.steady. */
    std::vector<FactorChain> chains_;
};

} // namespace ruby

#endif // RUBY_MAPPING_MAPPING_HPP
