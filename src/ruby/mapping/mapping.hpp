/**
 * @file
 * The mapping IR: a complete allocation of a problem onto an
 * architecture — per-dimension factor chains over the slot layout,
 * per-level temporal loop orders, and per-level per-tensor residency
 * (keep/bypass) decisions. It holds its tables and nothing derived
 * from them for other engines: the batch evaluator packs what it
 * reads itself.
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
 * A complete mapping of @c Problem onto @c ArchSpec.
 *
 * Mappings are immutable to every consumer except the incremental
 * evaluator, which edits whole components in place through the
 * set*() mutators below — each preserves every construction
 * invariant and performs no heap allocation, so a search can morph
 * one mapping through thousands of candidates without rebuilding it.
 *
 * The referenced problem and architecture must outlive the mapping.
 */
class Mapping
{
  public:
    /**
     * @param problem Problem being mapped.
     * @param arch    Target architecture.
     * @param steady  steady[d] = per-slot steady bounds of dimension
     *                d, inner to outer; 2 * numLevels slots each.
     *                prod(steady[d]) must be >= dimSize(d).
     * @param perms   perms[l] = order of level l's temporal loops,
     *                outermost first; each a permutation of all dims.
     * @param keep    keep[l][t] = tensor t resides at level l. The
     *                innermost and outermost levels must keep all.
     * @param axes    axes[l][d] = mesh axis dimension d's spatial
     *                factor at level l occupies; empty = all X.
     *                Validity requires the per-axis products to fit
     *                the level's fanoutX / fanoutY.
     */
    Mapping(const Problem &problem, const ArchSpec &arch,
            const std::vector<std::vector<std::uint64_t>> &steady,
            std::vector<std::vector<DimId>> perms,
            std::vector<std::vector<char>> keep,
            std::vector<std::vector<SpatialAxis>> axes = {});

    /**
     * A mapping from flat decision rows (see Decisions). The packed
     * masks are recomputed, not trusted; @p decisions.axes may be
     * empty (all X).
     */
    Mapping(const Problem &problem, const ArchSpec &arch,
            const Decisions &decisions);

    /** The mapped problem. */
    const Problem &problem() const { return *problem_; }

    /** The target architecture. */
    const ArchSpec &arch() const { return *arch_; }

    /** Number of tiling slots (2 per storage level). */
    int numSlots() const { return 2 * arch_->numLevels(); }

    /** Factor chain of dimension d. */
    const FactorChain &chain(DimId d) const;

    /** All chains, indexed by dimension — bulk form of chain(). */
    const std::vector<FactorChain> &chains() const { return chains_; }

    /** The (steady, tail) pair of dimension d at slot k. */
    const FactorPair &factor(DimId d, int slot) const
    {
        return chain(d).at(slot);
    }

    /** Temporal loop order of level l, outermost first. */
    const std::vector<DimId> &permutation(int level) const;

    /** True iff tensor t is kept (not bypassed) at level l. */
    bool keeps(int level, int tensor) const;

    /** The whole keep table [level][tensor] — bulk form of keeps(). */
    const std::vector<std::vector<char>> &keepTable() const
    {
        return keep_;
    }

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

    /**
     * The whole axis table [level][dim] — bulk form of spatialAxis().
     * Empty means every dimension maps to the X axis.
     */
    const std::vector<std::vector<SpatialAxis>> &axisTable() const
    {
        return axes_;
    }

    /**
     * Replace dimension @p d's steady bounds in place (same slot
     * count; prod must cover the dimension). Allocation-free.
     */
    void setChain(DimId d, std::span<const std::uint64_t> steady);

    /** Replace level @p level's temporal loop order in place. */
    void setPermutation(int level, std::span<const DimId> perm);

    /**
     * Replace level @p level's keep flags in place. The innermost and
     * outermost levels must still keep every tensor.
     */
    void setKeepRow(int level, std::span<const char> keep);

    /**
     * Replace level @p level's spatial-axis row in place. If the
     * mapping was built with empty axes (all X), the full axis table
     * is materialized first (one-time allocation).
     */
    void setAxisRow(int level, std::span<const SpatialAxis> axes);

    /**
     * The flat decision rows of this mapping, the inverse of the
     * Decisions constructor: keep flags are 0 or 1, the axis rows are
     * always complete (X where the mapping was built without axes).
     */
    Decisions decisions() const;

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
    /**
     * Check the invariants both constructors share: permutations
     * cover every dimension, boundary levels keep every tensor.
     */
    void checkInvariants();

    const Problem *problem_;
    const ArchSpec *arch_;
    std::vector<FactorChain> chains_;
    std::vector<std::vector<DimId>> perms_;
    std::vector<std::vector<char>> keep_;
    /** axes_[l][d]; empty means all X. */
    std::vector<std::vector<SpatialAxis>> axes_;
};

} // namespace ruby

#endif // RUBY_MAPPING_MAPPING_HPP
