/**
 * @file
 * Mapspace definition and random sampling for the four spaces the
 * paper studies.
 *
 * A mapspace variant fixes, per tiling slot, whether factors must be
 * perfect (divide the remaining tile count) or may be imperfect (any
 * bound; the tail pass covers the remainder). Sampling walks each
 * dimension's slots inner to outer maintaining the remaining tile
 * count m: a perfect slot draws a divisor of m, an imperfect slot
 * draws any bound in [1, min(cap, m)] and continues with ceil(m / P);
 * the outermost temporal slot absorbs what remains. By construction
 * (see math_util.hpp) the derived tails are perfect exactly at the
 * perfect slots, so Ruby-S chains carry remainders only at spatial
 * slots, Ruby-T only at temporal ones.
 *
 * A draw makes the residency (keep) bits first, because interior
 * residency decides which tensors a level's capacity counts, then the
 * tiling slots inner to outer, and the loop orders last. Level l's
 * steady tiles depend only on slots [0, 2l+2) (TileInfo::
 * boundarySlot), so once slot 2l+1 is drawn sampleInto() checks level
 * l's capacity with capacityOk()'s arithmetic and stops the draw on
 * the first overflow. Spatial fit holds by construction, so a draw
 * that completes is valid. The distribution is unchanged: a rejected
 * draw is one the evaluator would reject, a completed one is exactly
 * what sample() returns on the same stream, and each search draw
 * reads its own keyed stream (Rng::keyed), so stopping one early
 * shifts no other.
 *
 * The visit order of the dimensions is reshuffled only at spatial
 * slots with fanout > 1, where they share the mesh-axis budgets. At
 * temporal and fanout-1 slots each dimension's draw depends on its
 * own m alone, so a shuffle would cost RNG calls and change nothing.
 * The allowed mesh axes per (level, dimension) are tabulated at
 * construction, the divisors of every reachable m = ceil(D / k) on
 * the first draw (building a mapspace stays cheap); a Mapspace is
 * logically immutable and may be shared across threads.
 *
 * Sampling is split in two: sampleInto() writes one draw's decisions
 * into reused flat rows without allocating, and materialize() builds
 * the Mapping from them. Batched searches ingest the rows directly and
 * materialize only the few candidates that survive the batch stages;
 * sample() is the two steps back to back (never rejecting), so there
 * is one sampler.
 */

#ifndef RUBY_MAPSPACE_MAPSPACE_HPP
#define RUBY_MAPSPACE_MAPSPACE_HPP

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ruby/common/rng.hpp"
#include "ruby/mapping/constraints.hpp"
#include "ruby/mapping/decisions.hpp"
#include "ruby/mapping/mapping.hpp"

namespace ruby
{

/** The four mapspaces of the paper (Sec. III-A). */
enum class MapspaceVariant
{
    PFM,   ///< perfect factorization only (the Timeloop baseline)
    Ruby,  ///< imperfect factors at every slot
    RubyS, ///< imperfect factors at spatial slots only
    RubyT, ///< imperfect factors at temporal slots only
};

/** Short display name ("PFM", "Ruby", "Ruby-S", "Ruby-T"). */
std::string variantName(MapspaceVariant variant);

/** Does @p variant allow imperfect factors at spatial slots? */
bool imperfectSpatial(MapspaceVariant variant);

/** Does @p variant allow imperfect factors at temporal slots? */
bool imperfectTemporal(MapspaceVariant variant);

/**
 * A mapspace over one (problem, architecture, constraints) triple.
 * The constraints object (and the problem/arch it references) must
 * outlive the mapspace.
 */
class Mapspace
{
  public:
    /** Most problem dimensions a draw supports (its work rows live on
     *  the stack); the constructor rejects larger problems. */
    static constexpr int kMaxDims = 64;

    Mapspace(const MappingConstraints &constraints,
             MapspaceVariant variant);

    const Problem &problem() const { return constraints_->problem(); }
    const ArchSpec &arch() const { return constraints_->arch(); }
    const MappingConstraints &constraints() const
    {
        return *constraints_;
    }
    MapspaceVariant variant() const { return variant_; }

    /**
     * Draw a random mapping, always to completion. Factor chains and
     * spatial fanout usage are valid by construction; capacity may
     * still be violated (the evaluator filters, mirroring Timeloop's
     * generate-then-filter flow).
     */
    Mapping sample(Rng &rng) const;

    /**
     * Draw one mapping as flat decision rows in @p out, reusing its
     * capacity (no heap allocation once @p out has grown). Returns
     * false as soon as a level's kept tiles overflow its capacity;
     * the rows are then incomplete and must not be used. On true the
     * rows materialize to exactly the mapping sample() returns on the
     * same stream, and that mapping passes the evaluator's validity
     * check.
     */
    bool sampleInto(Rng &rng, Decisions &out) const;

    /** The Mapping of a draw made by sampleInto(). */
    Mapping materialize(const Decisions &decisions) const;

    /**
     * Per-slot factor cap for dimension d at slot k: the level
     * fanout at allowed spatial slots, 1 at disallowed spatial
     * slots, unbounded (0) at temporal slots.
     */
    std::uint64_t slotCap(DimId d, int slot) const;

    /** Is slot k allowed to carry a remainder under this variant? */
    bool slotImperfect(int slot) const;

  private:
    /**
     * The ascending divisors of every remaining count m each dimension
     * can reach, one list per m: dimension d's list for m is
     * lists[dims[d].byM + m] when m <= split, else
     * lists[dims[d].byM + split + 1 + ceil(D / m)] (the smallest k with
     * ceil(D / k) == m: distinct for distinct reachable m, and at most
     * about sqrt(D)).
     */
    struct DivisorTables
    {
        struct Dim
        {
            std::uint64_t size = 1;  ///< D
            std::uint64_t split = 1; ///< floor(sqrt(D))
            std::size_t byM = 0;
        };

        std::once_flag built;
        std::vector<Dim> dims;
        std::vector<std::vector<std::uint64_t>> lists;

        void build(const Problem &prob);

        /** Inline: a draw makes several lookups. */
        const std::vector<std::uint64_t> &of(DimId d,
                                             std::uint64_t m) const
        {
            const Dim &dim = dims[static_cast<std::size_t>(d)];
            return lists[m <= dim.split ? dim.byM + m
                                        : dim.byM + dim.split + 1 +
                                              (dim.size + m - 1) / m];
        }
    };

    /** The draw behind sample() (@p reject false: never stops) and
     *  sampleInto() (@p reject true). */
    bool draw(Rng &rng, Decisions &out, bool reject) const;

    /** The divisor tables, built by the first caller. */
    const DivisorTables &divisorTables() const;

    const MappingConstraints *constraints_;
    MapspaceVariant variant_;

    /** Axes dimension d may occupy at level l, [l * nd + d]: bit 0 X,
     *  bit 1 Y. */
    std::vector<std::uint8_t> axisMask_;
    std::unique_ptr<DivisorTables> divisors_;
};

} // namespace ruby

#endif // RUBY_MAPSPACE_MAPSPACE_HPP
