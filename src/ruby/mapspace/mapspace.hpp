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
 * Sampling is split in two: sampleInto() writes one draw's decisions
 * into reused flat rows without allocating, and materialize() builds
 * the Mapping from them. Batched searches ingest the rows directly and
 * materialize only the few candidates that survive the batch stages;
 * sample() is the two steps back to back, so there is one sampler.
 */

#ifndef RUBY_MAPSPACE_MAPSPACE_HPP
#define RUBY_MAPSPACE_MAPSPACE_HPP

#include <string>
#include <unordered_map>
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
 * Per-thread sampler state for Mapspace::sampleInto(): the ascending
 * divisors of every remaining tile count the sampler has drawn at,
 * computed on first use, plus the draw's two work rows. The sampler
 * only asks for m = ceil(D / k) of the problem's dimension sizes D, so
 * the table stays small; it depends on no mapspace and may be shared
 * by every search a thread runs. Never share one across threads.
 */
class DivisorMemo
{
  public:
    /**
     * Ascending divisors of @p n (>= 1), memoized. The reference is
     * valid until the next call.
     */
    const std::vector<std::uint64_t> &divisorsOf(std::uint64_t n);

    /**
     * Entries kept before the table starts over. A search needs a few
     * hundred at most; the cap only bounds a long-lived thread that
     * samples many distinct problems through sample().
     */
    static constexpr std::size_t kMaxEntries = 4096;

  private:
    friend class Mapspace;

    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
        table_;
    std::vector<std::uint64_t> remaining_; ///< tile count left per dim
    std::vector<DimId> order_;             ///< per-slot visit order
};

/**
 * A mapspace over one (problem, architecture, constraints) triple.
 * The constraints object (and the problem/arch it references) must
 * outlive the mapspace.
 */
class Mapspace
{
  public:
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
     * Draw a random mapping. Factor chains and spatial fanout usage
     * are valid by construction; capacity may still be violated (the
     * evaluator filters, mirroring Timeloop's generate-then-filter
     * flow).
     */
    Mapping sample(Rng &rng) const;

    /**
     * Draw the same random mapping sample() would (the same RNG calls
     * in the same order) as flat decision rows in @p out, reusing its
     * capacity: no heap allocation once @p out and @p memo have grown.
     */
    void sampleInto(Rng &rng, Decisions &out, DivisorMemo &memo) const;

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
    const MappingConstraints *constraints_;
    MapspaceVariant variant_;
};

} // namespace ruby

#endif // RUBY_MAPSPACE_MAPSPACE_HPP
