/**
 * @file
 * Tiling-slot layout and per-dimension factor chains.
 *
 * A mapping tiles every problem dimension over an alternating chain of
 * *slots*, inner to outer. Each storage level l contributes two slots:
 *
 *   slot 2l   — spatial(l): the parFor distributing level-l tiles
 *               across instances of the next-inner level (for l = 0,
 *               across MAC datapaths);
 *   slot 2l+1 — temporal(l): the for iterating level-l tiles in time.
 *
 * A chain assigns each slot a steady bound P_k; the tail bounds R_k
 * (the paper's remainders, eq. (5)) are the mixed-radix digits of
 * D-1 in radices (P_0 .. P_{K-1}) plus one. Perfect factorization is
 * exactly prod(P) == D, in which case R_k == P_k everywhere.
 */

#ifndef RUBY_MAPPING_FACTOR_CHAIN_HPP
#define RUBY_MAPPING_FACTOR_CHAIN_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "ruby/workload/problem.hpp"

namespace ruby
{

/** Steady/tail loop-bound pair (P, R) for one slot of one dimension. */
struct FactorPair
{
    std::uint64_t steady = 1; ///< P: bound of all but the tail pass
    std::uint64_t tail = 1;   ///< R: bound of the final (tail) pass

    /** True iff this slot is remainderless for this dimension. */
    bool perfect() const { return steady == tail; }
};

/** Spatial slot index of storage level l. */
constexpr int
spatialSlot(int level)
{
    return 2 * level;
}

/** Temporal slot index of storage level l. */
constexpr int
temporalSlot(int level)
{
    return 2 * level + 1;
}

/** True iff slot k is a spatial (parFor) slot. */
constexpr bool
isSpatialSlot(int slot)
{
    return slot % 2 == 0;
}

/** Storage level owning slot k. */
constexpr int
slotLevel(int slot)
{
    return slot / 2;
}

/**
 * The tiling of one problem dimension: steady bounds per slot (inner
 * to outer) with derived tails and exact ragged iteration counts.
 */
class FactorChain
{
  public:
    /**
     * Build a chain for a dimension of size @p dim from per-slot
     * steady bounds (prod(steady) must be >= dim; every bound >= 1).
     */
    FactorChain(std::uint64_t dim, std::span<const std::uint64_t> steady);

    /** Braced-list and vector form of the constructor above. */
    FactorChain(std::uint64_t dim, const std::vector<std::uint64_t> &steady)
        : FactorChain(dim, std::span<const std::uint64_t>(steady))
    {
    }

    /**
     * Replace the steady bounds in place (same dimension, same slot
     * count) and rederive tails, body counts and extents. Produces a
     * chain identical to FactorChain(dim(), steady) without touching
     * the heap — the incremental evaluator re-tiles candidate
     * mappings through this on its hot path.
     */
    void assign(std::span<const std::uint64_t> steady);

    /** Dimension size covered by the chain. */
    std::uint64_t dim() const { return dim_; }

    /** Number of slots. */
    int numSlots() const { return static_cast<int>(factors_.size()); }

    /** The (P, R) pair at slot k. */
    const FactorPair &at(int slot) const;

    /**
     * All (P, R) pairs, inner to outer. The bulk form of at() for
     * ingestion loops (batched evaluation) that would otherwise pay a
     * call per slot.
     */
    const std::vector<FactorPair> &factors() const { return factors_; }

    /**
     * Exact total number of body executions of the slot-k loop, i.e.
     * the product of the iterations of all loops at slots >= k along
     * this dimension (paper eq. (5) rebased to counts). bodyCount(0)
     * equals dim() exactly; bodyCount(numSlots()) is 1.
     */
    std::uint64_t bodyCount(int slot) const;

    /**
     * Product of steady bounds of slots [0, slot): the per-dimension
     * extent of the tile whose boundary sits at @p slot.
     */
    std::uint64_t steadyExtentBelow(int slot) const;

    /** True iff every slot is perfect (a PFM chain). */
    bool fullyPerfect() const;

  private:
    std::uint64_t dim_;
    std::vector<FactorPair> factors_;
    /** bodies_[k] = bodyCount(k); bodies_[numSlots()] = 1. */
    std::vector<std::uint64_t> bodies_;
    /** extents_[k] = steadyExtentBelow(k); size numSlots()+1. */
    std::vector<std::uint64_t> extents_;
};

} // namespace ruby

#endif // RUBY_MAPPING_FACTOR_CHAIN_HPP
