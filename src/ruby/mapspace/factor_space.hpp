/**
 * @file
 * Exhaustive enumeration of canonical factor chains for a single
 * dimension: the per-dimension building block of exhaustive search
 * and the mapspace-size study (Table I), plus the decision rows the
 * enumerating searches decode each leaf into.
 *
 * A chain is canonical when every slot bound P_k is at most the
 * remaining tile count m_k (larger bounds duplicate an execution that
 * a smaller bound already describes) and the walk ends with m == 1;
 * the outermost slot therefore absorbs the residual exactly.
 */

#ifndef RUBY_MAPSPACE_FACTOR_SPACE_HPP
#define RUBY_MAPSPACE_FACTOR_SPACE_HPP

#include <cstdint>
#include <vector>

#include "ruby/mapspace/mapspace.hpp"

namespace ruby
{

/** Per-slot generation rule. */
struct SlotRule
{
    /** Upper bound on the factor; 0 = unbounded. */
    std::uint64_t cap = 0;
    /** May this slot carry a remainder? */
    bool imperfect = false;
};

/** Build the slot rules of dimension @p d under @p space's variant. */
std::vector<SlotRule> chainRules(const Mapspace &space, DimId d);

/**
 * Enumerate every canonical chain of steady bounds for a dimension
 * of size @p dim under @p rules (deterministic order). Intended for
 * toy problems; the count grows quickly for imperfect rules.
 *
 * @param limit Stop after this many chains (0 = unlimited).
 */
std::vector<std::vector<std::uint64_t>>
enumerateChains(std::uint64_t dim, const std::vector<SlotRule> &rules,
                std::size_t limit = 0);

/**
 * The rows every enumerated leaf of exhaustive and optimal search
 * shares: keep-all residency honouring @p space's forced bypasses,
 * every spatial factor on the X axis, and steady and loop-order rows
 * sized for writeLeaf().
 */
Decisions leafRows(const Mapspace &space);

/**
 * Write one enumerated leaf into @p rows (made by leafRows()):
 * dimension d takes chain chains[d][pick[d]] and level l the loop
 * order perms[permPick[l]].
 */
void writeLeaf(
    const std::vector<std::vector<std::vector<std::uint64_t>>> &chains,
    const std::vector<std::vector<DimId>> &perms,
    const std::vector<std::size_t> &pick,
    const std::vector<std::size_t> &permPick, Decisions &rows);

} // namespace ruby

#endif // RUBY_MAPSPACE_FACTOR_SPACE_HPP
