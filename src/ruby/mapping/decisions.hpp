/**
 * @file
 * One mapping's decisions as flat rows: the form the sampler writes,
 * the search operators edit (Mapspace::mutate, crossover), the batch
 * and delta evaluators ingest, and a Mapping stores. The rows hold no
 * nested tables and no derived data (tails, body counts, extents);
 * a Mapping derives its factor chains from them.
 *
 * Every row is a flat buffer indexed by a shape/stride tuple and is
 * always complete (the axis row too), so a Decisions reused across
 * draws keeps its capacity and a draw performs no heap allocation
 * once the rows have grown. The four rows are the whole encoding,
 * with no size limit: the batch evaluator packs the keep and axis
 * rows into its own mask words at ingest.
 */

#ifndef RUBY_MAPPING_DECISIONS_HPP
#define RUBY_MAPPING_DECISIONS_HPP

#include <cstdint>
#include <vector>

#include "ruby/workload/problem.hpp"

namespace ruby
{

/** Mesh axis a spatial factor occupies (PE arrays are X x Y grids). */
enum class SpatialAxis : char
{
    X = 0,
    Y = 1,
};

/**
 * The decisions of one mapping of a problem with nd dimensions onto
 * an architecture with nl levels and ns = 2 * nl tiling slots.
 */
struct Decisions
{
    /** Steady bound of dimension d at slot k: [d * ns + k]. */
    std::vector<std::uint64_t> steady;
    /** Level l's temporal loop order, outermost first: [l * nd + i]. */
    std::vector<DimId> perms;
    /** Tensor t resides at level l: [l * nt + t]. */
    std::vector<char> keep;
    /** Mesh axis of dimension d's spatial factor at level l:
     *  [l * nd + d]. */
    std::vector<SpatialAxis> axes;

    bool operator==(const Decisions &) const = default;
};

} // namespace ruby

#endif // RUBY_MAPPING_DECISIONS_HPP
