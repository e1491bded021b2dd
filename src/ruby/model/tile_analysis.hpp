/**
 * @file
 * Tile footprint analysis and validity checks.
 *
 * The steady (maximum) tile of tensor t at storage level l is the
 * tensor's projection of the iteration-space box covered by all slots
 * strictly inside level l+1's temporal block — i.e. slots
 * [0, spatialSlot(l+1)). Capacity checks use steady tiles because the
 * buffer must hold the largest tile; tail tiles are never larger.
 */

#ifndef RUBY_MODEL_TILE_ANALYSIS_HPP
#define RUBY_MODEL_TILE_ANALYSIS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ruby/common/error.hpp"
#include "ruby/mapping/mapping.hpp"

namespace ruby
{

/**
 * Per-level, per-tensor steady tile volumes (words, per instance).
 */
struct TileInfo
{
    /** tileWords[level][tensor]. */
    std::vector<std::vector<std::uint64_t>> tileWords;

    /** Tile boundary slot of level l: spatialSlot(l + 1). */
    static int boundarySlot(int level) { return 2 * (level + 1); }
};

/** Compute steady tile volumes for every level and tensor. */
TileInfo analyzeTiles(const Mapping &mapping);

/**
 * analyzeTiles() into caller-owned storage. @p extents_scratch is a
 * per-dimension work buffer. Once @p info and the scratch have been
 * sized by a first call of the same shape, no heap allocation occurs.
 */
void analyzeTilesInto(const Mapping &mapping, TileInfo &info,
                      std::vector<std::uint64_t> &extents_scratch);

/**
 * Check that every kept tile fits its level (dedicated partitions
 * first, remaining tensors against the shared pool).
 *
 * @return empty string if valid, else a human-readable reason.
 */
std::string checkCapacity(const Mapping &mapping, const TileInfo &tiles);

/**
 * checkCapacity() without composing the failure message. The search
 * fast path rejects most samples here; skipping the string keeps the
 * reject branch allocation-free.
 */
bool capacityOk(const Mapping &mapping, const TileInfo &tiles);

/**
 * One level's capacity walk, shared by capacityOk(), the sampler's
 * early rejection and optimal search's range test: kept tiles
 * (@p kept(t)) of @p tile(t) words go to their partition, the rest to
 * the shared pool (total left in @p shared_used). Returns the first
 * tensor overflowing its partition, nt when the pool overflows, else
 * -1. Throws on a partition table that is not one entry per tensor.
 */
template <typename Kept, typename Tile>
int
capacityOverflow(const StorageLevelSpec &lvl, int nt, Kept kept,
                 Tile tile, std::uint64_t &shared_used)
{
    RUBY_CHECK(lvl.perTensorCapacity.empty() ||
                   lvl.perTensorCapacity.size() ==
                       static_cast<std::size_t>(nt),
               "level ", lvl.name,
               ": per-tensor capacities must match the problem's "
               "tensor count");
    shared_used = 0;
    for (int t = 0; t < nt; ++t) {
        if (!kept(t))
            continue;
        const std::uint64_t words = tile(t);
        const std::uint64_t partition =
            lvl.perTensorCapacity.empty()
                ? 0
                : lvl.perTensorCapacity[static_cast<std::size_t>(t)];
        if (partition > 0) {
            if (words > partition)
                return t;
        } else {
            shared_used += words;
        }
    }
    return lvl.capacityWords > 0 && shared_used > lvl.capacityWords
               ? nt
               : -1;
}

/**
 * Check that each level's steady spatial usage fits its fanout.
 *
 * @return empty string if valid, else a human-readable reason.
 */
std::string checkSpatialFit(const Mapping &mapping);

/** checkSpatialFit() without composing the failure message. */
bool spatialFitOk(const Mapping &mapping);

/**
 * Spatial fit of a single level. The full check is the conjunction of
 * this over all levels; the delta evaluator uses it to recheck only
 * levels whose spatial-slot factors or axis rows actually moved.
 */
bool spatialFitOkAt(const Mapping &mapping, int level);

} // namespace ruby

#endif // RUBY_MODEL_TILE_ANALYSIS_HPP
