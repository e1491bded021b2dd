#include "ruby/model/tile_analysis.hpp"

#include <sstream>

#include "ruby/common/error.hpp"

namespace ruby
{

TileInfo
analyzeTiles(const Mapping &mapping)
{
    TileInfo info;
    std::vector<std::uint64_t> extents;
    analyzeTilesInto(mapping, info, extents);
    return info;
}

void
analyzeTilesInto(const Mapping &mapping, TileInfo &info,
                 std::vector<std::uint64_t> &extents_scratch)
{
    const Problem &prob = mapping.problem();
    const ArchSpec &arch = mapping.arch();
    const int nl = arch.numLevels();
    const int nt = prob.numTensors();

    info.tileWords.resize(static_cast<std::size_t>(nl));
    for (int l = 0; l < nl; ++l) {
        auto &row = info.tileWords[static_cast<std::size_t>(l)];
        row.assign(static_cast<std::size_t>(nt), 0);
        const int boundary =
            std::min(TileInfo::boundarySlot(l), mapping.numSlots());
        mapping.extentsBelowInto(boundary, extents_scratch);
        for (int t = 0; t < nt; ++t)
            row[static_cast<std::size_t>(t)] =
                prob.tileVolume(t, extents_scratch);
    }
}

namespace
{

/**
 * Shared capacity walk. Returns true when every kept tile fits; on
 * the first violation returns false and, when @p reason is non-null,
 * composes the human-readable message (the search fast path passes
 * null — rejects there must stay allocation-free).
 */
bool
capacityCheckImpl(const Mapping &mapping, const TileInfo &tiles,
                  std::string *reason)
{
    const Problem &prob = mapping.problem();
    const ArchSpec &arch = mapping.arch();
    const int nt = prob.numTensors();

    // The outermost level is the unbounded backing store.
    for (int l = 0; l < arch.numLevels() - 1; ++l) {
        const auto &lvl = arch.level(l);
        const auto &row = tiles.tileWords[static_cast<std::size_t>(l)];
        std::uint64_t shared_used = 0;
        const int over = capacityOverflow(
            lvl, nt, [&](int t) { return mapping.keeps(l, t); },
            [&](int t) { return row[static_cast<std::size_t>(t)]; },
            shared_used);
        if (over < 0)
            continue;
        if (reason != nullptr) {
            std::ostringstream oss;
            if (over < nt)
                oss << prob.tensor(over).name << " tile ("
                    << row[static_cast<std::size_t>(over)]
                    << " words) exceeds " << lvl.name << " partition ("
                    << lvl.perTensorCapacity[static_cast<std::size_t>(
                           over)]
                    << ")";
            else
                oss << "shared tiles (" << shared_used
                    << " words) exceed " << lvl.name << " capacity ("
                    << lvl.capacityWords << ")";
            *reason = oss.str();
        }
        return false;
    }
    return true;
}

/** Shared spatial-fit walk; same reason contract as above. */
bool
spatialFitImpl(const Mapping &mapping, std::string *reason)
{
    const ArchSpec &arch = mapping.arch();
    for (int l = 0; l < arch.numLevels(); ++l) {
        // Factors live on a physical mesh axis; each axis must fit
        // independently (a 27-wide factor cannot fold into a 14x12
        // grid even though 27 < 168).
        const std::uint64_t x =
            mapping.spatialUsage(l, SpatialAxis::X);
        const std::uint64_t y =
            mapping.spatialUsage(l, SpatialAxis::Y);
        if (x > arch.level(l).fanoutX || y > arch.level(l).fanoutY) {
            if (reason != nullptr) {
                std::ostringstream oss;
                oss << "spatial usage " << x << "x" << y << " exceeds "
                    << arch.level(l).name << " fanout "
                    << arch.level(l).fanoutX << "x"
                    << arch.level(l).fanoutY;
                *reason = oss.str();
            }
            return false;
        }
    }
    return true;
}

} // namespace

std::string
checkCapacity(const Mapping &mapping, const TileInfo &tiles)
{
    std::string reason;
    capacityCheckImpl(mapping, tiles, &reason);
    return reason;
}

bool
capacityOk(const Mapping &mapping, const TileInfo &tiles)
{
    return capacityCheckImpl(mapping, tiles, nullptr);
}

std::string
checkSpatialFit(const Mapping &mapping)
{
    std::string reason;
    spatialFitImpl(mapping, &reason);
    return reason;
}

bool
spatialFitOk(const Mapping &mapping)
{
    return spatialFitImpl(mapping, nullptr);
}

bool
spatialFitOkAt(const Mapping &mapping, int level)
{
    const ArchSpec &arch = mapping.arch();
    return mapping.spatialUsage(level, SpatialAxis::X) <=
               arch.level(level).fanoutX &&
           mapping.spatialUsage(level, SpatialAxis::Y) <=
               arch.level(level).fanoutY;
}

} // namespace ruby
