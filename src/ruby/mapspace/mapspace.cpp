#include "ruby/mapspace/mapspace.hpp"

#include <algorithm>
#include <numeric>

#include "ruby/common/error.hpp"
#include "ruby/common/math_util.hpp"
#include "ruby/model/tile_analysis.hpp"

namespace ruby
{

std::string
variantName(MapspaceVariant variant)
{
    switch (variant) {
      case MapspaceVariant::PFM:
        return "PFM";
      case MapspaceVariant::Ruby:
        return "Ruby";
      case MapspaceVariant::RubyS:
        return "Ruby-S";
      case MapspaceVariant::RubyT:
        return "Ruby-T";
    }
    RUBY_ASSERT(false, "unknown mapspace variant");
    return {};
}

bool
imperfectSpatial(MapspaceVariant variant)
{
    return variant == MapspaceVariant::Ruby ||
           variant == MapspaceVariant::RubyS;
}

bool
imperfectTemporal(MapspaceVariant variant)
{
    return variant == MapspaceVariant::Ruby ||
           variant == MapspaceVariant::RubyT;
}

Mapspace::Mapspace(const MappingConstraints &constraints,
                   MapspaceVariant variant)
    : constraints_(&constraints), variant_(variant),
      divisors_(std::make_unique<DivisorTables>())
{
    const int nd = problem().numDims();
    RUBY_CHECK(nd <= kMaxDims, "mapspace: ", nd,
               " problem dimensions exceed the sampler's limit of ",
               kMaxDims);
    for (int l = 0; l < arch().numLevels(); ++l)
        for (DimId d = 0; d < nd; ++d)
            axisMask_.push_back(static_cast<std::uint8_t>(
                constraints.spatialAllowed(l, d, SpatialAxis::X) |
                constraints.spatialAllowed(l, d, SpatialAxis::Y) << 1));
}

std::uint64_t
Mapspace::slotCap(DimId d, int slot) const
{
    if (!isSpatialSlot(slot))
        return 0; // unbounded
    const int level = slotLevel(slot);
    const auto &lvl = arch().level(level);
    const std::uint8_t may = axisMask_[static_cast<std::size_t>(
        level * problem().numDims() + d)];
    std::uint64_t cap = 1;
    if ((may & 1) != 0)
        cap = std::max(cap, lvl.fanoutX);
    if ((may & 2) != 0)
        cap = std::max(cap, lvl.fanoutY);
    return cap;
}

bool
Mapspace::slotImperfect(int slot) const
{
    return isSpatialSlot(slot) ? imperfectSpatial(variant_)
                               : imperfectTemporal(variant_);
}

void
Mapspace::DivisorTables::build(const Problem &prob)
{
    dims.resize(static_cast<std::size_t>(prob.numDims()));
    for (DimId d = 0; d < prob.numDims(); ++d) {
        Dim &dim = dims[static_cast<std::size_t>(d)];
        dim.size = prob.dimSize(d);
        dim.split = 1;
        while ((dim.split + 1) * (dim.split + 1) <= dim.size)
            ++dim.split;
        dim.byM = lists.size();
        const std::size_t byK = dim.byM + dim.split + 1;
        lists.resize(byK + ceilDiv(dim.size, dim.split + 1) + 1);
        // Every reachable remaining count, largest first: m = ceil(D /
        // k), and the next k is the first with ceil(D / k) < m.
        for (std::uint64_t k = 1;;) {
            const std::uint64_t m = ceilDiv(dim.size, k);
            lists[m <= dim.split ? dim.byM + m : byK + k] = divisors(m);
            if (m == 1)
                break;
            k = ceilDiv(dim.size, m - 1);
        }
    }
}

const Mapspace::DivisorTables &
Mapspace::divisorTables() const
{
    std::call_once(divisors_->built,
                   [this] { divisors_->build(problem()); });
    return *divisors_;
}

Mapping
Mapspace::sample(Rng &rng) const
{
    Decisions decisions;
    draw(rng, decisions, false);
    return materialize(decisions);
}

bool
Mapspace::sampleInto(Rng &rng, Decisions &out) const
{
    return draw(rng, out, true);
}

Mapping
Mapspace::materialize(const Decisions &decisions) const
{
    return Mapping(problem(), arch(), decisions);
}

bool
Mapspace::draw(Rng &rng, Decisions &out, bool reject) const
{
    const Problem &prob = problem();
    const ArchSpec &arch_spec = arch();
    const std::size_t nd = static_cast<std::size_t>(prob.numDims());
    const int nl = arch_spec.numLevels();
    const int nt = prob.numTensors();
    const int slots = 2 * nl;
    // The packed masks exist only where they fit one word (the batch
    // engine's supports() limit), as for Mapping::keepMask().
    const bool packKeep = nl * nt <= 64;
    const bool packAxes = static_cast<std::size_t>(nl) * nd <= 64;

    out.steady.assign(nd * static_cast<std::size_t>(slots), 1);
    out.axes.assign(static_cast<std::size_t>(nl) * nd, SpatialAxis::X);
    out.perms.resize(static_cast<std::size_t>(nl) * nd);
    out.keep.resize(static_cast<std::size_t>(nl * nt));
    out.keepMask = 0;
    out.axisYMask = 0;
    const DivisorTables &divisors = divisorTables();

    // Residency first: it decides which tensors each capacity counts.
    // Endpoints keep everything; forced bypasses are honoured; the
    // remaining intermediate (level, tensor) pairs are explored
    // randomly.
    for (int l = 0; l < nl; ++l)
        for (int t = 0; t < nt; ++t) {
            const bool interior = l > 0 && l < nl - 1;
            const char flag =
                interior && (constraints_->bypassForced(l, t) ||
                             rng.below(2) == 0)
                    ? 0
                    : 1;
            out.keep[static_cast<std::size_t>(l * nt + t)] = flag;
            if (flag != 0 && packKeep)
                out.keepMask |= std::uint64_t{1} << (l * nt + t);
        }

    // Work rows: the tile count left per dimension, the steady extent
    // below the current slot, and the per-slot visit order.
    std::uint64_t remaining[kMaxDims];
    std::uint64_t extent[kMaxDims];
    DimId order[kMaxDims];
    const std::span<const std::uint64_t> extents(extent, nd);
    for (std::size_t d = 0; d < nd; ++d) {
        remaining[d] = prob.dimSizes()[d];
        extent[d] = 1;
        order[d] = static_cast<DimId>(d);
    }

    for (int k = 0; k < slots; ++k) {
        const bool spatial = isSpatialSlot(k);
        const bool imperfect = slotImperfect(k);
        const bool last = k == slots - 1;
        const int level = slotLevel(k);
        const StorageLevelSpec &lvl = arch_spec.level(level);
        // Independent mesh-axis budgets at spatial slots.
        std::uint64_t budget_x = spatial ? lvl.fanoutX : 0;
        std::uint64_t budget_y = spatial ? lvl.fanoutY : 0;

        // Dimensions compete only for a spatial budget; elsewhere the
        // visit order cannot change any draw (see the file comment).
        if (spatial && budget_x * budget_y > 1)
            for (std::size_t i = nd; i-- > 1;)
                std::swap(order[i], order[rng.below(i + 1)]);

        for (std::size_t i = 0; i < nd; ++i) {
            const DimId d = order[i];
            auto &m = remaining[static_cast<std::size_t>(d)];
            const std::size_t axis_at =
                static_cast<std::size_t>(level) * nd +
                static_cast<std::size_t>(d);
            std::uint64_t cap = 0; // unbounded (temporal)
            SpatialAxis axis = SpatialAxis::X;
            if (spatial) {
                // Pick the mesh axis: among the axes this dimension
                // may occupy, prefer ones with remaining room.
                const std::uint8_t may = axisMask_[axis_at];
                const std::uint64_t cap_x = (may & 1) != 0 ? budget_x : 0;
                const std::uint64_t cap_y = (may & 2) != 0 ? budget_y : 0;
                if (cap_x > 1 && cap_y > 1)
                    axis = rng.below(2) == 0 ? SpatialAxis::X
                                             : SpatialAxis::Y;
                else if (cap_y > cap_x)
                    axis = SpatialAxis::Y;
                out.axes[axis_at] = axis;
                if (axis == SpatialAxis::Y && packAxes)
                    out.axisYMask |= std::uint64_t{1} << axis_at;
                cap = std::max<std::uint64_t>(
                    axis == SpatialAxis::X ? cap_x : cap_y, 1);
            }
            std::uint64_t choice = 1;
            if (last) {
                // The outermost temporal slot absorbs the residual.
                choice = m;
            } else if (cap == 1 || m == 1) {
                // Factor 1, the row's initial value: m, the extent and
                // the budgets stay as they are. Most (dim, slot) pairs
                // end here.
                continue;
            } else if (imperfect) {
                // Mixture proposal over the imperfect range: divisors
                // (the PFM sub-space), the full cap (the maximum-
                // utilization choice Ruby exists to reach), and a
                // uniform draw keeping the whole space reachable.
                const std::uint64_t hi = std::min<std::uint64_t>(
                    cap == 0 ? m : cap, m);
                switch (rng.below(3)) {
                  case 0: {
                    const auto &divs = divisors.of(d, m);
                    const auto usable = static_cast<std::size_t>(
                        std::upper_bound(divs.begin(), divs.end(), hi) -
                        divs.begin());
                    choice = divs[rng.below(usable)];
                    break;
                  }
                  case 1:
                    choice = hi;
                    break;
                  default:
                    choice = rng.between(1, hi);
                }
            } else {
                // Perfect slot: uniform over divisors of m within cap.
                const auto &divs = divisors.of(d, m);
                const auto usable = static_cast<std::size_t>(
                    cap == 0 ? divs.size()
                             : std::upper_bound(divs.begin(), divs.end(),
                                                cap) -
                                   divs.begin());
                choice = divs[rng.below(usable)];
            }
            out.steady[static_cast<std::size_t>(d) *
                           static_cast<std::size_t>(slots) +
                       static_cast<std::size_t>(k)] = choice;
            m = ceilDiv(m, choice);
            extent[static_cast<std::size_t>(d)] *= choice;
            if (spatial && choice > 1) {
                auto &budget =
                    axis == SpatialAxis::X ? budget_x : budget_y;
                RUBY_ASSERT(budget >= choice);
                budget /= choice;
            }
        }

        // Level `level`'s tiles are final once its temporal slot is;
        // the outermost level is the unbounded backing store.
        if (reject && !spatial && level < nl - 1) {
            const char *kept = out.keep.data() + level * nt;
            std::uint64_t shared_used = 0;
            if (capacityOverflow(
                    lvl, nt,
                    [&](int t) { return kept[t] != 0; },
                    [&](int t) { return prob.tileVolume(t, extents); },
                    shared_used) >= 0)
                return false;
        }
    }

    // Random temporal loop order per level.
    for (int l = 0; l < nl; ++l) {
        DimId *perm = out.perms.data() + static_cast<std::size_t>(l) * nd;
        std::iota(perm, perm + nd, 0);
        for (std::size_t i = nd; i-- > 1;)
            std::swap(perm[i], perm[rng.below(i + 1)]);
    }
    return true;
}

} // namespace ruby
