#include "ruby/mapspace/mapspace.hpp"

#include <algorithm>
#include <numeric>

#include "ruby/common/error.hpp"
#include "ruby/common/math_util.hpp"

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
    : constraints_(&constraints), variant_(variant)
{
}

std::uint64_t
Mapspace::slotCap(DimId d, int slot) const
{
    if (!isSpatialSlot(slot))
        return 0; // unbounded
    const int level = slotLevel(slot);
    const auto &lvl = arch().level(level);
    std::uint64_t cap = 1;
    if (constraints_->spatialAllowed(level, d, SpatialAxis::X))
        cap = std::max(cap, lvl.fanoutX);
    if (constraints_->spatialAllowed(level, d, SpatialAxis::Y))
        cap = std::max(cap, lvl.fanoutY);
    return cap;
}

bool
Mapspace::slotImperfect(int slot) const
{
    return isSpatialSlot(slot) ? imperfectSpatial(variant_)
                               : imperfectTemporal(variant_);
}

const std::vector<std::uint64_t> &
DivisorMemo::divisorsOf(std::uint64_t n)
{
    auto it = table_.find(n);
    if (it == table_.end()) {
        if (table_.size() >= kMaxEntries)
            table_.clear();
        it = table_.emplace(n, divisors(n)).first;
    }
    return it->second;
}

Mapping
Mapspace::sample(Rng &rng) const
{
    // One memo and one set of rows per thread, reused by every draw
    // of every mapspace: sample() allocates only the Mapping itself.
    thread_local DivisorMemo memo;
    thread_local Decisions decisions;
    sampleInto(rng, decisions, memo);
    return materialize(decisions);
}

Mapping
Mapspace::materialize(const Decisions &decisions) const
{
    return Mapping(problem(), arch(), decisions);
}

void
Mapspace::sampleInto(Rng &rng, Decisions &out, DivisorMemo &memo) const
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

    auto &remaining = memo.remaining_;
    remaining.resize(nd);
    for (std::size_t d = 0; d < nd; ++d)
        remaining[d] = prob.dimSize(static_cast<DimId>(d));

    // Visit dimensions in random order per slot so no dimension is
    // systematically favoured for the shared spatial budget.
    auto &order = memo.order_;
    order.resize(nd);
    std::iota(order.begin(), order.end(), 0);

    for (int k = 0; k < slots; ++k) {
        const bool spatial = isSpatialSlot(k);
        const bool imperfect = slotImperfect(k);
        const bool last = k == slots - 1;
        const int level = slotLevel(k);
        // Independent mesh-axis budgets at spatial slots.
        std::uint64_t budget_x =
            spatial ? arch_spec.level(level).fanoutX : 0;
        std::uint64_t budget_y =
            spatial ? arch_spec.level(level).fanoutY : 0;

        for (std::size_t i = order.size(); i-- > 0;)
            std::swap(order[i], order[rng.below(i + 1)]);

        for (DimId d : order) {
            auto &m = remaining[static_cast<std::size_t>(d)];
            const std::size_t axis_at =
                static_cast<std::size_t>(level) * nd +
                static_cast<std::size_t>(d);
            std::uint64_t cap = 0; // unbounded (temporal)
            SpatialAxis axis = SpatialAxis::X;
            if (spatial) {
                // Pick the mesh axis: among the axes this dimension
                // may occupy, prefer ones with remaining room.
                const bool may_x = constraints_->spatialAllowed(
                    level, d, SpatialAxis::X);
                const bool may_y = constraints_->spatialAllowed(
                    level, d, SpatialAxis::Y);
                const std::uint64_t cap_x = may_x ? budget_x : 0;
                const std::uint64_t cap_y = may_y ? budget_y : 0;
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
                // Factor 1, the row's initial value: m and the budgets
                // stay as they are. Most (dim, slot) pairs end here.
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
                    const auto &divs = memo.divisorsOf(m);
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
                const auto &divs = memo.divisorsOf(m);
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
            if (spatial && choice > 1) {
                auto &budget =
                    axis == SpatialAxis::X ? budget_x : budget_y;
                RUBY_ASSERT(budget >= choice);
                budget /= choice;
            }
        }
    }

    // Random temporal loop order per level.
    for (int l = 0; l < nl; ++l) {
        DimId *perm = out.perms.data() + static_cast<std::size_t>(l) * nd;
        std::iota(perm, perm + nd, 0);
        for (std::size_t i = nd; i-- > 1;)
            std::swap(perm[i], perm[rng.below(i + 1)]);
    }

    // Residency: endpoints keep everything; forced bypasses honoured;
    // remaining intermediate (level, tensor) pairs explored randomly.
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
}

} // namespace ruby
