#include "ruby/mapspace/mapspace.hpp"

#include <algorithm>
#include <numeric>

#include "ruby/common/error.hpp"
#include "ruby/common/math_util.hpp"
#include "ruby/model/tile_analysis.hpp"

namespace ruby
{

namespace
{

/** A uniform pick among the divisors in @p divs (ascending) that do
 *  not exceed @p cap; cap 0 means no limit. */
std::uint64_t
pickDivisor(const std::vector<std::uint64_t> &divs, std::uint64_t cap,
            Rng &rng)
{
    const auto usable = static_cast<std::size_t>(
        cap == 0 ? divs.size()
                 : std::upper_bound(divs.begin(), divs.end(), cap) -
                       divs.begin());
    return divs[rng.below(usable)];
}

} // namespace

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

void
Mapspace::sample(Rng &rng, Decisions &out) const
{
    draw(rng, out, false);
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

    out.steady.assign(nd * static_cast<std::size_t>(slots), 1);
    out.axes.assign(static_cast<std::size_t>(nl) * nd, SpatialAxis::X);
    out.perms.resize(static_cast<std::size_t>(nl) * nd);
    out.keep.resize(static_cast<std::size_t>(nl * nt));
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
                  case 0:
                    choice = pickDivisor(divisors.of(d, m), hi, rng);
                    break;
                  case 1:
                    choice = hi;
                    break;
                  default:
                    choice = rng.between(1, hi);
                }
            } else {
                // Perfect slot: uniform over divisors of m within cap.
                choice = pickDivisor(divisors.of(d, m), cap, rng);
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

void
Mapspace::mutateChain(Decisions &decisions, DimId d, Rng &rng) const
{
    const int slots = 2 * arch().numLevels();
    RUBY_ASSERT(decisions.steady.size() ==
                static_cast<std::size_t>(problem().numDims() * slots));
    std::uint64_t *chain = decisions.steady.data() +
                           static_cast<std::size_t>(d) *
                               static_cast<std::size_t>(slots);
    const DivisorTables &divisors = divisorTables();

    std::uint64_t m = problem().dimSize(d);
    for (int k = 0; k < slots; ++k) {
        const std::uint64_t cap = slotCap(d, k);
        std::uint64_t choice = 1;
        if (k == slots - 1) {
            choice = m;
        } else if (cap == 1 || m == 1) {
            choice = 1;
        } else if (slotImperfect(k)) {
            const std::uint64_t hi =
                std::min<std::uint64_t>(cap == 0 ? m : cap, m);
            choice = rng.between(1, hi);
        } else {
            choice = pickDivisor(divisors.of(d, m), cap, rng);
        }
        chain[k] = choice;
        m = ceilDiv(m, choice);
    }
}

void
Mapspace::mutate(Decisions &decisions, Rng &rng,
                 MutationUndo *undo) const
{
    const std::size_t nd = static_cast<std::size_t>(problem().numDims());
    const std::size_t nl = static_cast<std::size_t>(arch().numLevels());
    const std::size_t nt =
        static_cast<std::size_t>(problem().numTensors());

    // A draw that ends up changing nothing (rejected flip, too-short
    // permutation) records Kind::None so undoMutation() is a no-op.
    // Flips are applied through undoMutation() (each is its own
    // inverse), so they are recorded even when no undo was asked for.
    MutationUndo local;
    MutationUndo &record = undo != nullptr ? *undo : local;
    const auto note = [&](MutationUndo::Kind kind, std::size_t row,
                          std::size_t i, std::size_t j) {
        record.kind = kind;
        record.row = row;
        record.i = i;
        record.j = j;
    };
    note(MutationUndo::Kind::None, 0, 0, 0);

    switch (rng.below(4)) {
      case 0: { // resample one dimension's chain
        const std::size_t d = rng.below(nd);
        if (undo != nullptr) {
            const std::uint64_t *row =
                decisions.steady.data() + d * 2 * nl;
            note(MutationUndo::Kind::Chain, d, 0, 0);
            record.chain.assign(row, row + 2 * nl);
        }
        mutateChain(decisions, static_cast<DimId>(d), rng);
        break;
      }
      case 1: { // swap two loops in one level's order
        const std::size_t l = rng.below(nl);
        if (nd >= 2) {
            DimId *perm = decisions.perms.data() + l * nd;
            const std::size_t i = rng.below(nd);
            const std::size_t j = rng.below(nd);
            std::swap(perm[i], perm[j]);
            note(MutationUndo::Kind::PermSwap, l, i, j);
        }
        break;
      }
      case 2: { // flip a residency bit on an intermediate level
        if (nl <= 2)
            break;
        const std::size_t l = 1 + rng.below(nl - 2);
        const std::size_t t = rng.below(nt);
        if (constraints_->bypassForced(static_cast<int>(l),
                                       static_cast<int>(t)))
            break;
        note(MutationUndo::Kind::Keep, l, t, 0);
        undoMutation(decisions, record);
        break;
      }
      default: { // flip a spatial mesh-axis assignment
        const std::size_t l = rng.below(nl);
        const std::size_t d = rng.below(nd);
        const std::uint8_t to =
            decisions.axes[l * nd + d] == SpatialAxis::X ? 2 : 1;
        if ((axisMask_[l * nd + d] & to) == 0)
            break;
        note(MutationUndo::Kind::Axis, l, d, 0);
        undoMutation(decisions, record);
        break;
      }
    }
}

void
Mapspace::undoMutation(Decisions &decisions,
                       const MutationUndo &undo) const
{
    const std::size_t nd = static_cast<std::size_t>(problem().numDims());
    const std::size_t nl = static_cast<std::size_t>(arch().numLevels());
    const std::size_t nt =
        static_cast<std::size_t>(problem().numTensors());

    switch (undo.kind) {
      case MutationUndo::Kind::None:
        break;
      case MutationUndo::Kind::Chain:
        std::copy(undo.chain.begin(), undo.chain.end(),
                  decisions.steady.begin() +
                      static_cast<std::ptrdiff_t>(undo.row * 2 * nl));
        break;
      case MutationUndo::Kind::PermSwap:
        std::swap(decisions.perms[undo.row * nd + undo.i],
                  decisions.perms[undo.row * nd + undo.j]);
        break;
      case MutationUndo::Kind::Keep: {
        const std::size_t at = undo.row * nt + undo.i;
        decisions.keep[at] = decisions.keep[at] != 0 ? 0 : 1;
        break;
      }
      case MutationUndo::Kind::Axis: {
        const std::size_t at = undo.row * nd + undo.i;
        decisions.axes[at] = decisions.axes[at] == SpatialAxis::X
                                 ? SpatialAxis::Y
                                 : SpatialAxis::X;
        break;
      }
    }
}

Decisions
Mapspace::crossover(const Decisions &a, const Decisions &b,
                    Rng &rng) const
{
    const std::size_t nd = static_cast<std::size_t>(problem().numDims());
    const std::size_t nl = static_cast<std::size_t>(arch().numLevels());
    const std::size_t nt =
        static_cast<std::size_t>(problem().numTensors());
    const std::size_t slots = 2 * nl;
    RUBY_ASSERT(a.steady.size() == b.steady.size() &&
                a.perms.size() == b.perms.size() &&
                a.axes.size() == b.axes.size());

    // Row r of width w starts at r * w in both parents and the child.
    const auto take = [](auto &to, const auto &from, std::size_t r,
                         std::size_t w) {
        std::copy_n(from.begin() + static_cast<std::ptrdiff_t>(r * w), w,
                    to.begin() + static_cast<std::ptrdiff_t>(r * w));
    };
    Decisions child = a;
    for (std::size_t d = 0; d < nd; ++d)
        if (rng.below(2))
            take(child.steady, b.steady, d, slots);
    for (std::size_t l = 0; l < nl; ++l) {
        if (rng.below(2))
            take(child.perms, b.perms, l, nd);
        if (rng.below(2))
            take(child.keep, b.keep, l, nt);
        if (rng.below(2))
            take(child.axes, b.axes, l, nd);
    }
    return child;
}

} // namespace ruby
