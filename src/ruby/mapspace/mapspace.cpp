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

/** A uniform pick among the divisors in @p list (ascending) that do
 *  not exceed @p cap; cap 0 means no limit. */
const DivisorLists::Entry &
pickDivisor(std::span<const DivisorLists::Entry> list, std::uint64_t cap,
            Rng &rng)
{
    const auto usable = static_cast<std::size_t>(
        cap == 0 ? list.size()
                 : std::upper_bound(list.begin(), list.end(), cap,
                                    [](std::uint64_t c,
                                       const DivisorLists::Entry &e) {
                                        return c < e.divisor;
                                    }) -
                       list.begin());
    return list[rng.below(usable)];
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
      tables_(std::make_unique<DrawTables>())
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
DivisorLists::addDim(std::uint64_t size)
{
    // A dimension of an earlier one's size reaches the same counts:
    // it reuses that dimension's lists and ids.
    for (const Dim &earlier : dims_)
        if (earlier.size == size) {
            dims_.push_back(earlier);
            return;
        }
    Dim dim;
    dim.size = size;
    while ((dim.split + 1) * (dim.split + 1) <= size)
        ++dim.split;
    dim.base = begin_.size() - 1;
    dims_.push_back(dim);
    const DimId d = static_cast<DimId>(dims_.size() - 1);
    // Every reachable count by id, then each list in id order (ids no
    // count maps to stay empty). m = ceil(D / k) for every k, and the
    // next k is the first with ceil(D / k) < m.
    std::vector<std::uint64_t> countOf(
        dim.split + 2 + ceilDiv(size, dim.split + 1), 0);
    for (std::uint64_t k = 1;;) {
        const std::uint64_t m = ceilDiv(size, k);
        countOf[id(d, m) - dim.base] = m;
        if (m == 1)
            break;
        k = ceilDiv(size, m - 1);
    }
    for (const std::uint64_t m : countOf) {
        if (m != 0)
            for (const std::uint64_t p : divisors(m))
                entries_.push_back(Entry{p, m / p, id(d, m / p)});
        begin_.push_back(entries_.size());
    }
}

void
Mapspace::DrawTables::build(const Mapspace &space)
{
    const Problem &prob = space.problem();
    const ArchSpec &arch = space.arch();
    const int nd = prob.numDims();
    const int nl = arch.numLevels();
    const int nt = prob.numTensors();

    for (DimId d = 0; d < nd; ++d) {
        divisors.addDim(prob.dimSize(d));
        firstList.push_back(divisors.id(d, prob.dimSize(d)));
    }

    for (int k = 0; k < 2 * nl; ++k) {
        const StorageLevelSpec &lvl = arch.level(slotLevel(k));
        Slot slot;
        slot.index = k;
        slot.level = slotLevel(k);
        slot.spatial = isSpatialSlot(k);
        slot.imperfect = space.slotImperfect(k);
        slot.last = k == 2 * nl - 1;
        // The outermost level is the unbounded backing store.
        slot.check = !slot.spatial && slot.level < nl - 1;
        if (slot.spatial) {
            // A 1x1 level gives every dimension factor 1 and draws no
            // RNG value; its axis row is preset below.
            if (lvl.fanoutX * lvl.fanoutY <= 1)
                continue;
            slot.fanoutX = lvl.fanoutX;
            slot.fanoutY = lvl.fanoutY;
        }
        slots.push_back(slot);
    }

    // Residency: endpoints keep everything, forced bypasses are
    // honoured, the other interior pairs are one coin flip each.
    for (int l = 0; l < nl; ++l)
        for (int t = 0; t < nt; ++t)
            keep.push_back(l == 0 || l == nl - 1 ? char{1}
                           : space.constraints_->bypassForced(l, t)
                               ? char{0}
                               : kDrawKeep);

    // The axis a visited spatial slot picks for a dimension without
    // room, which is every dimension of a skipped 1x1 slot: Y when
    // only Y is allowed, else X.
    for (const std::uint8_t may : space.axisMask_)
        axes.push_back(may == 2 ? SpatialAxis::Y : SpatialAxis::X);

    termsOf.push_back(0);
    for (int t = 0; t < nt; ++t) {
        for (const TensorAxis &axis : prob.tensor(t).axes)
            for (std::size_t i = 0; i < axis.terms.size(); ++i)
                terms.push_back(
                    Term{static_cast<std::size_t>(axis.terms[i].dim),
                         axis.terms[i].coef,
                         i + 1 == axis.terms.size()});
        termsOf.push_back(terms.size());
    }
}

const Mapspace::DrawTables &
Mapspace::tables() const
{
    std::call_once(tables_->built, [this] { tables_->build(*this); });
    return *tables_;
}

Mapping
Mapspace::sample(Rng &rng) const
{
    Decisions decisions;
    sample(rng, decisions);
    return materialize(decisions);
}

bool
Mapspace::sampleInto(Rng &rng, Decisions &out) const
{
    if (drawTiling(rng, out, true) == 0)
        return false;
    sampleOrders(rng, out);
    return true;
}

bool
Mapspace::sampleTiling(Rng &rng, Decisions &out, double &cycles) const
{
    cycles = drawTiling(rng, out, true);
    return cycles != 0;
}

void
Mapspace::sample(Rng &rng, Decisions &out) const
{
    drawTiling(rng, out, false);
    sampleOrders(rng, out);
}

Mapping
Mapspace::materialize(const Decisions &decisions) const
{
    return Mapping(problem(), arch(), decisions);
}

double
Mapspace::drawTiling(Rng &rng, Decisions &out, bool reject) const
{
    const Problem &prob = problem();
    const ArchSpec &arch_spec = arch();
    const std::size_t nd = static_cast<std::size_t>(prob.numDims());
    const int nl = arch_spec.numLevels();
    const int nt = prob.numTensors();
    const std::size_t slots = 2 * static_cast<std::size_t>(nl);
    const DrawTables &tab = tables();
    const DivisorLists &divisors = tab.divisors;

    out.steady.assign(nd * slots, 1);
    out.axes.assign(tab.axes.begin(), tab.axes.end());
    out.perms.resize(static_cast<std::size_t>(nl) * nd);
    out.keep.resize(tab.keep.size());

    // Residency first: it decides which tensors each capacity counts.
    for (std::size_t at = 0; at < tab.keep.size(); ++at)
        out.keep[at] = tab.keep[at] != DrawTables::kDrawKeep
                           ? tab.keep[at]
                           : static_cast<char>(rng.below(2) != 0);

    // Work rows per dimension: the tile count m left, the id of m's
    // divisor list, the steady extent below the current slot, the
    // serial-step recurrence of serialSteps() (tl over the tail
    // subtree, full over a steady one), and the visit order.
    std::uint64_t remaining[kMaxDims];
    std::uint32_t list[kMaxDims];
    std::uint64_t extent[kMaxDims];
    std::uint64_t tl[kMaxDims];
    std::uint64_t full[kMaxDims];
    DimId order[kMaxDims];
    for (std::size_t d = 0; d < nd; ++d) {
        remaining[d] = prob.dimSizes()[d];
        list[d] = tab.firstList[d];
        extent[d] = 1;
        tl[d] = 1;
        full[d] = 1;
        order[d] = static_cast<DimId>(d);
    }

    // Draw dimension d's factor at a non-final slot with cap 0
    // (unbounded) or >= 2, given its m > 1; move d's m and list on and
    // return the factor and its tail.
    const auto drawFactor = [&](std::size_t d, std::uint64_t cap,
                                bool imperfect, std::uint64_t &tail) {
        const std::uint64_t m = remaining[d];
        const DivisorLists::Entry *pick = nullptr;
        std::uint64_t choice = 0;
        if (imperfect) {
            // Mixture proposal over the imperfect range: divisors (the
            // PFM sub-space), the full cap (the maximum-utilization
            // choice Ruby exists to reach), and a uniform draw keeping
            // the whole space reachable.
            const std::uint64_t hi =
                std::min<std::uint64_t>(cap == 0 ? m : cap, m);
            switch (rng.below(3)) {
              case 0:
                pick = &pickDivisor(divisors.list(list[d]), hi, rng);
                break;
              case 1:
                choice = hi;
                break;
              default:
                choice = rng.between(1, hi);
            }
        } else {
            // Perfect slot: uniform over divisors of m within cap.
            pick = &pickDivisor(divisors.list(list[d]), cap, rng);
        }
        if (pick != nullptr) {
            tail = pick->divisor;
            remaining[d] = pick->quotient;
            list[d] = pick->next;
            return pick->divisor;
        }
        // q = ceil(m / P) - 1 is the next mixed-radix digit of D - 1
        // (FactorChain::assign's forward pass).
        const std::uint64_t q = (m - 1) / choice;
        tail = m - q * choice;
        remaining[d] = q + 1;
        list[d] = divisors.id(static_cast<DimId>(d), q + 1);
        return choice;
    };

    std::uint64_t *steady = out.steady.data();
    for (const DrawTables::Slot &slot : tab.slots) {
        const std::size_t k = static_cast<std::size_t>(slot.index);
        if (slot.last) {
            // The outermost slot absorbs the residual m, a perfect
            // step drawing nothing (the row keeps 1 where m is 1).
            for (std::size_t d = 0; d < nd; ++d) {
                steady[d * slots + k] = remaining[d];
                tl[d] += (remaining[d] - 1) * full[d];
            }
            break;
        }
        if (!slot.spatial) {
            // Factor 1 (m == 1), the row's initial value, leaves every
            // work row as it is.
            for (std::size_t i = 0; i < nd; ++i) {
                const std::size_t d = static_cast<std::size_t>(order[i]);
                if (remaining[d] == 1)
                    continue;
                std::uint64_t tail = 0;
                const std::uint64_t choice =
                    drawFactor(d, 0, slot.imperfect, tail);
                steady[d * slots + k] = choice;
                extent[d] *= choice;
                tl[d] += (tail - 1) * full[d];
                full[d] *= choice;
            }
        } else {
            // Independent mesh-axis budgets. Dimensions compete for
            // them, so the visit order is reshuffled (see the file
            // comment).
            std::uint64_t budget_x = slot.fanoutX;
            std::uint64_t budget_y = slot.fanoutY;
            for (std::size_t i = nd; i-- > 1;)
                std::swap(order[i], order[rng.below(i + 1)]);
            for (std::size_t i = 0; i < nd; ++i) {
                const std::size_t d = static_cast<std::size_t>(order[i]);
                // Pick the mesh axis: among the axes this dimension
                // may occupy, prefer ones with remaining room.
                const std::size_t axis_at =
                    static_cast<std::size_t>(slot.level) * nd + d;
                const std::uint8_t may = axisMask_[axis_at];
                const std::uint64_t cap_x = (may & 1) != 0 ? budget_x : 0;
                const std::uint64_t cap_y = (may & 2) != 0 ? budget_y : 0;
                SpatialAxis axis = SpatialAxis::X;
                if (cap_x > 1 && cap_y > 1)
                    axis = rng.below(2) == 0 ? SpatialAxis::X
                                             : SpatialAxis::Y;
                else if (cap_y > cap_x)
                    axis = SpatialAxis::Y;
                out.axes[axis_at] = axis;
                const std::uint64_t cap =
                    axis == SpatialAxis::X ? cap_x : cap_y;
                // Factor 1 leaves the rows and the budgets as they are;
                // most (dim, slot) pairs end here.
                if (remaining[d] == 1 || cap <= 1)
                    continue;
                std::uint64_t tail = 0;
                const std::uint64_t choice =
                    drawFactor(d, cap, slot.imperfect, tail);
                steady[d * slots + k] = choice;
                extent[d] *= choice;
                tl[d] = tail >= 2 ? full[d] : tl[d];
                if (choice > 1) {
                    auto &budget =
                        axis == SpatialAxis::X ? budget_x : budget_y;
                    RUBY_ASSERT(budget >= choice);
                    budget /= choice;
                }
            }
        }

        // Level `slot.level`'s tiles are final once its temporal slot
        // is.
        if (reject && slot.check) {
            const char *kept = out.keep.data() + slot.level * nt;
            std::uint64_t shared_used = 0;
            if (capacityOverflow(
                    arch_spec.level(slot.level), nt,
                    [&](int t) { return kept[t] != 0; },
                    [&](int t) {
                        // Problem::tileVolume() over the flat terms.
                        std::uint64_t volume = 1;
                        std::uint64_t span = 1;
                        for (std::size_t i = tab.termsOf[t];
                             i < tab.termsOf[t + 1]; ++i) {
                            const DrawTables::Term &term = tab.terms[i];
                            span += term.coef * (extent[term.dim] - 1);
                            if (term.axisEnd) {
                                volume *= span;
                                span = 1;
                            }
                        }
                        return volume;
                    },
                    shared_used) >= 0)
                return 0;
        }
    }

    // The product of serialSteps() over the chains, in dimension order
    // (Evaluator::objectiveLowerBound()'s order).
    double cycles = 1.0;
    for (std::size_t d = 0; d < nd; ++d)
        cycles *= static_cast<double>(tl[d]);
    return cycles;
}

void
Mapspace::sampleOrders(Rng &rng, Decisions &out) const
{
    const std::size_t nd = static_cast<std::size_t>(problem().numDims());
    // Random temporal loop order per level.
    for (int l = 0; l < arch().numLevels(); ++l) {
        DimId *perm = out.perms.data() + static_cast<std::size_t>(l) * nd;
        std::iota(perm, perm + nd, 0);
        for (std::size_t i = nd; i-- > 1;)
            std::swap(perm[i], perm[rng.below(i + 1)]);
    }
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
    const DivisorLists &divisors = tables().divisors;

    std::uint64_t m = problem().dimSize(d);
    std::uint32_t list = divisors.id(d, m);
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
            m = ceilDiv(m, choice);
            list = divisors.id(d, m);
        } else {
            const DivisorLists::Entry &pick =
                pickDivisor(divisors.list(list), cap, rng);
            choice = pick.divisor;
            m = pick.quotient;
            list = pick.next;
        }
        chain[k] = choice;
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
