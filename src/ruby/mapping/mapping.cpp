#include "ruby/mapping/mapping.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "ruby/common/error.hpp"

namespace ruby
{

namespace
{

/** The nested tables as flat rows; empty @p axes become all X. */
Decisions
flatten(const Problem &problem, const ArchSpec &arch,
        const std::vector<std::vector<std::uint64_t>> &steady,
        const std::vector<std::vector<DimId>> &perms,
        const std::vector<std::vector<char>> &keep,
        const std::vector<std::vector<SpatialAxis>> &axes)
{
    const std::size_t nd = static_cast<std::size_t>(problem.numDims());
    const std::size_t nl = static_cast<std::size_t>(arch.numLevels());
    const std::size_t nt =
        static_cast<std::size_t>(problem.numTensors());
    const std::size_t slots = 2 * nl;

    RUBY_CHECK(steady.size() == nd,
               "mapping needs one factor chain per dimension");
    for (std::size_t d = 0; d < nd; ++d)
        RUBY_CHECK(steady[d].size() == slots, "dimension ",
                   problem.dimName(static_cast<DimId>(d)),
                   ": chain must have ", slots, " slots");
    RUBY_CHECK(perms.size() == nl,
               "mapping needs one permutation per level");
    RUBY_CHECK(keep.size() == nl, "mapping needs keep flags per level");
    for (std::size_t l = 0; l < nl; ++l) {
        const std::string &name = arch.level(static_cast<int>(l)).name;
        RUBY_CHECK(perms[l].size() == nd, "level ", name,
                   ": permutation must cover every dimension once");
        RUBY_CHECK(keep[l].size() == nt, "level ", name,
                   ": keep flags must cover every tensor");
    }
    if (!axes.empty()) {
        RUBY_CHECK(axes.size() == nl,
                   "spatial axes must cover every level");
        for (const auto &row : axes)
            RUBY_CHECK(row.size() == nd,
                       "spatial axes must cover every dimension");
    }

    Decisions rows;
    for (const auto &row : steady)
        rows.steady.insert(rows.steady.end(), row.begin(), row.end());
    for (std::size_t l = 0; l < nl; ++l) {
        rows.perms.insert(rows.perms.end(), perms[l].begin(),
                          perms[l].end());
        rows.keep.insert(rows.keep.end(), keep[l].begin(),
                         keep[l].end());
    }
    if (axes.empty())
        rows.axes.assign(nl * nd, SpatialAxis::X);
    else
        for (const auto &row : axes)
            rows.axes.insert(rows.axes.end(), row.begin(), row.end());
    return rows;
}

} // namespace

Mapping::Mapping(const Problem &problem, const ArchSpec &arch,
                 Decisions decisions)
    : problem_(&problem), arch_(&arch), rows_(std::move(decisions))
{
    const std::size_t nd = static_cast<std::size_t>(problem.numDims());
    const std::size_t nl = static_cast<std::size_t>(arch.numLevels());
    const std::size_t nt =
        static_cast<std::size_t>(problem.numTensors());
    const std::size_t slots = 2 * nl;
    RUBY_CHECK(rows_.steady.size() == nd * slots &&
                   rows_.perms.size() == nl * nd &&
                   rows_.keep.size() == nl * nt &&
                   rows_.axes.size() == nl * nd,
               "decision rows do not match the problem and "
               "architecture shape");

    const std::span<const std::uint64_t> steady(rows_.steady);
    chains_.reserve(nd);
    for (std::size_t d = 0; d < nd; ++d)
        chains_.emplace_back(problem.dimSize(static_cast<DimId>(d)),
                             steady.subspan(d * slots, slots));

    std::vector<char> seen(nd);
    for (std::size_t l = 0; l < nl; ++l) {
        bool ok = true;
        std::fill(seen.begin(), seen.end(), 0);
        for (const DimId d : permutation(static_cast<int>(l))) {
            ok = d >= 0 && static_cast<std::size_t>(d) < nd &&
                 !seen[static_cast<std::size_t>(d)];
            if (!ok)
                break;
            seen[static_cast<std::size_t>(d)] = 1;
        }
        RUBY_CHECK(ok, "level ", arch.level(static_cast<int>(l)).name,
                   ": permutation must cover every dimension once");
    }

    for (char &k : rows_.keep)
        k = k != 0 ? 1 : 0;
    for (std::size_t t = 0; t < nt; ++t) {
        RUBY_CHECK(rows_.keep[t],
                   "innermost level must keep every tensor");
        RUBY_CHECK(rows_.keep[(nl - 1) * nt + t],
                   "outermost level must keep every tensor");
    }
}

Mapping::Mapping(const Problem &problem, const ArchSpec &arch,
                 const std::vector<std::vector<std::uint64_t>> &steady,
                 const std::vector<std::vector<DimId>> &perms,
                 const std::vector<std::vector<char>> &keep,
                 const std::vector<std::vector<SpatialAxis>> &axes)
    : Mapping(problem, arch,
              flatten(problem, arch, steady, perms, keep, axes))
{
}

void
Mapping::assign(const Decisions &decisions)
{
    RUBY_ASSERT(decisions.steady.size() == rows_.steady.size() &&
                    decisions.perms.size() == rows_.perms.size() &&
                    decisions.keep.size() == rows_.keep.size() &&
                    decisions.axes.size() == rows_.axes.size(),
                "assigned rows must keep the mapping's shape");
#ifndef NDEBUG
    const std::size_t nt =
        static_cast<std::size_t>(problem_->numTensors());
    const std::size_t outer = rows_.keep.size() - nt;
    for (std::size_t t = 0; t < nt; ++t)
        RUBY_ASSERT(decisions.keep[t] && decisions.keep[outer + t],
                    "boundary levels must keep every tensor");
#endif
    const std::size_t slots = static_cast<std::size_t>(numSlots());
    const std::span<const std::uint64_t> steady(decisions.steady);
    for (std::size_t d = 0; d < chains_.size(); ++d) {
        const auto row = steady.subspan(d * slots, slots);
        const auto stored =
            rows_.steady.begin() + static_cast<std::ptrdiff_t>(d * slots);
        if (std::equal(row.begin(), row.end(), stored))
            continue;
        std::copy(row.begin(), row.end(), stored);
        chains_[d].assign(row);
    }
    rows_.perms = decisions.perms;
    std::transform(decisions.keep.begin(), decisions.keep.end(),
                   rows_.keep.begin(),
                   [](char k) -> char { return k != 0 ? 1 : 0; });
    rows_.axes = decisions.axes;
}

const FactorChain &
Mapping::chain(DimId d) const
{
    RUBY_ASSERT(d >= 0 && d < problem_->numDims());
    return chains_[static_cast<std::size_t>(d)];
}

std::span<const DimId>
Mapping::permutation(int level) const
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    const std::size_t nd = static_cast<std::size_t>(problem_->numDims());
    return std::span<const DimId>(rows_.perms)
        .subspan(static_cast<std::size_t>(level) * nd, nd);
}

bool
Mapping::keeps(int level, int tensor) const
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    RUBY_ASSERT(tensor >= 0 && tensor < problem_->numTensors());
    return rows_.keep[static_cast<std::size_t>(
               level * problem_->numTensors() + tensor)] != 0;
}

std::vector<std::uint64_t>
Mapping::extentsBelow(int slot) const
{
    std::vector<std::uint64_t> extents;
    extentsBelowInto(slot, extents);
    return extents;
}

void
Mapping::extentsBelowInto(int slot,
                          std::vector<std::uint64_t> &extents) const
{
    extents.resize(static_cast<std::size_t>(problem_->numDims()));
    for (DimId d = 0; d < problem_->numDims(); ++d)
        extents[static_cast<std::size_t>(d)] =
            chain(d).steadyExtentBelow(slot);
}

std::uint64_t
Mapping::spatialUsage(int level) const
{
    std::uint64_t usage = 1;
    for (DimId d = 0; d < problem_->numDims(); ++d)
        usage *= factor(d, spatialSlot(level)).steady;
    return usage;
}

std::uint64_t
Mapping::spatialUsage(int level, SpatialAxis axis) const
{
    std::uint64_t usage = 1;
    for (DimId d = 0; d < problem_->numDims(); ++d)
        if (spatialAxis(level, d) == axis)
            usage *= factor(d, spatialSlot(level)).steady;
    return usage;
}

SpatialAxis
Mapping::spatialAxis(int level, DimId d) const
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    RUBY_ASSERT(d >= 0 && d < problem_->numDims());
    return rows_.axes[static_cast<std::size_t>(
        level * problem_->numDims() + d)];
}

bool
Mapping::fullyPerfect() const
{
    for (const auto &c : chains_)
        if (!c.fullyPerfect())
            return false;
    return true;
}

bool
Mapping::spatialOnlyImperfection() const
{
    for (const auto &c : chains_)
        for (int k = 0; k < c.numSlots(); ++k)
            if (!isSpatialSlot(k) && !c.at(k).perfect())
                return false;
    return true;
}

std::string
Mapping::toString() const
{
    std::ostringstream oss;
    auto emitFactor = [&](const FactorPair &f) {
        oss << f.steady;
        if (!f.perfect())
            oss << "(tail " << f.tail << ")";
    };
    for (int l = arch_->numLevels() - 1; l >= 0; --l) {
        oss << arch_->level(l).name << " [keep:";
        for (int t = 0; t < problem_->numTensors(); ++t)
            if (keeps(l, t))
                oss << " " << problem_->tensor(t).name;
        oss << "]\n";
        oss << "  for:";
        for (DimId d : permutation(l)) {
            const auto &f = factor(d, temporalSlot(l));
            if (f.steady == 1 && f.tail == 1)
                continue;
            oss << " " << problem_->dimName(d) << "=";
            emitFactor(f);
        }
        oss << "\n  parFor:";
        for (DimId d = 0; d < problem_->numDims(); ++d) {
            const auto &f = factor(d, spatialSlot(l));
            if (f.steady == 1 && f.tail == 1)
                continue;
            oss << " " << problem_->dimName(d);
            if (arch_->level(l).fanoutY > 1)
                oss << (spatialAxis(l, d) == SpatialAxis::Y ? "@Y"
                                                            : "@X");
            oss << "=";
            emitFactor(f);
        }
        oss << "\n";
    }
    return oss.str();
}

} // namespace ruby
