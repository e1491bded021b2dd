#include "ruby/mapping/mapping.hpp"

#include <algorithm>
#include <span>
#include <sstream>

#include "ruby/common/error.hpp"

namespace ruby
{

Mapping::Mapping(const Problem &problem, const ArchSpec &arch,
                 const std::vector<std::vector<std::uint64_t>> &steady,
                 std::vector<std::vector<DimId>> perms,
                 std::vector<std::vector<char>> keep,
                 std::vector<std::vector<SpatialAxis>> axes)
    : problem_(&problem), arch_(&arch), perms_(std::move(perms)),
      keep_(std::move(keep)), axes_(std::move(axes))
{
    const int nd = problem.numDims();
    const int nl = arch.numLevels();
    const int nt = problem.numTensors();
    const std::size_t slots = static_cast<std::size_t>(2 * nl);

    RUBY_CHECK(static_cast<int>(steady.size()) == nd,
               "mapping needs one factor chain per dimension");
    chains_.reserve(static_cast<std::size_t>(nd));
    for (DimId d = 0; d < nd; ++d) {
        RUBY_CHECK(steady[static_cast<std::size_t>(d)].size() == slots,
                   "dimension ", problem.dimName(d), ": chain must have ",
                   slots, " slots");
        chains_.emplace_back(problem.dimSize(d),
                             steady[static_cast<std::size_t>(d)]);
    }

    RUBY_CHECK(static_cast<int>(perms_.size()) == nl,
               "mapping needs one permutation per level");
    RUBY_CHECK(static_cast<int>(keep_.size()) == nl,
               "mapping needs keep flags per level");
    for (int l = 0; l < nl; ++l) {
        RUBY_CHECK(static_cast<int>(keep_[static_cast<std::size_t>(l)]
                                        .size()) == nt,
                   "level ", arch.level(l).name,
                   ": keep flags must cover every tensor");
    }

    if (!axes_.empty()) {
        RUBY_CHECK(static_cast<int>(axes_.size()) == nl,
                   "spatial axes must cover every level");
        for (int l = 0; l < nl; ++l)
            RUBY_CHECK(static_cast<int>(
                           axes_[static_cast<std::size_t>(l)].size()) ==
                           nd,
                       "spatial axes must cover every dimension");
    }

    checkInvariants();
}

Mapping::Mapping(const Problem &problem, const ArchSpec &arch,
                 const Decisions &decisions)
    : problem_(&problem), arch_(&arch)
{
    const std::size_t nd = static_cast<std::size_t>(problem.numDims());
    const std::size_t nl = static_cast<std::size_t>(arch.numLevels());
    const std::size_t nt =
        static_cast<std::size_t>(problem.numTensors());
    const std::size_t slots = 2 * nl;
    RUBY_CHECK(decisions.steady.size() == nd * slots &&
                   decisions.perms.size() == nl * nd &&
                   decisions.keep.size() == nl * nt &&
                   (decisions.axes.empty() ||
                    decisions.axes.size() == nl * nd),
               "decision rows do not match the problem and "
               "architecture shape");

    const std::span<const std::uint64_t> steady(decisions.steady);
    chains_.reserve(nd);
    for (std::size_t d = 0; d < nd; ++d)
        chains_.emplace_back(problem.dimSize(static_cast<DimId>(d)),
                             steady.subspan(d * slots, slots));
    perms_.resize(nl);
    keep_.resize(nl);
    if (!decisions.axes.empty())
        axes_.resize(nl);
    for (std::size_t l = 0; l < nl; ++l) {
        const DimId *perm = decisions.perms.data() + l * nd;
        perms_[l].assign(perm, perm + nd);
        const char *krow = decisions.keep.data() + l * nt;
        keep_[l].assign(krow, krow + nt);
        if (!decisions.axes.empty()) {
            const SpatialAxis *arow = decisions.axes.data() + l * nd;
            axes_[l].assign(arow, arow + nd);
        }
    }

    checkInvariants();
}

void
Mapping::checkInvariants()
{
    const int nd = problem_->numDims();
    const int nl = arch_->numLevels();
    const int nt = problem_->numTensors();

    std::vector<char> seen(static_cast<std::size_t>(nd));
    for (int l = 0; l < nl; ++l) {
        const auto &perm = perms_[static_cast<std::size_t>(l)];
        bool ok = static_cast<int>(perm.size()) == nd;
        std::fill(seen.begin(), seen.end(), 0);
        for (std::size_t i = 0; ok && i < perm.size(); ++i) {
            const DimId d = perm[i];
            ok = d >= 0 && d < nd && !seen[static_cast<std::size_t>(d)];
            if (ok)
                seen[static_cast<std::size_t>(d)] = 1;
        }
        RUBY_CHECK(ok, "level ", arch_->level(l).name,
                   ": permutation must cover every dimension once");
    }
    for (int t = 0; t < nt; ++t) {
        RUBY_CHECK(keep_.front()[static_cast<std::size_t>(t)],
                   "innermost level must keep every tensor");
        RUBY_CHECK(keep_.back()[static_cast<std::size_t>(t)],
                   "outermost level must keep every tensor");
    }
}

const FactorChain &
Mapping::chain(DimId d) const
{
    RUBY_ASSERT(d >= 0 && d < problem_->numDims());
    return chains_[static_cast<std::size_t>(d)];
}

const std::vector<DimId> &
Mapping::permutation(int level) const
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    return perms_[static_cast<std::size_t>(level)];
}

bool
Mapping::keeps(int level, int tensor) const
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    RUBY_ASSERT(tensor >= 0 && tensor < problem_->numTensors());
    return keep_[static_cast<std::size_t>(level)]
                [static_cast<std::size_t>(tensor)] != 0;
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
    if (axes_.empty())
        return SpatialAxis::X;
    return axes_[static_cast<std::size_t>(level)]
                [static_cast<std::size_t>(d)];
}

void
Mapping::setChain(DimId d, std::span<const std::uint64_t> steady)
{
    RUBY_ASSERT(d >= 0 && d < problem_->numDims());
    chains_[static_cast<std::size_t>(d)].assign(steady);
}

void
Mapping::setPermutation(int level, std::span<const DimId> perm)
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    RUBY_ASSERT(static_cast<int>(perm.size()) == problem_->numDims(),
                "permutation must cover every dimension once");
    perms_[static_cast<std::size_t>(level)].assign(perm.begin(),
                                                   perm.end());
}

void
Mapping::setKeepRow(int level, std::span<const char> keep)
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    RUBY_ASSERT(static_cast<int>(keep.size()) ==
                    problem_->numTensors(),
                "keep flags must cover every tensor");
#ifndef NDEBUG
    if (level == 0 || level == arch_->numLevels() - 1)
        for (char k : keep)
            RUBY_ASSERT(k, "boundary levels must keep every tensor");
#endif
    keep_[static_cast<std::size_t>(level)].assign(keep.begin(),
                                                  keep.end());
}

void
Mapping::setAxisRow(int level, std::span<const SpatialAxis> axes)
{
    RUBY_ASSERT(level >= 0 && level < arch_->numLevels());
    RUBY_ASSERT(static_cast<int>(axes.size()) == problem_->numDims(),
                "spatial axes must cover every dimension");
    if (axes_.empty())
        axes_.assign(static_cast<std::size_t>(arch_->numLevels()),
                     std::vector<SpatialAxis>(
                         static_cast<std::size_t>(problem_->numDims()),
                         SpatialAxis::X));
    axes_[static_cast<std::size_t>(level)].assign(axes.begin(),
                                                  axes.end());
}

Decisions
Mapping::decisions() const
{
    const std::size_t nd = static_cast<std::size_t>(problem_->numDims());
    const std::size_t nl = static_cast<std::size_t>(arch_->numLevels());
    Decisions out;
    out.steady.reserve(nd * 2 * nl);
    for (const FactorChain &chain : chains_)
        for (const FactorPair &f : chain.factors())
            out.steady.push_back(f.steady);
    for (std::size_t l = 0; l < nl; ++l) {
        out.perms.insert(out.perms.end(), perms_[l].begin(),
                         perms_[l].end());
        for (const char k : keep_[l])
            out.keep.push_back(k != 0 ? 1 : 0);
    }
    if (axes_.empty())
        out.axes.assign(nl * nd, SpatialAxis::X);
    else
        for (const auto &row : axes_)
            out.axes.insert(out.axes.end(), row.begin(), row.end());
    return out;
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
