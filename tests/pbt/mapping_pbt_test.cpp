/**
 * @file
 * Property: a Mapping is its Decisions rows. For any rows the
 * Mapspace samples and edits (mutate, undoMutation, crossover), a
 * Mapping built from them hands the same rows back; the nested-table
 * constructor fed the same tables builds the same mapping; and a
 * Mapping that held another draw and then takes assign(rows) equals
 * one built fresh from the rows, derived chains included. Checked for
 * all four mapspace variants, over generated cases and over a
 * 23-level hierarchy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "generators.hpp"
#include "pbt.hpp"

namespace ruby
{
namespace
{

using pbt::WorkloadCase;

constexpr MapspaceVariant kVariants[] = {
    MapspaceVariant::PFM, MapspaceVariant::Ruby, MapspaceVariant::RubyS,
    MapspaceVariant::RubyT};

/** @p rows as fresh nested tables and the nested constructor. */
Mapping
viaNestedTables(const Problem &prob, const ArchSpec &arch,
                const Decisions &rows)
{
    const std::size_t nd = static_cast<std::size_t>(prob.numDims());
    const std::size_t nl = static_cast<std::size_t>(arch.numLevels());
    const std::size_t nt = static_cast<std::size_t>(prob.numTensors());
    const std::size_t ns = 2 * nl;
    std::vector<std::vector<std::uint64_t>> steady;
    for (std::size_t d = 0; d < nd; ++d)
        steady.emplace_back(rows.steady.begin() + d * ns,
                            rows.steady.begin() + (d + 1) * ns);
    std::vector<std::vector<DimId>> perms;
    std::vector<std::vector<char>> keep;
    std::vector<std::vector<SpatialAxis>> axes;
    for (std::size_t l = 0; l < nl; ++l) {
        perms.emplace_back(rows.perms.begin() + l * nd,
                           rows.perms.begin() + (l + 1) * nd);
        keep.emplace_back(rows.keep.begin() + l * nt,
                          rows.keep.begin() + (l + 1) * nt);
        axes.emplace_back(rows.axes.begin() + l * nd,
                          rows.axes.begin() + (l + 1) * nd);
    }
    return Mapping(prob, arch, steady, perms, keep, axes);
}

/** Why @p got differs from @p want, if it does. */
std::optional<std::string>
differs(const Mapping &got, const Mapping &want)
{
    if (!(got.decisions() == want.decisions()))
        return "decisions() differ";
    if (got.toString() != want.toString())
        return "toString() differs:\n" + got.toString() + "vs\n" +
               want.toString();
    for (DimId d = 0; d < want.problem().numDims(); ++d) {
        const FactorChain &a = got.chain(d);
        const FactorChain &b = want.chain(d);
        for (int k = 0; k <= b.numSlots(); ++k) {
            const bool pairs =
                k == b.numSlots() ||
                (a.at(k).steady == b.at(k).steady &&
                 a.at(k).tail == b.at(k).tail);
            if (!pairs || a.bodyCount(k) != b.bodyCount(k) ||
                a.steadyExtentBelow(k) != b.steadyExtentBelow(k)) {
                std::ostringstream os;
                os << "chain " << want.problem().dimName(d)
                   << " differs at slot " << k;
                return os.str();
            }
        }
    }
    return std::nullopt;
}

/** The property over 48 edits of draws from @p seed in @p space. */
std::optional<std::string>
roundTrips(const Mapspace &space, std::uint64_t seed,
           const std::string &what)
{
    const Problem &prob = space.problem();
    const ArchSpec &arch = space.arch();
    Rng rng(seed);
    Decisions a, b;
    space.sample(rng, a);
    space.sample(rng, b);
    Mapping reused(prob, arch, b);
    MutationUndo undo;
    for (int step = 0; step < 48; ++step) {
        switch (rng.below(4)) {
          case 0:
            space.mutate(a, rng);
            break;
          case 1:
            space.mutate(a, rng, &undo);
            if (rng.below(2) == 0)
                space.undoMutation(a, undo);
            break;
          case 2:
            a = space.crossover(a, b, rng);
            break;
          default:
            space.mutate(b, rng);
            std::swap(a, b);
            break;
        }
        std::ostringstream os;
        os << variantName(space.variant()) << " edit " << step << " ("
           << what << "): ";
        const Mapping fresh(prob, arch, a);
        if (!(fresh.decisions() == a))
            return os.str() + "decisions() differ from the rows";
        if (auto why = differs(viaNestedTables(prob, arch, a), fresh))
            return os.str() + "nested constructor: " + *why;
        reused.assign(a);
        if (auto why = differs(reused, fresh))
            return os.str() + "assign(): " + *why;
    }
    return std::nullopt;
}

std::optional<std::string>
generatedCaseRoundTrips(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    for (const MapspaceVariant variant : kVariants) {
        const Mapspace space(cons, variant);
        if (auto failure = roundTrips(space, c.sampleSeed, c.describe()))
            return failure;
    }
    return std::nullopt;
}

TEST(MappingPbt, DecisionsRoundTripOnGeneratedCases)
{
    ruby::pbt::check("mappingDecisionsRoundTrip", 0x3A9Du,
                     pbt::genWorkload, generatedCaseRoundTrips,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     40);
}

TEST(MappingPbt, DecisionsRoundTripOnADeepHierarchy)
{
    const ArchSpec arch = pbt::makeDeep23();
    const Problem prob = pbt::makeDeepConv();
    const MappingConstraints cons(prob, arch);
    for (const MapspaceVariant variant : kVariants) {
        const Mapspace space(cons, variant);
        for (const std::uint64_t seed : {1u, 2u}) {
            const auto failure = roundTrips(space, seed, "deep-23");
            EXPECT_FALSE(failure.has_value()) << *failure;
        }
    }
}

} // namespace
} // namespace ruby
