/**
 * @file
 * Sampler properties, checked for all four mapspace variants, over
 * generated cases and over real layers on the Eyeriss and Simba
 * presets with their constraint presets:
 *
 * - the in-draw rejection is exact: for a keyed draw,
 *   Mapspace::sampleInto() returns false iff the evaluator rejects the
 *   mapping sample() draws from the same key, and a draw it completes
 *   materializes to exactly that mapping (same rendering, same keep
 *   and axis rows) and passes the validity check;
 * - the two phases are the draw: sampleTiling() then sampleOrders() on
 *   one stream writes sampleInto()'s and sample()'s rows, and the
 *   tiling phase's cycles are the product of serialSteps() over the
 *   finished draw's chains, so Evaluator::boundFromCycles() equals
 *   objectiveLowerBound() bit for bit.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/arch/presets.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/model/latency.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

using pbt::WorkloadCase;

constexpr MapspaceVariant kVariants[] = {
    MapspaceVariant::PFM, MapspaceVariant::Ruby, MapspaceVariant::RubyS,
    MapspaceVariant::RubyT};

/** The property over draws [0, @p draws) of @p seed in @p space. */
std::optional<std::string>
rejectionIsExact(const Mapspace &space, const Evaluator &eval,
                 std::uint64_t seed, std::uint64_t draws,
                 const std::string &what)
{
    Decisions rows;
    EvalScratch scratch;
    for (std::uint64_t i = 0; i < draws; ++i) {
        Rng viaSample = Rng::keyed(seed, i);
        Rng viaRows = Rng::keyed(seed, i);
        const Mapping expected = space.sample(viaSample);
        const bool valid = eval.checkValidity(expected, scratch, false);
        const bool completed = space.sampleInto(viaRows, rows);
        std::ostringstream os;
        os << variantName(space.variant()) << " draw " << i << " ("
           << what << "): ";
        if (completed != valid) {
            os << "sampleInto " << (completed ? "completed" : "rejected")
               << " a mapping the evaluator finds "
               << (valid ? "valid" : "invalid") << ":\n"
               << expected.toString();
            return os.str();
        }
        if (!completed)
            continue;
        const Mapping got = space.materialize(rows);
        if (got.toString() != expected.toString()) {
            os << "completed draw differs from sample():\n"
               << got.toString() << "vs\n"
               << expected.toString();
            return os.str();
        }
        const Decisions back = expected.decisions();
        if (rows.keep != back.keep || rows.axes != back.axes) {
            os << "keep or axis rows differ from the mapping's";
            return os.str();
        }
    }
    return std::nullopt;
}

/** The phases property over draws [0, @p draws) of @p seed. */
std::optional<std::string>
phasesAreTheDraw(const Mapspace &space, const Evaluator &eval,
                 std::uint64_t seed, std::uint64_t draws,
                 const std::string &what)
{
    Decisions phased, into, whole;
    for (std::uint64_t i = 0; i < draws; ++i) {
        Rng viaPhases = Rng::keyed(seed, i);
        Rng viaInto = Rng::keyed(seed, i);
        Rng viaSample = Rng::keyed(seed, i);
        double cycles = 0;
        const bool tiled = space.sampleTiling(viaPhases, phased, cycles);
        const bool completed = space.sampleInto(viaInto, into);
        space.sample(viaSample, whole);
        std::ostringstream os;
        os.precision(17);
        os << variantName(space.variant()) << " draw " << i << " ("
           << what << "): ";
        if (tiled != completed) {
            os << "sampleTiling " << (tiled ? "completed" : "rejected")
               << " a draw sampleInto "
               << (completed ? "completed" : "rejected");
            return os.str();
        }
        if (!tiled)
            continue;
        space.sampleOrders(viaPhases, phased);
        if (phased != into || phased != whole) {
            os << "the phases' rows differ from sampleInto()'s or "
                  "sample()'s";
            return os.str();
        }
        const std::uint64_t next = viaPhases.next();
        if (next != viaInto.next() || next != viaSample.next()) {
            os << "the phases made other RNG calls than the draw";
            return os.str();
        }
        const Mapping mapping = space.materialize(phased);
        double steps = 1.0;
        for (DimId d = 0; d < mapping.problem().numDims(); ++d)
            steps *= static_cast<double>(serialSteps(mapping.chain(d)));
        if (steps != cycles) {
            os << "tiling cycles " << cycles
               << " != product of serialSteps() " << steps;
            return os.str();
        }
        for (const Objective obj :
             {Objective::EDP, Objective::Energy, Objective::Delay})
            if (eval.boundFromCycles(cycles, obj) !=
                eval.objectiveLowerBound(mapping, obj)) {
                os << "in-draw bound " << eval.boundFromCycles(cycles, obj)
                   << " != objectiveLowerBound() "
                   << eval.objectiveLowerBound(mapping, obj);
                return os.str();
            }
    }
    return std::nullopt;
}

using DrawProperty = std::optional<std::string> (*)(
    const Mapspace &, const Evaluator &, std::uint64_t, std::uint64_t,
    const std::string &);

/** @p property over 64 draws of a generated case, every variant. */
std::optional<std::string>
holdsOnGeneratedCase(DrawProperty property, const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Evaluator eval(prob, arch);
    for (const MapspaceVariant variant : kVariants) {
        const Mapspace space(cons, variant);
        if (auto failure =
                property(space, eval, c.sampleSeed, 64, c.describe()))
            return failure;
    }
    return std::nullopt;
}

/** @p property over 300 draws of every fifth ResNet-50 layer on the
 *  Eyeriss and Simba presets, every variant. */
void
expectOnPresets(DrawProperty property)
{
    struct Preset
    {
        const char *name;
        ArchSpec arch;
        ConstraintPreset preset;
    };
    const Preset presets[] = {
        {"eyeriss", makeEyeriss(), ConstraintPreset::EyerissRS},
        {"simba", makeSimba(), ConstraintPreset::Simba},
    };
    const std::vector<Layer> layers = resnet50Layers();
    for (const Preset &p : presets)
        for (std::size_t l = 0; l < layers.size(); l += 5) {
            const Problem prob = makeConv(layers[l].shape);
            const MappingConstraints cons =
                makeConstraints(p.preset, prob, p.arch);
            const Evaluator eval(prob, p.arch);
            for (const MapspaceVariant variant : kVariants) {
                const Mapspace space(cons, variant);
                const auto failure = property(
                    space, eval, 2022 + l, 300,
                    std::string(p.name) + " " + layers[l].shape.name);
                EXPECT_FALSE(failure.has_value()) << *failure;
            }
        }
}

TEST(SamplerPbt, RejectionIsExactOnGeneratedCases)
{
    ruby::pbt::check("samplerRejectionIsExact", 0x5A3Bu,
                     pbt::genWorkload,
                     [](const WorkloadCase &c) {
                         return holdsOnGeneratedCase(rejectionIsExact, c);
                     },
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     40);
}

TEST(SamplerPbt, RejectionIsExactOnPresets)
{
    expectOnPresets(rejectionIsExact);
}

TEST(SamplerPbt, PhasesAreTheDrawOnGeneratedCases)
{
    ruby::pbt::check("samplerPhasesAreTheDraw", 0x5A3Cu,
                     pbt::genWorkload,
                     [](const WorkloadCase &c) {
                         return holdsOnGeneratedCase(phasesAreTheDraw, c);
                     },
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     40);
}

TEST(SamplerPbt, PhasesAreTheDrawOnPresets)
{
    expectOnPresets(phasesAreTheDraw);
}

} // namespace
} // namespace ruby
