/**
 * @file
 * Property: the sampler's in-draw rejection is exact. For a keyed
 * draw, Mapspace::sampleInto() returns false iff the evaluator
 * rejects the mapping sample() draws from the same key, and a draw it
 * completes materializes to exactly that mapping (same rendering,
 * same packed masks) and passes the validity check. Checked for all
 * four mapspace variants, over generated cases and over real layers
 * on the Eyeriss and Simba presets with their constraint presets.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/arch/presets.hpp"
#include "ruby/model/evaluator.hpp"
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
        if (rows.keepMask != expected.keepMask() ||
            rows.axisYMask != expected.axisYMask()) {
            os << "packed masks differ from the mapping's";
            return os.str();
        }
    }
    return std::nullopt;
}

std::optional<std::string>
generatedCaseRejectionIsExact(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Evaluator eval(prob, arch);
    for (const MapspaceVariant variant : kVariants) {
        const Mapspace space(cons, variant);
        if (auto failure = rejectionIsExact(space, eval, c.sampleSeed,
                                            64, c.describe()))
            return failure;
    }
    return std::nullopt;
}

TEST(SamplerPbt, RejectionIsExactOnGeneratedCases)
{
    ruby::pbt::check("samplerRejectionIsExact", 0x5A3Bu,
                     pbt::genWorkload, generatedCaseRejectionIsExact,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     40);
}

TEST(SamplerPbt, RejectionIsExactOnPresets)
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
                const auto failure = rejectionIsExact(
                    space, eval, 2022 + l, 300,
                    std::string(p.name) + " " + layers[l].shape.name);
                EXPECT_FALSE(failure.has_value()) << *failure;
            }
        }
}

} // namespace
} // namespace ruby
