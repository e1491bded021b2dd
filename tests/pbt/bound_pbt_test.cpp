/**
 * @file
 * Bound admissibility properties backing the certified-optimal
 * branch-and-bound: the full-mapping objective lower bound never
 * exceeds the modeled objective of a valid mapping, and the
 * partial-mapping (per-dim steps floor) overload reproduces the full
 * bound bit for bit on fully-decided vectors while staying monotone —
 * so an internal node's floor can never overshoot any of its leaves.
 * The energy floor is also checked against only the MAC, level-0 and
 * backing-store energy its terms model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/model/evaluator.hpp"

namespace
{

using namespace ruby;
using pbt::WorkloadCase;

constexpr Objective kObjectives[] = {Objective::EDP,
                                     Objective::Energy,
                                     Objective::Delay};

const char *
objectiveName(Objective obj)
{
    switch (obj) {
      case Objective::EDP:
        return "EDP";
      case Objective::Energy:
        return "Energy";
      case Objective::Delay:
        return "Delay";
    }
    return "?";
}

/**
 * Property 1 — the full bound is admissible: for any sampled valid
 * mapping and every objective, objectiveLowerBound(mapping) is at
 * most the fully modeled objective.
 */
std::optional<std::string>
fullBoundAdmissible(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    Rng rng(c.sampleSeed);
    for (int i = 0; i < 20; ++i) {
        const Mapping mapping = space.sample(rng);
        const EvalResult res = eval.evaluate(mapping);
        if (!res.valid)
            continue;
        for (const Objective obj : kObjectives) {
            const double bound = eval.objectiveLowerBound(mapping, obj);
            const double exact = res.objective(obj);
            if (bound > exact * (1 + 1e-12)) {
                std::ostringstream os;
                os.precision(17);
                os << "sample " << i << ": " << objectiveName(obj)
                   << " bound " << bound << " exceeds modeled "
                   << exact << " (" << c.describe() << ")";
                return os.str();
            }
        }
    }
    return std::nullopt;
}

TEST(BoundPbt, FullBoundNeverExceedsModeledObjective)
{
    ruby::pbt::check("fullBoundAdmissible", 0xB0DAu, pbt::genWorkload,
                     fullBoundAdmissible, pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     30);
}

/**
 * Property 2 — the partial bound is consistent and monotone: a
 * fully-decided steps vector reproduces the Mapping overload bit for
 * bit (same multiplication order), and lowering any subset of the
 * per-dim floors never raises the bound. Chained with property 1
 * this gives the branch-and-bound invariant: node floor <= leaf
 * bound <= modeled objective for every valid leaf of the subtree.
 */
std::optional<std::string>
partialBoundConsistentAndMonotone(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    Rng rng(c.sampleSeed);
    std::vector<double> steps(
        static_cast<std::size_t>(prob.numDims()));
    for (int i = 0; i < 20; ++i) {
        const Mapping mapping = space.sample(rng);
        for (DimId d = 0; d < prob.numDims(); ++d)
            steps[static_cast<std::size_t>(d)] =
                static_cast<double>(serialSteps(mapping.chain(d)));
        for (const Objective obj : kObjectives) {
            const double full = eval.objectiveLowerBound(mapping, obj);
            const double vec = eval.objectiveLowerBound(steps, obj);
            if (vec != full) {
                std::ostringstream os;
                os.precision(17);
                os << "sample " << i << ": " << objectiveName(obj)
                   << " vector bound " << vec
                   << " != mapping bound " << full << " ("
                   << c.describe() << ")";
                return os.str();
            }
            // Relax each dim in turn, then all at once: the bound
            // must be monotone in every coordinate.
            double prev = full;
            std::vector<double> floors = steps;
            for (DimId d = 0; d < prob.numDims(); ++d) {
                floors[static_cast<std::size_t>(d)] = 1.0;
                const double partial =
                    eval.objectiveLowerBound(floors, obj);
                if (partial > prev) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "sample " << i << ": " << objectiveName(obj)
                       << " partial bound " << partial
                       << " rose above " << prev
                       << " after relaxing dim " << int(d) << " ("
                       << c.describe() << ")";
                    return os.str();
                }
                prev = partial;
            }
        }
    }
    return std::nullopt;
}

TEST(BoundPbt, PartialBoundMatchesFullAndIsMonotone)
{
    ruby::pbt::check("partialBoundConsistentAndMonotone", 0xF10Bu,
                     pbt::genWorkload, partialBoundConsistentAndMonotone,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     30);
}

/**
 * Property 3 — every energy floor term is below the level it models:
 * compulsoryEnergyFloor() (MACs, one backing-store pass, the level-0
 * datapath reads) never exceeds macEnergy + levelEnergy[0] +
 * levelEnergy[nl-1] of a valid mapping (only levelEnergy[0] when the
 * backing store is level 0). Middle levels and the network are left
 * out, so they cannot hide an unsound datapath term the way they can
 * in property 1's total.
 */
std::optional<std::string>
energyFloorBelowItsLevels(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);
    const auto nl = static_cast<std::size_t>(arch.numLevels());

    Rng rng(c.sampleSeed);
    for (int i = 0; i < 40; ++i) {
        const Mapping mapping = space.sample(rng);
        const EvalResult res = eval.evaluate(mapping);
        if (!res.valid)
            continue;
        double modeled = res.macEnergy + res.levelEnergy[0];
        if (nl > 1)
            modeled += res.levelEnergy[nl - 1];
        if (eval.compulsoryEnergyFloor() > modeled * (1 + 1e-12)) {
            std::ostringstream os;
            os.precision(17);
            os << "sample " << i << ": energy floor "
               << eval.compulsoryEnergyFloor()
               << " exceeds MAC + level-0 + backing-store energy "
               << modeled << " (" << c.describe() << ")";
            return os.str();
        }
    }
    return std::nullopt;
}

TEST(BoundPbt, EnergyFloorBelowItsModeledLevels)
{
    ruby::pbt::check("energyFloorBelowItsLevels", 0xF1002u,
                     pbt::genWorkload, energyFloorBelowItsLevels,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     60);
}

/**
 * The generator reaches every shape the level-0 datapath floor
 * treats specially, with valid mappings that use them: a level-0
 * fanout above 1 filled by a slot-0 spatial loop, a dimension
 * irrelevant to two tensors, free level-0 reads, and a backing store
 * at level 0.
 */
TEST(BoundPbt, GeneratorReachesEveryDatapathFloorShape)
{
    int wideFanout = 0, sharedDim = 0, freeReads = 0, oneLevel = 0;
    Rng gen(0xF1003u);
    for (int n = 0; n < 400; ++n) {
        const WorkloadCase c = pbt::genWorkload(gen);
        const Problem prob = c.problem();
        const ArchSpec arch = c.arch();
        const MappingConstraints cons(prob, arch);
        const Mapspace space(cons, c.variant);
        const Evaluator eval(prob, arch);
        Rng rng(c.sampleSeed);
        bool spread = false, valid = false;
        for (int i = 0; i < 40 && !spread; ++i) {
            const Mapping mapping = space.sample(rng);
            if (!eval.evaluate(mapping).valid)
                continue;
            valid = true;
            spread = mapping.spatialUsage(0) > 1;
        }
        if (!valid)
            continue;
        wideFanout += spread ? 1 : 0;
        for (DimId d = 0; d < prob.numDims(); ++d) {
            int irrelevant = 0;
            for (int t = 0; t < prob.numTensors(); ++t)
                irrelevant += prob.relevant(t, d) ? 0 : 1;
            if (irrelevant >= 2) {
                ++sharedDim;
                break;
            }
        }
        freeReads += arch.level(0).readEnergy == 0.0 ? 1 : 0;
        oneLevel += arch.numLevels() == 1 ? 1 : 0;
    }
    EXPECT_GT(wideFanout, 0);
    EXPECT_GT(sharedDim, 0);
    EXPECT_GT(freeReads, 0);
    EXPECT_GT(oneLevel, 0);
}

} // namespace
