/**
 * @file
 * The Mapspace edit operators on flat Decisions rows: chain
 * resampling keeps coverage and the variant's rules, every mutation
 * stays materializable and honours forced bypasses, undo is an exact
 * inverse, and crossover takes each row from
 * one of the parents.
 */

#include "ruby/mapspace/mapspace.hpp"

#include <gtest/gtest.h>

#include "ruby/arch/presets.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

struct MutationFixture
{
    Problem prob = makeGemm(100, 96, 60);
    ArchSpec arch = makeToyLinear(12);
    MappingConstraints cons{prob, arch};
    Mapspace space{cons, MapspaceVariant::RubyS};
    Rng rng{5};

    Decisions sample()
    {
        Decisions rows;
        space.sample(rng, rows);
        return rows;
    }
};

TEST(Mutation, DecisionsRoundTrip)
{
    MutationFixture fx;
    for (std::uint64_t i = 0; i < 50; ++i) {
        Rng viaMapping = Rng::keyed(5, i), viaRows = Rng::keyed(5, i);
        const Mapping original = fx.space.sample(viaMapping);
        Decisions rows;
        fx.space.sample(viaRows, rows);
        EXPECT_TRUE(original.decisions() == rows) << i;
        EXPECT_EQ(original.toString(),
                  fx.space.materialize(original.decisions()).toString());
    }
}

TEST(Mutation, MutateChainPreservesCoverage)
{
    MutationFixture fx;
    Decisions rows = fx.sample();
    for (int i = 0; i < 200; ++i) {
        const DimId d = static_cast<DimId>(fx.rng.below(3));
        fx.space.mutateChain(rows, d, fx.rng);
        // Materialization derives tails; it throws if coverage broke.
        const Mapping m = fx.space.materialize(rows);
        EXPECT_EQ(m.chain(d).bodyCount(0), fx.prob.dimSize(d));
    }
}

TEST(Mutation, MutateChainRespectsVariantRules)
{
    MutationFixture fx;
    const Mapspace pfm(fx.cons, MapspaceVariant::PFM);
    Decisions rows;
    pfm.sample(fx.rng, rows);
    for (int i = 0; i < 100; ++i) {
        pfm.mutateChain(rows, 0, fx.rng);
        const Mapping m = pfm.materialize(rows);
        EXPECT_TRUE(m.chain(0).fullyPerfect());
    }
}

TEST(Mutation, GenericMutationsStayMaterializable)
{
    MutationFixture fx;
    Decisions rows = fx.sample();
    for (int i = 0; i < 500; ++i) {
        fx.space.mutate(rows, fx.rng);
        EXPECT_NO_THROW(fx.space.materialize(rows));
    }
}

TEST(Mutation, UndoIsAnExactInverse)
{
    const Problem prob = makeConv(alexnetLayer2());
    const ArchSpec arch = makeSimba();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::Ruby);
    Rng rng(13);
    Decisions rows;
    space.sample(rng, rows);
    MutationUndo undo;
    int changed = 0;
    for (int i = 0; i < 1000; ++i) {
        const Decisions before = rows;
        space.mutate(rows, rng, &undo);
        changed += before == rows ? 0 : 1;
        space.undoMutation(rows, undo);
        ASSERT_TRUE(before == rows) << "mutation " << i;
        // Walk on: keep every other mutation.
        if (i % 2 == 0)
            space.mutate(rows, rng);
    }
    EXPECT_GT(changed, 500);
}

TEST(Mutation, MutationHonoursForcedBypass)
{
    const Problem prob = makeConv(alexnetLayer2());
    const ArchSpec arch = makeEyeriss();
    const MappingConstraints cons =
        MappingConstraints::eyerissRowStationary(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    Rng rng(9);
    Decisions rows;
    space.sample(rng, rows);
    const std::size_t glbWeights =
        static_cast<std::size_t>(prob.numTensors() + CONV_WEIGHTS);
    for (int i = 0; i < 1000; ++i) {
        space.mutate(rows, rng);
        EXPECT_EQ(rows.keep[glbWeights], 0)
            << "forced GLB weight bypass flipped by mutation";
    }
}

TEST(Mutation, CrossoverMixesParents)
{
    MutationFixture fx;
    const Decisions a = fx.sample();
    const Decisions b = fx.sample();
    const std::size_t slots = static_cast<std::size_t>(2 *
                                                       fx.arch.numLevels());
    const auto chain = [&](const Decisions &rows, std::size_t d) {
        return std::vector<std::uint64_t>(
            rows.steady.begin() + static_cast<std::ptrdiff_t>(d * slots),
            rows.steady.begin() +
                static_cast<std::ptrdiff_t>((d + 1) * slots));
    };
    bool saw_a = false, saw_b = false;
    for (int i = 0; i < 50; ++i) {
        const Decisions child = fx.space.crossover(a, b, fx.rng);
        EXPECT_NO_THROW(fx.space.materialize(child));
        for (std::size_t d = 0; d < 3; ++d) {
            if (chain(child, d) == chain(a, d))
                saw_a = true;
            if (chain(child, d) == chain(b, d))
                saw_b = true;
            EXPECT_TRUE(chain(child, d) == chain(a, d) ||
                        chain(child, d) == chain(b, d));
        }
    }
    EXPECT_TRUE(saw_a);
    EXPECT_TRUE(saw_b);
}

} // namespace
} // namespace ruby
