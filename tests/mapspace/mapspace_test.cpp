#include "ruby/mapspace/mapspace.hpp"

#include <gtest/gtest.h>

#include "ruby/arch/presets.hpp"
#include "ruby/common/math_util.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/util/hash.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

TEST(MapspaceVariantApi, NamesAndFlags)
{
    EXPECT_EQ(variantName(MapspaceVariant::PFM), "PFM");
    EXPECT_EQ(variantName(MapspaceVariant::Ruby), "Ruby");
    EXPECT_EQ(variantName(MapspaceVariant::RubyS), "Ruby-S");
    EXPECT_EQ(variantName(MapspaceVariant::RubyT), "Ruby-T");
    EXPECT_FALSE(imperfectSpatial(MapspaceVariant::PFM));
    EXPECT_TRUE(imperfectSpatial(MapspaceVariant::Ruby));
    EXPECT_TRUE(imperfectSpatial(MapspaceVariant::RubyS));
    EXPECT_FALSE(imperfectSpatial(MapspaceVariant::RubyT));
    EXPECT_TRUE(imperfectTemporal(MapspaceVariant::RubyT));
    EXPECT_FALSE(imperfectTemporal(MapspaceVariant::RubyS));
}

/** Parameterized over all four variants. */
class VariantSampling
    : public ::testing::TestWithParam<MapspaceVariant>
{
};

TEST_P(VariantSampling, SamplesAreStructurallyValid)
{
    const Problem prob = makeGemm(100, 100, 100);
    const ArchSpec arch = makeToyLinear(16);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, GetParam());
    Rng rng(1);
    for (int i = 0; i < 300; ++i) {
        const Mapping m = space.sample(rng);
        // Chains cover every dim exactly (checked internally) and
        // the spatial budget holds by construction.
        for (int l = 0; l < arch.numLevels(); ++l)
            EXPECT_LE(m.spatialUsage(l), arch.level(l).fanout());
        EXPECT_TRUE(cons.admits(m));
    }
}

TEST_P(VariantSampling, VariantPurityHolds)
{
    const Problem prob = makeGemm(100, 100, 100);
    const ArchSpec arch = makeToyLinear(16);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, GetParam());
    Rng rng(2);
    for (int i = 0; i < 300; ++i) {
        const Mapping m = space.sample(rng);
        switch (GetParam()) {
          case MapspaceVariant::PFM:
            EXPECT_TRUE(m.fullyPerfect());
            break;
          case MapspaceVariant::RubyS:
            EXPECT_TRUE(m.spatialOnlyImperfection());
            break;
          case MapspaceVariant::RubyT:
            // No spatial slot may carry a remainder.
            for (DimId d = 0; d < prob.numDims(); ++d)
                for (int l = 0; l < arch.numLevels(); ++l)
                    EXPECT_TRUE(
                        m.factor(d, spatialSlot(l)).perfect());
            break;
          case MapspaceVariant::Ruby:
            break; // anything goes
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantSampling,
                         ::testing::Values(MapspaceVariant::PFM,
                                           MapspaceVariant::Ruby,
                                           MapspaceVariant::RubyS,
                                           MapspaceVariant::RubyT));

TEST(Mapspace, RubySReachesImperfectSpatialFactors)
{
    // With 16 PEs and D = 100, Ruby-S must be able to propose a
    // spatial factor that does not divide 100 (e.g. 16 itself).
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyLinear(16);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    Rng rng(3);
    bool imperfect_seen = false;
    for (int i = 0; i < 2000 && !imperfect_seen; ++i) {
        const Mapping m = space.sample(rng);
        imperfect_seen = !m.fullyPerfect();
    }
    EXPECT_TRUE(imperfect_seen);
}

TEST(Mapspace, PfmNeverUsesNonDivisorSpatial)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyLinear(16);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::PFM);
    Rng rng(4);
    for (int i = 0; i < 500; ++i) {
        const Mapping m = space.sample(rng);
        const std::uint64_t s =
            m.factor(0, spatialSlot(1)).steady;
        EXPECT_EQ(100 % s, 0u) << "spatial factor " << s;
    }
}

TEST(Mapspace, ConstraintsForceSerialDims)
{
    const Problem prob = makeConv(alexnetLayer2());
    const ArchSpec arch = makeEyeriss();
    const MappingConstraints cons =
        MappingConstraints::eyerissRowStationary(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        const Mapping m = space.sample(rng);
        EXPECT_EQ(m.factor(CONV_P, spatialSlot(1)).steady, 1u);
        EXPECT_EQ(m.factor(CONV_N, spatialSlot(1)).steady, 1u);
        EXPECT_FALSE(m.keeps(1, CONV_WEIGHTS)); // forced bypass
    }
}

TEST(Mapspace, SlotCapsReflectArchitecture)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyGlb(6);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::Ruby);
    EXPECT_EQ(space.slotCap(0, spatialSlot(0)), 1u);  // latch fanout
    EXPECT_EQ(space.slotCap(0, spatialSlot(1)), 6u);  // PE array
    EXPECT_EQ(space.slotCap(0, temporalSlot(1)), 0u); // unbounded
}

TEST(Mapspace, DeterministicForSeed)
{
    const Problem prob = makeGemm(36, 48, 60);
    const ArchSpec arch = makeToyLinear(9);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::Ruby);
    Rng r1(77), r2(77);
    for (int i = 0; i < 50; ++i) {
        const Mapping a = space.sample(r1);
        const Mapping b = space.sample(r2);
        EXPECT_EQ(a.toString(), b.toString());
    }
}

/**
 * FNV-1a over the rendered first @p draws samples of one seeded
 * stream: any change to the draws, their order, or the RNG calls
 * behind them moves the hash.
 */
std::uint64_t
sampleStreamHash(const Mapspace &space, std::uint64_t seed, int draws)
{
    Rng rng(seed);
    std::uint64_t hash = hashing::kFnvOffset;
    for (int i = 0; i < draws; ++i)
        hash = hashing::fnv1aBytes(space.sample(rng).toString(), hash);
    return hash;
}

/**
 * Golden sampler streams: the first 2000 draws of every variant on
 * the Eyeriss and Simba presets, pinned to the values the nested-table
 * sampler produced. The sampler's RNG call sequence is part of every
 * search's answer, so a rewrite of the sampler must keep these.
 */
TEST(MapspaceGolden, SampleStreamsArePinned)
{
    struct Case
    {
        const char *name;
        ArchSpec arch;
        ConstraintPreset preset;
        std::uint64_t hash[4]; ///< PFM, Ruby, Ruby-S, Ruby-T
    };
    const Problem prob = makeConv(resnet50Layers()[1].shape);
    const Case cases[] = {
        {"eyeriss", makeEyeriss(), ConstraintPreset::EyerissRS,
         {0xa45ad3b928015c00ull, 0x78f237033461bb88ull,
          0xb46bea31943f44c8ull, 0x43fa5814569b7576ull}},
        {"simba", makeSimba(), ConstraintPreset::Simba,
         {0xa454afdc496b0320ull, 0x791eb4fd00a60642ull,
          0x39044c8e7091cf04ull, 0x32297ef199dfbe3full}},
    };
    const MapspaceVariant variants[] = {
        MapspaceVariant::PFM, MapspaceVariant::Ruby,
        MapspaceVariant::RubyS, MapspaceVariant::RubyT};
    for (const Case &c : cases) {
        const MappingConstraints cons =
            makeConstraints(c.preset, prob, c.arch);
        for (int v = 0; v < 4; ++v) {
            const Mapspace space(cons, variants[v]);
            const std::uint64_t got = sampleStreamHash(space, 2022, 2000);
            EXPECT_EQ(got, c.hash[v])
                << c.name << " " << variantName(variants[v]) << " 0x"
                << std::hex << got;
        }
    }
}

/**
 * sampleInto() is sample() split in two: on the same stream, its rows
 * materialize to the very mapping sample() returns, and the packed
 * masks match the mapping's. One Decisions and one memo are reused
 * across every draw and every variant, as the search loops do.
 */
TEST(MapspaceGolden, SampleIntoMaterializesToSample)
{
    const Problem prob = makeConv(resnet50Layers()[1].shape);
    const ArchSpec arch = makeSimba();
    const MappingConstraints cons =
        makeConstraints(ConstraintPreset::Simba, prob, arch);
    Decisions decisions;
    DivisorMemo memo;
    for (const MapspaceVariant variant :
         {MapspaceVariant::PFM, MapspaceVariant::Ruby,
          MapspaceVariant::RubyS, MapspaceVariant::RubyT}) {
        const Mapspace space(cons, variant);
        Rng viaSample(31), viaRows(31);
        for (int i = 0; i < 500; ++i) {
            const Mapping expected = space.sample(viaSample);
            space.sampleInto(viaRows, decisions, memo);
            const Mapping got = space.materialize(decisions);
            ASSERT_EQ(got.toString(), expected.toString())
                << variantName(variant) << " draw " << i;
            EXPECT_EQ(decisions.keepMask, expected.keepMask());
            EXPECT_EQ(decisions.axisYMask, expected.axisYMask());
        }
        // Both streams advanced by exactly the same RNG calls.
        EXPECT_EQ(viaSample.next(), viaRows.next());
    }
}

/** The memo answers like trial division, also after it starts over. */
TEST(DivisorMemo, MatchesTrialDivisionPastItsCap)
{
    DivisorMemo memo;
    for (std::uint64_t n = 1; n <= DivisorMemo::kMaxEntries + 100; ++n)
        ASSERT_EQ(memo.divisorsOf(n), divisors(n)) << n;
    EXPECT_EQ(memo.divisorsOf(360), divisors(360));
}

} // namespace
} // namespace ruby
