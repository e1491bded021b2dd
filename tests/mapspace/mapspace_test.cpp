#include "ruby/mapspace/mapspace.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <vector>

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
 * FNV-1a over the rendered draws 0 .. @p draws - 1 of @p seed, each
 * from its own keyed stream as the random search draws them: any
 * change to the draws, their order, or the RNG calls behind them
 * moves the hash.
 */
std::uint64_t
sampleStreamHash(const Mapspace &space, std::uint64_t seed, int draws)
{
    std::uint64_t hash = hashing::kFnvOffset;
    for (int i = 0; i < draws; ++i) {
        Rng rng = Rng::keyed(seed, static_cast<std::uint64_t>(i));
        hash = hashing::fnv1aBytes(space.sample(rng).toString(), hash);
    }
    return hash;
}

/**
 * Golden sampler streams: the first 2000 keyed draws of every variant
 * on the Eyeriss and Simba presets, pinned to the values of the
 * keep-first sampler that shuffles only at spatial slots with
 * fanout > 1. The sampler's RNG call sequence is part of every
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
         {0xc90b12cd439ccbcdull, 0x9ec2e2a4a62d84bdull,
          0x645316381f650716ull, 0xda3edfbe652d9506ull}},
        {"simba", makeSimba(), ConstraintPreset::Simba,
         {0x0ddea917ecc13ba5ull, 0xf9af8ff26241f840ull,
          0x566800d249fedd6dull, 0x6ad405458f577142ull}},
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
 * sampleInto() is sample() split in two, with early rejection: on the
 * same keyed stream, a draw it completes materializes to the very
 * mapping sample() returns (same keep and axis rows, same RNG calls),
 * and a draw it rejects is one the evaluator finds invalid. One
 * Decisions is reused across every draw and every variant, as the
 * search loops do.
 */
TEST(MapspaceGolden, SampleIntoMaterializesToSample)
{
    const Problem prob = makeConv(resnet50Layers()[1].shape);
    const ArchSpec arch = makeSimba();
    const MappingConstraints cons =
        makeConstraints(ConstraintPreset::Simba, prob, arch);
    const Evaluator eval(prob, arch);
    Decisions decisions;
    for (const MapspaceVariant variant :
         {MapspaceVariant::PFM, MapspaceVariant::Ruby,
          MapspaceVariant::RubyS, MapspaceVariant::RubyT}) {
        const Mapspace space(cons, variant);
        int completed = 0, rejected = 0;
        for (std::uint64_t i = 0; i < 500; ++i) {
            Rng viaSample = Rng::keyed(31, i), viaRows = Rng::keyed(31, i);
            const Mapping expected = space.sample(viaSample);
            if (!space.sampleInto(viaRows, decisions)) {
                ++rejected;
                EXPECT_FALSE(eval.evaluate(expected).valid)
                    << variantName(variant) << " draw " << i;
                continue;
            }
            ++completed;
            const Mapping got = space.materialize(decisions);
            ASSERT_EQ(got.toString(), expected.toString())
                << variantName(variant) << " draw " << i;
            EXPECT_EQ(decisions.keep, expected.decisions().keep);
            EXPECT_EQ(decisions.axes, expected.decisions().axes);
            EXPECT_TRUE(eval.evaluate(expected).valid);
            // Both streams advanced by exactly the same RNG calls.
            EXPECT_EQ(viaSample.next(), viaRows.next());
        }
        EXPECT_GT(completed, 0) << variantName(variant);
        EXPECT_GT(rejected, 0) << variantName(variant);
    }
}

/**
 * The per-mapspace divisor tables hold every remaining count a draw
 * can reach (m = ceil(D / k)), for awkward sizes too: primes, squares,
 * one, and the largest suite dimension. A miss asserts; a PFM chain
 * must multiply out to D exactly.
 */
TEST(Mapspace, DivisorTablesCoverEveryReachableCount)
{
    for (const std::uint64_t d :
         {1ull, 2ull, 3ull, 4ull, 97ull, 360ull, 1024ull, 9216ull,
          65537ull}) {
        const Problem prob = makeVector1D(d);
        const ArchSpec arch = makeToyGlb(6);
        const MappingConstraints cons(prob, arch);
        for (const MapspaceVariant variant :
             {MapspaceVariant::PFM, MapspaceVariant::Ruby}) {
            const Mapspace space(cons, variant);
            for (std::uint64_t i = 0; i < 200; ++i) {
                Rng rng = Rng::keyed(d, i);
                const Mapping m = space.sample(rng);
                if (variant == MapspaceVariant::PFM) {
                    EXPECT_TRUE(m.chain(0).fullyPerfect()) << d;
                }
            }
        }
    }
}

/**
 * A spatial slot of a 1x1 level draws nothing, but its axis row still
 * says where a factor would go: Y for a dimension allowed only on Y,
 * else X, as a slot with no room left picks. Eyeriss's PE spad level
 * is 1x1; with its X axis closed every dimension there is Y-only.
 */
TEST(Mapspace, OneByOneLevelAxisRowFollowsTheAllowedAxis)
{
    const Problem prob = makeConv(resnet50Layers()[1].shape);
    const ArchSpec arch = makeEyeriss();
    ASSERT_EQ(arch.level(0).fanout(), 1u);
    MappingConstraints cons(prob, arch);
    cons.allowSpatialOnly(0, SpatialAxis::X, {});
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const std::size_t nd = static_cast<std::size_t>(prob.numDims());
    Decisions rows;
    for (std::uint64_t i = 0; i < 50; ++i) {
        Rng rng = Rng::keyed(9, i);
        space.sample(rng, rows);
        for (std::size_t d = 0; d < nd; ++d) {
            EXPECT_EQ(rows.axes[d], SpatialAxis::Y) << "draw " << i;
            // The backing store allows both axes: X.
            EXPECT_EQ(rows.axes[2 * nd + d], SpatialAxis::X) << "draw " << i;
        }
    }
}

/**
 * The flat divisor lists behind the draws: every count m = ceil(D / k)
 * a dimension reaches has its own list, holding divisors(m) in order;
 * each entry's quotient is exact and its next id is the list of
 * m / p. Sizes 1, primes, powers of two and 2048, all in one table.
 */
TEST(DivisorLists, EntriesAreExactAndLinked)
{
    const std::uint64_t sizes[] = {1, 2, 3, 7, 97, 65537,
                                   4, 64, 1024, 2048};
    DivisorLists lists;
    for (const std::uint64_t size : sizes)
        lists.addDim(size);
    std::set<std::uint32_t> ids;
    for (DimId d = 0; d < static_cast<DimId>(std::size(sizes)); ++d) {
        const std::uint64_t size = sizes[d];
        std::uint64_t previous = 0;
        for (std::uint64_t k = 1; k <= size; ++k) {
            const std::uint64_t m = ceilDiv(size, k);
            if (m == previous)
                continue;
            previous = m;
            const std::uint32_t id = lists.id(d, m);
            EXPECT_TRUE(ids.insert(id).second)
                << "size " << size << ": m " << m << " shares a list";
            std::vector<std::uint64_t> got;
            for (const DivisorLists::Entry &e : lists.list(id)) {
                got.push_back(e.divisor);
                EXPECT_EQ(e.divisor * e.quotient, m) << "size " << size;
                EXPECT_EQ(e.next, lists.id(d, e.quotient))
                    << "size " << size << ": m " << m << " / "
                    << e.divisor;
            }
            EXPECT_EQ(got, divisors(m)) << "size " << size << ": m " << m;
        }
    }
}

/**
 * Equal sizes share one list set (a conv's P == Q, R == S): a repeated
 * size maps every count to the earlier dimension's id, so the same
 * entries, and adds no list, so a later new size gets the ids it
 * would get without the repeats.
 */
TEST(DivisorLists, EqualSizesShareOneListSet)
{
    const std::uint64_t sizes[] = {56, 3, 56, 3, 97};
    DivisorLists shared;
    for (const std::uint64_t size : sizes)
        shared.addDim(size);
    DivisorLists distinct;
    for (const std::uint64_t size : {56, 3, 97})
        distinct.addDim(size);
    // Dimensions 2 and 3 repeat dimensions 0 and 1.
    for (DimId d = 2; d <= 3; ++d) {
        const std::uint64_t size = sizes[d];
        for (std::uint64_t k = 1; k <= size; ++k) {
            const std::uint64_t m = ceilDiv(size, k);
            EXPECT_EQ(shared.id(d, m), shared.id(d - 2, m))
                << "size " << size << ": m " << m;
        }
    }
    for (std::uint64_t k = 1; k <= 97; ++k) {
        const std::uint64_t m = ceilDiv(97, k);
        EXPECT_EQ(shared.id(4, m), distinct.id(2, m)) << "m " << m;
    }
}

} // namespace
} // namespace ruby
