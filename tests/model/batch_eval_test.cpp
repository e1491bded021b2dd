/**
 * @file
 * Parity tests for the batched (SoA) evaluation engine: every
 * candidate decided by BatchEvaluator — at any batch width, ingested
 * from a Mapping or from raw decision tables, valid or invalid — must
 * agree bit-for-bit with the scalar Evaluator stages on both the
 * Eyeriss and Simba presets. The searches the engine scores are
 * pinned by StrategyGolden (strategies_test.cpp).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "ruby/arch/presets.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/random_search.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

struct PresetFixture
{
    Problem prob;
    ArchSpec arch;
    MappingConstraints cons;
    Mapspace space;
    Evaluator eval;

    PresetFixture(Problem p, ArchSpec a, ConstraintPreset preset,
                  MapspaceVariant variant)
        : prob(std::move(p)), arch(std::move(a)),
          cons(makeConstraints(preset, prob, arch)),
          space(cons, variant), eval(prob, arch)
    {
    }
};

PresetFixture
eyerissFixture()
{
    return PresetFixture(makeConv(alexnetLayer2()), makeEyeriss(),
                         ConstraintPreset::EyerissRS,
                         MapspaceVariant::RubyS);
}

PresetFixture
simbaFixture()
{
    return PresetFixture(makeConv(alexnetLayer2()), makeSimba(),
                         ConstraintPreset::Simba,
                         MapspaceVariant::Ruby);
}

/** Bit-identical comparison of every field of two evaluations. */
void
expectIdentical(const EvalResult &a, const EvalResult &b)
{
    ASSERT_EQ(a.valid, b.valid);
    if (!a.valid)
        return;
    EXPECT_EQ(a.ops, b.ops);
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.edp, b.edp);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.macEnergy, b.macEnergy);
    EXPECT_EQ(a.networkEnergy, b.networkEnergy);
    EXPECT_EQ(a.levelEnergy, b.levelEnergy);
    EXPECT_EQ(a.accesses.reads, b.accesses.reads);
    EXPECT_EQ(a.accesses.writes, b.accesses.writes);
    EXPECT_EQ(a.accesses.networkWords, b.accesses.networkWords);
    EXPECT_EQ(a.latency.computeCycles, b.latency.computeCycles);
    EXPECT_EQ(a.latency.bandwidthCycles, b.latency.bandwidthCycles);
    EXPECT_EQ(a.latency.cycles, b.latency.cycles);
    EXPECT_EQ(a.latency.utilization, b.latency.utilization);
}

/** The batch counters never touch the decided() partition. */
void
expectStatsPartition(const EvalStats &stats, std::uint64_t evaluated)
{
    EXPECT_EQ(stats.decided(), evaluated);
}

/**
 * Stage-level parity: for batches of every interesting width —
 * including 1, non-powers-of-two, and widths above the default — each
 * lane's validity, objective bound, and (for survivors) fully modeled
 * result must be bit-identical to the scalar stages run one by one.
 */
void
directParitySweep(PresetFixture fix, std::uint64_t seed)
{
    Rng rng(seed);
    BatchEvaluator batch(fix.eval);
    EvalStats stats;
    EvalScratch scalar, batched;
    const std::size_t widths[] = {1, 2, 7, 32, 128};
    for (const std::size_t k : widths) {
        std::vector<Mapping> drawn;
        drawn.reserve(k);
        batch.begin(k);
        for (std::size_t i = 0; i < k; ++i) {
            drawn.push_back(fix.space.sample(rng));
            batch.add(drawn.back());
        }
        batch.run(Objective::EDP, stats);
        for (std::size_t i = 0; i < k; ++i) {
            const bool valid =
                fix.eval.checkValidity(drawn[i], scalar, false);
            ASSERT_EQ(batch.valid(i), valid)
                << "width " << k << " lane " << i;
            if (!valid)
                continue;
            // The bound is only defined for survivors — exactly the
            // lanes the scalar fast path would have bounded.
            EXPECT_EQ(batch.bound(i),
                      fix.eval.objectiveLowerBound(drawn[i],
                                                   Objective::EDP))
                << "width " << k << " lane " << i;
            fix.eval.modelValidated(drawn[i], scalar);
            batch.prepareScratch(i, batched);
            fix.eval.modelValidated(drawn[i], batched);
            expectIdentical(scalar.result, batched.result);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    EXPECT_EQ(stats.batchCalls, 5u);
}

TEST(BatchEval, DirectParitySweepEyeriss)
{
    directParitySweep(eyerissFixture(), 17);
}

TEST(BatchEval, DirectParitySweepSimba)
{
    directParitySweep(simbaFixture(), 23);
}

/**
 * The flat-decision ingestion path (every draw's rows as
 * Mapping::decisions() returns them, and the random sampler's
 * sampleInto() rows) must decide exactly like the Mapping path, lane
 * for lane — their tails are re-derived in lane form rather than
 * copied, so this pins the division pass — and hand modelValidated()
 * the same tile table.
 * The sampler rejects a doomed draw before it takes a lane, so the
 * flat path carries only the completed draws, and each rejected draw
 * must be one the Mapping path finds invalid.
 */
void
ingestPathsAgree(PresetFixture fix, std::uint64_t seed)
{
    BatchEvaluator viaMapping(fix.eval);
    BatchEvaluator viaDecisions(fix.eval);
    BatchEvaluator viaFlat(fix.eval);
    EvalStats stats;
    const std::size_t k = 64;
    std::vector<Mapping> drawn;
    drawn.reserve(k);
    std::vector<Decisions> rows(k);
    std::vector<std::size_t> flatLane(k, k); // k: rejected
    std::size_t flatLanes = 0;
    viaMapping.begin(k);
    viaDecisions.begin(k);
    viaFlat.begin(k);
    for (std::size_t i = 0; i < k; ++i) {
        Rng viaSample = Rng::keyed(seed, i);
        Rng viaRows = Rng::keyed(seed, i);
        drawn.push_back(fix.space.sample(viaSample));
        viaMapping.add(drawn.back());
        viaDecisions.add(drawn.back().decisions());
        if (fix.space.sampleInto(viaRows, rows[i])) {
            flatLane[i] = flatLanes++;
            viaFlat.add(rows[i]);
        }
    }
    viaMapping.run(Objective::EDP, stats);
    viaDecisions.run(Objective::EDP, stats);
    viaFlat.run(Objective::EDP, stats);
    EvalScratch fromMapping, fromFlat;
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(viaMapping.valid(i), viaDecisions.valid(i)) << i;
        const std::size_t j = flatLane[i];
        ASSERT_EQ(viaMapping.valid(i), j != k) << i;
        if (!viaMapping.valid(i))
            continue;
        ASSERT_TRUE(viaFlat.valid(j)) << i;
        ++survivors;
        EXPECT_EQ(viaMapping.bound(i), viaDecisions.bound(i)) << i;
        EXPECT_EQ(viaMapping.bound(i), viaFlat.bound(j)) << i;
        viaMapping.prepareScratch(i, fromMapping);
        viaFlat.prepareScratch(j, fromFlat);
        EXPECT_EQ(fromMapping.tiles.tileWords, fromFlat.tiles.tileWords)
            << i;
    }
    EXPECT_GT(survivors, 0u);
}

TEST(BatchEval, RawIngestMatchesMappingIngest)
{
    ingestPathsAgree(eyerissFixture(), 29);
    ingestPathsAgree(simbaFixture(), 31);
}

/**
 * The threaded random path keeps its counters partitioned and serves
 * every completed draw from a batch, whose lanes the sampler has
 * already cleared of doomed draws (parallel_search_test pins its
 * parity with one thread).
 */
TEST(BatchEval, ThreadedRandomKeepsPartitionIdentity)
{
    PresetFixture fix = eyerissFixture();
    SearchOptions opts;
    opts.seed = 13;
    opts.maxEvaluations = 4000;
    opts.threads = 4;
    const SearchResult res = randomSearch(fix.space, fix.eval, opts);
    expectStatsPartition(res.stats, res.evaluated);
    EXPECT_GT(res.stats.batchCalls, 0u);
    EXPECT_EQ(res.stats.batchedEvals, res.valid);
    EXPECT_EQ(res.stats.batchRejects, 0u);
}

} // namespace
} // namespace ruby
