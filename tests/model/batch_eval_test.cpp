/**
 * @file
 * Parity tests for the batched (SoA) evaluation engine: every
 * candidate decided by BatchEvaluator — at any batch width, ingested
 * from a Mapping or from raw decision tables, valid or invalid — must
 * agree bit-for-bit with the scalar Evaluator stages, and every search
 * wired to the engine must produce identical best mappings,
 * trajectories, and stage counters with batching on or off, on both
 * the Eyeriss and Simba presets.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "ruby/arch/presets.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/search/genetic_search.hpp"
#include "ruby/search/genome.hpp"
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

/** A small conv layer whose mapspace exhausts quickly. */
ConvShape
smallConv()
{
    ConvShape sh;
    sh.name = "conv_small";
    sh.c = 16;
    sh.m = 16;
    sh.p = 7;
    sh.q = 7;
    sh.r = 3;
    sh.s = 3;
    return sh;
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
 * The raw-table and flat-decision ingestion paths (exhaustive
 * enumeration and genomes; the random sampler's sampleInto() rows)
 * must decide exactly like the Mapping path, lane for lane — their
 * tails are re-derived in lane form rather than copied, so this pins
 * the division pass — and hand modelValidated() the same tile table.
 * The sampler rejects a doomed draw before it takes a lane, so the
 * flat path carries only the completed draws, and each rejected draw
 * must be one the Mapping path finds invalid.
 */
void
ingestPathsAgree(PresetFixture fix, std::uint64_t seed)
{
    BatchEvaluator viaMapping(fix.eval);
    BatchEvaluator viaTables(fix.eval);
    BatchEvaluator viaFlat(fix.eval);
    EvalStats stats;
    const std::size_t k = 64;
    std::vector<MappingGenome> genomes;
    genomes.reserve(k);
    std::vector<Mapping> drawn;
    drawn.reserve(k);
    std::vector<Decisions> rows(k);
    std::vector<std::size_t> flatLane(k, k); // k: rejected
    std::size_t flatLanes = 0;
    viaMapping.begin(k);
    viaTables.begin(k);
    viaFlat.begin(k);
    for (std::size_t i = 0; i < k; ++i) {
        Rng viaSample = Rng::keyed(seed, i);
        Rng viaRows = Rng::keyed(seed, i);
        drawn.push_back(fix.space.sample(viaSample));
        genomes.push_back(extractGenome(drawn.back()));
        viaMapping.add(drawn.back());
        viaTables.add(genomes.back().steady, genomes.back().keep,
                      genomes.back().axes);
        if (fix.space.sampleInto(viaRows, rows[i])) {
            flatLane[i] = flatLanes++;
            viaFlat.add(rows[i]);
        }
    }
    viaMapping.run(Objective::EDP, stats);
    viaTables.run(Objective::EDP, stats);
    viaFlat.run(Objective::EDP, stats);
    EvalScratch fromMapping, fromFlat;
    std::size_t survivors = 0;
    for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(viaMapping.valid(i), viaTables.valid(i)) << i;
        const std::size_t j = flatLane[i];
        ASSERT_EQ(viaMapping.valid(i), j != k) << i;
        if (!viaMapping.valid(i))
            continue;
        ASSERT_TRUE(viaFlat.valid(j)) << i;
        ++survivors;
        EXPECT_EQ(viaMapping.bound(i), viaTables.bound(i)) << i;
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
 * Search-level parity for the random sampler: with a recorded
 * trajectory, every step of the batched run must match the scalar run
 * — same samples, same incumbent at every index, same stage counters —
 * not merely the same final best.
 */
void
randomTrajectoryParity(PresetFixture fix)
{
    SearchOptions scalar;
    scalar.seed = 5;
    scalar.maxEvaluations = 3000;
    scalar.recordTrajectory = true;
    scalar.threads = 1;
    scalar.batchEval = false;
    SearchOptions batched = scalar;
    batched.batchEval = true;

    const SearchResult a = randomSearch(fix.space, fix.eval, scalar);
    const SearchResult b = randomSearch(fix.space, fix.eval, batched);

    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.trajectory, b.trajectory);
    EXPECT_EQ(a.stats.invalid, b.stats.invalid);
    EXPECT_EQ(a.stats.prunedBound, b.stats.prunedBound);
    EXPECT_EQ(a.stats.modeled, b.stats.modeled);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.bestResult.edp, b.bestResult.edp);
        EXPECT_EQ(a.best->toString(), b.best->toString());
        expectIdentical(a.bestResult, b.bestResult);
    }
    expectStatsPartition(a.stats, a.evaluated);
    expectStatsPartition(b.stats, b.evaluated);
    // The scalar run never batches; the batched run serves every
    // completed draw from a batch. The sampler rejects doomed draws
    // before they take a lane, so every lane is valid.
    EXPECT_EQ(a.stats.batchCalls, 0u);
    EXPECT_GT(b.stats.batchCalls, 0u);
    EXPECT_EQ(b.stats.batchRejects, 0u);
    EXPECT_EQ(b.stats.batchedEvals, b.valid);
}

TEST(BatchEval, RandomTrajectoryParityEyeriss)
{
    randomTrajectoryParity(eyerissFixture());
}

TEST(BatchEval, RandomTrajectoryParitySimba)
{
    randomTrajectoryParity(simbaFixture());
}

/**
 * Stop conditions that land mid-batch — an evaluation cap that is not
 * a multiple of the batch width, and a termination streak — must
 * consume exactly as many candidates as the scalar loop, discarding
 * the rest of the batch uncounted.
 */
TEST(BatchEval, PartialBatchStopsMatchScalar)
{
    PresetFixture fix = eyerissFixture();
    for (const std::uint64_t cap : {std::uint64_t{7},
                                    std::uint64_t{100}}) {
        SearchOptions scalar;
        scalar.seed = 9;
        scalar.maxEvaluations = cap;
        scalar.threads = 1;
        scalar.batchEval = false;
        SearchOptions batched = scalar;
        batched.batchEval = true;
        const SearchResult a =
            randomSearch(fix.space, fix.eval, scalar);
        const SearchResult b =
            randomSearch(fix.space, fix.eval, batched);
        EXPECT_EQ(a.evaluated, cap);
        EXPECT_EQ(a.evaluated, b.evaluated);
        EXPECT_EQ(a.valid, b.valid);
        EXPECT_EQ(a.stats.invalid, b.stats.invalid);
        EXPECT_EQ(b.stats.batchedEvals, b.valid);
    }

    SearchOptions scalar;
    scalar.seed = 9;
    scalar.maxEvaluations = 5000;
    scalar.terminationStreak = 37;
    scalar.threads = 1;
    scalar.batchEval = false;
    SearchOptions batched = scalar;
    batched.batchEval = true;
    const SearchResult a = randomSearch(fix.space, fix.eval, scalar);
    const SearchResult b = randomSearch(fix.space, fix.eval, batched);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.best->toString(), b.best->toString());
    }
}

/**
 * The threaded random path keeps its counters partitioned and serves
 * every completed draw from a batch (parallel_search_test pins its
 * parity with one thread).
 */
TEST(BatchEval, ThreadedRandomKeepsPartitionIdentity)
{
    PresetFixture fix = eyerissFixture();
    SearchOptions opts;
    opts.seed = 13;
    opts.maxEvaluations = 4000;
    opts.threads = 4;
    opts.batchEval = true;
    const SearchResult res = randomSearch(fix.space, fix.eval, opts);
    expectStatsPartition(res.stats, res.evaluated);
    EXPECT_GT(res.stats.batchCalls, 0u);
    EXPECT_EQ(res.stats.batchedEvals, res.valid);
    EXPECT_EQ(res.stats.batchRejects, 0u);
}

void
exhaustiveBatchParity(const ArchSpec &arch, ConstraintPreset preset)
{
    const Problem prob = makeConv(smallConv());
    const MappingConstraints cons = makeConstraints(preset, prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    ExhaustiveOptions scalar;
    scalar.maxEvaluations = 4000;
    scalar.threads = 1;
    scalar.batchEval = false;
    ExhaustiveOptions batched = scalar;
    batched.batchEval = true;

    const ExhaustiveResult a = exhaustiveSearch(space, eval, scalar);
    const ExhaustiveResult b = exhaustiveSearch(space, eval, batched);

    // Serial enumeration with one incumbent: every stage count must
    // match, not just the best.
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.stats.invalid, b.stats.invalid);
    EXPECT_EQ(a.stats.prunedBound, b.stats.prunedBound);
    EXPECT_EQ(a.stats.modeled, b.stats.modeled);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.bestResult.edp, b.bestResult.edp);
        EXPECT_EQ(a.best->toString(), b.best->toString());
        expectIdentical(a.bestResult, b.bestResult);
    }
    EXPECT_EQ(b.stats.batchedEvals, b.evaluated);

    // Across thread counts the best and the totals stay invariant
    // (only the pruned/modeled split may shift, as for the scalar
    // path).
    ExhaustiveOptions threaded = batched;
    threaded.threads = 4;
    const ExhaustiveResult c = exhaustiveSearch(space, eval, threaded);
    EXPECT_EQ(a.evaluated, c.evaluated);
    EXPECT_EQ(a.valid, c.valid);
    EXPECT_EQ(a.stats.invalid, c.stats.invalid);
    EXPECT_EQ(a.stats.prunedBound + a.stats.modeled,
              c.stats.prunedBound + c.stats.modeled);
    ASSERT_EQ(a.best.has_value(), c.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.best->toString(), c.best->toString());
    }
}

TEST(BatchEval, ExhaustiveParityEyeriss)
{
    exhaustiveBatchParity(makeEyeriss(), ConstraintPreset::EyerissRS);
}

TEST(BatchEval, ExhaustiveParitySimba)
{
    exhaustiveBatchParity(makeSimba(), ConstraintPreset::Simba);
}

void
geneticBatchParity(bool incremental)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyLinear(9);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    GeneticOptions scalar;
    scalar.populationSize = 16;
    scalar.generations = 8;
    scalar.islands = 2;
    scalar.threads = 1;
    scalar.incremental = incremental;
    scalar.batchEval = false;
    GeneticOptions batched = scalar;
    batched.batchEval = true;

    const SearchResult a = geneticSearch(space, eval, scalar);
    const SearchResult b = geneticSearch(space, eval, batched);

    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.stats.invalid, b.stats.invalid);
    EXPECT_EQ(a.stats.modeled, b.stats.modeled);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.bestResult.edp, b.bestResult.edp);
        EXPECT_EQ(a.best->toString(), b.best->toString());
    }
    expectStatsPartition(a.stats, a.evaluated);
    expectStatsPartition(b.stats, b.evaluated);
    // The initial population is always bulk-scored through the batch
    // engine; bred generations join it when the delta engine is off.
    EXPECT_GT(b.stats.batchCalls, 0u);
    if (!incremental) {
        EXPECT_EQ(b.stats.batchedEvals, b.evaluated);
    }

    // And across thread counts the batched path stays bit-identical,
    // like the scalar path.
    GeneticOptions threaded = batched;
    threaded.threads = 4;
    const SearchResult c = geneticSearch(space, eval, threaded);
    EXPECT_EQ(b.evaluated, c.evaluated);
    EXPECT_EQ(b.stats.modeled, c.stats.modeled);
    EXPECT_EQ(b.stats.batchedEvals, c.stats.batchedEvals);
    ASSERT_EQ(b.best.has_value(), c.best.has_value());
    if (b.best) {
        EXPECT_EQ(b.best->toString(), c.best->toString());
    }
}

TEST(BatchEval, GeneticParityClassicScoring)
{
    geneticBatchParity(/*incremental=*/false);
}

TEST(BatchEval, GeneticParityWithDeltaEngine)
{
    geneticBatchParity(/*incremental=*/true);
}

} // namespace
} // namespace ruby
