/**
 * @file
 * Parity tests for the incremental (delta) evaluation engine: every
 * candidate served by DeltaEvaluator — single-row deltas, multi-row
 * fallbacks, exact duplicates, and long promote chains — must be
 * bit-identical to a from-scratch Evaluator::evaluate() of the same
 * mapping, on both the Eyeriss and Simba presets. Includes targeted
 * chain swaps that move the ragged tail radices (R_k) across level
 * boundaries, the hardest terms to invalidate correctly.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "ruby/arch/presets.hpp"
#include "ruby/common/rng.hpp"
#include "ruby/model/delta_eval.hpp"
#include "ruby/search/driver.hpp"
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
    EXPECT_EQ(a.invalidReason, b.invalidReason);
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

/**
 * The core sweep: sample a base mapping, rebase, mutate one decision
 * row, and demand the engine's candidate evaluation matches a full
 * evaluation bit for bit. The mutation operator picks a random
 * component (chain / permutation / residency / axis), so across
 * iterations every delta kind is exercised on valid and invalid
 * bases alike.
 */
void
randomSingleDeltaSweep(PresetFixture fix, int iterations,
                       std::uint64_t seed)
{
    Rng rng(seed);
    DeltaEvaluator engine(fix.eval);
    EvalStats stats;
    EvalScratch check;
    for (int i = 0; i < iterations; ++i) {
        const Mapping base = fix.space.sample(rng);
        const EvalResult &baseRes = engine.rebase(base, stats);
        fix.eval.evaluate(base, check);
        expectIdentical(check.result, baseRes);

        Decisions rows = base.decisions();
        fix.space.mutate(rows, rng);
        const EvalResult &res = engine.evaluateCandidate(rows, stats);
        const Mapping cand = fix.space.materialize(rows);
        fix.eval.evaluate(cand, check);
        expectIdentical(check.result, res);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // The engine's own partition identity, and proof the sweep
    // actually took the incremental path (not all fallbacks).
    EXPECT_EQ(stats.deltaHits + stats.deltaFallbacks,
              stats.deltaAttempts);
    EXPECT_GT(stats.deltaHits, 0u);
    EXPECT_EQ(stats.deltaRebases,
              static_cast<std::uint64_t>(iterations));
}

TEST(DeltaEvalTest, RandomSingleDeltaParityEyeriss)
{
    randomSingleDeltaSweep(eyerissFixture(), 600, 1);
}

TEST(DeltaEvalTest, RandomSingleDeltaParitySimba)
{
    randomSingleDeltaSweep(simbaFixture(), 600, 2);
}

/**
 * Swapping a whole factor chain between two sampled mappings is a
 * pure chain delta whose tails (the mixed-radix R_k digits) move
 * across level boundaries — the terms whose dirtiness tracking is
 * subtlest. Every dimension of every pair is swapped in isolation.
 */
TEST(DeltaEvalTest, ChainTailBoundaryDeltas)
{
    PresetFixture fix = eyerissFixture();
    Rng rng(11);
    DeltaEvaluator engine(fix.eval);
    EvalStats stats;
    EvalScratch check;
    for (int i = 0; i < 40; ++i) {
        // A valid base is required for the incremental path (an
        // invalid one falls back to full recomputation, which this
        // test is specifically not about). Random samples are mostly
        // invalid, so draw until one sticks.
        Mapping base = fix.space.sample(rng);
        while (!engine.rebase(base, stats).valid)
            base = fix.space.sample(rng);
        const Mapping donor = fix.space.sample(rng);
        const Decisions rows = base.decisions();
        const Decisions donorRows = donor.decisions();
        const std::size_t slots =
            static_cast<std::size_t>(base.numSlots());
        for (std::size_t d = 0;
             d < static_cast<std::size_t>(fix.prob.numDims()); ++d) {
            Decisions cand = rows;
            std::copy_n(donorRows.steady.begin() +
                            static_cast<std::ptrdiff_t>(d * slots),
                        slots,
                        cand.steady.begin() +
                            static_cast<std::ptrdiff_t>(d * slots));
            const EvalResult &res =
                engine.evaluateCandidate(cand, stats);
            const Mapping mapping = fix.space.materialize(cand);
            fix.eval.evaluate(mapping, check);
            expectIdentical(check.result, res);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    EXPECT_EQ(stats.deltaHits + stats.deltaFallbacks,
              stats.deltaAttempts);
    EXPECT_GT(stats.deltaHits, 0u);
}

/**
 * An unchanged candidate must be recognized as a zero-row diff and
 * served from the base without model work.
 */
TEST(DeltaEvalTest, ExactDuplicateServedFromBase)
{
    PresetFixture fix = simbaFixture();
    Rng rng(3);
    DeltaEvaluator engine(fix.eval);
    EvalStats stats;
    for (;;) {
        const Mapping base = fix.space.sample(rng);
        if (engine.rebase(base, stats).valid) {
            const std::uint64_t hits_before = stats.deltaHits;
            const EvalResult &res =
                engine.evaluateCandidate(base.decisions(), stats);
            expectIdentical(engine.baseResult(), res);
            EXPECT_EQ(stats.deltaHits, hits_before + 1);
            return;
        }
    }
}

/**
 * A long promote chain — the local-search access pattern: evaluate a
 * neighbour, adopt it as the new base, repeat — must stay exact at
 * every step (the candidate/base buffer swap must never leave stale
 * terms behind).
 */
TEST(DeltaEvalTest, PromoteWalkStaysExact)
{
    PresetFixture fix = eyerissFixture();
    Rng rng(7);
    DeltaEvaluator engine(fix.eval);
    EvalStats stats;
    EvalScratch check;
    Decisions rows;
    for (;;) {
        const Mapping m = fix.space.sample(rng);
        if (engine.rebase(m, stats).valid) {
            rows = m.decisions();
            break;
        }
    }
    MutationUndo undo;
    for (int step = 0; step < 300; ++step) {
        fix.space.mutate(rows, rng, &undo);
        const EvalResult &res = engine.evaluateCandidate(rows, stats);
        const Mapping mapping = fix.space.materialize(rows);
        fix.eval.evaluate(mapping, check);
        expectIdentical(check.result, res);
        if (::testing::Test::HasFatalFailure())
            return;
        if (res.valid)
            engine.promoteLast();
        else
            fix.space.undoMutation(rows, undo);
    }
    EXPECT_EQ(stats.deltaHits + stats.deltaFallbacks,
              stats.deltaAttempts);
}

} // namespace
} // namespace ruby
