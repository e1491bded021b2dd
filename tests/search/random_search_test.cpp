#include "ruby/search/random_search.hpp"

#include <gtest/gtest.h>

#include "ruby/arch/presets.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/problem.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

struct SmallSearchFixture
{
    Problem prob = makeGemm(100, 100, 100);
    ArchSpec arch = makeToyLinear(16);
    MappingConstraints cons{prob, arch};
    Evaluator eval{prob, arch};
};

TEST(RandomSearch, FindsValidMapping)
{
    SmallSearchFixture fx;
    const Mapspace space(fx.cons, MapspaceVariant::PFM);
    SearchOptions opts;
    opts.maxEvaluations = 2000;
    opts.terminationStreak = 0;
    const SearchResult res = randomSearch(space, fx.eval, opts);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_TRUE(res.bestResult.valid);
    EXPECT_EQ(res.evaluated, 2000u);
    EXPECT_GT(res.valid, 0u);
    EXPECT_LE(res.valid, res.evaluated);
}

TEST(RandomSearch, DeterministicForSeed)
{
    SmallSearchFixture fx;
    const Mapspace space(fx.cons, MapspaceVariant::RubyS);
    SearchOptions opts;
    opts.maxEvaluations = 1000;
    opts.terminationStreak = 0;
    opts.seed = 7;
    const SearchResult a = randomSearch(space, fx.eval, opts);
    const SearchResult b = randomSearch(space, fx.eval, opts);
    ASSERT_TRUE(a.best && b.best);
    EXPECT_DOUBLE_EQ(a.bestResult.edp, b.bestResult.edp);
    EXPECT_EQ(a.best->toString(), b.best->toString());
}

TEST(RandomSearch, TerminationStreakStops)
{
    SmallSearchFixture fx;
    const Mapspace space(fx.cons, MapspaceVariant::PFM);
    SearchOptions opts;
    opts.terminationStreak = 100;
    opts.maxEvaluations = 1'000'000;
    const SearchResult res = randomSearch(space, fx.eval, opts);
    // Far fewer than the cap: the streak rule fired.
    EXPECT_LT(res.evaluated, 200'000u);
    EXPECT_TRUE(res.best.has_value());
}

TEST(RandomSearch, TrajectoryIsMonotoneNonIncreasing)
{
    SmallSearchFixture fx;
    const Mapspace space(fx.cons, MapspaceVariant::RubyS);
    SearchOptions opts;
    opts.maxEvaluations = 500;
    opts.terminationStreak = 0;
    opts.recordTrajectory = true;
    const SearchResult res = randomSearch(space, fx.eval, opts);
    ASSERT_EQ(res.trajectory.size(), 500u);
    for (std::size_t i = 1; i < res.trajectory.size(); ++i)
        EXPECT_LE(res.trajectory[i], res.trajectory[i - 1]);
    // The last entry is the best found.
    EXPECT_DOUBLE_EQ(res.trajectory.back(), res.bestResult.edp);
}

TEST(RandomSearch, ThreadedPathFindsMappings)
{
    SmallSearchFixture fx;
    const Mapspace space(fx.cons, MapspaceVariant::RubyS);
    SearchOptions opts;
    opts.threads = 4;
    opts.terminationStreak = 500;
    opts.maxEvaluations = 100'000;
    const SearchResult res = randomSearch(space, fx.eval, opts);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_TRUE(res.bestResult.valid);
    EXPECT_GT(res.valid, 0u);
}

TEST(RandomSearch, ObjectiveDelayFindsFasterMappings)
{
    SmallSearchFixture fx;
    const Mapspace space(fx.cons, MapspaceVariant::RubyS);
    SearchOptions edp_opts, delay_opts;
    edp_opts.maxEvaluations = delay_opts.maxEvaluations = 3000;
    edp_opts.terminationStreak = delay_opts.terminationStreak = 0;
    delay_opts.objective = Objective::Delay;
    const SearchResult by_edp = randomSearch(space, fx.eval, edp_opts);
    const SearchResult by_delay =
        randomSearch(space, fx.eval, delay_opts);
    ASSERT_TRUE(by_edp.best && by_delay.best);
    // Optimizing delay cannot find a slower best than the EDP search
    // found (same seed, same sample stream).
    EXPECT_LE(by_delay.bestResult.cycles, by_edp.bestResult.cycles);
}

/**
 * maxEvaluations is a hard cap at every thread count: a shard claims
 * an evaluation before deciding a candidate, so two shards can never
 * both pass the check at max - 1, and every claim is one decided
 * candidate. Checked over many seeds and several layers, for batched
 * and scalar shards, on a cap that is not a multiple of the batch
 * width.
 */
TEST(RandomSearch, ThreadedEvaluationCapIsHard)
{
    const ArchSpec arch = makeSimba();
    const std::vector<Layer> layers = resnet50Layers();
    for (std::size_t li = 0; li < 4; ++li) {
        const Problem prob = makeConv(layers[li].shape);
        const MappingConstraints cons =
            makeConstraints(ConstraintPreset::Simba, prob, arch);
        const Mapspace space(cons, MapspaceVariant::Ruby);
        const Evaluator eval(prob, arch);
        for (const unsigned threads : {2u, 4u})
            for (std::uint64_t seed = 1; seed <= 15; ++seed) {
                SearchOptions opts;
                opts.maxEvaluations = 300;
                opts.terminationStreak = 0;
                opts.threads = threads;
                opts.seed = seed;
                const SearchResult res = randomSearch(space, eval, opts);
                ASSERT_EQ(res.evaluated, 300u)
                    << "layer " << li << " seed " << seed << " threads "
                    << threads;
                ASSERT_EQ(res.stats.decided(), res.evaluated);
            }
    }
}

} // namespace
} // namespace ruby
