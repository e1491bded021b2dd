#include "ruby/search/optimal_search.hpp"

#include <gtest/gtest.h>

#include "ruby/arch/presets.hpp"
#include "ruby/mapspace/counting.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby
{
namespace
{

/** Small spaces the branch-and-bound can certify in milliseconds. */
Problem
twoDimProblem()
{
    return Problem("p2", {"A", "B"}, {12, 18},
                   {TensorSpec{"X", {TensorAxis{{{0, 1}}}}, false},
                    TensorSpec{"Y", {TensorAxis{{{1, 1}}}}, false},
                    TensorSpec{"Z",
                               {TensorAxis{{{0, 1}}},
                                TensorAxis{{{1, 1}}}},
                               true}});
}

TEST(OptimalSearch, CertifiedOptimumMatchesExhaustiveAcrossThreads)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyLinear(9);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    const ExhaustiveResult ex = exhaustiveSearch(space, eval);
    ASSERT_TRUE(ex.best.has_value());
    ASSERT_FALSE(ex.truncated);

    for (const unsigned threads : {1u, 2u, 4u}) {
        OptimalOptions opts;
        opts.threads = threads;
        const OptimalResult res = optimalSearch(space, eval, opts);
        ASSERT_TRUE(res.best.has_value()) << threads << " threads";
        EXPECT_TRUE(res.certified) << threads << " threads";
        EXPECT_FALSE(res.truncated) << threads << " threads";
        EXPECT_EQ(res.gapPercent, 0.0) << threads << " threads";
        // Bit-identical winner, not merely an equal metric.
        EXPECT_EQ(res.bestResult.edp, ex.bestResult.edp)
            << threads << " threads";
        EXPECT_EQ(res.best->toString(), ex.best->toString())
            << threads << " threads";
        // A certificate accounts for every leaf of the mapspace:
        // individually evaluated, bound-folded, or invalid-folded.
        EXPECT_EQ(res.evaluated, ex.evaluated)
            << threads << " threads";
        EXPECT_EQ(res.stats.invalid + res.stats.prunedBound +
                      res.stats.modeled,
                  res.evaluated)
            << threads << " threads";
    }
}

TEST(OptimalSearch, CertifiesWithPermutationsAndSymmetryPruning)
{
    const Problem prob = twoDimProblem();
    const ArchSpec arch = makeToyLinear(4);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::PFM);
    const Evaluator eval(prob, arch);

    ExhaustiveOptions eopts;
    eopts.permutations = true;
    const ExhaustiveResult ex = exhaustiveSearch(space, eval, eopts);
    ASSERT_TRUE(ex.best.has_value());
    ASSERT_FALSE(ex.truncated);

    for (const bool symmetry : {true, false}) {
        OptimalOptions opts;
        opts.permutations = true;
        opts.symmetryPruning = symmetry;
        const OptimalResult res = optimalSearch(space, eval, opts);
        ASSERT_TRUE(res.best.has_value()) << "symmetry " << symmetry;
        EXPECT_TRUE(res.certified) << "symmetry " << symmetry;
        EXPECT_EQ(res.bestResult.edp, ex.bestResult.edp)
            << "symmetry " << symmetry;
        EXPECT_EQ(res.best->toString(), ex.best->toString())
            << "symmetry " << symmetry;
        EXPECT_EQ(res.evaluated, ex.evaluated)
            << "symmetry " << symmetry;
    }
}

TEST(OptimalSearch, CertificateCoversTheCountedSpace)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyLinear(9);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    const OptimalResult res = optimalSearch(space, eval);
    ASSERT_TRUE(res.certified);
    double expected = 1.0;
    for (DimId d = 0; d < prob.numDims(); ++d)
        expected *= countChains(prob.dimSize(d), chainRules(space, d));
    EXPECT_DOUBLE_EQ(static_cast<double>(res.evaluated), expected);
}

TEST(OptimalSearch, TruncationReportsMonotoneGap)
{
    const Problem prob = makeVector1D(1000);
    const ArchSpec arch = makeToyLinear(9);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::Ruby);
    const Evaluator eval(prob, arch);

    double lastGap = 101.0;
    bool sawTruncated = false;
    for (const std::uint64_t cap : {50u, 500u, 5000u}) {
        OptimalOptions opts;
        opts.maxEvaluations = cap;
        const OptimalResult res = optimalSearch(space, eval, opts);
        if (res.certified) {
            EXPECT_EQ(res.gapPercent, 0.0);
        } else {
            sawTruncated = true;
            EXPECT_TRUE(res.truncated);
            EXPECT_GE(res.gapPercent, 0.0);
            EXPECT_LE(res.gapPercent, 100.0);
        }
        // Best-first pops bounds in nondecreasing order and the
        // incumbent only improves, so a bigger budget can never
        // widen the reported gap.
        EXPECT_LE(res.gapPercent, lastGap) << "cap " << cap;
        lastGap = res.gapPercent;
    }
    EXPECT_TRUE(sawTruncated);
}

TEST(OptimalSearch, BoundPruningTogglePreservesTheWinner)
{
    const Problem prob = twoDimProblem();
    const ArchSpec arch = makeToyLinear(4);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    const OptimalResult base = optimalSearch(space, eval);
    ASSERT_TRUE(base.best.has_value());
    ASSERT_TRUE(base.certified);
    OptimalOptions opts;
    opts.boundPruning = false;
    const OptimalResult res = optimalSearch(space, eval, opts);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_TRUE(res.certified);
    EXPECT_EQ(res.best->toString(), base.best->toString());
    EXPECT_EQ(res.bestResult.edp, base.bestResult.edp);
    EXPECT_EQ(res.evaluated, base.evaluated);
}

TEST(OptimalSearch, DriverDispatchesAndPropagatesCertificate)
{
    const Problem prob = makeVector1D(100);
    SearchOptions options;
    options.strategy = SearchStrategy::Optimal;
    options.threads = 1;
    const LayerOutcome outcome =
        searchLayer(prob, makeToyLinear(9), ConstraintPreset::None,
                    MapspaceVariant::RubyS, options);
    ASSERT_TRUE(outcome.found);
    EXPECT_TRUE(outcome.certified);
    EXPECT_EQ(outcome.gapPercent, 0.0);
    EXPECT_TRUE(outcome.statsNote.empty()) << outcome.statsNote;
    EXPECT_EQ(outcome.failure, FailureKind::None);
}

TEST(OptimalSearch, CapStopsWithoutCertificateAndKeepsAccounting)
{
    const Problem prob = makeVector1D(1000);
    SearchOptions options;
    options.strategy = SearchStrategy::Optimal;
    options.threads = 1;
    options.maxEvaluations = 64;
    const LayerOutcome outcome =
        searchLayer(prob, makeToyLinear(9), ConstraintPreset::None,
                    MapspaceVariant::Ruby, options);
    EXPECT_FALSE(outcome.certified);
    EXPECT_TRUE(outcome.statsNote.empty()) << outcome.statsNote;
    if (outcome.found)
        EXPECT_GE(outcome.gapPercent, 0.0);
}

} // namespace
} // namespace ruby
