#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "ruby/arch/presets.hpp"
#include "ruby/common/cancel.hpp"
#include "ruby/common/error.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/search/genetic_search.hpp"
#include "ruby/search/local_search.hpp"
#include "ruby/search/optimal_search.hpp"
#include "ruby/search/random_search.hpp"
#include "ruby/util/hash.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/gemm.hpp"
#include "ruby/workload/suites/suites.hpp"

namespace ruby
{
namespace
{

struct StrategyFixture
{
    Problem prob = makeGemm(100, 100, 100);
    ArchSpec arch = makeToyLinear(16);
    MappingConstraints cons{prob, arch};
    Mapspace space{cons, MapspaceVariant::RubyS};
    Evaluator eval{prob, arch};
};

TEST(LocalSearch, FindsValidMapping)
{
    StrategyFixture fx;
    LocalSearchOptions opts;
    opts.maxEvaluations = 4000;
    opts.seed = 3;
    const SearchResult res = localSearch(fx.space, fx.eval, opts);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_TRUE(res.bestResult.valid);
    EXPECT_LE(res.evaluated, 4000u);
    EXPECT_GT(res.valid, 0u);
}

TEST(LocalSearch, DeterministicPerSeed)
{
    StrategyFixture fx;
    LocalSearchOptions opts;
    opts.maxEvaluations = 2000;
    opts.seed = 11;
    const SearchResult a = localSearch(fx.space, fx.eval, opts);
    const SearchResult b = localSearch(fx.space, fx.eval, opts);
    ASSERT_TRUE(a.best && b.best);
    EXPECT_DOUBLE_EQ(a.bestResult.edp, b.bestResult.edp);
}

TEST(LocalSearch, CompetitiveWithRandomAtEqualBudget)
{
    StrategyFixture fx;
    const std::uint64_t budget = 5000;
    LocalSearchOptions lopts;
    lopts.maxEvaluations = budget;
    lopts.seed = 4;
    SearchOptions ropts;
    ropts.maxEvaluations = budget;
    ropts.terminationStreak = 0;
    ropts.seed = 4;
    const SearchResult local = localSearch(fx.space, fx.eval, lopts);
    const SearchResult random =
        randomSearch(fx.space, fx.eval, ropts);
    ASSERT_TRUE(local.best && random.best);
    // Hill climbing exploits structure: allow a little slack but it
    // should be in the same league or better.
    EXPECT_LE(local.bestResult.edp, random.bestResult.edp * 1.5);
}

/**
 * Cancellation is polled per evaluation, not only between restarts: a
 * climb with unbounded patience and budget must wind down soon after
 * another thread cancels, returning the best found so far.
 */
TEST(LocalSearch, CancellationStopsAClimbMidway)
{
    StrategyFixture fx;
    CancelToken cancel;
    LocalSearchOptions opts;
    const std::uint64_t cap = std::uint64_t{1} << 40;
    opts.maxEvaluations = cap;
    opts.patience = 1u << 30;
    opts.seed = 3;
    opts.cancel = &cancel;
    std::thread canceller([&cancel] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        cancel.requestCancel();
    });
    const SearchResult res = localSearch(fx.space, fx.eval, opts);
    canceller.join();
    ASSERT_TRUE(res.best.has_value());
    EXPECT_TRUE(res.bestResult.valid);
    EXPECT_GT(res.evaluated, 0u);
    EXPECT_LT(res.evaluated, cap / 1024);
}

TEST(GeneticSearch, FindsValidMapping)
{
    StrategyFixture fx;
    GeneticOptions opts;
    opts.populationSize = 24;
    opts.generations = 15;
    opts.seed = 5;
    const SearchResult res = geneticSearch(fx.space, fx.eval, opts);
    ASSERT_TRUE(res.best.has_value());
    EXPECT_TRUE(res.bestResult.valid);
    // population + (generations * (population - elites)) evaluations.
    EXPECT_GT(res.evaluated, 24u);
}

TEST(GeneticSearch, DeterministicPerSeed)
{
    StrategyFixture fx;
    GeneticOptions opts;
    opts.populationSize = 16;
    opts.generations = 10;
    opts.seed = 21;
    const SearchResult a = geneticSearch(fx.space, fx.eval, opts);
    const SearchResult b = geneticSearch(fx.space, fx.eval, opts);
    ASSERT_TRUE(a.best && b.best);
    EXPECT_DOUBLE_EQ(a.bestResult.edp, b.bestResult.edp);
}

TEST(GeneticSearch, MoreGenerationsNeverHurt)
{
    StrategyFixture fx;
    GeneticOptions small, large;
    small.populationSize = large.populationSize = 20;
    small.generations = 3;
    large.generations = 30;
    small.seed = large.seed = 31;
    const SearchResult s = geneticSearch(fx.space, fx.eval, small);
    const SearchResult l = geneticSearch(fx.space, fx.eval, large);
    ASSERT_TRUE(s.best && l.best);
    // Same seed stream prefix + elitism: the longer run can only
    // match or improve.
    EXPECT_LE(l.bestResult.edp, s.bestResult.edp * (1 + 1e-12));
}

/**
 * About 0.7 % of draws for DeepBench's vision_vgg_l4 fit Eyeriss, so
 * the default population of 64 holds no valid member and breeding
 * never reaches one. The run then redraws with the capacity-rejecting
 * sampler; the rejected draws are charged on top of the population +
 * generations x (population - elites) evaluations.
 */
TEST(GeneticSearch, RareValidMappingsAreFoundWithDefaultOptions)
{
    ConvShape shape;
    for (const Layer &layer : deepbenchLayers())
        if (layer.shape.name == "vision_vgg_l4")
            shape = layer.shape;
    ASSERT_EQ(shape.name, "vision_vgg_l4");
    SearchOptions opts;
    opts.strategy = SearchStrategy::Genetic;
    const LayerOutcome out =
        searchLayer(makeConv(shape), makeEyeriss(),
                    ConstraintPreset::EyerissRS, MapspaceVariant::RubyS,
                    opts);
    ASSERT_TRUE(out.found) << out.diagnostic;
    EXPECT_TRUE(out.result.valid);
    const GeneticOptions defaults;
    EXPECT_GT(out.evaluated,
              defaults.populationSize +
                  std::uint64_t{defaults.generations} *
                      (defaults.populationSize - defaults.elites));
}

TEST(GeneticSearch, RejectsDegenerateConfigs)
{
    StrategyFixture fx;
    GeneticOptions opts;
    opts.populationSize = 1;
    EXPECT_THROW(geneticSearch(fx.space, fx.eval, opts), Error);
}

TEST(Strategies, RubySStillBeatsPfmUnderEveryStrategy)
{
    // The paper's orthogonality claim: the mapspace advantage
    // survives a change of search strategy.
    StrategyFixture fx;
    const Mapspace pfm(fx.cons, MapspaceVariant::PFM);

    LocalSearchOptions lopts;
    lopts.maxEvaluations = 6000;
    lopts.seed = 8;
    const double local_pfm =
        localSearch(pfm, fx.eval, lopts).bestResult.edp;
    const double local_ruby =
        localSearch(fx.space, fx.eval, lopts).bestResult.edp;
    EXPECT_LE(local_ruby, local_pfm * 1.02);

    GeneticOptions gopts;
    gopts.populationSize = 32;
    gopts.generations = 25;
    gopts.seed = 8;
    const double gen_pfm =
        geneticSearch(pfm, fx.eval, gopts).bestResult.edp;
    const double gen_ruby =
        geneticSearch(fx.space, fx.eval, gopts).bestResult.edp;
    EXPECT_LE(gen_ruby, gen_pfm * 1.02);
}

/**
 * Everything a search run answers, as one line: the best mapping's
 * text (hashed), its EDP bits, the evaluated / valid / invalid /
 * modeled counts, and the delta (attempts/hits/fallbacks/rebases)
 * and batch (calls/evals/rejects) engine counters.
 */
std::string
fingerprint(const SearchResult &res)
{
    const auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    const EvalStats &s = res.stats;
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "best=%016llx edp=%016llx ev=%llu valid=%llu inv=%llu mod=%llu "
        "delta=%llu/%llu/%llu/%llu batch=%llu/%llu/%llu",
        u(res.best ? hashing::fnv1aBytes(res.best->toString()) : 0),
        u(std::bit_cast<std::uint64_t>(res.bestResult.edp)),
        u(res.evaluated), u(res.valid), u(s.invalid), u(s.modeled),
        u(s.deltaAttempts), u(s.deltaHits), u(s.deltaFallbacks),
        u(s.deltaRebases), u(s.batchCalls), u(s.batchedEvals),
        u(s.batchRejects));
    return buf;
}

/**
 * Golden answers of the iterative searches on the Eyeriss and Simba
 * presets (ResNet-50 layer 2, Ruby-S): genetic at islands 1/3 with
 * the delta engine on and off, local search at 1 and 3 starts, and
 * random search with and without 64 refinement steps. Genetic and
 * multi-start local runs are repeated at more threads and must print
 * the same line. The mutation and crossover operators' RNG draws are
 * part of every one of these answers, so a rewrite of the operators
 * or of the decision encoding they edit must keep them. Random
 * search's mod= counts the survivors of the bound prune, so a tighter
 * admissible bound may lower that one field and nothing else.
 */
TEST(StrategyGolden, IterativeSearchesArePinned)
{
    const std::map<std::string, std::string> pinned = {
        {"eyeriss genetic islands=1 incremental=0",
         "best=5268ce26fa160ece edp=42e2f29a3db0a3ba"
         " ev=632 valid=511 inv=121 mod=511"
         " delta=0/0/0/0 batch=21/632/121"},
        {"eyeriss genetic islands=1 incremental=1",
         "best=5268ce26fa160ece edp=42e2f29a3db0a3ba"
         " ev=632 valid=511 inv=121 mod=511"
         " delta=600/520/80/20 batch=1/32/30"},
        {"eyeriss genetic islands=3 incremental=0",
         "best=2de5510b7d590e63 edp=42d11bf6cf82fa9c"
         " ev=1896 valid=1113 inv=783 mod=1113"
         " delta=0/0/0/0 batch=63/1896/783"},
        {"eyeriss genetic islands=3 incremental=1",
         "best=2de5510b7d590e63 edp=42d11bf6cf82fa9c"
         " ev=1896 valid=1113 inv=783 mod=1113"
         " delta=1800/1100/700/60 batch=3/96/96"},
        {"eyeriss local starts=1 incremental=0",
         "best=f073d2a832d934ab edp=42b8591a5e640223"
         " ev=4000 valid=3176 inv=824 mod=3176"
         " delta=0/0/0/0 batch=0/0/0"},
        {"eyeriss local starts=1 incremental=1",
         "best=f073d2a832d934ab edp=42b8591a5e640223"
         " ev=4000 valid=3176 inv=824 mod=3176"
         " delta=3649/3649/0/396 batch=0/0/0"},
        {"eyeriss local starts=3 incremental=0",
         "best=4cabc5b5d3b1d35c edp=42b343108c6fa87f"
         " ev=4000 valid=2985 inv=1015 mod=2985"
         " delta=0/0/0/0 batch=0/0/0"},
        {"eyeriss local starts=3 incremental=1",
         "best=4cabc5b5d3b1d35c edp=42b343108c6fa87f"
         " ev=4000 valid=2985 inv=1015 mod=2985"
         " delta=3401/3401/0/635 batch=0/0/0"},
        {"eyeriss random refine=0 incremental=0",
         "best=c3331aeb06a5975b edp=42c06e8f331e79a8"
         " ev=2000 valid=60 inv=1940 mod=52"
         " delta=0/0/0/0 batch=38/60/0"},
        {"eyeriss random refine=0 incremental=1",
         "best=c3331aeb06a5975b edp=42c06e8f331e79a8"
         " ev=2000 valid=60 inv=1940 mod=52"
         " delta=0/0/0/0 batch=38/60/0"},
        {"eyeriss random refine=64 incremental=0",
         "best=c3331aeb06a5975b edp=42c06e8f331e79a8"
         " ev=2064 valid=108 inv=1956 mod=100"
         " delta=0/0/0/0 batch=38/60/0"},
        {"eyeriss random refine=64 incremental=1",
         "best=c3331aeb06a5975b edp=42c06e8f331e79a8"
         " ev=2064 valid=108 inv=1956 mod=100"
         " delta=64/64/0/1 batch=38/60/0"},
        {"simba genetic islands=1 incremental=0",
         "best=5f006f8a327c19dd edp=42b233b735cfaf50"
         " ev=632 valid=573 inv=59 mod=573"
         " delta=0/0/0/0 batch=21/632/59"},
        {"simba genetic islands=1 incremental=1",
         "best=5f006f8a327c19dd edp=42b233b735cfaf50"
         " ev=632 valid=573 inv=59 mod=573"
         " delta=600/383/217/20 batch=1/32/14"},
        {"simba genetic islands=3 incremental=0",
         "best=257211e1f215dd37 edp=42b0871055664df8"
         " ev=1896 valid=1642 inv=254 mod=1642"
         " delta=0/0/0/0 batch=63/1896/254"},
        {"simba genetic islands=3 incremental=1",
         "best=257211e1f215dd37 edp=42b0871055664df8"
         " ev=1896 valid=1642 inv=254 mod=1642"
         " delta=1800/1125/675/60 batch=3/96/51"},
        {"simba local starts=1 incremental=0",
         "best=8ab1cb61391f8910 edp=42b0871055664df8"
         " ev=4000 valid=3517 inv=483 mod=3517"
         " delta=0/0/0/0 batch=0/0/0"},
        {"simba local starts=1 incremental=1",
         "best=8ab1cb61391f8910 edp=42b0871055664df8"
         " ev=4000 valid=3517 inv=483 mod=3517"
         " delta=4026/4026/0/27 batch=0/0/0"},
        {"simba local starts=3 incremental=0",
         "best=f32e53aea426fd3a edp=42b4a75ff457bc4d"
         " ev=4000 valid=3497 inv=503 mod=3497"
         " delta=0/0/0/0 batch=0/0/0"},
        {"simba local starts=3 incremental=1",
         "best=f32e53aea426fd3a edp=42b4a75ff457bc4d"
         " ev=4000 valid=3497 inv=503 mod=3497"
         " delta=3998/3998/0/51 batch=0/0/0"},
        {"simba random refine=0 incremental=0",
         "best=4077f65db90d14c9 edp=42b0b0da089a799b"
         " ev=2000 valid=853 inv=1147 mod=140"
         " delta=0/0/0/0 batch=63/853/0"},
        {"simba random refine=0 incremental=1",
         "best=4077f65db90d14c9 edp=42b0b0da089a799b"
         " ev=2000 valid=853 inv=1147 mod=140"
         " delta=0/0/0/0 batch=63/853/0"},
        {"simba random refine=64 incremental=0",
         "best=78e63cd92dce119f edp=42b0871055664df8"
         " ev=2064 valid=906 inv=1158 mod=193"
         " delta=0/0/0/0 batch=63/853/0"},
        {"simba random refine=64 incremental=1",
         "best=78e63cd92dce119f edp=42b0871055664df8"
         " ev=2064 valid=906 inv=1158 mod=193"
         " delta=64/64/0/1 batch=63/853/0"},
    };

    struct Preset
    {
        const char *name;
        ArchSpec arch;
        ConstraintPreset constraints;
    };
    const Problem prob = makeConv(resnet50Layers()[1].shape);
    const Preset presets[] = {
        {"eyeriss", makeEyeriss(), ConstraintPreset::EyerissRS},
        {"simba", makeSimba(), ConstraintPreset::Simba},
    };
    std::map<std::string, std::string> got;
    for (const Preset &p : presets) {
        const MappingConstraints cons =
            makeConstraints(p.constraints, prob, p.arch);
        const Mapspace space(cons, MapspaceVariant::RubyS);
        const Evaluator eval(prob, p.arch);
        const std::string arch = p.name;

        for (const unsigned islands : {1u, 3u})
            for (const bool incremental : {true, false}) {
                GeneticOptions opts;
                opts.populationSize = 32;
                opts.generations = 20;
                opts.seed = 7;
                opts.islands = islands;
                opts.incremental = incremental;
                const std::string key =
                    arch + " genetic islands=" + std::to_string(islands) +
                    " incremental=" + std::to_string(incremental);
                got[key] = fingerprint(geneticSearch(space, eval, opts));
                opts.threads = 4;
                EXPECT_EQ(fingerprint(geneticSearch(space, eval, opts)),
                          got[key])
                    << key << " at 4 threads";
            }

        for (const unsigned starts : {1u, 3u})
            for (const bool incremental : {true, false}) {
                LocalSearchOptions opts;
                opts.maxEvaluations = 4000;
                opts.seed = 7;
                opts.starts = starts;
                opts.incremental = incremental;
                const std::string key =
                    arch + " local starts=" + std::to_string(starts) +
                    " incremental=" + std::to_string(incremental);
                got[key] = fingerprint(localSearch(space, eval, opts));
                opts.threads = starts;
                EXPECT_EQ(fingerprint(localSearch(space, eval, opts)),
                          got[key])
                    << key << " at " << starts << " threads";
            }

        for (const unsigned refine : {0u, 64u})
            for (const bool incremental : {true, false}) {
                SearchOptions opts;
                opts.maxEvaluations = 2000;
                opts.terminationStreak = 0;
                opts.seed = 7;
                opts.refineSteps = refine;
                opts.incremental = incremental;
                const std::string key =
                    arch + " random refine=" + std::to_string(refine) +
                    " incremental=" + std::to_string(incremental);
                got[key] =
                    fingerprint(randomSearch(space, eval, opts));
            }
    }

    for (const auto &[key, line] : got) {
        const auto it = pinned.find(key);
        EXPECT_TRUE(it != pinned.end() && it->second == line)
            << "{\"" << key << "\",\n \"" << line << "\"},";
    }
    EXPECT_EQ(pinned.size(), got.size());
}

/**
 * What a search answers, independent of which engine scored it: the
 * best mapping's text (hashed), its EDP bits, and the evaluated /
 * valid / invalid / bound-pruned / modeled counts.
 */
template <typename Result>
std::string
answer(const Result &res)
{
    const auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "best=%016llx edp=%016llx ev=%llu valid=%llu inv=%llu "
        "pruned=%llu mod=%llu",
        u(res.best ? hashing::fnv1aBytes(res.best->toString()) : 0),
        u(std::bit_cast<std::uint64_t>(res.bestResult.edp)),
        u(res.evaluated), u(res.valid), u(res.stats.invalid),
        u(res.stats.prunedBound), u(res.stats.modeled));
    return buf;
}

/**
 * A hierarchy deeper than any preset: @p depth levels of growing
 * capacity over a backing store, with a 2x2 mesh below every fifth
 * level. With a convolution's seven dimensions, ten or more levels
 * make the level x dimension table wider than 64 bits.
 */
ArchSpec
makeDeepArch(std::size_t depth)
{
    std::vector<StorageLevelSpec> levels(depth);
    for (std::size_t l = 0; l < depth; ++l) {
        StorageLevelSpec &lvl = levels[l];
        lvl.name = "L" + std::to_string(l);
        lvl.capacityWords = l + 1 < depth ? std::uint64_t{64} << l : 0;
        lvl.readEnergy = lvl.writeEnergy = 1.0 + static_cast<double>(l);
        if (l % 5 == 1) {
            lvl.fanoutX = 2;
            lvl.fanoutY = 2;
        }
    }
    return ArchSpec("deep-" + std::to_string(depth), levels, 1.0, 1.0);
}

/**
 * Golden answers of the enumerating searches (exhaustive and
 * branch-and-bound, capped) on the Eyeriss and Simba presets, of one
 * random-search trajectory, and of random, genetic, exhaustive and
 * optimal search on a 10-level hierarchy whose level x dimension
 * table is wider than 64 bits. Every line is a function of the
 * search's definition alone, so it must survive any change to how
 * candidates are scored.
 */
TEST(StrategyGolden, EnumeratingAndDeepSearchesArePinned)
{
    const std::map<std::string, std::string> pinned = {
        {"deep-10 exhaustive",
         "best=57bba365b8e58c54 edp=41ae636000000000"
         " ev=500 valid=500 inv=0 pruned=0 mod=500"},
        {"deep-10 genetic incremental=0",
         "best=d120beb53d426bb1 edp=415fd66666666666"
         " ev=664 valid=460 inv=204 pruned=0 mod=460"},
        {"deep-10 genetic incremental=1",
         "best=d120beb53d426bb1 edp=415fd66666666666"
         " ev=664 valid=460 inv=204 pruned=0 mod=460"},
        {"deep-10 optimal",
         "best=4ec2359ee5489d6f edp=419f4fa000000000"
         " ev=8217377265 valid=500 inv=8217376765 pruned=0 mod=500"},
        {"deep-10 random",
         "best=52c40f4e4e58f0c1 edp=415e76b999999999"
         " ev=3000 valid=1413 inv=1587 pruned=1142 mod=271"},
        {"eyeriss exhaustive",
         "best=f6f788a9519e382d edp=4306892653232d7e"
         " ev=8000 valid=3097 inv=4903 pruned=40 mod=3057"},
        {"eyeriss optimal",
         "best=0f676efa3e00a596 edp=42e06f689c3d39a1"
         " ev=9308628 valid=8000 inv=9300628 pruned=0 mod=8000"},
        {"eyeriss random trajectory",
         "steps=2000 hash=721d7d7d99763cb2"},
        {"simba exhaustive",
         "best=51d81d8447fce42b edp=42f6f73fc92b95d3"
         " ev=8000 valid=5860 inv=2140 pruned=130 mod=5730"},
        {"simba optimal",
         "best=aa2084dc5ef3c8d2 edp=42e602b8e3af6597"
         " ev=15873 valid=8000 inv=7873 pruned=662 mod=7338"},
        {"simba random trajectory",
         "steps=2000 hash=efd0eebdbd8e232c"},
    };

    std::map<std::string, std::string> got;
    const auto enumerate = [&](const std::string &arch,
                               const Mapspace &space,
                               const Evaluator &eval,
                               std::uint64_t cap) {
        ExhaustiveOptions ex;
        ex.maxEvaluations = cap;
        got[arch + " exhaustive"] =
            answer(exhaustiveSearch(space, eval, ex));
        OptimalOptions op;
        op.maxEvaluations = cap;
        got[arch + " optimal"] = answer(optimalSearch(space, eval, op));
    };

    struct Preset
    {
        const char *name;
        ArchSpec arch;
        ConstraintPreset constraints;
    };
    const Problem prob = makeConv(resnet50Layers()[1].shape);
    const Preset presets[] = {
        {"eyeriss", makeEyeriss(), ConstraintPreset::EyerissRS},
        {"simba", makeSimba(), ConstraintPreset::Simba},
    };
    for (const Preset &p : presets) {
        const MappingConstraints cons =
            makeConstraints(p.constraints, prob, p.arch);
        const Mapspace space(cons, MapspaceVariant::RubyS);
        const Evaluator eval(prob, p.arch);
        enumerate(p.name, space, eval, 8000);

        SearchOptions opts;
        opts.maxEvaluations = 2000;
        opts.terminationStreak = 0;
        opts.seed = 7;
        opts.recordTrajectory = true;
        const SearchResult res = randomSearch(space, eval, opts);
        std::uint64_t h = hashing::kFnvOffset;
        for (const double best : res.trajectory) {
            const std::uint64_t bits = std::bit_cast<std::uint64_t>(best);
            h = hashing::fnv1aBytes(
                std::string_view(reinterpret_cast<const char *>(&bits),
                                 sizeof bits),
                h);
        }
        char buf[64];
        std::snprintf(buf, sizeof buf, "steps=%zu hash=%016llx",
                      res.trajectory.size(),
                      static_cast<unsigned long long>(h));
        got[std::string(p.name) + " random trajectory"] = buf;
    }

    const ArchSpec deep = makeDeepArch(10);
    ConvShape shape;
    shape.c = shape.m = 4;
    shape.p = shape.q = 4;
    shape.r = shape.s = 3;
    const Problem deepProb = makeConv(shape);
    ASSERT_GT(deep.numLevels() * deepProb.numDims(), 64);
    const MappingConstraints deepCons(deepProb, deep);
    const Mapspace deepSpace(deepCons, MapspaceVariant::RubyS);
    const Evaluator deepEval(deepProb, deep);
    enumerate("deep-10", deepSpace, deepEval, 500);
    {
        SearchOptions opts;
        opts.maxEvaluations = 3000;
        opts.terminationStreak = 0;
        opts.seed = 7;
        got["deep-10 random"] =
            answer(randomSearch(deepSpace, deepEval, opts));
    }
    for (const bool incremental : {true, false}) {
        GeneticOptions opts;
        opts.populationSize = 32;
        opts.generations = 10;
        opts.seed = 7;
        opts.islands = 2;
        opts.incremental = incremental;
        const std::string key = "deep-10 genetic incremental=" +
                                std::to_string(incremental);
        got[key] = answer(geneticSearch(deepSpace, deepEval, opts));
        opts.threads = 4;
        EXPECT_EQ(answer(geneticSearch(deepSpace, deepEval, opts)),
                  got[key])
            << key << " at 4 threads";
    }

    for (const auto &[key, line] : got) {
        const auto it = pinned.find(key);
        EXPECT_TRUE(it != pinned.end() && it->second == line)
            << "{\"" << key << "\",\n \"" << line << "\"},";
    }
    EXPECT_EQ(pinned.size(), got.size());
}

} // namespace
} // namespace ruby
