/**
 * @file
 * Determinism and safety of the parallel search stack: the serial
 * and multi-threaded executions of every strategy must agree
 * bit-for-bit on the best mapping at fixed topology (islands/starts),
 * per-shard statistics must aggregate without double counting, the
 * network sweep must parallelize across layers without changing any
 * outcome, and the layer memo must search each distinct shape once.
 *
 * The incumbent stress test is the TSan target for the shared atomic
 * best-objective. The last test checks that, once warm, neither a
 * search nor a daemon start/stop cycle creates an OS thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "../test_util.hpp"
#include "ruby/arch/presets.hpp"
#include "ruby/common/incumbent.hpp"
#include "ruby/common/thread_pool.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/search/genetic_search.hpp"
#include "ruby/search/local_search.hpp"
#include "ruby/search/random_search.hpp"
#include "ruby/serve/server.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby
{
namespace
{

/** A small conv layer every preset can map quickly. */
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

/** invalid + pruned + modeled must partition the evaluations. */
void
expectStatsPartition(const EvalStats &stats, std::uint64_t evaluated)
{
    EXPECT_EQ(stats.invalid + stats.prunedBound + stats.modeled,
              evaluated);
}

void
expectExhaustiveParity(const ArchSpec &arch, ConstraintPreset preset)
{
    const Problem prob = makeConv(smallConv());
    const MappingConstraints cons =
        makeConstraints(preset, prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    ExhaustiveOptions serial;
    serial.maxEvaluations = 4000;
    serial.threads = 1;
    ExhaustiveOptions parallel = serial;
    parallel.threads = 4;

    const ExhaustiveResult a = exhaustiveSearch(space, eval, serial);
    const ExhaustiveResult b =
        exhaustiveSearch(space, eval, parallel);

    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.truncated, b.truncated);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.bestResult.edp, b.bestResult.edp);
        EXPECT_EQ(a.bestResult.energy, b.bestResult.energy);
        EXPECT_EQ(a.bestResult.cycles, b.bestResult.cycles);
        EXPECT_EQ(a.best->toString(), b.best->toString());
    }
    // The prunedBound/modeled split may shift with the thread count
    // (the shared incumbent tightens in a different order) but the
    // partition identity must hold on both sides.
    expectStatsPartition(a.stats, a.evaluated);
    expectStatsPartition(b.stats, b.evaluated);
    EXPECT_EQ(a.stats.invalid, b.stats.invalid);
    EXPECT_EQ(a.stats.prunedBound + a.stats.modeled,
              b.stats.prunedBound + b.stats.modeled);
}

TEST(ParallelSearch, ExhaustiveParityOnEyeriss)
{
    expectExhaustiveParity(makeEyeriss(),
                           ConstraintPreset::EyerissRS);
}

TEST(ParallelSearch, ExhaustiveParityOnSimba)
{
    expectExhaustiveParity(makeSimba(), ConstraintPreset::Simba);
}

/**
 * Random search reads draw i from its own keyed stream and commits
 * draws in index order, so at 2, 4 and 8 threads it must return the
 * one-thread answer: the same best mapping and metric bits, the same
 * evaluated/valid/invalid counts and trajectory. Only the
 * prunedBound/modeled split may shift (a worker prunes against a
 * possibly stale committed best), and the evaluation cap is never
 * overshot.
 */
void
expectRandomThreadInvariance(const ArchSpec &arch,
                             ConstraintPreset preset)
{
    const Problem prob = makeConv(smallConv());
    const MappingConstraints cons =
        makeConstraints(preset, prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    struct Config
    {
        const char *name;
        std::uint64_t streak;
        unsigned restarts;
        bool trajectory;
    };
    const Config configs[] = {
        {"no streak", 0, 1, false},
        {"streak", 150, 1, false},
        {"streak, restarts 2", 150, 2, false},
        {"trajectory", 150, 1, true},
    };
    for (const Config &c : configs) {
        SCOPED_TRACE(c.name);
        SearchOptions opts;
        opts.seed = 11;
        opts.maxEvaluations = 2500;
        opts.terminationStreak = c.streak;
        opts.restarts = c.restarts;
        opts.recordTrajectory = c.trajectory;
        opts.threads = 1;
        const SearchResult a = randomSearch(space, eval, opts);
        EXPECT_LE(a.evaluated,
                  opts.maxEvaluations * static_cast<std::uint64_t>(
                                            c.restarts));
        expectStatsPartition(a.stats, a.evaluated);
        ASSERT_TRUE(a.best.has_value());
        for (const unsigned threads : {2u, 4u, 8u}) {
            SCOPED_TRACE(threads);
            opts.threads = threads;
            const SearchResult b = randomSearch(space, eval, opts);
            ASSERT_TRUE(b.best.has_value());
            EXPECT_EQ(a.best->toString(), b.best->toString());
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.bestResult.edp),
                      std::bit_cast<std::uint64_t>(b.bestResult.edp));
            EXPECT_EQ(a.evaluated, b.evaluated);
            EXPECT_EQ(a.valid, b.valid);
            EXPECT_EQ(a.stats.invalid, b.stats.invalid);
            EXPECT_EQ(a.trajectory, b.trajectory);
            EXPECT_EQ(a.stats.prunedBound + a.stats.modeled,
                      b.stats.prunedBound + b.stats.modeled);
            expectStatsPartition(b.stats, b.evaluated);
        }
    }
}

TEST(ParallelSearch, RandomThreadInvarianceOnEyeriss)
{
    expectRandomThreadInvariance(makeEyeriss(),
                                 ConstraintPreset::EyerissRS);
}

TEST(ParallelSearch, RandomThreadInvarianceOnSimba)
{
    expectRandomThreadInvariance(makeSimba(), ConstraintPreset::Simba);
}

TEST(ParallelSearch, GeneticIslandParityAcrossThreadCounts)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyLinear(9);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    GeneticOptions serial;
    serial.populationSize = 16;
    serial.generations = 8;
    serial.islands = 4;
    serial.migrationInterval = 3;
    serial.migrants = 2;
    serial.threads = 1;
    GeneticOptions parallel = serial;
    parallel.threads = 4;

    const SearchResult a = geneticSearch(space, eval, serial);
    const SearchResult b = geneticSearch(space, eval, parallel);

    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.stats.invalid, b.stats.invalid);
    EXPECT_EQ(a.stats.modeled, b.stats.modeled);
    expectStatsPartition(a.stats, a.evaluated);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.bestResult.edp, b.bestResult.edp);
        EXPECT_EQ(a.best->toString(), b.best->toString());
    }
}

TEST(ParallelSearch, LocalMultiStartParityAcrossThreadCounts)
{
    const Problem prob = makeVector1D(100);
    const ArchSpec arch = makeToyLinear(9);
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    LocalSearchOptions serial;
    serial.maxEvaluations = 2000;
    serial.starts = 4;
    serial.threads = 1;
    LocalSearchOptions parallel = serial;
    parallel.threads = 4;

    const SearchResult a = localSearch(space, eval, serial);
    const SearchResult b = localSearch(space, eval, parallel);

    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.stats.invalid, b.stats.invalid);
    EXPECT_EQ(a.stats.modeled, b.stats.modeled);
    expectStatsPartition(a.stats, a.evaluated);
    ASSERT_EQ(a.best.has_value(), b.best.has_value());
    if (a.best) {
        EXPECT_EQ(a.bestResult.edp, b.bestResult.edp);
        EXPECT_EQ(a.best->toString(), b.best->toString());
    }
}

/** Three distinct small layers (no duplicate shapes). */
std::vector<Layer>
distinctNetwork()
{
    std::vector<Layer> layers;
    for (std::uint64_t m : {12, 16, 24}) {
        ConvShape sh = smallConv();
        sh.name = "conv_m" + std::to_string(m);
        sh.m = m;
        Layer layer;
        layer.shape = sh;
        layer.group = "conv";
        layer.count = 2;
        layers.push_back(layer);
    }
    return layers;
}

/**
 * A sweep's answer does not depend on how its thread budget
 * networkThreads x threads is split: layers fill the budget first,
 * and every strategy's answer is the same at any per-layer thread
 * count. Where each layer gets one thread (no more budget than
 * distinct layers), random search's counters are the one-thread ones
 * too.
 */
TEST(ParallelSearch, NetworkParityAcrossNetworkThreadCounts)
{
    struct Preset
    {
        const char *name;
        ArchSpec arch;
        ConstraintPreset preset;
    };
    const Preset presets[] = {
        {"eyeriss", makeEyeriss(), ConstraintPreset::EyerissRS},
        {"simba", makeSimba(), ConstraintPreset::Simba},
    };
    // (networkThreads, threads); the first is the reference.
    const std::pair<unsigned, unsigned> budgets[] = {
        {1, 1}, {2, 1}, {1, 2}, {4, 1}, {2, 2}};
    const std::vector<Layer> layers = distinctNetwork();

    for (const Preset &p : presets) {
        for (const SearchStrategy strategy :
             {SearchStrategy::Random, SearchStrategy::Genetic,
              SearchStrategy::Local, SearchStrategy::Exhaustive}) {
            SearchOptions opts;
            opts.strategy = strategy;
            opts.maxEvaluations = 1500;
            opts.terminationStreak = 0;
            opts.restarts = 2;
            NetworkOutcome reference;
            for (const auto &[net_threads, threads] : budgets) {
                SCOPED_TRACE(testing::Message()
                             << p.name << " strategy "
                             << static_cast<int>(strategy)
                             << " networkThreads " << net_threads
                             << " threads " << threads);
                opts.networkThreads = net_threads;
                opts.threads = threads;
                const NetworkOutcome b = searchNetwork(
                    layers, p.arch, p.preset, MapspaceVariant::RubyS,
                    opts);
                if (net_threads * threads == 1) {
                    reference = b;
                    continue;
                }
                const NetworkOutcome &a = reference;
                const bool one_thread_layers =
                    net_threads * threads <= layers.size();
                ASSERT_EQ(a.layers.size(), b.layers.size());
                for (std::size_t i = 0; i < a.layers.size(); ++i) {
                    const LayerOutcome &x = a.layers[i];
                    const LayerOutcome &y = b.layers[i];
                    EXPECT_EQ(x.found, y.found) << x.name;
                    EXPECT_EQ(x.evaluated, y.evaluated) << x.name;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.result.edp),
                              std::bit_cast<std::uint64_t>(y.result.edp))
                        << x.name;
                    EXPECT_EQ(x.bestMapping, y.bestMapping) << x.name;
                    if (strategy == SearchStrategy::Random &&
                        one_thread_layers) {
                        EXPECT_EQ(x.stats.invalid, y.stats.invalid);
                        EXPECT_EQ(x.stats.prunedBound,
                                  y.stats.prunedBound);
                        EXPECT_EQ(x.stats.modeled, y.stats.modeled);
                    }
                }
                EXPECT_EQ(std::bit_cast<std::uint64_t>(a.totalEnergy),
                          std::bit_cast<std::uint64_t>(b.totalEnergy));
                EXPECT_EQ(std::bit_cast<std::uint64_t>(a.totalCycles),
                          std::bit_cast<std::uint64_t>(b.totalCycles));
                EXPECT_EQ(std::bit_cast<std::uint64_t>(a.edp),
                          std::bit_cast<std::uint64_t>(b.edp));
            }
        }
    }
}

/** Four layers where the first and third share one numeric shape. */
std::vector<Layer>
duplicateShapeNetwork()
{
    std::vector<Layer> layers = distinctNetwork();
    ConvShape dup = layers[0].shape;
    dup.name = "conv_dup_of_first";
    Layer layer;
    layer.shape = dup;
    layer.group = "conv";
    layer.count = 3;
    layers.push_back(layer);
    return layers;
}

TEST(ParallelSearch, LayerMemoReplicatesDuplicateShapes)
{
    const ArchSpec arch = makeEyeriss();
    SearchOptions opts;
    opts.maxEvaluations = 1500;
    opts.terminationStreak = 0;

    const NetworkOutcome memo =
        searchNetwork(duplicateShapeNetwork(), arch,
                      ConstraintPreset::EyerissRS,
                      MapspaceVariant::RubyS, opts);
    ASSERT_EQ(memo.layers.size(), 4u);
    EXPECT_EQ(memo.memoizedLayers, 1);

    const LayerOutcome &primary = memo.layers[0];
    const LayerOutcome &dup = memo.layers[3];
    EXPECT_FALSE(primary.memoized);
    EXPECT_TRUE(dup.memoized);
    EXPECT_EQ(dup.name, "conv_dup_of_first");
    EXPECT_EQ(dup.count, 3);
    // The copy carries the mapping but none of the work counters, so
    // aggregate statistics count each distinct shape exactly once.
    EXPECT_EQ(dup.found, primary.found);
    EXPECT_EQ(dup.result.edp, primary.result.edp);
    EXPECT_EQ(dup.bestMapping, primary.bestMapping);
    EXPECT_EQ(dup.evaluated, 0u);
    expectStatsPartition(dup.stats, 0);

    // Disabling the memo searches the duplicate for real — same
    // outcome (same seed, same options), more recorded work.
    SearchOptions no_memo = opts;
    no_memo.layerMemo = false;
    const NetworkOutcome full =
        searchNetwork(duplicateShapeNetwork(), arch,
                      ConstraintPreset::EyerissRS,
                      MapspaceVariant::RubyS, no_memo);
    EXPECT_EQ(full.memoizedLayers, 0);
    EXPECT_FALSE(full.layers[3].memoized);
    EXPECT_GT(full.layers[3].evaluated, 0u);
    EXPECT_EQ(full.layers[3].result.edp, memo.layers[3].result.edp);
    EXPECT_EQ(full.totalEnergy, memo.totalEnergy);
    EXPECT_EQ(full.totalCycles, memo.totalCycles);
    EXPECT_EQ(full.edp, memo.edp);

    // Network-level partition identity after reduction: the summed
    // stats must account for exactly the evaluations of the layers
    // that were really searched.
    std::uint64_t searched_evals = 0;
    for (const LayerOutcome &layer : memo.layers)
        searched_evals += layer.evaluated;
    expectStatsPartition(memo.stats, searched_evals);
}

/**
 * A cross-sweep LayerMemo accepts a random layer searched on two
 * threads, replays it on the next sweep, and what it replays is the
 * one-thread answer.
 */
TEST(ParallelSearch, SharedLayerMemoReplaysTwoThreadRandomLayer)
{
    const ArchSpec arch = makeEyeriss();
    const std::vector<Layer> layers = {distinctNetwork()[0]};
    LayerMemo memo;
    SearchOptions opts;
    opts.maxEvaluations = 1500;
    opts.terminationStreak = 0;
    opts.threads = 2;
    opts.sharedLayerMemo = &memo;

    const NetworkOutcome first =
        searchNetwork(layers, arch, ConstraintPreset::EyerissRS,
                      MapspaceVariant::RubyS, opts);
    EXPECT_EQ(memo.stats().inserts, 1u);
    const NetworkOutcome replay =
        searchNetwork(layers, arch, ConstraintPreset::EyerissRS,
                      MapspaceVariant::RubyS, opts);
    EXPECT_EQ(memo.stats().hits, 1u);
    ASSERT_EQ(replay.layers.size(), 1u);
    EXPECT_TRUE(replay.layers[0].memoized);
    EXPECT_EQ(replay.layers[0].bestMapping, first.layers[0].bestMapping);
    EXPECT_EQ(replay.layers[0].result.edp, first.layers[0].result.edp);

    opts.threads = 1;
    opts.sharedLayerMemo = nullptr;
    const NetworkOutcome serial =
        searchNetwork(layers, arch, ConstraintPreset::EyerissRS,
                      MapspaceVariant::RubyS, opts);
    EXPECT_EQ(serial.layers[0].bestMapping, first.layers[0].bestMapping);
    EXPECT_EQ(serial.layers[0].result.edp, first.layers[0].result.edp);
}

TEST(ParallelSearch, SharedIncumbentStressKeepsMinimum)
{
    // TSan target: hammer one incumbent from many threads and check
    // the final value is the true minimum ever observed.
    SharedIncumbent incumbent;
    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 20'000;
    std::atomic<std::uint64_t> lowest_seen{
        std::numeric_limits<std::uint64_t>::max()};

    ThreadPool pool(kThreads);
    for (unsigned t = 0; t < kThreads; ++t)
        pool.submit([&, t]() {
            // Deterministic pseudo-random walk, distinct per thread.
            std::uint64_t x = 0x9e3779b97f4a7c15ull * (t + 1);
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                const std::uint64_t v = (x % 1'000'000) + 1;
                std::uint64_t seen =
                    lowest_seen.load(std::memory_order_relaxed);
                while (v < seen &&
                       !lowest_seen.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed))
                    ;
                incumbent.observeMin(static_cast<double>(v));
                // Interleave reads: a racy implementation would trip
                // TSan here, a broken CAS loop would lose the min.
                EXPECT_GE(incumbent.load(), 1.0);
            }
        });
    pool.waitIdle();
    EXPECT_EQ(incumbent.load(),
              static_cast<double>(lowest_seen.load()));
}

/**
 * Per-call pools and the daemon's threads come from the thread park,
 * so after one warm-up of each, repeated searches and daemon
 * start/stop cycles run only on threads that already exist: a
 * watcher lists the live threads throughout, each running daemon is
 * checked directly, and the thread count ends where it started.
 */
TEST(ParallelSearch, NoThreadIsCreatedPerSearchOrServerCycle)
{
    const Problem prob = makeConv(smallConv());
    const ArchSpec arch = makeEyeriss();
    const MappingConstraints cons =
        makeConstraints(ConstraintPreset::EyerissRS, prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);
    SearchOptions opts;
    opts.seed = 3;
    opts.maxEvaluations = 600;
    opts.terminationStreak = 0;
    opts.threads = 4;
    serve::ServeOptions serveOpts;
    serveOpts.port = 0;
    serveOpts.logLifecycle = false;

    const SearchResult warm = randomSearch(space, eval, opts);
    serve::Server(serveOpts).start();

    std::set<int> known;
    std::set<int> strangers;
    std::atomic<bool> armed{false};
    std::atomic<bool> done{false};
    std::thread watcher([&] {
        while (!armed.load())
            std::this_thread::yield();
        while (!done.load())
            for (const int id : test::liveThreadIds())
                if (known.count(id) == 0)
                    strangers.insert(id);
    });
    known = test::liveThreadIds();
    const int threads = test::processThreadCount();
    armed.store(true);

    for (int i = 0; i < 50; ++i) {
        const SearchResult r = randomSearch(space, eval, opts);
        ASSERT_EQ(r.best->toString(), warm.best->toString());
    }
    for (int i = 0; i < 20; ++i) {
        serve::Server server(serveOpts);
        server.start();
        for (const int id : test::liveThreadIds())
            EXPECT_EQ(known.count(id), 1u) << "cycle " << i;
    }
    done.store(true);
    watcher.join();
    EXPECT_TRUE(strangers.empty()) << strangers.size() << " new threads";
    EXPECT_EQ(test::processThreadCount(), threads - 1); // the watcher
}

} // namespace
} // namespace ruby
