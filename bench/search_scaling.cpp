/**
 * @file
 * Scaling head-to-head for the parallel search stack: runs
 * exhaustive / genetic / local search and a whole-network sweep at
 * 1/2/4/8 threads and reports speedup over a fixed *baseline* run
 * — one thread with the incremental (delta) evaluation engine off —
 * so the number captures both the engine's gain and the thread
 * scaling on top of it. Every point also records whether the best
 * EDP stayed bit-identical to the baseline (it must: the parallel
 * searches are deterministic at fixed topology and the delta engine
 * is an exact recomputation) and the delta-hit rate. The network
 * sweep's budget networkThreads x threads is also spent at threads
 * 2 and 4 with networkThreads 1 (`network_layer_threads`); each of
 * those points must reach the EDP of the networkThreads point of the
 * same budget.
 *
 * Writes BENCH_search_scaling.json next to the working directory.
 * `--full` (or RUBY_BENCH_FULL=1) enlarges the budgets and sets the
 * JSON's full_run flag. Thread speedups above 1x need a multi-core
 * host; the engine's gain shows on a single hardware thread too
 * (hardware_concurrency is recorded so readers can tell which effect
 * they are looking at).
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "ruby/arch/presets.hpp"
#include "ruby/search/driver.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/search/genetic_search.hpp"
#include "ruby/search/local_search.hpp"
#include "ruby/workload/conv.hpp"
#include "ruby/workload/suites/suites.hpp"

#include "bench_util.hpp"

namespace
{

using namespace ruby;
using Clock = std::chrono::steady_clock;

constexpr std::array<unsigned, 4> kThreadCounts{1, 2, 4, 8};

/** ResNet-50 conv4_x 3x3 layer: the paper's mid-network workhorse. */
ConvShape
conv4Shape()
{
    ConvShape sh;
    sh.name = "conv4_3x3";
    sh.c = 256;
    sh.m = 256;
    sh.p = 14;
    sh.q = 14;
    sh.r = 3;
    sh.s = 3;
    return sh;
}

/** What one (threads, incremental) run produced. */
struct RunPoint
{
    unsigned threads = 1;
    bool incremental = false;
    double wallMs = 0.0;
    double speedup = 1.0; ///< baseline wall / this wall
    double bestEdp = 0.0;
    bool parity = true; ///< best EDP identical to the baseline run
    double deltaHitRate = 0.0;
    std::uint64_t deltaHits = 0;
    std::uint64_t deltaFallbacks = 0;
};

double
elapsedMs(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den != 0 ? static_cast<double>(num) /
                          static_cast<double>(den)
                    : 0.0;
}

/** One strategy run distilled for the sweep. */
struct RunOutcome
{
    double bestEdp = 0.0;
    EvalStats stats;
};

/**
 * Sweep a strategy: the first emitted point is the baseline (one
 * thread, incremental off), then each thread count runs with the
 * incremental flag as given. Strategies without an engine pass
 * incremental = false and get a pure thread-scaling series. Each
 * point's wall is the best of @p reps identical runs (the results are
 * deterministic, so repeats only damp scheduler noise).
 */
template <typename Fn>
std::vector<RunPoint>
sweepThreads(Fn &&run, bool incremental, int reps)
{
    std::vector<RunPoint> points;
    auto measure = [&](unsigned t, bool inc, RunPoint &p) {
        p.threads = t;
        p.incremental = inc;
        p.wallMs = 0.0;
        RunOutcome out;
        for (int r = 0; r < reps; ++r) {
            const auto start = Clock::now();
            out = run(t, inc);
            const double ms = elapsedMs(start);
            if (r == 0 || ms < p.wallMs)
                p.wallMs = ms;
        }
        p.bestEdp = out.bestEdp;
        p.deltaHitRate =
            ratio(out.stats.deltaHits, out.stats.deltaAttempts);
        p.deltaHits = out.stats.deltaHits;
        p.deltaFallbacks = out.stats.deltaFallbacks;
    };
    {
        RunPoint base;
        measure(1, false, base);
        points.push_back(base);
        std::cout << "    baseline (1 thread, incremental off): "
                  << base.wallMs << " ms, best EDP " << base.bestEdp
                  << "\n";
    }
    for (const unsigned t : kThreadCounts) {
        RunPoint p;
        measure(t, incremental, p);
        p.speedup = points.front().wallMs / p.wallMs;
        p.parity = p.bestEdp == points.front().bestEdp;
        points.push_back(p);
        std::cout << "    " << t << " thread(s): " << p.wallMs
                  << " ms, speedup " << p.speedup << "x, best EDP "
                  << p.bestEdp
                  << (p.parity ? "" : "  [PARITY BROKEN]") << "\n";
    }
    return points;
}

void
emitSeries(std::ofstream &json, const char *name,
           const std::vector<RunPoint> &points, bool trailingComma)
{
    json << "  \"" << name << "\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const RunPoint &p = points[i];
        json << "    {\"threads\": " << p.threads
             << ", \"incremental\": "
             << (p.incremental ? "true" : "false")
             << ", \"wall_ms\": " << p.wallMs
             << ", \"speedup\": " << p.speedup
             << ", \"best_edp\": " << std::setprecision(17)
             << p.bestEdp << std::setprecision(6) << ", \"parity\": "
             << (p.parity ? "true" : "false")
             << ", \"delta_hit_rate\": " << p.deltaHitRate
             << ", \"delta_hits\": " << p.deltaHits
             << ", \"delta_fallbacks\": " << p.deltaFallbacks << "}"
             << (i + 1 < points.size() ? "," : "") << "\n";
    }
    json << "  ]" << (trailingComma ? "," : "") << "\n";
}

bool
allParity(const std::vector<RunPoint> &points)
{
    return std::all_of(points.begin(), points.end(),
                       [](const RunPoint &p) { return p.parity; });
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = ruby::bench::fullRun();
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--full")
            full = true;
    const ArchSpec arch = makeEyeriss();
    const Problem prob = makeConv(conv4Shape());
    const MappingConstraints cons =
        makeConstraints(ConstraintPreset::EyerissRS, prob, arch);
    const Mapspace space(cons, MapspaceVariant::RubyS);
    const Evaluator eval(prob, arch);

    std::cout << "search scaling on " << prob.name()
              << " (Eyeriss RS, Ruby-S)\n  exhaustive:\n";
    const std::uint64_t ex_cap = full ? 200'000 : 20'000;
    const auto exhaustive = sweepThreads(
        [&](unsigned t, bool) {
            ExhaustiveOptions opts;
            opts.maxEvaluations = ex_cap;
            opts.threads = t;
            const ExhaustiveResult res =
                exhaustiveSearch(space, eval, opts);
            return RunOutcome{res.bestResult.edp, res.stats};
        },
        false, 3);

    std::cout << "  genetic (8 islands):\n";
    const auto genetic = sweepThreads(
        [&](unsigned t, bool incremental) {
            GeneticOptions opts;
            opts.populationSize = 32;
            opts.generations = full ? 40 : 10;
            opts.islands = 8;
            opts.threads = t;
            opts.incremental = incremental;
            const SearchResult res =
                geneticSearch(space, eval, opts);
            return RunOutcome{res.bestResult.edp, res.stats};
        },
        true, 3);

    std::cout << "  local (8 starts):\n";
    const auto local = sweepThreads(
        [&](unsigned t, bool incremental) {
            LocalSearchOptions opts;
            opts.maxEvaluations = full ? 100'000 : 16'000;
            opts.starts = 8;
            opts.threads = t;
            opts.incremental = incremental;
            const SearchResult res = localSearch(space, eval, opts);
            return RunOutcome{res.bestResult.edp, res.stats};
        },
        true, 3);

    std::cout << "  network (ResNet-50, layer threads = 1):\n";
    const std::vector<Layer> resnet = resnet50Layers();
    int memoized_layers = 0;
    auto runNetwork = [&](unsigned net_threads, unsigned threads,
                          bool incremental) {
        SearchOptions opts;
        opts.maxEvaluations = full ? 20'000 : 2'000;
        opts.terminationStreak = 0;
        opts.threads = threads;
        opts.networkThreads = net_threads;
        opts.incremental = incremental;
        // Exercise the post-sampling refinement (and with it the
        // random-search delta path) on every layer.
        opts.refineSteps = full ? 2'000 : 200;
        const NetworkOutcome net = searchNetwork(
            resnet, arch, ConstraintPreset::EyerissRS,
            MapspaceVariant::RubyS, opts);
        memoized_layers = net.memoizedLayers;
        return RunOutcome{net.edp, net.stats};
    };
    const auto network = sweepThreads(
        [&](unsigned t, bool incremental) {
            return runNetwork(t, 1, incremental);
        },
        true, 1);

    // The same budgets named by the other factor (threads t,
    // networkThreads 1). Layers fill the budget first, so each point
    // must land on the network point at networkThreads t; `speedup`
    // is against the network baseline and `parity` against that
    // point.
    std::cout << "  network (ResNet-50, network threads = 1):\n";
    std::vector<RunPoint> network_split;
    for (const unsigned t : {2u, 4u}) {
        RunPoint p;
        p.threads = t;
        p.incremental = true;
        const auto start = Clock::now();
        const RunOutcome out = runNetwork(1, t, true);
        p.wallMs = elapsedMs(start);
        p.bestEdp = out.bestEdp;
        p.speedup = network.front().wallMs / p.wallMs;
        const auto twin = std::find_if(
            network.begin() + 1, network.end(),
            [t](const RunPoint &q) { return q.threads == t; });
        p.parity = twin != network.end() && twin->bestEdp == p.bestEdp;
        p.deltaHitRate =
            ratio(out.stats.deltaHits, out.stats.deltaAttempts);
        p.deltaHits = out.stats.deltaHits;
        p.deltaFallbacks = out.stats.deltaFallbacks;
        network_split.push_back(p);
        std::cout << "    " << t << " thread(s) per layer budget: "
                  << p.wallMs << " ms, best EDP " << p.bestEdp
                  << (p.parity ? "" : "  [PARITY BROKEN]") << "\n";
    }

    // Memo accounting: each distinct numeric shape must have been
    // searched exactly once (memoized layers == duplicates).
    std::set<std::array<std::uint64_t, 11>> distinct;
    for (const Layer &layer : resnet)
        distinct.insert({layer.shape.n, layer.shape.c, layer.shape.m,
                         layer.shape.p, layer.shape.q, layer.shape.r,
                         layer.shape.s, layer.shape.strideH,
                         layer.shape.strideW, layer.shape.dilationH,
                         layer.shape.dilationW});
    const bool memo_exact =
        static_cast<std::size_t>(memoized_layers) ==
        resnet.size() - distinct.size();

    // Series index: [0] baseline, then kThreadCounts in order, so
    // [2] is the 2-thread point and [4] the 8-thread point.
    const bool parity_all = allParity(exhaustive) &&
                            allParity(genetic) && allParity(local) &&
                            allParity(network);

    const char *path = "BENCH_search_scaling.json";
    std::ofstream json(path);
    json << "{\n  \"benchmark\": \"search_scaling\",\n"
         << "  \"preset\": \"eyeriss_rs\",\n"
         << "  \"workload\": \"" << prob.name() << "\",\n"
         << "  \"full_run\": " << (full ? "true" : "false") << ",\n"
         << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n";
    emitSeries(json, "exhaustive", exhaustive, true);
    emitSeries(json, "genetic", genetic, true);
    emitSeries(json, "local", local, true);
    emitSeries(json, "network", network, true);
    emitSeries(json, "network_layer_threads", network_split, true);
    json << "  \"exhaustive_speedup_2t\": " << exhaustive[2].speedup
         << ",\n  \"exhaustive_speedup_4t\": "
         << exhaustive[3].speedup
         << ",\n  \"genetic_speedup_8t\": " << genetic[4].speedup
         << ",\n  \"local_speedup_8t\": " << local[4].speedup
         << ",\n  \"delta_parity\": "
         << (parity_all ? "true" : "false")
         << ",\n  \"resnet_layers\": " << resnet.size()
         << ",\n  \"resnet_distinct_shapes\": " << distinct.size()
         << ",\n  \"resnet_memoized_layers\": " << memoized_layers
         << ",\n  \"memo_each_shape_searched_once\": "
         << (memo_exact ? "true" : "false") << "\n}\n";

    std::cout << "genetic 8-thread speedup " << genetic[4].speedup
              << "x, local 8-thread speedup " << local[4].speedup
              << "x, parity " << (parity_all ? "ok" : "BROKEN")
              << ", memo " << memoized_layers << "/" << resnet.size()
              << " layers deduplicated -> " << path << "\n";
    return 0;
}
