/**
 * @file
 * perfbench — the repository benchmark.
 *
 *   perfbench --workload net-random|serve-mixed
 *             --seed N --seconds S --trace 0|1 [--out-dir DIR]
 *
 * Runs one workload and prints, as its last stdout line, one JSON
 * object {correct, attempted, failed, metrics}. With --trace 0 the
 * metrics are the end-to-end set, measured with tracing off; with
 * --trace 1 they are the per-layer set, from spans and layer probes
 * (the spans are also written to DIR/trace-<workload>-<seed>.jsonl).
 * See README.md for what each workload and metric is.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "offline.hpp"
#include "probes.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/json.hpp"
#include "served.hpp"
#include "trace.hpp"

namespace perfbench
{

// -- bench.hpp helpers ---------------------------------------------------

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    items_.emplace_back(name, std::make_pair(value, unit));
}

void
Ledger::wrong(const std::string &what)
{
    if (correct || failed < 20)
        std::cerr << "perfbench: WRONG: " << what << "\n";
    correct = false;
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) *
                            (pos - static_cast<double>(lo));
}

double
roundQuantile(const ByRound &rounds, double q)
{
    std::vector<double> perRound;
    for (const std::vector<double> &samples : rounds)
        if (!samples.empty())
            perRound.push_back(quantile(samples, q));
    return quantile(perRound, 0.5);
}

double
bestRoundQuantile(const ByRound &rounds, double q)
{
    std::vector<double> perRound;
    for (const std::vector<double> &samples : rounds)
        if (!samples.empty())
            perRound.push_back(quantile(samples, q));
    return perRound.empty()
               ? 0.0
               : *std::min_element(perRound.begin(), perRound.end());
}

std::vector<double>
pooled(const ByRound &rounds)
{
    std::vector<double> all;
    for (const std::vector<double> &samples : rounds)
        all.insert(all.end(), samples.begin(), samples.end());
    return all;
}

std::size_t
sampleCount(const ByRound &rounds)
{
    std::size_t n = 0;
    for (const std::vector<double> &samples : rounds)
        n += samples.size();
    return n;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += std::log(v);
    return std::exp(sum / static_cast<double>(values.size()));
}

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Share of this machine's busy CPU time the host stole since @p from
 *  (the "steal" column of /proc/stat); -1 where unavailable. */
double
stealShareSince(const std::vector<double> &from, std::vector<double> &now)
{
    now.clear();
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    for (double v; now.size() < 8 && stat >> v;)
        now.push_back(v);
    if (now.size() < 8 || from.size() < 8)
        return -1.0;
    double busy = 0.0; // all but idle (3) and iowait (4)
    for (std::size_t i = 0; i < 8; ++i)
        if (i != 3 && i != 4)
            busy += now[i] - from[i];
    return busy > 0 ? (now[7] - from[7]) / busy : -1.0;
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
}

double
edpOverIdeal(const ruby::EvalResult &result, const ruby::ArchSpec &arch)
{
    double pes = 1.0;
    for (int l = 0; l < arch.numLevels(); ++l)
        pes *= static_cast<double>(arch.level(l).fanout());
    const double ops = static_cast<double>(result.ops);
    const double ideal = ops * arch.macEnergy() * (ops / pes);
    return ideal > 0 ? result.edp / ideal : 0.0;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream +
                      0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace
{

/**
 * How one workload spends its --seconds and what it serves. Both run
 * net-random's offline jobs (see README.md for why serve-mixed does
 * not time its own requests offline).
 */
struct Workload
{
    const char *name;
    ServedMix (*mix)();
    double offlineShare; ///< of --seconds
};

const Workload kWorkloads[] = {
    {"net-random", netRandomMix, 0.4},
    {"serve-mixed", serveMixedMix, 0.3},
};

/**
 * Offline passes whose best mappings give edp_geomean, each with its
 * own search seeds (see OfflineRunner). The offline jobs search the
 * same layers under every seed, so one search per layer would leave
 * the metric to one seed's luck; eight give it a spread of a few
 * percent.
 */
constexpr unsigned kEdpPasses = 8;

/**
 * The run is cut into rounds of about this length; each round runs
 * its share of offline passes, then its slice of the low- and
 * high-rate schedules, so that every metric samples the whole run
 * rather than one stretch of the host's varying speed.
 */
constexpr double kRoundSeconds = 5.0;

/** Fixed in the benchmark: the offered rates of the served phases. */
constexpr double kLowRps = 60;
constexpr double kHighRps = 400;

/**
 * Share of the served time spent at the low rate, so that its tail
 * rests on several samples. The low rate is kept where responses on
 * one pipelined connection rarely wait on each other: with Nagle on
 * in the serving sockets such a wait costs up to a delayed ACK
 * (40 ms), and the tail then jumps by an order of magnitude.
 */
constexpr double kLowShare = 2.0 / 3.0;

/** Fixed in the benchmark: the goodput latency limit. */
constexpr double kLatencyLimitMs = 50.0;

/** Generator lag (p99) beyond which a served run is invalid. */
constexpr double kMaxLagMs = kLatencyLimitMs / 2;

/** Set-ups of the program timed in each round (beside the one whose
 *  fleet serves), so that setup_s, too, samples the whole run. */
constexpr int kSetupRepsPerRound = 3;

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--out-dir")
            args.outDir = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (findWorkload(args.workload) == nullptr)
        throw std::invalid_argument("unknown workload '" +
                                    args.workload + "'");
    if (!(args.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

/** Build every job's mapspace once (what a search does first). */
double
buildMapspacesMs(const std::vector<OfflineJob> &jobs)
{
    const std::int64_t t0 = nowNs();
    for (const OfflineJob &job : jobs) {
        if (!job.configText.empty())
            continue;
        const ruby::ArchSpec arch = ruby::serve::archByName(job.arch);
        for (const ruby::Layer &layer : job.layers) {
            const ruby::Problem problem = ruby::makeConv(layer.shape);
            const ruby::MappingConstraints constraints =
                ruby::makeConstraints(job.preset, problem, arch);
            const ruby::Mapspace space(constraints, job.variant);
            (void)space;
        }
    }
    return static_cast<double>(nowNs() - t0) / 1e6;
}

int
run(const Args &args)
{
    const Workload &w = *findWorkload(args.workload);
    std::vector<double> statStart, statEnd;
    stealShareSince({}, statStart);
    Tracer::global().enable(false);
    Ledger ledger;
    Metrics metrics;

    // -- the benchmark's inputs (not timed) --------------------------
    ServedMix mix = w.mix();
    mix.lowRps = kLowRps;
    mix.highRps = kHighRps;
    mix.latencyLimitMs = kLatencyLimitMs;
    const double servedSeconds = args.seconds * (1.0 - w.offlineShare);
    mix.lowSeconds = servedSeconds * kLowShare;
    mix.highSeconds = servedSeconds - mix.lowSeconds;
    const std::shared_ptr<Traffic> traffic = makeTraffic(mix, args.seed);
    const std::vector<OfflineJob> jobs = netRandomJobs(args.seed);

    // -- the program's set-up: every job's mapspace built, then a fresh
    // fleet answering a ping. This one serves; more run in each round.
    std::vector<double> setupS, fleetMs, buildMs;
    auto setUp = [&] {
        buildMs.push_back(buildMapspacesMs(jobs));
        const std::int64_t f0 = nowNs();
        auto started = std::make_unique<Fleet>();
        ruby::serve::Client::connectTcp("127.0.0.1",
                                        started->routerPort())
            .ping();
        fleetMs.push_back(static_cast<double>(nowNs() - f0) / 1e6);
        setupS.push_back((buildMs.back() + fleetMs.back()) / 1e3);
        return started;
    };
    std::unique_ptr<Fleet> fleet = setUp();

    // -- tracing overhead: the same pass untraced and traced, twice ---
    double overhead = 0.0;
    if (args.trace) {
        Ledger unused;
        double walls[2] = {0, 0};
        for (int rep = 0; rep < 4; ++rep) {
            Tracer::global().enable(rep % 2 == 1);
            OfflineRunner pass(jobs, unused);
            walls[rep % 2] += pass.pass(true);
        }
        overhead = walls[1] / walls[0];
        Tracer::global().clear(); // spans of the workload only
    }
    Tracer::global().enable(args.trace);

    // -- the workload: offline passes and served slices, interleaved --
    // The first pass warms caches and lazy set-up and is not timed.
    OfflineRunner runner(jobs, ledger, kEdpPasses);
    runner.pass(false);
    const int rounds =
        std::max(1, static_cast<int>(std::lround(args.seconds /
                                                 kRoundSeconds)));
    const double offlineSlice = args.seconds * w.offlineShare / rounds;
    std::vector<double> stealMark, roundSteal; // for reading a run
    auto markRound = [&] {
        std::vector<double> now;
        const double share = stealShareSince(stealMark, now);
        if (!stealMark.empty())
            roundSteal.push_back(share);
        stealMark = std::move(now);
    };
    ServedResult served =
        runServed(*fleet, mix, *traffic, args.seed, args.trace, ledger,
                  rounds, [&] {
                      markRound();
                      for (int rep = 0; rep < kSetupRepsPerRound; ++rep)
                          setUp();
                      runner.runFor(offlineSlice);
                  });
    markRound();
    const OfflineResult &offline = runner.result();
    const std::size_t searchSamples = sampleCount(offline.searchMs);
    const double lagP99 = quantile(served.lagMs, 0.99);
    if (lagP99 > kMaxLagMs)
        ledger.wrong("generator lag p99 " + std::to_string(lagP99) +
                     " ms exceeds " + std::to_string(kMaxLagMs) +
                     " ms: the open loop did not hold its schedule");
    fleet.reset();

    std::cerr << "perfbench: host steal "
              << 100.0 * stealShareSince(statStart, statEnd)
              << " % of busy CPU time during the run\n";
    std::cerr << "perfbench: offline pass walls (s):";
    for (const auto &round : offline.passWallS)
        for (const double p : round)
            std::cerr << ' ' << p;
    std::cerr << "\n";
    const auto &lat = served.latMs;
    std::cerr << "perfbench: " << w.name << " seed " << args.seed
              << ": offline passes " << sampleCount(offline.passWallS)
              << ", search samples " << searchSamples
              << ", served distinct " << served.distinctRequests
              << ", replies low/high " << sampleCount(lat[0]) << "/"
              << sampleCount(lat[1]) << ", lag p99 " << lagP99 << " ms\n";
    std::cerr << "perfbench: latency low p50/p90/p98 "
              << roundQuantile(lat[0], 0.5) << "/"
              << roundQuantile(lat[0], 0.9) << "/"
              << roundQuantile(lat[0], 0.98) << " ms, high p50/p90/p99 "
              << roundQuantile(lat[1], 0.5) << "/"
              << roundQuantile(lat[1], 0.9) << "/"
              << quantile(pooled(lat[1]), 0.99) << " ms\n";
    // Per round, to see whether a slow stretch of the host was local.
    std::cerr << "perfbench: per round: steal % | pass wall s | low p50 "
                 "ms | high p99 ms:";
    for (std::size_t r = 0; r < lat[0].size(); ++r)
        std::cerr << (r == 0 ? " " : ", ")
                  << (r < roundSteal.size() ? 100.0 * roundSteal[r] : -1.0)
                  << " | "
                  << (r < offline.passWallS.size()
                          ? quantile(offline.passWallS[r], 0.5)
                          : 0.0)
                  << " | " << quantile(lat[0][r], 0.5) << " | "
                  << quantile(lat[1][r], 0.99);
    std::cerr << "\n";

    if (!args.trace) {
        metrics.set("setup_s", quantile(setupS, 0.5), "s");
        metrics.set("peak_rss_mb", peakRssMb(), "MB");
        metrics.set("wall_s", bestRoundQuantile(offline.passWallS, 0.5),
                    "s");
        metrics.set("search_ms_p50",
                    bestRoundQuantile(offline.searchMs, 0.5), "ms");
        metrics.set("edp_geomean", geomean(offline.edpRatios), "ratio");
        metrics.set("goodput_rps.high", served.goodputHigh, "req/s");
    } else {
        const ProbeResult probe = runProbes(jobs, args.seed);
        const ruby::EvalStats &st = offline.stats;
        const double decided = static_cast<double>(st.decided());
        auto share = [&](std::uint64_t n) {
            return decided > 0 ? static_cast<double>(n) / decided : 0.0;
        };
        metrics.set("mapspace.sample_ns", probe.sampleNs, "ns");
        metrics.set("mapspace.samples", probe.samples, "count");
        metrics.set("model.validity_ns", probe.validityNs, "ns");
        metrics.set("model.batch_ns_per_lane", probe.batchNsPerLane,
                    "ns");
        metrics.set("model.full_eval_ns", probe.fullEvalNs, "ns");
        metrics.set("model.valid_ratio",
                    share(st.prunedBound + st.modeled + st.cacheHits),
                    "ratio");
        metrics.set("model.modeled_ratio", share(st.modeled), "ratio");
        metrics.set("model.pruned_ratio", share(st.prunedBound),
                    "ratio");
        const std::uint64_t lookups = st.cacheHits + st.cacheMisses;
        metrics.set("model.eval_cache_hit_ratio",
                    lookups ? static_cast<double>(st.cacheHits) /
                                  static_cast<double>(lookups)
                            : 0.0,
                    "ratio");
        metrics.set("model.eval_cache_lookups",
                    static_cast<double>(lookups), "count");
        const ruby::EvalStats &delta = probe.deltaStats;
        metrics.set("model.delta_hit_ratio",
                    delta.deltaAttempts
                        ? static_cast<double>(delta.deltaHits) /
                              static_cast<double>(delta.deltaAttempts)
                        : 0.0,
                    "ratio");
        metrics.set("model.delta_attempts",
                    static_cast<double>(delta.deltaAttempts), "count");
        const char *names[5] = {"random", "exhaustive", "genetic",
                                "local", "optimal"};
        for (int s : {0, 3, 2, 4})
            metrics.set(std::string("search.") + names[s] +
                            ".evals_per_s",
                        probe.evalsPerS[s], "1/s");
        metrics.set("search.eval_share", probe.evalShare, "ratio");
        metrics.set("search.breed_share", probe.breedShare, "ratio");
        metrics.set("search.reduce_share", probe.reduceShare, "ratio");
        metrics.set("search.cpu_util", probe.cpuUtil, "ratio");
        metrics.set("search.optimal.evaluated",
                    static_cast<double>(probe.optimalEvaluated), "count");
        metrics.set("search.optimal.certified_ratio",
                    probe.optimalCalls
                        ? static_cast<double>(probe.optimalCertified) /
                              static_cast<double>(probe.optimalCalls)
                        : 0.0,
                    "ratio");
        metrics.set("driver.layer_memo_hits",
                    static_cast<double>(offline.layerMemoHits), "count");
        metrics.set("driver.layers_searched",
                    static_cast<double>(offline.layersSearched),
                    "count");
        // Not an end-to-end metric: at a fixed rate near the knee it
        // switches between a queue-free and a queued regime as the
        // host's speed drifts (see README.md).
        // Served latencies, and a tail of search time, that a slow
        // stretch of the shared host moves more than an end-to-end
        // bound allows (README.md): not end-to-end.
        metrics.set("lat_p50_ms.low", roundQuantile(lat[0], 0.5), "ms");
        metrics.set("search_ms_p90", roundQuantile(offline.searchMs, 0.9),
                    "ms");
        metrics.set("lat_p50_ms.high", roundQuantile(lat[1], 0.5), "ms");
        // Pooled, not per round: a round's high-rate p99 is either
        // queue-free (about 4 ms) or set by TCP delayed-ACK waits
        // (about 20 ms), and a median over rounds would flip with the
        // share of queue-free rounds; the pooled tail stays with the
        // queued ones.
        metrics.set("lat_p99_ms.high", quantile(pooled(lat[1]), 0.99),
                    "ms");
        // The slowest tenth at the low rate are mostly the fresh
        // searches (12 % of requests): p90 is a served search's latency.
        metrics.set("lat_p90_ms.low", roundQuantile(lat[0], 0.9), "ms");
        metrics.set("lat_p98_ms.low", roundQuantile(lat[0], 0.98), "ms");
        metrics.set("serve.codec.parse_us", served.parseUs, "us");
        metrics.set("serve.codec.encode_us", served.encodeUs, "us");
        metrics.set("serve.first.rtt_ms_p50", served.firstRttMs, "ms");
        metrics.set("serve.repeat.rtt_ms_p50", served.repeatRttMs, "ms");
        metrics.set("serve.router_hop_ms_p50", served.routerHopMs, "ms");
        metrics.set("serve.response_cache_hit_ratio.router",
                    served.routerCacheHitRatio, "ratio");
        metrics.set("serve.response_cache_hit_ratio.daemon",
                    served.daemonCacheHitRatio, "ratio");
        metrics.set("serve.layer_memo_hit_ratio",
                    served.layerMemoHitRatio, "ratio");
        metrics.set("serve.coalesced", served.coalesced, "count");
        metrics.set("serve.rejected", served.rejected, "count");
        metrics.set("setup.fleet_start_ms", quantile(fleetMs, 0.5), "ms");
        metrics.set("setup.mapspace_build_ms", quantile(buildMs, 0.5),
                    "ms");
        metrics.set("trace.overhead_ratio", overhead, "ratio");
        metrics.set("gen.lag_ms_p99", lagP99, "ms");
        const auto self = Tracer::global().selfMsByLayer();
        for (const char *layer : {"driver", "search", "model", "mapspace",
                                  "serve.codec", "serve.frontend", "gen"}) {
            const auto it = self.find(layer);
            metrics.set(std::string("trace.self_ms.") + layer,
                        it == self.end() ? 0.0 : it->second, "ms");
        }
        metrics.set("trace.spans",
                    static_cast<double>(Tracer::global().size()), "count");
        metrics.set("samples.search_ms",
                    static_cast<double>(searchSamples), "count");
        metrics.set("samples.lat.low", static_cast<double>(sampleCount(lat[0])),
                    "count");
        metrics.set("samples.lat.high",
                    static_cast<double>(sampleCount(lat[1])), "count");
        const std::string path = args.outDir + "/trace-" + w.name + "-" +
                                 std::to_string(args.seed) + ".jsonl";
        if (!Tracer::global().write(path))
            std::cerr << "perfbench: could not write " << path << "\n";
    }

    using ruby::serve::JsonValue;
    JsonValue result = JsonValue::makeObject();
    result.set("correct", JsonValue::makeBool(ledger.correct));
    result.set("attempted", JsonValue::makeU64(ledger.attempted));
    result.set("failed", JsonValue::makeU64(ledger.failed));
    JsonValue jm = JsonValue::makeObject();
    for (const auto &[name, vu] : metrics.all()) {
        JsonValue m = JsonValue::makeObject();
        m.set("value", JsonValue::makeDouble(vu.first));
        m.set("unit", JsonValue::makeString(vu.second));
        jm.set(name, std::move(m));
    }
    result.set("metrics", std::move(jm));
    std::cout << ruby::serve::writeJson(result) << std::endl;
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(perfbench::parseArgs(argc, argv));
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
