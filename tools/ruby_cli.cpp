/**
 * @file
 * Command-line front end.
 *
 *   ruby-map map <config.yaml> [overrides]   run a mapping search
 *   ruby-map net <suite> [overrides]         search a whole network
 *   ruby-map count <dim> [options]           mapspace sizes (Table I)
 *   ruby-map suites                          list built-in workloads
 *   ruby-map serve [options]                 run the mapping daemon
 *   ruby-map route [options]                 front a daemon fleet
 *   ruby-map remote <conn> <action>          talk to a running daemon
 *   ruby-map --version                       build version and commit
 *
 * `map` overrides: --mapspace pfm|ruby|ruby-s|ruby-t,
 * --objective edp|energy|delay, --constraints <preset>, --evals N,
 * --streak N, --seed N, --threads N, --restarts N (random-search
 * restarts; local-search climbing starts),
 * --time-budget MS (wall-clock cap for the search),
 * --strategy random|exhaustive|genetic|local|optimal (search
 * algorithm; `optimal` is certified branch-and-bound — see
 * docs/PERFORMANCE.md "Certified-optimal search"),
 * --islands N (genetic sub-populations),
 * --[no-]bound-pruning (objective lower-bound prune; on by default),
 * --[no-]incremental (delta evaluation engine; on by default),
 * --pad, --yaml (machine-readable output instead of the human
 * report). See docs/PERFORMANCE.md for the fast-path knobs.
 *
 * `net` suites: resnet50 | deepbench | alexnet; --arch eyeriss|simba
 * picks the preset architecture (Eyeriss-like by default); takes the
 * same search overrides plus --network-budget MS (wall-clock cap for
 * the whole sweep, split across layers), --net-threads N (with
 * --threads, the sweep's thread budget --net-threads x --threads,
 * spent on concurrent layer searches before any one layer is split)
 * and --[no-]layer-memo (search each distinct layer shape once; on
 * by default). Failed layers are reported in the
 * summary; the sweep never aborts the process.
 *
 * `count` options: --fanout N (default 9), --spad-words N (tile cap
 * for the valid-PFM column; default 512).
 *
 * `serve` runs ruby-served, the persistent mapping daemon (warm
 * shared caches, admission control, graceful drain on SIGTERM — see
 * docs/SERVING.md): --unix PATH or --host H --port N (port 0 binds an
 * ephemeral port and logs it), --max-inflight N, --queue-capacity N,
 * --drain-budget MS, --[no-]response-cache, --response-cache-capacity
 * N, --quiet.
 *
 * `route` runs ruby-router, the consistent-hash front for a fleet of
 * daemons (see docs/SERVING.md "Fleet topology"): repeatable
 * --backend unix:PATH|HOST:PORT names the fleet; --unix/--host/--port
 * bind the front socket; --replicas N (virtual nodes per backend),
 * --load-factor X (bounded-load skip threshold), --health-interval MS
 * (backend ping cadence), --forwarders N, --queue-capacity N,
 * --retry N / --retry-budget MS (per-forward retry schedule),
 * --drain-budget MS, --quiet. A `remote` client pointed at the router
 * sees byte-identical results to talking to a daemon directly;
 * `remote stats` returns the aggregated fleet report.
 *
 * `remote` sends one request to a running daemon over --unix PATH or
 * --host H --port N, then renders the result exactly as the offline
 * subcommand would: remote map/net take the same overrides as their
 * offline twins; remote stats prints the daemon's counters as JSON;
 * remote ping probes the daemon and prints its health gauges
 * (admission pressure, drain state, warm caches); remote shutdown
 * drains it. --retry N / --retry-budget MS enable client-side
 * retries of connection failures and saturation (code 7) rejections
 * with exponential backoff + jitter; the default is a single attempt,
 * so retry-free output is byte-identical to earlier releases.
 *
 * Exit codes: 0 = success (all layers mapped), 1 = user/config error,
 * 2 = usage, 3 = no valid mapping found, 4 = time budget expired with
 * no mapping, 5 = partial network result (some layers failed),
 * 6 = internal search failure (e.g. injected fault) or an
 * unreachable daemon (`remote` prints an actionable hint), 7 =
 * rejected by a saturated or draining daemon (`remote` only).
 * Unknown flags on any subcommand exit 2 with the usage text.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ruby/ruby.hpp"
#include "ruby/serve/client.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/serve/router.hpp"
#include "ruby/serve/server.hpp"

#ifndef RUBY_VERSION_STRING
#define RUBY_VERSION_STRING "0.0.0"
#endif
#ifndef RUBY_GIT_COMMIT
#define RUBY_GIT_COMMIT "unknown"
#endif

namespace
{

using namespace ruby;

/** Exit codes shared by the subcommands (documented above). */
constexpr int kExitOk = 0;
constexpr int kExitUserError = 1;
constexpr int kExitUsage = 2;
constexpr int kExitNoMapping = 3;
constexpr int kExitDeadline = 4;
constexpr int kExitPartial = 5;
constexpr int kExitInternal = 6;
constexpr int kExitRejected = 7;

/** Thrown for malformed invocations (unknown flags, bad argument
 *  shapes); main() prints the message plus the usage text and exits
 *  2, distinguishing caller mistakes from config/search errors. */
struct UsageError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

[[noreturn]] void
unknownFlag(const std::string &flag)
{
    throw UsageError("unknown flag '" + flag + "'");
}

int
usage()
{
    std::cerr
        << "usage:\n"
           "  ruby-map map <config.yaml> [--mapspace V] [--objective"
           " O]\n"
           "          [--constraints P] [--evals N] [--streak N]"
           " [--seed N]\n"
           "          [--threads N] [--restarts N] [--time-budget MS]\n"
           "          [--[no-]bound-pruning] [--[no-]incremental]\n"
           "          [--strategy"
           " random|exhaustive|genetic|local|optimal]\n"
           "          [--islands N] [--pad] [--yaml]\n"
           "  ruby-map net <resnet50|deepbench|alexnet> [map"
           " overrides]\n"
           "          [--arch eyeriss|simba] [--network-budget MS]\n"
           "          [--net-threads N] [--[no-]layer-memo]\n"
           "          (thread budget: --net-threads x --threads,"
           " layers first)\n"
           "  ruby-map count <dim> [--fanout N] [--spad-words N]\n"
           "  ruby-map suites\n"
           "  ruby-map serve [--unix PATH | --host H --port N]\n"
           "          [--max-inflight N] [--queue-capacity N]\n"
           "          [--drain-budget MS] [--[no-]response-cache]\n"
           "          [--response-cache-capacity N] [--quiet]\n"
           "  ruby-map route --backend (unix:PATH | HOST:PORT) ...\n"
           "          [--unix PATH | --host H --port N]\n"
           "          [--replicas N] [--load-factor X]\n"
           "          [--health-interval MS] [--forwarders N]\n"
           "          [--queue-capacity N] [--retry N]\n"
           "          [--retry-budget MS] [--drain-budget MS]"
           " [--quiet]\n"
           "  ruby-map remote (--unix PATH | --host H --port N)\n"
           "          [--retry N] [--retry-budget MS]\n"
           "          ( map <config.yaml> [map overrides]\n"
           "          | net <suite> [net overrides]\n"
           "          | stats | ping | shutdown )\n"
           "  ruby-map --version\n"
           "exit codes: 0 ok, 1 user error, 2 usage, 3 no mapping,\n"
           "            4 deadline, 5 partial network, 6 internal\n"
           "            (incl. cannot reach the daemon),\n"
           "            7 rejected by a saturated/draining daemon\n";
    return kExitUsage;
}

std::uint64_t
parseU64Arg(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        RUBY_FATAL(flag, ": '", value, "' is not an integer");
    return static_cast<std::uint64_t>(v);
}

/** Map a failed layer/mapper outcome to the process exit code. */
int
failureExitCode(FailureKind kind)
{
    switch (kind) {
      case FailureKind::None:
        return kExitOk;
      case FailureKind::InvalidConfig:
        return kExitUserError;
      case FailureKind::NoValidMapping:
        return kExitNoMapping;
      case FailureKind::DeadlineExceeded:
        return kExitDeadline;
      case FailureKind::InternalError:
        return kExitInternal;
    }
    return kExitInternal;
}

/**
 * Consume one search-override flag shared by `map` and `net`.
 * Returns false when the flag is not a search override.
 */
bool
applySearchFlag(const std::string &flag, SearchOptions &search,
                const std::vector<std::string> &args, std::size_t &i)
{
    auto next = [&]() -> const std::string & {
        RUBY_CHECK(i + 1 < args.size(), flag, " expects an argument");
        return args[++i];
    };
    if (flag == "--objective")
        search.objective = parseObjective(next(), flag);
    else if (flag == "--evals")
        search.maxEvaluations = parseU64Arg(flag, next());
    else if (flag == "--streak")
        search.terminationStreak = parseU64Arg(flag, next());
    else if (flag == "--seed")
        search.seed = parseU64Arg(flag, next());
    else if (flag == "--threads")
        search.threads =
            static_cast<unsigned>(parseU64Arg(flag, next()));
    else if (flag == "--restarts")
        search.restarts =
            static_cast<unsigned>(parseU64Arg(flag, next()));
    else if (flag == "--time-budget")
        search.timeBudget =
            std::chrono::milliseconds(parseU64Arg(flag, next()));
    else if (flag == "--network-budget")
        search.networkTimeBudget =
            std::chrono::milliseconds(parseU64Arg(flag, next()));
    else if (flag == "--bound-pruning")
        search.boundPruning = true;
    else if (flag == "--no-bound-pruning")
        search.boundPruning = false;
    else if (flag == "--incremental")
        search.incremental = true;
    else if (flag == "--no-incremental")
        search.incremental = false;
    else if (flag == "--strategy") {
        // An unknown strategy is a usage mistake (exit 2 with the
        // usage text), not the generic config error the protocol
        // parser raises.
        const std::string name = next();
        try {
            search.strategy = serve::parseStrategy(name);
        } catch (const Error &) {
            throw UsageError(
                "unknown strategy '" + name +
                "' (random | exhaustive | genetic | local |"
                " optimal)");
        }
    }
    else if (flag == "--islands")
        search.islands =
            static_cast<unsigned>(parseU64Arg(flag, next()));
    else if (flag == "--net-threads")
        search.networkThreads =
            static_cast<unsigned>(parseU64Arg(flag, next()));
    else if (flag == "--layer-memo")
        search.layerMemo = true;
    else if (flag == "--no-layer-memo")
        search.layerMemo = false;
    else
        return false;
    return true;
}

/**
 * Render one mapping-search result exactly as `map` always has; the
 * remote path feeds a wire-decoded outcome through the same function,
 * which is what makes remote output byte-identical to offline output.
 */
int
reportMapResult(const Problem &problem, const ArchSpec &arch,
                const MapperResult &result, bool yaml)
{
    if (!result.found) {
        if (!result.statsNote.empty())
            std::cerr << "warning: " << result.statsNote << "\n";
        std::cerr << "search failed ["
                  << failureKindName(result.failure)
                  << "]: " << result.diagnostic << "\n";
        return failureExitCode(result.failure);
    }
    if (yaml) {
        writeResultYaml(std::cout, problem, arch, result.eval);
        return kExitOk;
    }
    std::cout << "evaluated " << result.evaluated << " mappings ("
              << result.stats.modeled << " fully modeled, "
              << result.stats.invalid << " invalid, "
              << result.stats.prunedBound << " bound-pruned)\n";
    // Mirrors the network report: printed only when the incremental
    // engine actually served candidates, so engine-free runs stay
    // byte-identical to pre-engine output.
    if (result.stats.deltaAttempts > 0)
        std::cout << "delta eval: " << result.stats.deltaHits
                  << " incremental, " << result.stats.deltaFallbacks
                  << " fallbacks (" << result.stats.deltaRebases
                  << " rebases)\n";
    // Likewise for the batch engine: batch-free runs keep their
    // historical output byte-identical.
    if (result.stats.batchCalls > 0)
        std::cout << "batch eval: " << result.stats.batchedEvals
                  << " batched over " << result.stats.batchCalls
                  << " batches (" << result.stats.batchRejects
                  << " rejects)\n";
    if (!result.statsNote.empty())
        std::cout << "warning: " << result.statsNote << "\n";
    if (result.timedOut)
        std::cout << "time budget expired; reporting the best "
                     "mapping found so far\n";
    // Printed only by gap-tracking strategies (optimal), so every
    // other strategy's output stays byte-identical.
    if (result.certified)
        std::cout << "certified optimal: complete branch-and-bound"
                     " (gap 0 %)\n";
    else if (result.gapPercent >= 0.0) {
        std::ostringstream gap;
        gap << std::fixed << std::setprecision(2)
            << result.gapPercent;
        std::cout << "optimality gap: <= " << gap.str()
                  << " % (search stopped before certification)\n";
    }
    std::cout << "best mapping:\n" << result.mappingText << "\n";
    printReport(std::cout, problem, arch, result.eval);
    return kExitOk;
}

/** Wire-decoded layer outcome in MapperResult form (same copy the
 *  Mapper facade performs), so remote and offline share one
 *  rendering path. */
MapperResult
toMapperResult(const LayerOutcome &outcome)
{
    MapperResult res;
    res.found = outcome.found;
    res.eval = outcome.result;
    res.mappingText = outcome.bestMapping;
    res.evaluated = outcome.evaluated;
    res.stats = outcome.stats;
    res.failure = outcome.failure;
    res.diagnostic = outcome.diagnostic;
    res.timedOut = outcome.timedOut;
    res.certified = outcome.certified;
    res.gapPercent = outcome.gapPercent;
    res.statsNote = outcome.statsNote;
    return res;
}

/** Read a whole file or fail with a user error. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    RUBY_CHECK(in, "cannot open ", path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/**
 * Parse the `map` argument list shared by the offline and remote
 * paths: loads the config, applies overrides onto the mapper config
 * and reports whether --yaml was requested.
 */
Mapper
parseMapArgs(const std::vector<std::string> &args, bool &yaml,
             std::string &configText)
{
    configText = readFile(args[0]);
    Mapper mapper = loadMapper(configText);
    yaml = false;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &flag = args[i];
        auto next = [&]() -> const std::string & {
            RUBY_CHECK(i + 1 < args.size(), flag,
                       " expects an argument");
            return args[++i];
        };
        if (applySearchFlag(flag, mapper.config().search, args, i))
            continue;
        if (flag == "--mapspace")
            mapper.config().variant = parseVariant(next(), flag);
        else if (flag == "--constraints")
            mapper.config().preset = parsePreset(next(), flag);
        else if (flag == "--pad")
            mapper.config().pad = true;
        else if (flag == "--yaml")
            yaml = true;
        else
            unknownFlag(flag);
    }
    return mapper;
}

int
runMap(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    bool yaml = false;
    std::string configText;
    Mapper mapper = parseMapArgs(args, yaml, configText);
    const MapperResult result = mapper.run();
    return reportMapResult(mapper.problem(), mapper.arch(), result,
                           yaml);
}

/** The `net` argument list decoded once for offline and remote. */
struct NetArgs
{
    std::string suite;
    std::string arch = "eyeriss";
    MapspaceVariant variant = MapspaceVariant::RubyS;
    ConstraintPreset preset = ConstraintPreset::EyerissRS;
    bool pad = false;
    SearchOptions search;
};

NetArgs
parseNetArgs(const std::vector<std::string> &args)
{
    NetArgs net;
    net.suite = args[0];
    net.search.terminationStreak = 1200;
    net.search.maxEvaluations = 40'000;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &flag = args[i];
        auto next = [&]() -> const std::string & {
            RUBY_CHECK(i + 1 < args.size(), flag,
                       " expects an argument");
            return args[++i];
        };
        if (applySearchFlag(flag, net.search, args, i))
            continue;
        if (flag == "--mapspace")
            net.variant = parseVariant(next(), flag);
        else if (flag == "--constraints")
            net.preset = parsePreset(next(), flag);
        else if (flag == "--arch")
            net.arch = next();
        else if (flag == "--pad")
            net.pad = true;
        else
            unknownFlag(flag);
    }
    return net;
}

int
runNet(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const NetArgs parsed = parseNetArgs(args);
    const std::vector<Layer> layers = serve::suiteLayers(parsed.suite);
    const ArchSpec arch = serve::archByName(parsed.arch);
    const NetworkOutcome net =
        searchNetwork(layers, arch, parsed.preset, parsed.variant,
                      parsed.search, parsed.pad);
    printNetworkSummary(std::cout, net);
    return net.allFound ? kExitOk : kExitPartial;
}

int
runCount(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    const std::uint64_t dim = parseU64Arg("dim", args[0]);
    std::uint64_t fanout = 9;
    std::uint64_t spad_words = 512;
    for (std::size_t i = 1; i < args.size(); ++i) {
        const std::string &flag = args[i];
        auto next = [&]() -> const std::string & {
            RUBY_CHECK(i + 1 < args.size(), flag,
                       " expects an argument");
            return args[++i];
        };
        if (flag == "--fanout")
            fanout = parseU64Arg(flag, next());
        else if (flag == "--spad-words")
            spad_words = parseU64Arg(flag, next());
        else
            unknownFlag(flag);
    }

    auto rules = [&](bool sp, bool tp) {
        return std::vector<SlotRule>{SlotRule{0, tp},
                                     SlotRule{fanout, sp},
                                     SlotRule{0, tp}};
    };
    Table table({"space", "chains"});
    table.setTitle("mapspace sizes for D=" + std::to_string(dim) +
                   ", fanout " + std::to_string(fanout));
    table.addRow({"PFM (all)",
                  formatCompact(countChains(
                      dim, {SlotRule{0, false}, SlotRule{0, false},
                            SlotRule{0, false}}))});
    table.addRow({"PFM (valid)",
                  formatCompact(countPerfectValid(
                      dim, rules(false, false), 1, spad_words))});
    table.addRow({"Ruby-S",
                  formatCompact(countChains(dim, rules(true, false)))});
    table.addRow({"Ruby-T",
                  formatCompact(countChains(dim, rules(false, true)))});
    table.addRow({"Ruby",
                  formatCompact(countChains(dim, rules(true, true)))});
    table.print(std::cout);
    return kExitOk;
}

int
runSuites(const std::vector<std::string> &args)
{
    if (!args.empty())
        unknownFlag(args[0]);
    Table table({"suite", "layer", "group", "MACs"});
    table.setTitle("built-in workload suites");
    for (const Layer &layer : resnet50Layers())
        table.addRow({"resnet50", layer.shape.name, layer.group,
                      formatCompact(static_cast<double>(
                          makeConv(layer.shape).totalOperations()))});
    for (const Layer &layer : deepbenchLayers())
        table.addRow({"deepbench", layer.shape.name, layer.group,
                      formatCompact(static_cast<double>(
                          makeConv(layer.shape).totalOperations()))});
    const ConvShape alex = alexnetLayer2();
    table.addRow({"alexnet", alex.name, "conv",
                  formatCompact(static_cast<double>(
                      makeConv(alex).totalOperations()))});
    table.print(std::cout);
    return kExitOk;
}

/**
 * Consume one front-socket flag shared by `serve` and `route`:
 * --unix, --host, --port, --queue-capacity, --drain-budget, --quiet.
 * Returns false when the flag is not one of them.
 */
bool
applyFrontendFlag(const std::string &flag,
                  serve::FrontendOptions &options,
                  const std::vector<std::string> &args, std::size_t &i)
{
    auto next = [&]() -> const std::string & {
        RUBY_CHECK(i + 1 < args.size(), flag, " expects an argument");
        return args[++i];
    };
    if (flag == "--unix")
        options.unixPath = next();
    else if (flag == "--host")
        options.host = next();
    else if (flag == "--port")
        // Clamped, not truncated: the bind rejects anything past
        // 65535 instead of wrapping it onto some other port.
        options.port = static_cast<int>(
            std::min<std::uint64_t>(parseU64Arg(flag, next()), 65536));
    else if (flag == "--queue-capacity")
        options.queueCapacity =
            static_cast<std::size_t>(parseU64Arg(flag, next()));
    else if (flag == "--drain-budget")
        options.drainBudget =
            std::chrono::milliseconds(parseU64Arg(flag, next()));
    else if (flag == "--quiet")
        options.logLifecycle = false;
    else
        return false;
    return true;
}

int
runServe(const std::vector<std::string> &args)
{
    serve::ServeOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        auto next = [&]() -> const std::string & {
            RUBY_CHECK(i + 1 < args.size(), flag,
                       " expects an argument");
            return args[++i];
        };
        if (applyFrontendFlag(flag, options, args, i))
            continue;
        if (flag == "--max-inflight")
            options.maxInflight =
                static_cast<unsigned>(parseU64Arg(flag, next()));
        else if (flag == "--response-cache")
            options.responseCache = true;
        else if (flag == "--no-response-cache")
            options.responseCache = false;
        else if (flag == "--response-cache-capacity")
            options.responseCacheCapacity =
                static_cast<std::size_t>(parseU64Arg(flag, next()));
        else
            unknownFlag(flag);
    }

    serve::Server server(options);
    server.start();
    serve::Server::installSignalDrain(server);
    server.waitForShutdown();
    return kExitOk;
}

/** Parse a --backend spec: "unix:PATH" or "HOST:PORT" (bare ":PORT"
 *  means 127.0.0.1). */
serve::Endpoint
parseBackendSpec(const std::string &spec)
{
    serve::Endpoint endpoint;
    if (spec.rfind("unix:", 0) == 0) {
        endpoint.unixPath = spec.substr(5);
        RUBY_CHECK(!endpoint.unixPath.empty(),
                   "--backend: empty unix socket path in '", spec,
                   "'");
        return endpoint;
    }
    const std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos)
        throw UsageError("--backend expects unix:PATH or HOST:PORT, "
                         "got '" +
                         spec + "'");
    if (colon > 0)
        endpoint.host = spec.substr(0, colon);
    endpoint.port = static_cast<int>(
        parseU64Arg("--backend", spec.substr(colon + 1)));
    RUBY_CHECK(endpoint.port > 0 && endpoint.port < 65536,
               "--backend: port out of range in '", spec, "'");
    return endpoint;
}

int
runRoute(const std::vector<std::string> &args)
{
    serve::RouterOptions options;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        auto next = [&]() -> const std::string & {
            RUBY_CHECK(i + 1 < args.size(), flag,
                       " expects an argument");
            return args[++i];
        };
        if (applyFrontendFlag(flag, options, args, i))
            continue;
        if (flag == "--backend")
            options.backends.push_back(parseBackendSpec(next()));
        else if (flag == "--replicas")
            options.replicas =
                static_cast<unsigned>(parseU64Arg(flag, next()));
        else if (flag == "--load-factor") {
            const std::string &value = next();
            char *end = nullptr;
            options.loadFactor = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0')
                RUBY_FATAL(flag, ": '", value, "' is not a number");
        } else if (flag == "--health-interval")
            options.healthInterval =
                std::chrono::milliseconds(parseU64Arg(flag, next()));
        else if (flag == "--forwarders")
            options.maxForwards =
                static_cast<unsigned>(parseU64Arg(flag, next()));
        else if (flag == "--retry") {
            options.retry.attempts =
                static_cast<int>(parseU64Arg(flag, next()));
            RUBY_CHECK(options.retry.attempts >= 1,
                       "--retry: need at least one attempt");
        } else if (flag == "--retry-budget")
            options.retry.budget =
                std::chrono::milliseconds(parseU64Arg(flag, next()));
        else
            unknownFlag(flag);
    }
    if (options.backends.empty())
        throw UsageError(
            "route needs at least one --backend unix:PATH|HOST:PORT");

    serve::Router router(std::move(options));
    router.start();
    serve::Router::installSignalDrain(router);
    router.waitForShutdown();
    return kExitOk;
}

/** The `remote` connection settings: where the daemon lives and how
 *  hard to try reaching it. */
struct RemoteConn
{
    serve::Endpoint endpoint;
    serve::RetryPolicy retry; ///< defaults to a single attempt
};

/** Parse the --unix/--host/--port/--retry/--retry-budget flags from
 *  the front of @p args; @p i is left at the first unconsumed token.
 *  The retry policy defaults to one attempt, so plain invocations
 *  keep their historical single-shot behavior (and byte-identical
 *  output). */
RemoteConn
parseRemoteConn(const std::vector<std::string> &args, std::size_t &i)
{
    RemoteConn conn;
    bool endpointGiven = false;
    while (i < args.size() && args[i].rfind("--", 0) == 0) {
        const std::string &flag = args[i];
        auto next = [&]() -> const std::string & {
            RUBY_CHECK(i + 1 < args.size(), flag,
                       " expects an argument");
            return args[++i];
        };
        if (flag == "--unix") {
            conn.endpoint.unixPath = next();
            endpointGiven = true;
        } else if (flag == "--host") {
            conn.endpoint.host = next();
        } else if (flag == "--port") {
            conn.endpoint.port =
                static_cast<int>(parseU64Arg(flag, next()));
            endpointGiven = true;
        } else if (flag == "--retry") {
            conn.retry.attempts = static_cast<int>(
                parseU64Arg(flag, next()));
            RUBY_CHECK(conn.retry.attempts >= 1,
                       "--retry: need at least one attempt");
        } else if (flag == "--retry-budget") {
            conn.retry.budget = std::chrono::milliseconds(
                parseU64Arg(flag, next()));
        } else {
            unknownFlag(flag);
        }
        ++i;
    }
    if (!endpointGiven)
        throw UsageError("remote needs --unix PATH or --port N");
    return conn;
}

/** Render the health payload of a pong, one gauge line under the
 *  classic "pong" (absent on pre-health daemons). */
void
printPingHealth(const serve::JsonValue &response)
{
    const serve::JsonValue *payload = response.find("health");
    if (payload == nullptr)
        return;
    const serve::Health health = serve::healthFromJson(*payload);
    std::cout << "health: "
              << (health.draining ? "draining" : "accepting")
              << " inflight=" << health.inflight << "/"
              << health.maxInflight << " queued=" << health.queued
              << "/" << health.queueCapacity
              << " uptime-ms=" << health.uptimeMs
              << " layer-memo-entries=" << health.layerMemoEntries
              << " response-cache-entries="
              << health.responseCacheEntries
              << " response-cache-hit-rate="
              << health.responseCacheHitRate
              << " coalesced-inflight=" << health.coalescedInflight
              << "\n";
}

/** Exit code for a {"type":"error"} response after printing it. */
int
reportRemoteError(const serve::JsonValue &response)
{
    std::cerr << "error ["
              << response.getString("kind", "unknown") << "]: "
              << response.getString("message", "") << "\n";
    const std::uint64_t code = response.getU64("code", kExitInternal);
    return static_cast<int>(code);
}

bool
isErrorResponse(const serve::JsonValue &response)
{
    const serve::JsonValue *type = response.find("type");
    return type == nullptr || type->string == "error";
}

int
runRemote(const std::vector<std::string> &args)
{
    std::size_t i = 0;
    const RemoteConn conn = parseRemoteConn(args, i);
    if (i >= args.size())
        throw UsageError(
            "remote needs an action: map|net|stats|ping|shutdown");
    const std::string action = args[i++];
    std::vector<std::string> rest(args.begin() +
                                      static_cast<std::ptrdiff_t>(i),
                                  args.end());

    serve::Request request;
    request.id = "cli";
    bool yaml = false;
    // Local mapper mirror for rendering remote `map` results (the
    // report needs the problem and architecture, which never cross
    // the wire).
    std::unique_ptr<Mapper> mapper;

    if (action == "ping")
        request.type = serve::RequestType::Ping;
    else if (action == "stats")
        request.type = serve::RequestType::Stats;
    else if (action == "shutdown")
        request.type = serve::RequestType::Shutdown;
    else if (action == "map") {
        if (rest.empty())
            return usage();
        request.type = serve::RequestType::Map;
        mapper = std::make_unique<Mapper>(
            parseMapArgs(rest, yaml, request.configText));
        request.variant = mapper->config().variant;
        request.preset = mapper->config().preset;
        request.pad = mapper->config().pad;
        request.search = mapper->config().search;
    } else if (action == "net") {
        if (rest.empty())
            return usage();
        request.type = serve::RequestType::Net;
        const NetArgs parsed = parseNetArgs(rest);
        request.suite = parsed.suite;
        request.arch = parsed.arch;
        request.variant = parsed.variant;
        request.preset = parsed.preset;
        request.pad = parsed.pad;
        request.search = parsed.search;
    } else {
        throw UsageError("unknown remote action '" + action + "'");
    }

    serve::Client client =
        serve::Client::connectWithRetry(conn.endpoint, conn.retry);
    const serve::JsonValue response = client.callWithRetry(
        serve::encodeRequest(request), conn.retry);
    if (isErrorResponse(response))
        return reportRemoteError(response);

    switch (request.type) {
      case serve::RequestType::Ping:
        std::cout << "pong\n";
        printPingHealth(response);
        return kExitOk;
      case serve::RequestType::Stats:
        std::cout << serve::writeJson(response.at("stats")) << "\n";
        return kExitOk;
      case serve::RequestType::Shutdown:
        std::cout << "shutdown requested; daemon is draining\n";
        return kExitOk;
      case serve::RequestType::Map: {
        const LayerOutcome outcome =
            serve::layerOutcomeFromJson(response.at("outcome"));
        return reportMapResult(mapper->problem(), mapper->arch(),
                               toMapperResult(outcome), yaml);
      }
      case serve::RequestType::Net: {
        const NetworkOutcome net =
            serve::networkOutcomeFromJson(response.at("net"));
        printNetworkSummary(std::cout, net);
        return net.allFound ? kExitOk : kExitPartial;
      }
    }
    return kExitInternal;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string command = args.front();
    args.erase(args.begin());
    if (command == "--version" || command == "version") {
        std::cout << "ruby-map " << RUBY_VERSION_STRING << " ("
                  << RUBY_GIT_COMMIT << ")\n";
        return kExitOk;
    }
    try {
        if (command == "map")
            return runMap(args);
        if (command == "net")
            return runNet(args);
        if (command == "count")
            return runCount(args);
        if (command == "suites")
            return runSuites(args);
        if (command == "serve")
            return runServe(args);
        if (command == "route")
            return runRoute(args);
        if (command == "remote")
            return runRemote(args);
    } catch (const UsageError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return usage();
    } catch (const serve::ConnectError &e) {
        std::cerr << "error: " << e.what() << "\n"
                  << "hint: is the daemon running at " << e.address()
                  << "? start one with `ruby-map serve`, or check "
                     "the --unix/--host/--port flags\n";
        return kExitInternal;
    } catch (const Error &e) {
        std::cerr << "error: " << e.what() << "\n";
        return kExitUserError;
    }
    return usage();
}
