#include "ruby/serve/server.hpp"

#include "ruby/common/error.hpp"
#include "ruby/core/mapper.hpp"
#include "ruby/io/loaders.hpp"

namespace ruby
{
namespace serve
{

namespace
{

const Frontend::Tier kDaemonTier = {
    "serve",
    "ruby-served",
    "daemon",
    "daemon is shutting down",
    "admission queue full; retry later",
};

} // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      frontend_(options_, options_.maxInflight, kDaemonTier, *this,
                options_.responseCache
                    ? std::make_unique<ResponseCache>(
                          options_.responseCacheCapacity)
                    : nullptr)
{
}

Server::~Server()
{
    requestShutdown();
    waitForShutdown();
}

JsonValue
Server::handle(const Request &request, const std::string &)
{
    return request.type == RequestType::Map ? runMap(request)
                                            : runNet(request);
}

void
Server::addHealth(Health &health) const
{
    health.layerMemoEntries = layerMemo_.stats().entries;
}

void
Server::drainBudgetExpired()
{
    frontend_.log("drain budget expired; cancelling inflight work");
    drainCancel_.requestCancel();
}

void
Server::prepareSearchOptions(SearchOptions &search)
{
    search.cancel = &drainCancel_;
    search.sharedLayerMemo = &layerMemo_;
}

JsonValue
Server::runMap(const Request &request)
{
    const auto begin = std::chrono::steady_clock::now();
    Mapper mapper = loadMapper(request.configText);
    SearchOptions search = request.search;
    prepareSearchOptions(search);
    const LayerOutcome outcome =
        searchLayer(mapper.problem(), mapper.arch(), request.preset,
                    request.variant, search, request.pad);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin);
    recordStrategy(search.strategy, outcome.evaluated, elapsed);

    const int code = outcome.found ? kCodeOk
                                   : failureCode(outcome.failure);
    JsonValue out = makeResponse("result", request.id, code);
    out.set("outcome", layerOutcomeToJson(outcome));
    return out;
}

JsonValue
Server::runNet(const Request &request)
{
    const auto begin = std::chrono::steady_clock::now();
    const std::vector<Layer> layers =
        request.suite.empty() ? request.layers
                              : suiteLayers(request.suite);
    const ArchSpec arch = archByName(request.arch);
    SearchOptions search = request.search;
    prepareSearchOptions(search);
    const NetworkOutcome net =
        searchNetwork(layers, arch, request.preset, request.variant,
                      search, request.pad);
    std::uint64_t evaluations = 0;
    for (const LayerOutcome &layer : net.layers)
        evaluations += layer.evaluated;
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin);
    recordStrategy(search.strategy, evaluations, elapsed);

    const int code = net.allFound ? kCodeOk : kCodePartial;
    JsonValue out = makeResponse("result", request.id, code);
    out.set("net", networkOutcomeToJson(net));
    return out;
}

void
Server::recordStrategy(SearchStrategy strategy,
                       std::uint64_t evaluations,
                       std::chrono::microseconds elapsed)
{
    {
        std::lock_guard<std::mutex> lock(strategyMutex_);
        StrategyStats &s =
            strategyStats_[static_cast<std::size_t>(strategy)];
        ++s.requests;
        s.evaluations += evaluations;
        s.millis +=
            static_cast<std::uint64_t>(elapsed.count()) / 1000u;
    }
    frontend_.recordLatency(elapsed);
}

JsonValue
Server::statsJson() const
{
    JsonValue out = JsonValue::makeObject();
    out.set("uptimeMs", JsonValue::makeU64(frontend_.uptimeMs()));

    const Frontend::Counters counters = frontend_.counters();
    const Admission::Snapshot gate = frontend_.admission();
    JsonValue requests = JsonValue::makeObject();
    requests.set("received", JsonValue::makeU64(counters.received));
    requests.set("completed", JsonValue::makeU64(counters.completed));
    requests.set("errors", JsonValue::makeU64(counters.errors));
    requests.set("connectionsAccepted",
                 JsonValue::makeU64(counters.connectionsAccepted));
    requests.set("inflight", JsonValue::makeU64(gate.inflight));
    requests.set("queued", JsonValue::makeU64(gate.queued));
    requests.set("maxInflight",
                 JsonValue::makeU64(gate.maxInflight));
    requests.set("queueCapacity",
                 JsonValue::makeU64(gate.queueCapacity));
    requests.set("draining", JsonValue::makeBool(gate.draining));
    requests.set("admitted", JsonValue::makeU64(gate.admitted));
    requests.set("rejectedSaturated",
                 JsonValue::makeU64(gate.rejectedSaturated));
    requests.set("rejectedDraining",
                 JsonValue::makeU64(gate.rejectedDraining));
    out.set("requests", std::move(requests));
    out.set("latency", frontend_.latencyJson());

    const LayerMemo::Stats memo = layerMemo_.stats();
    JsonValue jmemo = JsonValue::makeObject();
    jmemo.set("hits", JsonValue::makeU64(memo.hits));
    jmemo.set("misses", JsonValue::makeU64(memo.misses));
    jmemo.set("inserts", JsonValue::makeU64(memo.inserts));
    jmemo.set("entries", JsonValue::makeU64(memo.entries));
    out.set("layerMemo", std::move(jmemo));

    out.set("responseCache", frontend_.responseCacheJson());

    JsonValue strategies = JsonValue::makeObject();
    {
        std::lock_guard<std::mutex> lock(strategyMutex_);
        static constexpr SearchStrategy kAll[] = {
            SearchStrategy::Random, SearchStrategy::Exhaustive,
            SearchStrategy::Genetic, SearchStrategy::Local,
            SearchStrategy::Optimal};
        for (const SearchStrategy strategy : kAll) {
            const StrategyStats &s =
                strategyStats_[static_cast<std::size_t>(strategy)];
            if (s.requests == 0)
                continue;
            JsonValue js = JsonValue::makeObject();
            js.set("requests", JsonValue::makeU64(s.requests));
            js.set("evaluations",
                   JsonValue::makeU64(s.evaluations));
            js.set("millis", JsonValue::makeU64(s.millis));
            js.set("evalsPerSec",
                   JsonValue::makeDouble(
                       s.millis != 0
                           ? static_cast<double>(s.evaluations) *
                                 1000.0 /
                                 static_cast<double>(s.millis)
                           : static_cast<double>(s.evaluations) *
                                 1000.0));
            strategies.set(strategyWireName(strategy),
                           std::move(js));
        }
    }
    out.set("strategies", std::move(strategies));
    return out;
}

} // namespace serve
} // namespace ruby
