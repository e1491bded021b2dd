#include "ruby/serve/router.hpp"

#include <algorithm>
#include <cmath>

#include "ruby/common/error.hpp"
#include "ruby/util/hash.hpp"

namespace ruby
{
namespace serve
{

namespace
{

/** Idle pooled connections kept per backend. */
constexpr std::size_t kMaxPooledConnections = 4;

const Frontend::Tier kRouterTier = {
    "router",
    "ruby-router",
    "process",
    "router is shutting down",
    "router queue full; retry later",
};

void
accumulateU64(const JsonValue &section, const char *key,
              std::uint64_t &total)
{
    total += section.getU64(key, 0);
}

} // namespace

// ---------------------------------------------------------------------------
// ConsistentRing

std::uint64_t
ConsistentRing::hashKey(const std::string &key)
{
    // FNV-1a 64: stable across platforms and standard libraries —
    // the ring layout is observable behavior (tests pin it and
    // operators reason about which shard owns which shape), so it
    // cannot depend on std::hash. The ring has always used its own
    // (non-canonical) seed — see kRingOffset — and the layout built
    // from it is frozen; hash_test.cpp pins the values.
    return hashing::fnv1aBytes(key, hashing::kRingOffset);
}

ConsistentRing::ConsistentRing(std::vector<std::string> nodes,
                               unsigned replicas)
    : nodes_(std::move(nodes))
{
    RUBY_CHECK(!nodes_.empty(), "consistent ring: no nodes");
    RUBY_CHECK(replicas >= 1, "consistent ring: replicas must be >= 1");
    ring_.reserve(nodes_.size() * replicas);
    for (std::size_t n = 0; n < nodes_.size(); ++n)
        for (unsigned r = 0; r < replicas; ++r)
            ring_.emplace_back(
                hashKey(nodes_[n] + "#" + std::to_string(r)), n);
    std::sort(ring_.begin(), ring_.end());
}

std::vector<std::size_t>
ConsistentRing::walk(const std::string &key) const
{
    std::vector<std::size_t> order;
    order.reserve(nodes_.size());
    std::vector<bool> seen(nodes_.size(), false);
    const std::uint64_t point = hashKey(key);
    const std::size_t start = static_cast<std::size_t>(
        std::lower_bound(ring_.begin(), ring_.end(),
                         std::make_pair(point, std::size_t{0})) -
        ring_.begin());
    for (std::size_t step = 0;
         step < ring_.size() && order.size() < nodes_.size(); ++step) {
        const std::size_t node =
            ring_[(start + step) % ring_.size()].second;
        if (!seen[node]) {
            seen[node] = true;
            order.push_back(node);
        }
    }
    return order;
}

std::size_t
ConsistentRing::pick(
    const std::string &key,
    const std::function<bool(std::size_t)> &accept) const
{
    for (const std::size_t node : walk(key))
        if (accept(node))
            return node;
    return nodes_.size();
}

// ---------------------------------------------------------------------------
// Router lifecycle

Router::Router(RouterOptions options)
    : options_(std::move(options)),
      frontend_(options_, options_.maxForwards, kRouterTier, *this)
{
    RUBY_CHECK(!options_.backends.empty(),
               "router: need at least one backend");
    RUBY_CHECK(options_.loadFactor >= 1.0,
               "router: loadFactor must be >= 1");
    std::vector<std::string> names;
    names.reserve(options_.backends.size());
    for (const Endpoint &endpoint : options_.backends) {
        names.push_back(endpoint.describe());
        auto state = std::make_unique<BackendState>();
        state->endpoint = endpoint;
        backends_.push_back(std::move(state));
    }
    ring_ =
        std::make_unique<ConsistentRing>(std::move(names),
                                         options_.replicas);
}

Router::~Router()
{
    requestShutdown();
    waitForShutdown();
}

void
Router::start()
{
    // First health sweep before serving: a backend that is down at
    // boot must not receive the first keys. All backends are probed
    // at once, so a slow or dead one delays boot by one probe only.
    {
        ThreadPool sweep(static_cast<unsigned>(backends_.size()));
        for (std::size_t i = 0; i < backends_.size(); ++i)
            sweep.submit([this, i] { checkBackend(i); });
        sweep.waitIdle();
    }
    frontend_.start(detail::composeMessage(" (", backends_.size(),
                                           " backends)"));
    // noexcept: an exception escaping the loop terminates the
    // process instead of waiting unseen in the pool.
    healthThread_ = std::make_unique<ThreadPool>(1);
    healthThread_->submit([this]() noexcept { healthLoop(); });
}

void
Router::waitForShutdown()
{
    // The frontend drains exactly like the daemon's, except that past
    // the budget inflight forwards are waited out, never cancelled
    // (drainBudgetExpired); the health thread then sees the request
    // and retires.
    frontend_.waitForShutdown();
    healthThread_.reset();
    for (std::size_t i = 0; i < backends_.size(); ++i)
        dropConnections(i);
}

void
Router::drainBudgetExpired()
{
    frontend_.log("drain budget expired; waiting for inflight forwards");
}

// ---------------------------------------------------------------------------
// Routing

std::string
Router::routingKey(const Request &request)
{
    // Architecture + shape only — never search options, so the same
    // workload with a different budget or strategy still lands on
    // the shard whose LayerMemo is warm for it.
    std::string key;
    if (request.type == RequestType::Map) {
        key = "map|";
        key += request.configText;
    } else {
        key = "net|";
        key += request.arch;
        key += '|';
        if (!request.suite.empty()) {
            key += request.suite;
        } else {
            // Numeric shape only, never the layer name — the layer
            // memo keys on numbers too, so a renamed copy of a hot
            // layer must land on the shard already warm for it.
            for (const Layer &layer : request.layers) {
                const ConvShape &s = layer.shape;
                for (const std::uint64_t dim :
                     {s.n, s.c, s.m, s.p, s.q, s.r, s.s, s.strideH,
                      s.strideW, s.dilationH, s.dilationW}) {
                    key += std::to_string(dim);
                    key += ',';
                }
                key += 'x';
                key += std::to_string(layer.count);
                key += '|';
            }
        }
    }
    key += '|';
    key += variantWireName(request.variant);
    key += '|';
    key += presetWireName(request.preset);
    key += request.pad ? "|pad" : "|nopad";
    return key;
}

std::size_t
Router::preferredBackend(const std::string &key) const
{
    return ring_->pick(key, [this](std::size_t i) {
        return backends_[i]->healthy.load() &&
               !backends_[i]->draining.load();
    });
}

std::size_t
Router::pickBackend(const std::string &key,
                    const std::vector<bool> &excluded) const
{
    unsigned healthyCount = 0;
    unsigned totalInflight = 0;
    for (const auto &backend : backends_) {
        if (backend->healthy.load() && !backend->draining.load()) {
            ++healthyCount;
            totalInflight += backend->inflight.load();
        }
    }
    if (healthyCount == 0)
        return backends_.size();
    // Bounded load: no backend may hold more than loadFactor times
    // the fair share of the inflight forwards (counting this one),
    // and always at least one.
    const unsigned bound = std::max(
        1u, static_cast<unsigned>(std::ceil(
                options_.loadFactor *
                static_cast<double>(totalInflight + 1) /
                static_cast<double>(healthyCount))));
    const auto usable = [&](std::size_t i) {
        return !excluded[i] && backends_[i]->healthy.load() &&
               !backends_[i]->draining.load();
    };
    const std::size_t bounded = ring_->pick(key, [&](std::size_t i) {
        return usable(i) && backends_[i]->inflight.load() < bound;
    });
    if (bounded < backends_.size())
        return bounded;
    // Everyone is over the bound (burst): prefer the ring's order
    // over rejecting outright.
    return ring_->pick(key, usable);
}

// ---------------------------------------------------------------------------
// Backend connection pool + health

Client
Router::takeConnection(std::size_t backend)
{
    BackendState &state = *backends_[backend];
    {
        std::lock_guard<std::mutex> lock(state.poolMutex);
        if (!state.pool.empty()) {
            Client client = std::move(state.pool.back());
            state.pool.pop_back();
            return client;
        }
    }
    return Client::connect(state.endpoint);
}

void
Router::storeConnection(std::size_t backend, Client &&client)
{
    BackendState &state = *backends_[backend];
    std::lock_guard<std::mutex> lock(state.poolMutex);
    if (state.pool.size() < kMaxPooledConnections)
        state.pool.push_back(std::move(client));
}

void
Router::dropConnections(std::size_t backend)
{
    BackendState &state = *backends_[backend];
    std::lock_guard<std::mutex> lock(state.poolMutex);
    state.pool.clear();
}

void
Router::healthLoop()
{
    while (!frontend_.waitForShutdownRequest(options_.healthInterval))
        for (std::size_t i = 0; i < backends_.size(); ++i)
            checkBackend(i);
}

void
Router::checkBackend(std::size_t index)
{
    BackendState &backend = *backends_[index];
    try {
        Client client = Client::connect(backend.endpoint);
        const Health health = client.ping();
        backend.draining.store(health.draining);
        const bool wasHealthy = backend.healthy.exchange(health.ok);
        if (!wasHealthy && health.ok)
            frontend_.log(detail::composeMessage(
                "backend ", backend.endpoint.describe(), " recovered"));
    } catch (const std::exception &) {
        if (backend.healthy.exchange(false)) {
            dropConnections(index);
            frontend_.log(detail::composeMessage(
                "backend ", backend.endpoint.describe(), " unhealthy"));
        }
    }
}

// ---------------------------------------------------------------------------
// Forwarding

JsonValue
Router::handle(const Request &request, const std::string &line)
{
    const auto begin = std::chrono::steady_clock::now();
    JsonValue response;
    try {
        response = forwardToFleet(routingKey(request), request.id, line);
    } catch (const std::exception &e) {
        response = makeErrorResponse(request.id, kCodeInternal,
                                     "internal", e.what());
    }
    frontend_.recordLatency(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin));
    return response;
}

JsonValue
Router::forwardToFleet(const std::string &key,
                       const std::string &requestId,
                       const std::string &line)
{
    // Forward the parsed request object — the codec is a fixpoint
    // (raw number tokens round-trip), so the re-encoded frame the
    // backend sees is byte-identical to what the client sent.
    const JsonValue request = parseJson(line);
    std::vector<bool> excluded(backends_.size(), false);
    std::string lastError = "no healthy backend";
    for (std::size_t attempt = 0; attempt < backends_.size();
         ++attempt) {
        const std::size_t index = pickBackend(key, excluded);
        if (index >= backends_.size())
            break;
        BackendState &backend = *backends_[index];
        backend.inflight.fetch_add(1, std::memory_order_relaxed);
        bool haveResponse = false;
        JsonValue response;
        try {
            Client client = takeConnection(index);
            response = client.callWithRetry(request, options_.retry);
            haveResponse = true;
            storeConnection(index, std::move(client));
        } catch (const std::exception &e) {
            // Connect failure, or a drop that outlived the retry
            // budget: the backend is gone — fail over. The health
            // loop readmits it when it answers pings again.
            backend.healthy.store(false);
            dropConnections(index);
            lastError = e.what();
        }
        backend.inflight.fetch_sub(1, std::memory_order_relaxed);
        if (haveResponse) {
            const JsonValue *code = response.find("code");
            const JsonValue *kind = response.find("kind");
            if (code != nullptr && code->asI64() == kCodeRejected &&
                kind != nullptr && kind->string == "draining") {
                // Rolling restart in progress: this shard is going
                // away; its keys re-hash onto the survivors.
                backend.draining.store(true);
                excluded[index] = true;
                ++reroutes_;
                lastError = "backend draining: " +
                            backend.endpoint.describe();
                continue;
            }
            backend.routed.fetch_add(1, std::memory_order_relaxed);
            return response;
        }
        excluded[index] = true;
        ++reroutes_;
    }
    return makeErrorResponse(requestId, kCodeInternal, "no-backend",
                             "no healthy backend available: " +
                                 lastError);
}

// ---------------------------------------------------------------------------
// The fleet report

JsonValue
Router::fleetStatsJson()
{
    JsonValue out = JsonValue::makeObject();
    out.set("uptimeMs", JsonValue::makeU64(frontend_.uptimeMs()));

    // Stats sweep over the healthy backends. A backend that fails
    // the sweep is marked unhealthy and reported without stats.
    std::vector<JsonValue> backendStats(backends_.size(),
                                        JsonValue::makeNull());
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        BackendState &backend = *backends_[i];
        if (!backend.healthy.load())
            continue;
        try {
            Client client = takeConnection(i);
            Request statsRequest;
            statsRequest.type = RequestType::Stats;
            statsRequest.id = "router-stats";
            const JsonValue reply =
                client.call(encodeRequest(statsRequest));
            backendStats[i] = reply.at("stats");
            storeConnection(i, std::move(client));
        } catch (const std::exception &) {
            backend.healthy.store(false);
            dropConnections(i);
        }
    }

    const Frontend::Counters counters = frontend_.counters();
    const Admission::Snapshot gate = frontend_.admission();
    unsigned healthyCount = 0;
    for (const auto &backend : backends_)
        if (backend->healthy.load())
            ++healthyCount;
    JsonValue router = JsonValue::makeObject();
    router.set("received", JsonValue::makeU64(counters.received));
    router.set("completed", JsonValue::makeU64(counters.completed));
    router.set("errors", JsonValue::makeU64(counters.errors));
    router.set("connectionsAccepted",
               JsonValue::makeU64(counters.connectionsAccepted));
    router.set("reroutes", JsonValue::makeU64(reroutes_.load()));
    router.set("inflight", JsonValue::makeU64(gate.inflight));
    router.set("queued", JsonValue::makeU64(gate.queued));
    router.set("maxForwards", JsonValue::makeU64(gate.maxInflight));
    router.set("queueCapacity",
               JsonValue::makeU64(gate.queueCapacity));
    router.set("draining", JsonValue::makeBool(gate.draining));
    router.set("rejectedSaturated",
               JsonValue::makeU64(gate.rejectedSaturated));
    router.set("rejectedDraining",
               JsonValue::makeU64(gate.rejectedDraining));
    router.set("backendsHealthy", JsonValue::makeU64(healthyCount));
    router.set("backendsTotal",
               JsonValue::makeU64(backends_.size()));
    out.set("router", std::move(router));
    out.set("latency", frontend_.latencyJson());

    // Per-backend gauges; a dead backend contributes its name and
    // healthy:false, nothing else.
    JsonValue perBackend = JsonValue::makeArray();
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        BackendState &backend = *backends_[i];
        JsonValue entry = JsonValue::makeObject();
        entry.set("endpoint",
                  JsonValue::makeString(backend.endpoint.describe()));
        entry.set("healthy",
                  JsonValue::makeBool(backend.healthy.load()));
        if (backend.healthy.load() && !backendStats[i].isNull()) {
            entry.set("draining",
                      JsonValue::makeBool(backend.draining.load()));
            entry.set("inflight",
                      JsonValue::makeU64(backend.inflight.load()));
            entry.set("routed",
                      JsonValue::makeU64(backend.routed.load()));
            entry.set("stats", backendStats[i]);
        }
        perBackend.push(std::move(entry));
    }
    out.set("backends", std::move(perBackend));

    // The aggregated fleet view: summed counters, bucket-wise merged
    // latency histograms, fleet-wide cache hit rate.
    std::uint64_t received = 0, completed = 0, errors = 0,
                  admitted = 0, rejectedSaturated = 0,
                  rejectedDraining = 0;
    std::uint64_t memoHits = 0, memoMisses = 0, memoInserts = 0,
                  memoEntries = 0;
    std::uint64_t respHits = 0, respMisses = 0, respEvictions = 0,
                  respEntries = 0, respCapacity = 0, respCoalesced = 0,
                  respWaiting = 0, respFlights = 0;
    LatencyHistogram fleetLatency;
    // strategy wire name -> {requests, evaluations, millis}
    std::vector<std::pair<std::string, std::array<std::uint64_t, 3>>>
        strategyTotals;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
        const JsonValue &stats = backendStats[i];
        if (stats.isNull())
            continue;
        if (const JsonValue *requests = stats.find("requests")) {
            accumulateU64(*requests, "received", received);
            accumulateU64(*requests, "completed", completed);
            accumulateU64(*requests, "errors", errors);
            accumulateU64(*requests, "admitted", admitted);
            accumulateU64(*requests, "rejectedSaturated",
                          rejectedSaturated);
            accumulateU64(*requests, "rejectedDraining",
                          rejectedDraining);
        }
        if (const JsonValue *memo = stats.find("layerMemo")) {
            accumulateU64(*memo, "hits", memoHits);
            accumulateU64(*memo, "misses", memoMisses);
            accumulateU64(*memo, "inserts", memoInserts);
            accumulateU64(*memo, "entries", memoEntries);
        }
        // Fan-in: the fleet's cache effectiveness is the sum over
        // the backends' response caches, the only cache tier (absent
        // on pre-cache backends — getU64 defaults to zero).
        if (const JsonValue *resp = stats.find("responseCache")) {
            accumulateU64(*resp, "hits", respHits);
            accumulateU64(*resp, "misses", respMisses);
            accumulateU64(*resp, "evictions", respEvictions);
            accumulateU64(*resp, "entries", respEntries);
            accumulateU64(*resp, "capacity", respCapacity);
            accumulateU64(*resp, "coalesced", respCoalesced);
            accumulateU64(*resp, "coalescedWaiting", respWaiting);
            accumulateU64(*resp, "flights", respFlights);
        }
        if (const JsonValue *lat = stats.find("latency"))
            fleetLatency.merge(LatencyHistogram::fromJson(*lat));
        if (const JsonValue *strategies = stats.find("strategies")) {
            for (const auto &member : strategies->object) {
                auto it = std::find_if(
                    strategyTotals.begin(), strategyTotals.end(),
                    [&](const auto &entry) {
                        return entry.first == member.first;
                    });
                if (it == strategyTotals.end()) {
                    strategyTotals.push_back(
                        {member.first, {0, 0, 0}});
                    it = std::prev(strategyTotals.end());
                }
                it->second[0] +=
                    member.second.getU64("requests", 0);
                it->second[1] +=
                    member.second.getU64("evaluations", 0);
                it->second[2] += member.second.getU64("millis", 0);
            }
        }
    }
    JsonValue fleet = JsonValue::makeObject();
    JsonValue fleetRequests = JsonValue::makeObject();
    fleetRequests.set("received", JsonValue::makeU64(received));
    fleetRequests.set("completed", JsonValue::makeU64(completed));
    fleetRequests.set("errors", JsonValue::makeU64(errors));
    fleetRequests.set("admitted", JsonValue::makeU64(admitted));
    fleetRequests.set("rejectedSaturated",
                      JsonValue::makeU64(rejectedSaturated));
    fleetRequests.set("rejectedDraining",
                      JsonValue::makeU64(rejectedDraining));
    fleet.set("requests", std::move(fleetRequests));

    JsonValue fleetMemo = JsonValue::makeObject();
    fleetMemo.set("hits", JsonValue::makeU64(memoHits));
    fleetMemo.set("misses", JsonValue::makeU64(memoMisses));
    fleetMemo.set("inserts", JsonValue::makeU64(memoInserts));
    fleetMemo.set("entries", JsonValue::makeU64(memoEntries));
    fleet.set("layerMemo", std::move(fleetMemo));

    JsonValue fleetResp = JsonValue::makeObject();
    fleetResp.set("hits", JsonValue::makeU64(respHits));
    fleetResp.set("misses", JsonValue::makeU64(respMisses));
    fleetResp.set("evictions", JsonValue::makeU64(respEvictions));
    fleetResp.set("entries", JsonValue::makeU64(respEntries));
    fleetResp.set("capacity", JsonValue::makeU64(respCapacity));
    fleetResp.set("hitRate",
                  JsonValue::makeDouble(hitRate(respHits, respMisses)));
    fleetResp.set("coalesced", JsonValue::makeU64(respCoalesced));
    fleetResp.set("coalescedWaiting",
                  JsonValue::makeU64(respWaiting));
    fleetResp.set("flights", JsonValue::makeU64(respFlights));
    fleet.set("responseCache", std::move(fleetResp));

    fleet.set("latency", fleetLatency.toJson());

    JsonValue fleetStrategies = JsonValue::makeObject();
    for (const auto &entry : strategyTotals) {
        JsonValue js = JsonValue::makeObject();
        js.set("requests", JsonValue::makeU64(entry.second[0]));
        js.set("evaluations", JsonValue::makeU64(entry.second[1]));
        js.set("millis", JsonValue::makeU64(entry.second[2]));
        js.set("evalsPerSec",
               JsonValue::makeDouble(
                   entry.second[2] != 0
                       ? static_cast<double>(entry.second[1]) *
                             1000.0 /
                             static_cast<double>(entry.second[2])
                       : static_cast<double>(entry.second[1]) *
                             1000.0));
        fleetStrategies.set(entry.first, std::move(js));
    }
    fleet.set("strategies", std::move(fleetStrategies));
    out.set("fleet", std::move(fleet));
    return out;
}

} // namespace serve
} // namespace ruby
