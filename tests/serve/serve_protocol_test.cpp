/**
 * @file
 * Wire-protocol tests: request encode/decode round trips, exact
 * domain-object codecs (the bit-identity backbone), versioning and
 * malformed-payload rejection.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "ruby/common/error.hpp"
#include "ruby/serve/protocol.hpp"

namespace ruby
{
namespace serve
{
namespace
{

SearchOptions
fancyOptions()
{
    SearchOptions o;
    o.objective = Objective::Energy;
    o.strategy = SearchStrategy::Genetic;
    o.terminationStreak = 123;
    o.maxEvaluations = 4567;
    o.seed = 99;
    o.threads = 3;
    o.restarts = 5;
    o.timeBudget = std::chrono::milliseconds(250);
    o.networkTimeBudget = std::chrono::milliseconds(4000);
    o.recordTrajectory = true;
    o.boundPruning = false;
    o.islands = 7;
    o.networkThreads = 2;
    o.layerMemo = false;
    return o;
}

EvalResult
fancyEval()
{
    EvalResult r;
    r.valid = true;
    r.ops = 123456789012345ull;
    r.energy = 1.0 / 3.0;
    r.cycles = 6.02214076e8;
    r.edp = r.energy * r.cycles;
    r.utilization = 0.8125;
    r.levelEnergy = {0.1, 0.2, 0.30000000000000004};
    r.macEnergy = 12.5;
    r.networkEnergy = 0.0625;
    r.accesses.reads = {{1, 2, 3}, {4, 5, 6}};
    r.accesses.writes = {{7, 8, 9}, {10, 11, 12}};
    r.accesses.networkWords = 777;
    r.latency.computeCycles = 1e6;
    r.latency.bandwidthCycles = {2e6, 0.0};
    r.latency.cycles = 2e6;
    r.latency.utilization = 0.5;
    return r;
}

void
expectEvalEqual(const EvalResult &a, const EvalResult &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.invalidReason, b.invalidReason);
    EXPECT_EQ(a.ops, b.ops);
    // Exact equality on purpose: the codec must be bit-transparent.
    EXPECT_EQ(a.energy, b.energy);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.edp, b.edp);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.levelEnergy, b.levelEnergy);
    EXPECT_EQ(a.macEnergy, b.macEnergy);
    EXPECT_EQ(a.networkEnergy, b.networkEnergy);
    EXPECT_EQ(a.accesses.reads, b.accesses.reads);
    EXPECT_EQ(a.accesses.writes, b.accesses.writes);
    EXPECT_EQ(a.accesses.networkWords, b.accesses.networkWords);
    EXPECT_EQ(a.latency.computeCycles, b.latency.computeCycles);
    EXPECT_EQ(a.latency.bandwidthCycles, b.latency.bandwidthCycles);
    EXPECT_EQ(a.latency.cycles, b.latency.cycles);
    EXPECT_EQ(a.latency.utilization, b.latency.utilization);
}

TEST(ServeProtocol, SearchOptionsRoundTrip)
{
    const SearchOptions o = fancyOptions();
    const SearchOptions back =
        searchOptionsFromJson(searchOptionsToJson(o));
    EXPECT_EQ(back.objective, o.objective);
    EXPECT_EQ(back.strategy, o.strategy);
    EXPECT_EQ(back.terminationStreak, o.terminationStreak);
    EXPECT_EQ(back.maxEvaluations, o.maxEvaluations);
    EXPECT_EQ(back.seed, o.seed);
    EXPECT_EQ(back.threads, o.threads);
    EXPECT_EQ(back.restarts, o.restarts);
    EXPECT_EQ(back.timeBudget, o.timeBudget);
    EXPECT_EQ(back.networkTimeBudget, o.networkTimeBudget);
    EXPECT_EQ(back.recordTrajectory, o.recordTrajectory);
    EXPECT_EQ(back.boundPruning, o.boundPruning);
    EXPECT_EQ(back.islands, o.islands);
    EXPECT_EQ(back.networkThreads, o.networkThreads);
    EXPECT_EQ(back.layerMemo, o.layerMemo);
}

TEST(ServeProtocol, SearchOptionsDefaultsSurviveEmptyPayload)
{
    const SearchOptions defaults;
    const SearchOptions back =
        searchOptionsFromJson(JsonValue::makeObject());
    EXPECT_EQ(back.strategy, defaults.strategy);
    EXPECT_EQ(back.terminationStreak, defaults.terminationStreak);
    EXPECT_EQ(back.boundPruning, defaults.boundPruning);
    EXPECT_EQ(back.layerMemo, defaults.layerMemo);
}

TEST(ServeProtocol, EvalResultRoundTripsExactly)
{
    const EvalResult r = fancyEval();
    // Through the full text path, as the socket would carry it.
    const JsonValue wire =
        parseJson(writeJson(evalResultToJson(r)));
    expectEvalEqual(evalResultFromJson(wire), r);
}

TEST(ServeProtocol, LayerOutcomeRoundTrip)
{
    LayerOutcome out;
    out.name = "conv3_1";
    out.group = "residual";
    out.count = 4;
    out.found = true;
    out.result = fancyEval();
    out.evaluated = 40000;
    out.stats.invalid = 100;
    out.stats.prunedBound = 200;
    out.stats.modeled = 39700;
    out.bestMapping = "L0: c4 m2 | L1: p7\n";
    out.timedOut = true;
    out.certified = true;
    out.gapPercent = 12.5;
    out.statsNote = "eval-stats mismatch: example";

    const LayerOutcome back = layerOutcomeFromJson(
        parseJson(writeJson(layerOutcomeToJson(out))));
    EXPECT_EQ(back.name, out.name);
    EXPECT_EQ(back.group, out.group);
    EXPECT_EQ(back.count, out.count);
    EXPECT_EQ(back.found, out.found);
    expectEvalEqual(back.result, out.result);
    EXPECT_EQ(back.evaluated, out.evaluated);
    EXPECT_EQ(back.stats.invalid, out.stats.invalid);
    EXPECT_EQ(back.stats.prunedBound, out.stats.prunedBound);
    EXPECT_EQ(back.stats.modeled, out.stats.modeled);
    EXPECT_EQ(back.bestMapping, out.bestMapping);
    EXPECT_EQ(back.failure, out.failure);
    EXPECT_EQ(back.timedOut, out.timedOut);
    EXPECT_EQ(back.memoized, out.memoized);
    EXPECT_EQ(back.certified, out.certified);
    EXPECT_EQ(back.gapPercent, out.gapPercent);
    EXPECT_EQ(back.statsNote, out.statsNote);
}

TEST(ServeProtocol, FailedLayerOutcomeRoundTrip)
{
    LayerOutcome out;
    out.name = "bad";
    out.found = false;
    out.failure = FailureKind::DeadlineExceeded;
    out.diagnostic = "time budget expired before a valid mapping";
    out.timedOut = true;

    const LayerOutcome back = layerOutcomeFromJson(
        parseJson(writeJson(layerOutcomeToJson(out))));
    EXPECT_FALSE(back.found);
    EXPECT_EQ(back.failure, FailureKind::DeadlineExceeded);
    EXPECT_EQ(back.diagnostic, out.diagnostic);
    EXPECT_TRUE(back.timedOut);
}

TEST(ServeProtocol, NetworkOutcomeRoundTrip)
{
    NetworkOutcome net;
    LayerOutcome ok;
    ok.name = "a";
    ok.found = true;
    ok.result = fancyEval();
    LayerOutcome memo = ok;
    memo.name = "a_dup";
    memo.memoized = true;
    LayerOutcome bad;
    bad.name = "b";
    bad.failure = FailureKind::NoValidMapping;
    bad.diagnostic = "exhausted";
    net.layers = {ok, memo, bad};
    net.totalEnergy = 1.5e12;
    net.totalCycles = 3.25e9;
    net.edp = net.totalEnergy * net.totalCycles;
    net.allFound = false;
    net.failedLayers = 1;
    net.memoizedLayers = 1;
    net.stats.modeled = 1234;

    const NetworkOutcome back = networkOutcomeFromJson(
        parseJson(writeJson(networkOutcomeToJson(net))));
    ASSERT_EQ(back.layers.size(), 3u);
    EXPECT_EQ(back.layers[0].name, "a");
    EXPECT_TRUE(back.layers[1].memoized);
    EXPECT_EQ(back.layers[2].failure, FailureKind::NoValidMapping);
    EXPECT_EQ(back.totalEnergy, net.totalEnergy);
    EXPECT_EQ(back.totalCycles, net.totalCycles);
    EXPECT_EQ(back.edp, net.edp);
    EXPECT_EQ(back.allFound, net.allFound);
    EXPECT_EQ(back.failedLayers, net.failedLayers);
    EXPECT_EQ(back.memoizedLayers, net.memoizedLayers);
    EXPECT_EQ(back.stats.modeled, net.stats.modeled);
}

TEST(ServeProtocol, MapRequestRoundTrip)
{
    Request req;
    req.type = RequestType::Map;
    req.id = "r42";
    req.configText = "architecture:\n  name: x\n";
    req.variant = MapspaceVariant::Ruby;
    req.preset = ConstraintPreset::Simba;
    req.pad = true;
    req.search = fancyOptions();

    const Request back =
        parseRequest(parseJson(writeJson(encodeRequest(req))));
    EXPECT_EQ(back.type, RequestType::Map);
    EXPECT_EQ(back.id, "r42");
    EXPECT_EQ(back.configText, req.configText);
    EXPECT_EQ(back.variant, req.variant);
    EXPECT_EQ(back.preset, req.preset);
    EXPECT_EQ(back.pad, req.pad);
    EXPECT_EQ(back.search.strategy, req.search.strategy);
    EXPECT_EQ(back.search.seed, req.search.seed);
}

TEST(ServeProtocol, NetRequestWithInlineLayersRoundTrip)
{
    Request req;
    req.type = RequestType::Net;
    req.id = "n1";
    req.arch = "simba";
    ConvShape sh;
    sh.name = "l0";
    sh.c = 16;
    sh.m = 32;
    sh.p = 7;
    sh.q = 7;
    sh.r = 3;
    sh.s = 3;
    Layer layer;
    layer.shape = sh;
    layer.group = "conv";
    layer.count = 2;
    req.layers = {layer};

    const Request back =
        parseRequest(parseJson(writeJson(encodeRequest(req))));
    EXPECT_EQ(back.type, RequestType::Net);
    EXPECT_EQ(back.arch, "simba");
    ASSERT_EQ(back.layers.size(), 1u);
    EXPECT_EQ(back.layers[0].shape.name, "l0");
    EXPECT_EQ(back.layers[0].shape.m, 32u);
    EXPECT_EQ(back.layers[0].count, 2);
    EXPECT_EQ(back.layers[0].group, "conv");
}

TEST(ServeProtocol, RejectsBadRequests)
{
    // Wrong version.
    EXPECT_THROW(
        parseRequest(parseJson(R"({"v":2,"type":"ping"})")), Error);
    // Unknown type.
    EXPECT_THROW(
        parseRequest(parseJson(R"({"v":1,"type":"nope"})")), Error);
    // map without config.
    EXPECT_THROW(
        parseRequest(parseJson(R"({"v":1,"type":"map"})")), Error);
    // net with neither suite nor layers.
    EXPECT_THROW(
        parseRequest(parseJson(R"({"v":1,"type":"net"})")), Error);
}

TEST(ServeProtocol, ResponseEnvelopes)
{
    const JsonValue ok = makeResponse("pong", "id7", kCodeOk);
    EXPECT_EQ(ok.at("v").asU64(),
              static_cast<std::uint64_t>(kProtocolVersion));
    EXPECT_EQ(ok.at("type").asString(), "pong");
    EXPECT_EQ(ok.at("id").asString(), "id7");
    EXPECT_EQ(ok.at("code").asU64(), 0u);

    const JsonValue err = makeErrorResponse("id8", kCodeRejected,
                                            "saturated", "queue full");
    EXPECT_EQ(err.at("type").asString(), "error");
    EXPECT_EQ(err.at("code").asU64(), 7u);
    EXPECT_EQ(err.at("kind").asString(), "saturated");
    EXPECT_EQ(err.at("message").asString(), "queue full");
}

TEST(ServeProtocol, HealthRoundTripsEveryField)
{
    Health h;
    h.ok = true;
    h.draining = true;
    h.inflight = 3;
    h.queued = 7;
    h.maxInflight = 8;
    h.queueCapacity = 64;
    h.uptimeMs = 123456;
    h.layerMemoEntries = 17;
    h.responseCacheEntries = 42;
    h.responseCacheHitRate = 0.625;
    h.coalescedInflight = 5;
    h.requestCount = 99;
    h.p50Ms = 1.5;
    h.p99Ms = 42.25;

    const Health back = healthFromJson(healthToJson(h));
    EXPECT_EQ(back.ok, h.ok);
    EXPECT_EQ(back.draining, h.draining);
    EXPECT_EQ(back.inflight, h.inflight);
    EXPECT_EQ(back.queued, h.queued);
    EXPECT_EQ(back.maxInflight, h.maxInflight);
    EXPECT_EQ(back.queueCapacity, h.queueCapacity);
    EXPECT_EQ(back.uptimeMs, h.uptimeMs);
    EXPECT_EQ(back.layerMemoEntries, h.layerMemoEntries);
    EXPECT_EQ(back.responseCacheEntries, h.responseCacheEntries);
    EXPECT_EQ(back.responseCacheHitRate, h.responseCacheHitRate);
    EXPECT_EQ(back.coalescedInflight, h.coalescedInflight);
    EXPECT_EQ(back.requestCount, h.requestCount);
    EXPECT_EQ(back.p50Ms, h.p50Ms);
    EXPECT_EQ(back.p99Ms, h.p99Ms);
}

/** A pong from a pre-response-cache daemon simply lacks the cache
 *  gauges: the codec must default them to zero, not throw. */
TEST(ServeProtocol, HealthFromOlderPeerDefaultsCacheGauges)
{
    Health h;
    h.ok = true;
    h.inflight = 2;
    JsonValue v = healthToJson(h);
    // Strip the new keys, simulating an older peer's pong.
    JsonValue stripped = JsonValue::makeObject();
    for (auto &member : v.object) {
        if (member.first != "responseCacheEntries" &&
            member.first != "responseCacheHitRate" &&
            member.first != "coalescedInflight")
            stripped.set(member.first, member.second);
    }
    const Health back = healthFromJson(stripped);
    EXPECT_TRUE(back.ok);
    EXPECT_EQ(back.inflight, 2u);
    EXPECT_EQ(back.responseCacheEntries, 0u);
    EXPECT_EQ(back.responseCacheHitRate, 0.0);
    EXPECT_EQ(back.coalescedInflight, 0u);
}

/**
 * Wire compatibility with peers that predate the removal of the memo
 * cache and of the batch-evaluation switch: each object below is an
 * encoder's output plus the keys that peer still sends. Decoding must ignore those keys — the result
 * re-encodes byte-identically to the plain object — and the encoders
 * must no longer emit them.
 */
struct RetiredKeys
{
    const char *object;
    JsonValue encoded;
    std::vector<std::pair<const char *, JsonValue>> retired;
    /** Decode with this object's codec, then re-encode. */
    std::string (*reencode)(const JsonValue &);
};

std::vector<RetiredKeys>
retiredKeyRows()
{
    EvalStats stats;
    stats.invalid = 10;
    stats.prunedBound = 20;
    stats.modeled = 30;
    stats.deltaAttempts = 4;
    Health health;
    health.ok = true;
    health.maxInflight = 2;
    health.layerMemoEntries = 17;
    return {
        {"search options",
         searchOptionsToJson(fancyOptions()),
         {{"evalCache", JsonValue::makeBool(false)},
          {"evalCacheCapacity", JsonValue::makeU64(1024)},
          {"batchEval", JsonValue::makeBool(false)}},
         [](const JsonValue &v) {
             return writeJson(
                 searchOptionsToJson(searchOptionsFromJson(v)));
         }},
        {"eval stats",
         evalStatsToJson(stats),
         {{"cacheHits", JsonValue::makeU64(100)},
          {"cacheMisses", JsonValue::makeU64(39900)},
          {"cacheEvictions", JsonValue::makeU64(3)}},
         [](const JsonValue &v) {
             return writeJson(evalStatsToJson(evalStatsFromJson(v)));
         }},
        {"health",
         healthToJson(health),
         {{"evalCacheCapacity", JsonValue::makeU64(65536)}},
         [](const JsonValue &v) {
             return writeJson(healthToJson(healthFromJson(v)));
         }},
    };
}

TEST(ServeProtocol, OlderPeersRetiredCacheKeysAreIgnored)
{
    for (const RetiredKeys &row : retiredKeyRows()) {
        JsonValue old = row.encoded;
        for (const auto &[key, value] : row.retired)
            old.set(key, value);
        EXPECT_EQ(row.reencode(parseJson(writeJson(old))),
                  row.reencode(row.encoded))
            << row.object;
    }
    // The two retired EvalStats fields are not encoded, so check
    // directly that an old peer's values do not leak into them.
    JsonValue oldStats = evalStatsToJson(EvalStats{});
    oldStats.set("cacheHits", JsonValue::makeU64(100));
    oldStats.set("cacheMisses", JsonValue::makeU64(39900));
    const EvalStats back = evalStatsFromJson(oldStats);
    EXPECT_EQ(back.cacheHits, 0u);
    EXPECT_EQ(back.cacheMisses, 0u);
}

TEST(ServeProtocol, EncodersNoLongerEmitRetiredCacheKeys)
{
    for (const RetiredKeys &row : retiredKeyRows())
        for (const auto &[key, value] : row.retired)
            EXPECT_EQ(row.encoded.find(key), nullptr)
                << row.object << " still emits " << key;
}

TEST(ServeProtocol, FailureCodesMirrorExitCodes)
{
    EXPECT_EQ(failureCode(FailureKind::None), kCodeOk);
    EXPECT_EQ(failureCode(FailureKind::InvalidConfig),
              kCodeUserError);
    EXPECT_EQ(failureCode(FailureKind::NoValidMapping),
              kCodeNoMapping);
    EXPECT_EQ(failureCode(FailureKind::DeadlineExceeded),
              kCodeDeadline);
    EXPECT_EQ(failureCode(FailureKind::InternalError), kCodeInternal);
}

TEST(ServeProtocol, EnumSpellingsMatchCliVocabulary)
{
    EXPECT_STREQ(variantWireName(MapspaceVariant::RubyS), "ruby-s");
    EXPECT_STREQ(presetWireName(ConstraintPreset::EyerissRS),
                 "eyeriss-rs");
    EXPECT_STREQ(objectiveWireName(Objective::EDP), "edp");
    EXPECT_STREQ(strategyWireName(SearchStrategy::Local), "local");
    EXPECT_STREQ(strategyWireName(SearchStrategy::Optimal),
                 "optimal");
    EXPECT_EQ(parseStrategy("exhaustive"),
              SearchStrategy::Exhaustive);
    EXPECT_EQ(parseStrategy("optimal"), SearchStrategy::Optimal);
    EXPECT_THROW(parseStrategy("annealing"), Error);
}

TEST(ServeProtocol, ArchAndSuiteLookup)
{
    EXPECT_EQ(archByName("eyeriss").name().rfind("eyeriss", 0), 0u);
    EXPECT_EQ(archByName("simba").name().rfind("simba", 0), 0u);
    EXPECT_THROW(archByName("tpu"), Error);
    EXPECT_FALSE(suiteLayers("alexnet").empty());
    EXPECT_THROW(suiteLayers("imagenet"), Error);
}

} // namespace
} // namespace serve
} // namespace ruby
