/**
 * @file
 * Unit tests for the serving response cache: key canonicalization
 * (what is and is not eligible), id re-stamping, the sharded LRU's
 * hit/miss/eviction/tag behavior, and SingleFlight's leader/follower
 * bookkeeping.
 */

#include "ruby/serve/response_cache.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ruby/common/fault_injector.hpp"
#include "ruby/serve/json.hpp"

namespace ruby
{
namespace serve
{
namespace
{

Request
quickMapRequest(const std::string &id)
{
    Request req;
    req.type = RequestType::Map;
    req.id = id;
    req.configText = "architecture: {}\n";
    req.variant = MapspaceVariant::RubyS;
    req.preset = ConstraintPreset::None;
    req.search.strategy = SearchStrategy::Random;
    req.search.maxEvaluations = 100;
    req.search.seed = 7;
    req.search.threads = 1;
    return req;
}

TEST(ResponseCacheKey, IdDoesNotChangeTheKey)
{
    const std::string a = responseCacheKey(quickMapRequest("a"));
    const std::string b = responseCacheKey(quickMapRequest("b"));
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(ResponseCacheKey, SearchOptionsChangeTheKey)
{
    Request req = quickMapRequest("a");
    const std::string base = responseCacheKey(req);
    req.search.seed = 8;
    EXPECT_NE(responseCacheKey(req), base);
}

TEST(ResponseCacheKey, OnlySearchRequestsAreEligible)
{
    Request req = quickMapRequest("a");
    for (const RequestType type :
         {RequestType::Ping, RequestType::Stats,
          RequestType::Shutdown}) {
        req.type = type;
        EXPECT_TRUE(responseCacheKey(req).empty());
    }
    req.type = RequestType::Net;
    req.arch = "eyeriss";
    req.suite = "resnet50";
    EXPECT_FALSE(responseCacheKey(req).empty());
}

TEST(ResponseCacheKey, WallClockBudgetsAreIneligible)
{
    Request req = quickMapRequest("a");
    req.search.timeBudget = std::chrono::milliseconds{100};
    EXPECT_TRUE(responseCacheKey(req).empty());

    req = quickMapRequest("a");
    req.search.networkTimeBudget = std::chrono::milliseconds{100};
    EXPECT_TRUE(responseCacheKey(req).empty());
}

TEST(ResponseCacheKey, RandomAboveOneThreadIsEligible)
{
    // Random search no longer depends on the thread count, so it is
    // cached at any width, like the other strategies.
    Request req = quickMapRequest("a");
    req.search.strategy = SearchStrategy::Random;
    req.search.threads = 4;
    EXPECT_FALSE(responseCacheKey(req).empty());

    req.search.strategy = SearchStrategy::Exhaustive;
    EXPECT_FALSE(responseCacheKey(req).empty());
}

TEST(ResponseCacheKey, FaultInjectionDisablesCaching)
{
    const Request req = quickMapRequest("a");
    ASSERT_FALSE(responseCacheKey(req).empty());
    FaultInjector::global().configure(0.5, 3);
    EXPECT_TRUE(responseCacheKey(req).empty());
    FaultInjector::global().disable();
    EXPECT_FALSE(responseCacheKey(req).empty());
}

TEST(RestampResponseId, OnlyTheIdBytesChange)
{
    const std::string line =
        "{\"v\":1,\"type\":\"result\",\"id\":\"orig\",\"code\":0,"
        "\"net\":{\"edp\":1.5}}";
    const JsonValue restamped =
        restampResponseId(parseJson(line), "other");
    EXPECT_EQ(writeJson(restamped),
              "{\"v\":1,\"type\":\"result\",\"id\":\"other\","
              "\"code\":0,\"net\":{\"edp\":1.5}}");
    // Restamping back restores the original bytes exactly.
    EXPECT_EQ(writeJson(restampResponseId(restamped, "orig")), line);
}

TEST(ResponseCache, HitMissAndStats)
{
    ResponseCache cache(8);
    std::string out;
    EXPECT_FALSE(cache.lookup("k1", out));
    cache.insert("k1", "line1");
    ASSERT_TRUE(cache.lookup("k1", out));
    EXPECT_EQ(out, "line1");

    const ResponseCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.evictions, 0u);
}

TEST(ResponseCache, ReinsertRefreshesTheLine)
{
    ResponseCache cache(8);
    cache.insert("k", "old");
    cache.insert("k", "new");
    std::string out;
    ASSERT_TRUE(cache.lookup("k", out));
    EXPECT_EQ(out, "new");
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResponseCache, EvictsLeastRecentlyUsedAtCapacity)
{
    // Capacity 1 collapses to one single-entry shard, so the LRU
    // order is directly observable.
    ResponseCache cache(1);
    cache.insert("a", "va");
    cache.insert("b", "vb");
    std::string out;
    EXPECT_FALSE(cache.lookup("a", out));
    ASSERT_TRUE(cache.lookup("b", out));
    EXPECT_EQ(out, "vb");
    const ResponseCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(ResponseCache, StaleTagDropsTheEntry)
{
    ResponseCache cache(8);
    cache.insert("k", "line", /*tag=*/3);
    std::string out;
    // A validator that rejects the tag turns the probe into a miss
    // and drops the entry for good.
    EXPECT_FALSE(cache.lookup(
        "k", out, [](std::uint64_t tag) { return tag != 3; }));
    EXPECT_FALSE(cache.lookup("k", out));
    const ResponseCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.entries, 0u);
}

TEST(ResponseCache, ValidTagStillHits)
{
    ResponseCache cache(8);
    cache.insert("k", "line", /*tag=*/3);
    std::string out;
    EXPECT_TRUE(cache.lookup(
        "k", out, [](std::uint64_t tag) { return tag == 3; }));
    EXPECT_EQ(out, "line");
}

SingleFlight::Waiter
waiter(EventLoop::ConnId conn, const std::string &id)
{
    SingleFlight::Waiter w;
    w.conn = conn;
    w.request = std::make_shared<Request>(quickMapRequest(id));
    return w;
}

TEST(SingleFlight, FirstJoinLeadsLaterJoinsFollow)
{
    SingleFlight sf;
    EXPECT_TRUE(sf.join("k", waiter(1, "a")));
    EXPECT_FALSE(sf.join("k", waiter(2, "b")));
    EXPECT_FALSE(sf.join("k", waiter(3, "c")));
    EXPECT_EQ(sf.flights(), 1u);
    EXPECT_EQ(sf.waiting(), 2u);

    const std::vector<SingleFlight::Waiter> followers =
        sf.complete("k");
    ASSERT_EQ(followers.size(), 2u);
    EXPECT_EQ(followers[0].conn, 2u);
    EXPECT_EQ(followers[1].conn, 3u);
    EXPECT_EQ(sf.flights(), 0u);
    EXPECT_EQ(sf.waiting(), 0u);
    EXPECT_EQ(sf.coalesced(), 2u);

    // The key is free again: a new join leads a fresh flight.
    EXPECT_TRUE(sf.join("k", waiter(4, "d")));
    EXPECT_TRUE(sf.complete("k").empty());
}

TEST(SingleFlight, DistinctKeysAreIndependentFlights)
{
    SingleFlight sf;
    EXPECT_TRUE(sf.join("k1", waiter(1, "a")));
    EXPECT_TRUE(sf.join("k2", waiter(2, "b")));
    EXPECT_EQ(sf.flights(), 2u);
    EXPECT_EQ(sf.waiting(), 0u);
}

TEST(SingleFlight, AbandonPromotesTheFirstFollower)
{
    SingleFlight sf;
    EXPECT_TRUE(sf.join("k", waiter(1, "a")));
    EXPECT_FALSE(sf.join("k", waiter(2, "b")));
    EXPECT_FALSE(sf.join("k", waiter(3, "c")));

    const std::optional<SingleFlight::Waiter> promoted =
        sf.abandon("k");
    ASSERT_TRUE(promoted.has_value());
    EXPECT_EQ(promoted->conn, 2u);
    // The flight stays open for the remaining follower.
    EXPECT_EQ(sf.flights(), 1u);
    EXPECT_EQ(sf.waiting(), 1u);
    EXPECT_FALSE(sf.join("k", waiter(4, "d")));

    const std::vector<SingleFlight::Waiter> rest = sf.complete("k");
    ASSERT_EQ(rest.size(), 2u);
    EXPECT_EQ(rest[0].conn, 3u);
    EXPECT_EQ(rest[1].conn, 4u);
}

TEST(SingleFlight, AbandonWithoutFollowersRetiresTheFlight)
{
    SingleFlight sf;
    EXPECT_TRUE(sf.join("k", waiter(1, "a")));
    EXPECT_FALSE(sf.abandon("k").has_value());
    EXPECT_EQ(sf.flights(), 0u);
    // The key is reusable immediately.
    EXPECT_TRUE(sf.join("k", waiter(2, "b")));
}

} // namespace
} // namespace serve
} // namespace ruby
