#include "ruby/serve/response_cache.hpp"

#include <algorithm>

#include "ruby/common/error.hpp"
#include "ruby/common/fault_injector.hpp"
#include "ruby/util/hash.hpp"

namespace ruby
{
namespace serve
{

namespace
{

/** Shards bound lock contention, not correctness; 16 spreads the
 *  pipeline and slot threads comfortably. */
constexpr std::size_t kShards = 16;

} // namespace

std::string
responseCacheKey(const Request &request)
{
    if (request.type != RequestType::Map &&
        request.type != RequestType::Net)
        return {};
    // Mirror the layer memo's determinism contract: a wall-clock
    // budget makes the outcome depend on host speed, and fault
    // injection makes it depend on the injection schedule. (Unlike
    // the memo, no sharedLayerMemo/layerMemo requirement: the
    // response cache replays whole responses, not per-layer
    // outcomes.)
    const SearchOptions &search = request.search;
    if (search.timeBudget.count() != 0 ||
        search.networkTimeBudget.count() != 0)
        return {};
    if (FaultInjector::global().enabled())
        return {};
    // The canonical key: the full wire encoding with the id cleared,
    // so every semantic field (config/shape AND search options)
    // participates and the client-chosen id never does.
    Request canonical = request;
    canonical.id.clear();
    return writeJson(encodeRequest(canonical));
}

JsonValue
restampResponseId(JsonValue response, const std::string &id)
{
    // Mutate the member in place: JsonValue::set() appends (the
    // parser rejects duplicate keys, so a second "id" would make the
    // response unparseable), and replacing in place preserves the
    // member's position for byte-identity.
    for (auto &member : response.object) {
        if (member.first == "id") {
            member.second = JsonValue::makeString(id);
            return response;
        }
    }
    response.set("id", JsonValue::makeString(id));
    return response;
}

// ---------------------------------------------------------------------------
// ResponseCache

ResponseCache::ResponseCache(std::size_t capacity)
    : capacity_(capacity)
{
    RUBY_CHECK(capacity >= 1,
               "response cache capacity must be >= 1");
    const std::size_t shards =
        std::min(kShards, hashing::ceilPow2(capacity));
    perShardCapacity_ = (capacity + shards - 1) / shards;
    shardMask_ = shards - 1;
    shards_ = std::make_unique<Shard[]>(shards);
}

ResponseCache::Shard &
ResponseCache::shardFor(const std::string &key) const
{
    return shards_[hashing::fnv1aBytes(key) & shardMask_];
}

bool
ResponseCache::lookup(const std::string &key, std::string &lineOut)
{
    Shard &shard = shardFor(key);
    {
        std::lock_guard<std::mutex> lock(shard.mutex);
        const auto it = shard.index.find(key);
        if (it != shard.index.end()) {
            lineOut = it->second->line;
            // Refresh: move to the LRU front.
            shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
            hits_.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void
ResponseCache::insert(const std::string &key, std::string line)
{
    Shard &shard = shardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
        it->second->line = std::move(line);
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        return;
    }
    shard.lru.push_front(Entry{key, std::move(line)});
    shard.index.emplace(key, shard.lru.begin());
    entries_.fetch_add(1, std::memory_order_relaxed);
    while (shard.lru.size() > perShardCapacity_) {
        shard.index.erase(shard.lru.back().key);
        shard.lru.pop_back();
        entries_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

ResponseCache::Stats
ResponseCache::stats() const
{
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.entries = entries_.load(std::memory_order_relaxed);
    return s;
}

// ---------------------------------------------------------------------------
// SingleFlight

bool
SingleFlight::join(const std::string &key, Waiter waiter)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = flights_.try_emplace(key);
    if (inserted)
        return true;
    it->second.push_back(std::move(waiter));
    ++waiting_;
    return false;
}

std::vector<SingleFlight::Waiter>
SingleFlight::complete(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = flights_.find(key);
    if (it == flights_.end())
        return {};
    std::vector<Waiter> waiters = std::move(it->second);
    flights_.erase(it);
    waiting_ -= waiters.size();
    coalesced_ += waiters.size();
    return waiters;
}

std::optional<SingleFlight::Waiter>
SingleFlight::abandon(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = flights_.find(key);
    if (it == flights_.end())
        return std::nullopt;
    if (it->second.empty()) {
        flights_.erase(it);
        return std::nullopt;
    }
    Waiter promoted = std::move(it->second.front());
    it->second.erase(it->second.begin());
    --waiting_;
    return promoted;
}

std::uint64_t
SingleFlight::flights() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return flights_.size();
}

std::uint64_t
SingleFlight::waiting() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return waiting_;
}

std::uint64_t
SingleFlight::coalesced() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return coalesced_;
}

} // namespace serve
} // namespace ruby
