/**
 * @file
 * Fingerprint-keyed response caching + single-flight coalescing for
 * the serving stack.
 *
 * The daemon answers one question before it searches: "have I
 * already produced (or am I currently producing) the bytes for this
 * exact request?" The key is the full canonical request — config/shape *and* search options, everything
 * except the client-chosen `id` — so two requests share an entry only
 * when the search they describe is semantically identical.
 *
 * Determinism contract (same as the layer memo): a response is cached
 * and replayed only when the search it came from is reproducible —
 * no wall-clock budgets and no fault injection. Non-`ok` responses
 * are never cached. Replays re-stamp the requester's `id` and nothing
 * else: the fixpoint JSON codec guarantees the replayed line is
 * byte-identical to a fresh search's response, except that a search
 * run on several threads (random or exhaustive) may split its
 * bound-pruned and modeled counts differently from run to run; a
 * replay carries the split of the run that filled the entry.
 *
 * SingleFlight handles the in-progress window: the first request for
 * a key becomes the *leader* and runs the search; identical requests
 * arriving while it runs attach as *followers* and are answered from
 * the leader's response without consuming an admission slot.
 */

#ifndef RUBY_SERVE_RESPONSE_CACHE_HPP
#define RUBY_SERVE_RESPONSE_CACHE_HPP

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ruby/serve/event_loop.hpp"
#include "ruby/serve/protocol.hpp"

namespace ruby
{
namespace serve
{

/**
 * The cache key for @p request: the canonical wire encoding of the
 * full semantic request with the `id` cleared, or "" when the request
 * is ineligible for response caching (not a map/net search, carries a
 * wall-clock budget, or fault injection is active).
 */
std::string responseCacheKey(const Request &request);

/**
 * @p response with its "id" member replaced by @p id, in place (the
 * member keeps its position, so re-encoding a cached response for a
 * new requester changes the id bytes and nothing else).
 */
JsonValue restampResponseId(JsonValue response, const std::string &id);

/**
 * A capacity-bounded sharded LRU of raw response lines, keyed by the
 * canonical request string (collision-free: the full key is compared,
 * hashing only picks the shard). The cache lives in the process that
 * produced its lines, so an entry never outlives its producer and
 * needs no invalidation.
 */
class ResponseCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::uint64_t entries = 0;
    };

    explicit ResponseCache(std::size_t capacity);

    ResponseCache(const ResponseCache &) = delete;
    ResponseCache &operator=(const ResponseCache &) = delete;

    /** Copy the cached line for @p key into @p lineOut; true on a
     *  hit. */
    bool lookup(const std::string &key, std::string &lineOut);

    /** Insert (or refresh) @p key -> @p line, evicting LRU entries
     *  past the shard capacity. */
    void insert(const std::string &key, std::string line);

    Stats stats() const;
    std::size_t capacity() const { return capacity_; }

  private:
    struct Entry
    {
        std::string key;
        std::string line;
    };

    struct Shard
    {
        std::mutex mutex;
        /** Front = most recently used. */
        std::list<Entry> lru;
        std::unordered_map<std::string, std::list<Entry>::iterator>
            index;
    };

    Shard &shardFor(const std::string &key) const;

    std::size_t capacity_ = 0;
    std::size_t perShardCapacity_ = 0;
    std::size_t shardMask_ = 0;
    std::unique_ptr<Shard[]> shards_;

    mutable std::atomic<std::uint64_t> hits_{0};
    mutable std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> entries_{0};
};

/**
 * The in-progress request registry. join() makes the first caller
 * for a key the leader (it runs the work); later callers become
 * followers, parked until the leader completes or abandons. All
 * bookkeeping is by connection + request: followers never hold an
 * admission slot.
 */
class SingleFlight
{
  public:
    struct Waiter
    {
        EventLoop::ConnId conn = 0;
        std::shared_ptr<Request> request;
        /** The request frame as received (run on promotion). */
        std::shared_ptr<std::string> rawLine;
    };

    /** True: the caller is the leader for @p key (nothing stored).
     *  False: @p waiter was parked as a follower. */
    bool join(const std::string &key, Waiter waiter);

    /** The leader finished: detach and return every follower (the
     *  caller delivers their responses), and retire the flight. */
    std::vector<Waiter> complete(const std::string &key);

    /**
     * The leader went away without producing a response (its
     * connection closed while queued). Promote the first follower as
     * the new leader — the flight stays open for the rest — or
     * retire the flight when no follower waits.
     */
    std::optional<Waiter> abandon(const std::string &key);

    /** Open flights right now (gauge). */
    std::uint64_t flights() const;
    /** Parked followers right now (gauge). */
    std::uint64_t waiting() const;
    /** Followers served from a leader's response (cumulative). */
    std::uint64_t coalesced() const;

  private:
    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::vector<Waiter>> flights_;
    std::uint64_t waiting_ = 0;
    std::uint64_t coalesced_ = 0;
};

} // namespace serve
} // namespace ruby

#endif // RUBY_SERVE_RESPONSE_CACHE_HPP
