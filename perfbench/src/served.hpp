/**
 * @file
 * Served phase: an in-process Router in front of two Servers, driven
 * by a single client thread in an open loop (seeded Poisson arrivals
 * at two fixed offered rates over pipelined TCP connections). The
 * same thread sends and receives, spinning while a reply is due, so
 * that a latency holds no wake-up of the load generator. Replies are
 * matched by id, timed from each request's due time, and compared
 * with answers computed offline beforehand.
 */

#ifndef PERFBENCH_SERVED_HPP
#define PERFBENCH_SERVED_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "offline.hpp"
#include "ruby/serve/router.hpp"
#include "ruby/serve/server.hpp"

namespace perfbench
{

/** Router + two backends, all in this process on loopback TCP. */
class Fleet
{
  public:
    Fleet();
    ~Fleet();
    int routerPort() const { return router_->port(); }
    int backendPort(std::size_t i) const
    {
        return backends_[i]->port();
    }
    ruby::serve::Router &router() { return *router_; }

  private:
    std::vector<std::unique_ptr<ruby::serve::Server>> backends_;
    std::unique_ptr<ruby::serve::Router> router_;
};

/**
 * Served traffic of one workload. The request kinds and their shares
 * are fixed in served.cpp (see README.md); a workload chooses the
 * shapes and main() the rates and durations.
 */
struct ServedMix
{
    /**
     * Shapes hot and fresh requests draw from (with their archs);
     * when empty, every one is a new random shape.
     */
    std::vector<std::pair<ruby::ConvShape, std::string>> pool;

    double lowRps = 0;
    double highRps = 0;
    double lowSeconds = 0;
    double highSeconds = 0;
    double latencyLimitMs = 0;
};

/** What the served phase measured. */
struct ServedResult
{
    std::uint64_t distinctRequests = 0;
    ByRound latMs[2];              ///< per phase (low, high)
    std::vector<double> lagMs;     ///< generator lateness, all sends
    /** Replies correct and within the limit at the high rate, per
     *  second of the high-rate slices (each from its start to its
     *  last reply). */
    double goodputHigh = 0.0;
    double firstRttMs = 0.0;       ///< probes: first request p50
    double repeatRttMs = 0.0;      ///< probes: cached repeat p50
    double routerHopMs = 0.0;      ///< probes: routed - direct p50
    double parseUs = 0.0;          ///< codec on this run's lines
    double encodeUs = 0.0;
    double routerCacheHitRatio = 0.0;
    double daemonCacheHitRatio = 0.0;
    double layerMemoHitRatio = 0.0;
    double coalesced = 0.0;
    double rejected = 0.0;
};

/** net-random's served traffic: the suites' layers on simba. */
ServedMix netRandomMix();
/** serve-mixed's served traffic: random shapes. */
ServedMix serveMixedMix();

/** The generated schedule: every request line and its due time. */
struct Traffic;

/** Generate the schedule of @p mix from @p seed (part of set-up). */
std::shared_ptr<Traffic> makeTraffic(const ServedMix &mix,
                                     std::uint64_t seed);

/**
 * Drive the low- and high-rate phases of @p traffic against
 * @p fleet in @p rounds rounds: round r sends the r-th slice of each
 * phase's schedule, after calling @p beforeRound, so that the served
 * phase and whatever that call runs share the whole run. Every reply
 * is checked into @p ledger against the offline answer to the same
 * request, computed before the first round. With @p probes the client
 * round-trip probes and codec timings are filled in as well.
 */
ServedResult runServed(Fleet &fleet, const ServedMix &mix,
                       Traffic &traffic, std::uint64_t seed, bool probes,
                       Ledger &ledger, int rounds,
                       const std::function<void()> &beforeRound);

} // namespace perfbench

#endif // PERFBENCH_SERVED_HPP
