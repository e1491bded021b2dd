#include "served.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "ruby/serve/client.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/workload/suites/suites.hpp"
#include "trace.hpp"

namespace perfbench
{

namespace serve = ruby::serve;

// -- fleet ------------------------------------------------------------

Fleet::Fleet()
{
    serve::RouterOptions ropts;
    ropts.port = 0;
    ropts.logLifecycle = false;
    ropts.queueCapacity = 4096;
    for (int b = 0; b < 2; ++b) {
        serve::ServeOptions sopts;
        sopts.port = 0;
        sopts.maxInflight = 2;
        sopts.queueCapacity = 4096;
        sopts.logLifecycle = false;
        auto server = std::make_unique<serve::Server>(sopts);
        server->start();
        serve::Endpoint endpoint;
        endpoint.host = "127.0.0.1";
        endpoint.port = server->port();
        ropts.backends.push_back(endpoint);
        backends_.push_back(std::move(server));
    }
    router_ = std::make_unique<serve::Router>(std::move(ropts));
    router_->start();
}

Fleet::~Fleet()
{
    router_->requestShutdown();
    router_->waitForShutdown();
    for (auto &server : backends_) {
        server->requestShutdown();
        server->waitForShutdown();
    }
}

// -- traffic ------------------------------------------------------------

namespace
{

enum Kind
{
    kHot,
    kFresh,
    kMulti,
    kMap,
    kStats,
};

/**
 * The request mix. bench/serve_load's mixed trace, the repository's
 * only recorded serving trace, is 144 hot repeats to 60 unique
 * searches (71 %) over 6 hot shapes, 3 per preset, at 300 evaluations
 * in its quick mode; hot share, hot-set size and budget are taken
 * from it. It has no multi-layer, map or stats requests, so the split
 * of the other 30 % is an assumption (README.md gives the reasoning):
 * unique searches keep the largest part, as in that trace.
 */
constexpr double kShares[5] = {0.70, 0.12, 0.08, 0.05, 0.05};
constexpr unsigned kHotSet = 6;
constexpr std::uint64_t kServedEvals = 300;

/** Options of every served search: small, deterministic, cacheable. */
ruby::SearchOptions
servedOptions(std::uint64_t seed)
{
    ruby::SearchOptions o;
    o.strategy = ruby::SearchStrategy::Random;
    o.seed = seed;
    o.threads = 1;
    o.terminationStreak = 0;
    o.maxEvaluations = kServedEvals;
    o.islands = 1;
    return o;
}

const char *kMapArch = R"(architecture:
  name: bench-12pe
  word_bits: 16
  levels:
    - name: RegFile
      capacity_words: 64
      bandwidth: 8
    - name: GLB
      capacity_words: 65536
      bandwidth: 48
      fanout_x: 4
      fanout_y: 3
    - name: DRAM
      backing_store: true
      bandwidth: 16
)";

std::string
mapConfig(const ruby::ConvShape &s)
{
    return std::string(kMapArch) + "workload:\n  type: conv\n  name: " +
           s.name + "\n  c: " + std::to_string(s.c) +
           "\n  m: " + std::to_string(s.m) +
           "\n  p: " + std::to_string(s.p) +
           "\n  q: " + std::to_string(s.q) +
           "\n  r: " + std::to_string(s.r) +
           "\n  s: " + std::to_string(s.s) + "\n";
}

/** One scheduled request. */
struct Item
{
    int phase = 0;
    int round = 0;            ///< of the run, set when sliced
    Kind kind = kStats;
    std::int64_t dueNs = 0;   ///< offset from the phase start
    std::string id;
    std::string line;         ///< wire line, '\n'-terminated
    std::size_t ref = 0;      ///< reference index (not for stats)
    std::int64_t sendNs = 0;  ///< absolute
    std::int64_t recvNs = 0;  ///< absolute; 0 = no reply
    std::string reply;
};

/** Builds the schedule and the table of distinct requests. */
class Generator
{
  public:
    Generator(const ServedMix &mix, std::uint64_t seed)
        : mix_(mix), rng_(subSeed(seed, 300)), base_(subSeed(seed, 301))
    {
        std::mt19937_64 shapes(subSeed(seed, 302));
        for (unsigned i = 0; i < kHotSet; ++i) {
            auto [shape, arch] = source(shapes, "hot" + std::to_string(i));
            if (mix.pool.empty())
                arch = i % 2 == 0 ? "eyeriss" : "simba";
            hot_.push_back({shape, arch});
        }
        for (int i = 0; i < 3; ++i)
            maps_.push_back(mapConfig(
                randomShape(shapes, "cfg" + std::to_string(i))));
        freshRng_.seed(subSeed(seed, 303));
    }

    std::vector<Item> schedule()
    {
        std::vector<Item> items;
        const double rates[2] = {mix_.lowRps, mix_.highRps};
        const double secs[2] = {mix_.lowSeconds, mix_.highSeconds};
        std::discrete_distribution<int> pick(kShares, kShares + 5);
        for (int phase = 0; phase < 2; ++phase) {
            const auto n = static_cast<std::size_t>(rates[phase] *
                                                    secs[phase]);
            std::exponential_distribution<double> gap(rates[phase]);
            double t = 0.0;
            for (std::size_t i = 0; i < n; ++i) {
                t += gap(rng_);
                Item item;
                item.phase = phase;
                item.kind = static_cast<Kind>(pick(rng_));
                item.dueNs = static_cast<std::int64_t>(t * 1e9);
                item.id = (phase == 0 ? "L" : "H") + std::to_string(i);
                serve::Request req = build(item.kind);
                req.id = item.id;
                item.line =
                    serve::writeJson(serve::encodeRequest(req)) + "\n";
                if (item.kind != kStats)
                    item.ref = refIndex(req);
                items.push_back(std::move(item));
            }
        }
        return items;
    }

    /** Distinct requests (id cleared), in first-use order. */
    const std::vector<serve::Request> &distinct() const
    {
        return distinct_;
    }

  private:
    std::pair<ruby::ConvShape, std::string>
    source(std::mt19937_64 &rng, const std::string &name)
    {
        if (mix_.pool.empty())
            return {randomShape(rng, name), "eyeriss"};
        auto entry = mix_.pool[std::uniform_int_distribution<std::size_t>(
            0, mix_.pool.size() - 1)(rng)];
        return entry;
    }

    serve::Request netRequest(std::vector<ruby::Layer> layers,
                              const std::string &arch,
                              std::uint64_t seed) const
    {
        serve::Request req;
        req.type = serve::RequestType::Net;
        req.arch = arch;
        req.layers = std::move(layers);
        req.variant = ruby::MapspaceVariant::RubyS;
        req.preset = presetFor(arch);
        req.search = servedOptions(seed);
        return req;
    }

    serve::Request build(Kind kind)
    {
        switch (kind) {
          case kHot: {
            const auto &[shape, arch] = hot_[std::uniform_int_distribution<
                std::size_t>(0, hot_.size() - 1)(rng_)];
            return netRequest({ruby::Layer{shape, 1, "hot"}}, arch, base_);
          }
          case kFresh: {
            // Unique per request: a fresh shape (on one preset, so
            // the search times form one population), or a pool shape
            // with its own search seed, so every one is a real search.
            const auto [shape, arch] =
                source(freshRng_, "fresh" + std::to_string(fresh_));
            ++fresh_;
            return netRequest({ruby::Layer{shape, 1, "fresh"}}, arch,
                              mix_.pool.empty() ? base_ : base_ + fresh_);
          }
          case kMulti: {
            // Three hot shapes of one arch with random counts: a new
            // request for the response cache, known layers for the
            // layer memo (which keys on shape and options only).
            const std::string arch = hot_[std::uniform_int_distribution<
                std::size_t>(0, hot_.size() - 1)(rng_)].second;
            std::vector<ruby::Layer> layers;
            for (int i = 0; i < 3; ++i) {
                std::vector<std::size_t> same;
                for (std::size_t h = 0; h < hot_.size(); ++h)
                    if (hot_[h].second == arch)
                        same.push_back(h);
                const auto &shape =
                    hot_[same[std::uniform_int_distribution<std::size_t>(
                             0, same.size() - 1)(rng_)]]
                        .first;
                layers.push_back(ruby::Layer{
                    shape,
                    std::uniform_int_distribution<int>(1, 4)(rng_),
                    "multi"});
            }
            return netRequest(std::move(layers), arch, base_);
          }
          case kMap: {
            serve::Request req;
            req.type = serve::RequestType::Map;
            req.configText = maps_[std::uniform_int_distribution<
                std::size_t>(0, maps_.size() - 1)(rng_)];
            req.variant = ruby::MapspaceVariant::RubyS;
            req.preset = ruby::ConstraintPreset::None;
            req.search = servedOptions(base_);
            return req;
          }
          case kStats:
            break;
        }
        serve::Request req;
        req.type = serve::RequestType::Stats;
        return req;
    }

    std::size_t refIndex(serve::Request req)
    {
        req.id.clear();
        const std::string key =
            serve::writeJson(serve::encodeRequest(req));
        const auto [it, inserted] = index_.emplace(key, distinct_.size());
        if (inserted)
            distinct_.push_back(std::move(req));
        return it->second;
    }

    const ServedMix &mix_;
    std::mt19937_64 rng_;
    std::mt19937_64 freshRng_;
    std::uint64_t base_;
    std::uint64_t fresh_ = 0;
    std::vector<std::pair<ruby::ConvShape, std::string>> hot_;
    std::vector<std::string> maps_;
    std::vector<serve::Request> distinct_;
    std::unordered_map<std::string, std::size_t> index_;
};

/** The offline job that answers @p req (what the daemon would run). */
OfflineJob
jobFor(const serve::Request &req)
{
    OfflineJob job;
    job.label = req.type == serve::RequestType::Map ? "map" : "net";
    job.network = req.type == serve::RequestType::Net;
    job.configText = req.configText;
    job.layers = req.layers;
    job.arch = req.arch;
    job.preset = req.preset;
    job.variant = req.variant;
    job.options = req.search;
    return job;
}

int
tcpConnect(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        ::close(fd);
        throw std::runtime_error("connect() to the router failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

/**
 * The open-loop client: pipelined connections to the router, all
 * driven by the calling thread. It sends each request at its due
 * time and reads replies without blocking, spinning while one is
 * outstanding or a send is due within kSpinLeadNs, and sleeps in
 * ppoll otherwise; so a reply is timestamped when it arrives and a
 * send leaves on time without waiting for a wake-up.
 */
class LoadClient
{
  public:
    LoadClient(int port, unsigned conns)
    {
        for (unsigned c = 0; c < conns; ++c)
            fds_.push_back(tcpConnect(port));
        bufs_.resize(conns);
        open_ = conns;
    }

    ~LoadClient()
    {
        for (const int fd : fds_)
            ::close(fd);
    }

    LoadClient(const LoadClient &) = delete;
    LoadClient &operator=(const LoadClient &) = delete;

    /**
     * Send @p items (round-robin over the connections) at their due
     * times, counted from @p offsetNs of their phase, and collect the
     * replies. Each item's dueNs becomes absolute. Returns the time
     * from the slice's start to its last reply, s.
     */
    double drive(std::vector<Item *> &items, std::int64_t offsetNs)
    {
        constexpr std::int64_t kSpinLeadNs = 1'000'000;
        constexpr std::int64_t kDrainNs = 30'000'000'000LL;
        const std::int64_t start = nowNs() + 5'000'000;
        for (Item *item : items)
            item->dueNs = start + item->dueNs - offsetNs;
        const std::int64_t lastDue =
            items.empty() ? start : items.back()->dueNs;
        std::vector<std::pair<std::int64_t, std::string>> got;
        std::size_t sent = 0;
        while (open_ > 0) {
            std::int64_t now = nowNs();
            for (; sent < items.size() && items[sent]->dueNs <= now;
                 ++sent) {
                Item &item = *items[sent];
                item.sendNs = nowNs();
                sendAll(fds_[next_++ % fds_.size()], item.line);
            }
            const bool read = receive(got);
            if (sent == items.size() &&
                (got.size() >= sent || nowNs() > lastDue + kDrainNs))
                break;
            now = nowNs();
            if (read || got.size() < sent || sent == items.size())
                continue;
            const std::int64_t idle =
                items[sent]->dueNs - kSpinLeadNs - now;
            if (idle <= 0)
                continue;
            std::vector<pollfd> polls;
            for (const int fd : fds_)
                polls.push_back(pollfd{fd, POLLIN, 0});
            const timespec ts{static_cast<time_t>(idle / 1'000'000'000),
                              static_cast<long>(idle % 1'000'000'000)};
            ::ppoll(polls.data(), polls.size(), &ts, nullptr);
        }

        // Match replies to requests by id.
        std::unordered_map<std::string, Item *> byId;
        for (Item *item : items)
            byId[item->id] = item;
        for (auto &[t, line] : got) {
            std::string id;
            {
                Span span("parseJson", "serve.codec");
                id = serve::parseJson(line).getString("id", "");
            }
            const auto it = byId.find(id);
            if (it == byId.end() || it->second->recvNs != 0)
                continue;
            it->second->recvNs = t;
            it->second->reply = std::move(line);
        }
        std::int64_t last = start;
        for (const Item *item : items)
            last = std::max(last, item->recvNs);
        return static_cast<double>(last - start) / 1e9;
    }

  private:
    static void sendAll(int fd, const std::string &line)
    {
        const char *p = line.data();
        std::size_t left = line.size();
        while (left > 0) {
            const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
            if (n <= 0)
                return; // the reply goes missing and counts as failed
            p += n;
            left -= static_cast<std::size_t>(n);
        }
    }

    /** Read whatever has arrived on every connection, timestamping
     *  each complete line; true if anything was read. */
    bool receive(std::vector<std::pair<std::int64_t, std::string>> &got)
    {
        bool any = false;
        char chunk[65536];
        for (std::size_t c = 0; c < fds_.size(); ++c) {
            if (fds_[c] < 0)
                continue;
            while (true) {
                const ssize_t n =
                    ::recv(fds_[c], chunk, sizeof chunk, MSG_DONTWAIT);
                if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                if (n <= 0) { // closed by the router: nothing more comes
                    ::close(fds_[c]);
                    fds_[c] = -1;
                    --open_;
                    break;
                }
                any = true;
                const std::int64_t t = nowNs();
                std::string &buf = bufs_[c];
                buf.append(chunk, static_cast<std::size_t>(n));
                std::size_t from = 0;
                for (std::size_t nl;
                     (nl = buf.find('\n', from)) != std::string::npos;
                     from = nl + 1)
                    got.emplace_back(t, buf.substr(from, nl - from));
                buf.erase(0, from);
            }
        }
        return any;
    }

    std::vector<int> fds_;
    std::vector<std::string> bufs_;
    std::size_t open_ = 0;
    std::size_t next_ = 0;
};

/** Answer bytes of a reply, or "" when it carries no answer. */
std::string
replyAnswer(const serve::JsonValue &reply)
{
    if (const serve::JsonValue *net = reply.find("net"))
        return answerBytes(serve::networkOutcomeFromJson(*net));
    if (const serve::JsonValue *outcome = reply.find("outcome"))
        return answerBytes(serve::layerOutcomeFromJson(*outcome));
    return std::string();
}

double
p50(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::uint64_t
u64At(const serve::JsonValue &root,
      std::initializer_list<const char *> path)
{
    const serve::JsonValue *v = &root;
    for (const char *key : path) {
        v = v->find(key);
        if (v == nullptr)
            return 0;
    }
    return v->asU64();
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) / static_cast<double>(den);
}

/** A unique single-layer request for the round-trip probes. */
std::string
probeLine(std::uint64_t seed, int k, const std::string &tag)
{
    // Every (tag, k) is its own request: a repeat of another probe
    // would be answered from a cache.
    std::mt19937_64 rng(subSeed(seed, 400 + static_cast<unsigned>(k) +
                                          (tag == "pb" ? 1000u : 0u)));
    serve::Request req;
    req.type = serve::RequestType::Net;
    req.id = tag + std::to_string(k);
    req.arch = "eyeriss";
    req.layers = {ruby::Layer{randomShape(rng, "probe"), 1, "probe"}};
    req.variant = ruby::MapspaceVariant::RubyS;
    req.preset = presetFor(req.arch);
    req.search = servedOptions(subSeed(seed, 500));
    return serve::writeJson(serve::encodeRequest(req));
}

double
timedCall(serve::Client &client, const std::string &line,
          const std::string &id, const char *name)
{
    const std::int64_t t0 = nowNs();
    {
        Span span(name, "serve.frontend", id);
        client.callRaw(line);
    }
    return static_cast<double>(nowNs() - t0) / 1e6;
}

} // namespace

// -- mixes --------------------------------------------------------------

ServedMix
netRandomMix()
{
    ServedMix mix;
    // Served on simba, where at least 14 % of sampled mappings are
    // valid for every suite layer, so the small served budget always
    // finds one; on eyeriss some layers need thousands of draws,
    // which the offline phase covers.
    std::set<std::string> seen;
    for (const char *suite : {"resnet50", "deepbench"})
        for (const ruby::Layer &layer : serve::suiteLayers(suite)) {
            const ruby::ConvShape &s = layer.shape;
            const std::string key =
                std::to_string(s.c) + "," + std::to_string(s.m) + "," +
                std::to_string(s.p) + "," + std::to_string(s.q) + "," +
                std::to_string(s.r) + "," + std::to_string(s.s) + "," +
                std::to_string(s.strideH) + "," + std::to_string(s.n);
            if (seen.insert(key).second)
                mix.pool.emplace_back(s, "simba");
        }
    return mix;
}

ServedMix
serveMixedMix()
{
    return ServedMix{};
}

// -- the served phase -----------------------------------------------------

struct Traffic
{
    std::vector<Item> items;
    std::vector<serve::Request> distinct;
};

std::shared_ptr<Traffic>
makeTraffic(const ServedMix &mix, std::uint64_t seed)
{
    auto traffic = std::make_shared<Traffic>();
    Generator gen(mix, seed);
    traffic->items = gen.schedule();
    traffic->distinct = gen.distinct();
    return traffic;
}

ServedResult
runServed(Fleet &fleet, const ServedMix &mix, Traffic &traffic,
          std::uint64_t seed, bool probes, Ledger &ledger, int rounds,
          const std::function<void()> &beforeRound)
{
    ServedResult out;
    std::vector<Item> &items = traffic.items;
    out.distinctRequests = traffic.distinct.size();

    // The answer to each distinct request, computed as the daemon
    // would (one layer memo across the calls), outside the window.
    std::vector<OfflineJob> referenceJobs;
    for (const serve::Request &req : traffic.distinct)
        referenceJobs.push_back(jobFor(req));
    OfflineRunner reference(referenceJobs, ledger, 1, true);
    reference.pass(false);
    const std::vector<std::string> &answers = reference.result().answers;

    // Slice every phase's schedule into the rounds before any item's
    // due time is made absolute.
    const double phaseLen[2] = {mix.lowSeconds, mix.highSeconds};
    std::vector<std::vector<Item *>> slices(
        static_cast<std::size_t>(rounds) * 2);
    for (Item &item : items) {
        const double at = static_cast<double>(item.dueNs) / 1e9;
        const int r = std::min(
            rounds - 1,
            static_cast<int>(at / phaseLen[item.phase] * rounds));
        item.round = r;
        slices[static_cast<std::size_t>(r * 2 + item.phase)].push_back(
            &item);
    }

    const unsigned conns = std::max(
        1u, std::min(4u, std::thread::hardware_concurrency()));
    LoadClient client(fleet.routerPort(), conns);
    double phaseSeconds[2] = {0, 0};
    for (int r = 0; r < rounds; ++r) {
        beforeRound();
        for (int phase = 0; phase < 2; ++phase)
            phaseSeconds[phase] += client.drive(
                slices[static_cast<std::size_t>(r * 2 + phase)],
                static_cast<std::int64_t>(phaseLen[phase] * 1e9 * r /
                                          rounds));
    }

    for (ByRound &phase : out.latMs)
        phase.resize(static_cast<std::size_t>(rounds));
    const double limitNs = mix.latencyLimitMs * 1e6;
    std::uint64_t goodHigh = 0;
    for (const Item &item : items) {
        out.lagMs.push_back(
            static_cast<double>(item.sendNs - item.dueNs) / 1e6);
        bool ok = item.recvNs != 0;
        if (ok) {
            const serve::JsonValue reply = serve::parseJson(item.reply);
            const std::int64_t code = reply.at("code").asI64();
            if (item.kind == kStats) {
                ok = code == 0 && reply.find("stats") != nullptr;
            } else if (code != 0) {
                ok = false; // refused or failed: counted, not wrong
            } else if (replyAnswer(reply) !=
                       answers[item.ref]) {
                ok = false;
                ledger.wrong("served reply " +
                             reply.getString("id", "?") +
                             " differs from the offline answer");
            }
        }
        ledger.record(ok);
        if (!ok)
            continue;
        const double lat = static_cast<double>(item.recvNs - item.dueNs);
        out.latMs[item.phase][static_cast<std::size_t>(item.round)]
            .push_back(lat / 1e6);
        if (item.phase == 1 && lat <= limitNs)
            ++goodHigh;
        if (Tracer::global().enabled()) {
            Tracer::global().add("request", "serve.frontend",
                                 item.sendNs, item.recvNs, item.id);
            Tracer::global().add("generator.lag", "gen", item.dueNs,
                                 item.sendNs, item.id);
        }
    }
    // Per-kind latency summary, for reading a run (stderr only).
    {
        static const char *kKindNames[] = {"hot", "fresh", "multi", "map",
                                           "stats"};
        for (int phase = 0; phase < 2; ++phase)
            for (int kind = 0; kind < 5; ++kind) {
                std::vector<double> v;
                for (const Item &item : items)
                    if (item.phase == phase && item.kind == kind &&
                        item.recvNs != 0)
                        v.push_back(
                            static_cast<double>(item.recvNs - item.dueNs) /
                            1e6);
                if (v.empty())
                    continue;
                std::fprintf(stderr,
                             "perfbench: %s %-5s n=%zu p50 %.3f ms p99 "
                             "%.3f ms\n",
                             phase == 0 ? "low " : "high",
                             kKindNames[kind], v.size(), quantile(v, 0.5),
                             quantile(v, 0.99));
            }
    }
    out.goodputHigh = phaseSeconds[1] > 0
                          ? static_cast<double>(goodHigh) / phaseSeconds[1]
                          : 0.0;

    const serve::JsonValue stats = fleet.router().fleetStatsJson();
    out.routerCacheHitRatio = ratio(
        u64At(stats, {"router", "responseCache", "hits"}),
        u64At(stats, {"router", "responseCache", "hits"}) +
            u64At(stats, {"router", "responseCache", "misses"}));
    out.daemonCacheHitRatio = ratio(
        u64At(stats, {"fleet", "responseCache", "hits"}),
        u64At(stats, {"fleet", "responseCache", "hits"}) +
            u64At(stats, {"fleet", "responseCache", "misses"}));
    out.layerMemoHitRatio =
        ratio(u64At(stats, {"fleet", "layerMemo", "hits"}),
              u64At(stats, {"fleet", "layerMemo", "hits"}) +
                  u64At(stats, {"fleet", "layerMemo", "misses"}));
    out.coalesced = static_cast<double>(
        u64At(stats, {"router", "responseCache", "coalesced"}) +
        u64At(stats, {"fleet", "responseCache", "coalesced"}));
    out.rejected = static_cast<double>(
        u64At(stats, {"router", "rejectedSaturated"}) +
        u64At(stats, {"router", "rejectedDraining"}) +
        u64At(stats, {"fleet", "requests", "rejectedSaturated"}) +
        u64At(stats, {"fleet", "requests", "rejectedDraining"}));

    if (!probes)
        return out;

    // Codec cost on this run's own lines.
    {
        const std::int64_t t0 = nowNs();
        for (const Item &item : items) {
            Span span("parseRequest", "serve.codec");
            serve::parseRequest(serve::parseJson(item.line));
        }
        out.parseUs = static_cast<double>(nowNs() - t0) / 1e3 /
                      static_cast<double>(items.size());
        std::vector<serve::JsonValue> replies;
        for (const Item &item : items)
            if (item.recvNs != 0)
                replies.push_back(serve::parseJson(item.reply));
        const std::int64_t t1 = nowNs();
        for (const serve::JsonValue &reply : replies) {
            Span span("writeJson", "serve.codec");
            serve::writeJson(reply);
        }
        out.encodeUs = static_cast<double>(nowNs() - t1) / 1e3 /
                       static_cast<double>(std::max<std::size_t>(
                           1, replies.size()));
    }

    // Client round trips: first (a search), repeat (router cache),
    // and the router hop (routed minus direct, both daemon-cache hits).
    serve::Client routed =
        serve::Client::connectTcp("127.0.0.1", fleet.routerPort());
    std::vector<serve::Client> direct;
    for (std::size_t b = 0; b < 2; ++b)
        direct.push_back(serve::Client::connectTcp(
            "127.0.0.1", fleet.backendPort(b)));
    std::vector<double> first, repeat, routedHit, directHit;
    for (int k = 0; k < 20; ++k) {
        const std::string a = probeLine(seed, k, "pa");
        first.push_back(timedCall(routed, a, "pa", "Client::call"));
        repeat.push_back(timedCall(routed, a, "pa", "Client::call"));

        const std::string b = probeLine(seed, k, "pb");
        const serve::Request req = serve::parseRequest(serve::parseJson(b));
        serve::Client &home = direct[fleet.router().preferredBackend(
            serve::Router::routingKey(req))];
        timedCall(home, b, "pb", "Client::call");
        routedHit.push_back(timedCall(routed, b, "pb", "Client::call"));
        directHit.push_back(timedCall(home, b, "pb", "Client::call"));
    }
    out.firstRttMs = p50(first);
    out.repeatRttMs = p50(repeat);
    out.routerHopMs = p50(routedHit) - p50(directHit);
    return out;
}

} // namespace perfbench
