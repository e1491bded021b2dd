#include "offline.hpp"

#include <string>

#include "rescore.hpp"
#include "ruby/core/mapper.hpp"
#include "ruby/io/loaders.hpp"
#include "ruby/serve/protocol.hpp"
#include "ruby/workload/suites/suites.hpp"
#include "trace.hpp"

namespace perfbench
{

namespace
{

std::uint64_t
awkward(std::mt19937_64 &rng, std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t v =
        std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    if ((v & (v - 1)) == 0 && v > 2)
        ++v; // keep powers of two rare: they factor perfectly
    return v;
}

/** Random-search options of the paper's experiment. */
ruby::SearchOptions
netRandomOptions(std::uint64_t seed)
{
    ruby::SearchOptions o;
    o.strategy = ruby::SearchStrategy::Random;
    o.maxEvaluations = 2000;
    o.terminationStreak = 0;
    o.threads = 2;
    o.networkThreads = 1;
    o.layerMemo = true;
    o.seed = seed;
    return o;
}

} // namespace

ruby::ConvShape
randomShape(std::mt19937_64 &rng, const std::string &name)
{
    ruby::ConvShape s;
    s.name = name;
    if (std::uniform_int_distribution<int>(0, 9)(rng) < 7) {
        s.c = awkward(rng, 3, 24);
        s.m = awkward(rng, 6, 32);
        s.p = awkward(rng, 5, 20);
        s.q = s.p;
        s.r = s.p >= 7 && (rng() & 1) != 0 ? 3 : 1;
        s.s = s.r;
    } else {
        // GEMM M x N x K as a 1x1 conv: P = M, M = N, C = K.
        s.p = awkward(rng, 6, 40);
        s.m = awkward(rng, 10, 40);
        s.c = awkward(rng, 10, 40);
    }
    return s;
}

ruby::ConstraintPreset
presetFor(const std::string &arch)
{
    return arch == "simba" ? ruby::ConstraintPreset::Simba
                           : ruby::ConstraintPreset::EyerissRS;
}

std::vector<OfflineJob>
netRandomJobs(std::uint64_t seed)
{
    std::vector<OfflineJob> jobs;
    std::uint64_t stream = 0;
    for (const char *suite : {"resnet50", "deepbench"})
        for (const char *arch : {"eyeriss", "simba"}) {
            OfflineJob job;
            job.label = std::string(suite) + "/" + arch;
            job.network = true;
            job.layers = ruby::serve::suiteLayers(suite);
            job.arch = arch;
            job.preset = presetFor(arch);
            job.options = netRandomOptions(subSeed(seed, ++stream));
            jobs.push_back(std::move(job));
        }
    return jobs;
}

namespace
{

void
stripAccounting(ruby::LayerOutcome &o)
{
    o.evaluated = 0;
    o.stats = ruby::EvalStats{};
    o.memoized = false;
    o.statsNote.clear();
}

} // namespace

std::string
answerBytes(ruby::NetworkOutcome net)
{
    for (ruby::LayerOutcome &o : net.layers)
        stripAccounting(o);
    net.stats = ruby::EvalStats{};
    net.memoizedLayers = 0;
    return ruby::serve::writeJson(ruby::serve::networkOutcomeToJson(net));
}

std::string
answerBytes(ruby::LayerOutcome outcome)
{
    stripAccounting(outcome);
    return ruby::serve::writeJson(
        ruby::serve::layerOutcomeToJson(outcome));
}

OfflineRunner::OfflineRunner(const std::vector<OfflineJob> &jobs,
                             Ledger &ledger, unsigned edpPasses,
                             bool asDaemon)
    : jobs_(jobs), ledger_(ledger), asDaemon_(asDaemon),
      edpPasses_(edpPasses),
      problems_(jobs.size())
{
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        const OfflineJob &job = jobs[j];
        if (!job.configText.empty()) {
            const ruby::Mapper mapper = ruby::loadMapper(job.configText);
            problems_[j].push_back(mapper.problem());
            archs_.push_back(mapper.arch());
            continue;
        }
        for (const ruby::Layer &layer : job.layers)
            problems_[j].push_back(ruby::makeConv(layer.shape));
        archs_.push_back(ruby::serve::archByName(job.arch));
    }
}

double
OfflineRunner::pass(bool timed)
{
    const unsigned pass = passes_++;
    const bool first = pass == 0;
    const bool edp = pass < edpPasses_;
    if (timed && out_.passWallS.empty()) {
        out_.passWallS.emplace_back();
        out_.searchMs.emplace_back();
    }
    double passWall = 0.0;
    ruby::LayerMemo memo;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
        OfflineJob job = jobs_[j];
        if (asDaemon_)
            job.options.sharedLayerMemo = &memo;
        if (edpPasses_ > 1 && !first)
            job.options.seed = subSeed(job.options.seed, pass);
        const ruby::ArchSpec &arch = archs_[j];
        ruby::NetworkOutcome net;
        const std::int64_t t0 = nowNs();
        if (job.network) {
            Span span("searchNetwork", "driver", job.label);
            net = ruby::searchNetwork(job.layers, arch, job.preset,
                                      job.variant, job.options);
        } else if (!job.configText.empty()) {
            Span span("searchLayer", "driver", job.label);
            const ruby::Mapper mapper = ruby::loadMapper(job.configText);
            net.layers.push_back(ruby::searchLayer(
                mapper.problem(), mapper.arch(), job.preset, job.variant,
                job.options));
        } else {
            Span span("searchLayer", "driver", job.label);
            net.layers.push_back(ruby::searchLayer(problems_[j][0], arch,
                                                   job.preset, job.variant,
                                                   job.options));
        }
        const double sec = static_cast<double>(nowNs() - t0) / 1e9;
        passWall += sec;

        std::uint64_t searched = 0;
        for (std::size_t i = 0; i < net.layers.size(); ++i) {
            const ruby::LayerOutcome &o = net.layers[i];
            if (!o.memoized)
                ++searched;
            std::string why;
            const bool ok = rescoreMatches(o, problems_[j][i], arch, why);
            ledger_.record(ok);
            if (!ok) {
                ledger_.wrong(job.label + ": " + why);
                continue;
            }
            if (edp && !o.memoized)
                out_.edpRatios.push_back(edpOverIdeal(o.result, arch));
            if (!first)
                continue;
            if (o.memoized)
                ++out_.layerMemoHits;
            else
                out_.stats += o.stats;
        }
        if (first) {
            out_.layersSearched += searched;
            if (asDaemon_)
                out_.answers.push_back(job.network
                                           ? answerBytes(net)
                                           : answerBytes(net.layers[0]));
        }
        if (timed && searched != 0)
            out_.searchMs.back().push_back(sec * 1e3 /
                                    static_cast<double>(searched));
    }
    if (timed) {
        out_.passWallS.back().push_back(passWall);
    }
    return passWall;
}

void
OfflineRunner::runFor(double budgetSeconds)
{
    out_.passWallS.emplace_back();
    out_.searchMs.emplace_back();
    double spent = 0.0;
    do
        spent += pass(true);
    while (spent < budgetSeconds);
}

} // namespace perfbench
