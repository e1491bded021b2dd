#include "probes.hpp"

#include "offline.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/search/genetic_search.hpp"
#include "ruby/search/local_search.hpp"
#include "ruby/search/optimal_search.hpp"
#include "ruby/serve/protocol.hpp"
#include "trace.hpp"

namespace perfbench
{

namespace
{

constexpr unsigned kThreads = 2;
constexpr std::size_t kSamples = 4000;
constexpr std::size_t kLanes = 32;
/** Leaf cap of the certificate runs on small shapes. */
constexpr std::uint64_t kCertifyCap = 200000;

double
perItem(std::int64_t ns, std::size_t n)
{
    return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

} // namespace

ProbeResult
runProbes(const std::vector<OfflineJob> &jobs, std::uint64_t seed)
{
    ProbeResult out;
    std::int64_t sampleNs = 0, validNs = 0, batchNs = 0, fullNs = 0;
    std::size_t samples = 0, checked = 0, lanes = 0, full = 0;
    double searchEvals[5] = {0, 0, 0, 0, 0};
    double searchSec[5] = {0, 0, 0, 0, 0};
    ruby::SearchTimers timers;
    double cpu = 0.0, wall = 0.0;

    std::size_t probed = 0;
    for (const OfflineJob &job : jobs) {
        if (probed == 2)
            break;
        if (!job.configText.empty())
            continue;
        ++probed;
        const ruby::ArchSpec arch = ruby::serve::archByName(job.arch);
        const ruby::Problem problem = ruby::makeConv(job.layers[0].shape);
        const ruby::MappingConstraints constraints =
            ruby::makeConstraints(job.preset, problem, arch);
        const ruby::Mapspace space(constraints, job.variant);
        const ruby::Evaluator evaluator(problem, arch);
        ruby::Rng rng(subSeed(seed, 600 + probed));

        std::vector<ruby::Mapping> drawn;
        drawn.reserve(kSamples);
        {
            Span span("Mapspace::sample", "mapspace");
            const std::int64_t t0 = nowNs();
            for (std::size_t i = 0; i < kSamples; ++i)
                drawn.push_back(space.sample(rng));
            sampleNs += nowNs() - t0;
            samples += kSamples;
        }

        ruby::EvalScratch scratch;
        std::vector<char> valid(drawn.size(), 0);
        {
            Span span("Evaluator::checkValidity", "model");
            const std::int64_t t0 = nowNs();
            for (std::size_t i = 0; i < drawn.size(); ++i)
                valid[i] =
                    evaluator.checkValidity(drawn[i], scratch, false);
            validNs += nowNs() - t0;
            checked += drawn.size();
        }

        if (ruby::BatchEvaluator::supports(problem, arch)) {
            Span span("BatchEvaluator::run", "model");
            ruby::BatchEvaluator batch(evaluator);
            ruby::EvalStats stats;
            const std::int64_t t0 = nowNs();
            for (std::size_t i = 0; i + kLanes <= drawn.size();
                 i += kLanes) {
                batch.begin(kLanes);
                for (std::size_t k = 0; k < kLanes; ++k)
                    batch.add(drawn[i + k]);
                batch.run(ruby::Objective::EDP, stats);
                lanes += kLanes;
            }
            batchNs += nowNs() - t0;
        }

        {
            Span span("Evaluator::evaluate", "model");
            const std::int64_t t0 = nowNs();
            for (std::size_t i = 0; i < drawn.size(); ++i)
                if (valid[i] != 0) {
                    evaluator.evaluate(drawn[i], scratch);
                    ++full;
                }
            fullNs += nowNs() - t0;
        }

        // The four strategies, called directly with small budgets.
        const double cpu0 = processCpuSeconds();
        const std::int64_t w0 = nowNs();
        auto account = [&](ruby::SearchStrategy s, const char *name,
                           auto &&call) {
            Span span(name, "search");
            const std::int64_t t0 = nowNs();
            const auto res = call();
            const auto i = static_cast<std::size_t>(s);
            searchSec[i] += static_cast<double>(nowNs() - t0) / 1e9;
            searchEvals[i] += static_cast<double>(res.evaluated);
            timers += res.timers;
            return res;
        };
        account(ruby::SearchStrategy::Random, "randomSearch", [&] {
            ruby::SearchOptions o;
            o.maxEvaluations = 4000;
            o.terminationStreak = 0;
            o.threads = kThreads;
            o.seed = subSeed(seed, 610);
            return ruby::randomSearch(space, evaluator, o);
        });
        out.deltaStats +=
            account(ruby::SearchStrategy::Local, "localSearch", [&] {
                ruby::LocalSearchOptions o;
                o.maxEvaluations = 3000;
                o.starts = kThreads;
                o.threads = kThreads;
                o.seed = subSeed(seed, 611);
                return ruby::localSearch(space, evaluator, o);
            }).stats;
        out.deltaStats +=
            account(ruby::SearchStrategy::Genetic, "geneticSearch", [&] {
                ruby::GeneticOptions o;
                o.islands = 2;
                o.threads = kThreads;
                o.generations = 20;
                o.seed = subSeed(seed, 612);
                return ruby::geneticSearch(space, evaluator, o);
            }).stats;
        account(ruby::SearchStrategy::Optimal, "optimalSearch", [&] {
            ruby::OptimalOptions o;
            o.threads = kThreads;
            o.maxEvaluations = 4000;
            return ruby::optimalSearch(space, evaluator, o);
        });
        cpu += processCpuSeconds() - cpu0;
        wall += static_cast<double>(nowNs() - w0) / 1e9;
    }

    // The certificate: a small awkward shape per preset, searched to
    // the proven optimum or the cap.
    std::mt19937_64 shapes(subSeed(seed, 620));
    for (const char *archName : {"eyeriss", "simba"}) {
        const ruby::ArchSpec arch = ruby::serve::archByName(archName);
        const ruby::Problem problem =
            ruby::makeConv(randomShape(shapes, "certify"));
        const ruby::MappingConstraints constraints =
            ruby::makeConstraints(presetFor(archName), problem, arch);
        const ruby::Mapspace space(constraints, ruby::MapspaceVariant::RubyS);
        const ruby::Evaluator evaluator(problem, arch);
        Span span("optimalSearch", "search");
        ruby::OptimalOptions o;
        o.threads = kThreads;
        o.maxEvaluations = kCertifyCap;
        const ruby::OptimalResult res =
            ruby::optimalSearch(space, evaluator, o);
        ++out.optimalCalls;
        out.optimalCertified += res.certified ? 1 : 0;
        out.optimalEvaluated += res.evaluated;
    }

    out.samples = static_cast<double>(samples);
    out.sampleNs = perItem(sampleNs, samples);
    out.validityNs = perItem(validNs, checked);
    out.batchNsPerLane = perItem(batchNs, lanes);
    out.fullEvalNs = perItem(fullNs, full);
    for (int i = 0; i < 5; ++i)
        out.evalsPerS[i] =
            searchSec[i] > 0 ? searchEvals[i] / searchSec[i] : 0.0;
    const double total = static_cast<double>(timers.totalNs);
    if (total > 0) {
        out.evalShare = static_cast<double>(timers.evalNs) / total;
        out.breedShare = static_cast<double>(timers.breedNs) / total;
        out.reduceShare = static_cast<double>(timers.reduceNs) / total;
    }
    out.cpuUtil = wall > 0 ? cpu / (wall * kThreads) : 0.0;
    return out;
}

} // namespace perfbench
