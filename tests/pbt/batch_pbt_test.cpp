/**
 * @file
 * Batched-evaluation properties: for any generated workload,
 * architecture, and mapspace variant, the SoA BatchEvaluator decides
 * every lane — validity, objective bound, and the scratch handed to
 * the full model — bit-identically to the scalar Evaluator stages, at
 * every batch width including 1, primes, the default, and widths
 * beyond it; and the batched random search replays the scalar search
 * exactly, trajectory and counters included.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/search/random_search.hpp"

namespace
{

using namespace ruby;
using pbt::WorkloadCase;

/**
 * Property 1 — batch stages are exact: for each width K the batch's
 * validity flags, lower bounds, and modeled results match the scalar
 * pipeline lane for lane, on the natural mix of valid and invalid
 * samples the mapspace produces.
 */
std::optional<std::string>
batchMatchesScalar(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    Rng rng(c.sampleSeed);
    BatchEvaluator batch(eval);
    EvalStats stats;
    EvalScratch scalar, batched;
    const std::size_t widths[] = {1, 2, 7, 32, 128};
    for (const std::size_t k : widths) {
        std::vector<Mapping> drawn;
        drawn.reserve(k);
        batch.begin(k);
        for (std::size_t i = 0; i < k; ++i) {
            drawn.push_back(space.sample(rng));
            batch.add(drawn.back());
        }
        batch.run(Objective::EDP, stats);
        for (std::size_t i = 0; i < k; ++i) {
            const bool valid =
                eval.checkValidity(drawn[i], scalar, false);
            if (batch.valid(i) != valid) {
                std::ostringstream os;
                os << "width " << k << " lane " << i << ": batch valid="
                   << batch.valid(i) << " but scalar valid=" << valid
                   << " (" << c.describe() << ")";
                return os.str();
            }
            if (!valid)
                continue;
            const double bound =
                eval.objectiveLowerBound(drawn[i], Objective::EDP);
            if (batch.bound(i) != bound) {
                std::ostringstream os;
                os.precision(17);
                os << "width " << k << " lane " << i << ": batch bound "
                   << batch.bound(i) << " != scalar " << bound << " ("
                   << c.describe() << ")";
                return os.str();
            }
            eval.modelValidated(drawn[i], scalar);
            batch.prepareScratch(i, batched);
            eval.modelValidated(drawn[i], batched);
            const EvalResult &a = scalar.result;
            const EvalResult &b = batched.result;
            if (a.energy != b.energy || a.cycles != b.cycles ||
                a.edp != b.edp || a.utilization != b.utilization) {
                std::ostringstream os;
                os.precision(17);
                os << "width " << k << " lane " << i
                   << ": batched model (e=" << b.energy
                   << ", c=" << b.cycles << ", edp=" << b.edp
                   << ") != scalar (e=" << a.energy
                   << ", c=" << a.cycles << ", edp=" << a.edp << ") ("
                   << c.describe() << ")";
                return os.str();
            }
        }
    }
    return std::nullopt;
}

TEST(BatchPbt, BatchStagesMatchScalarStages)
{
    ruby::pbt::check("batchMatchesScalar", 0xBA7Cu, pbt::genWorkload,
                     batchMatchesScalar, pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     25);
}

/**
 * Property 2 — the batched random search is a replay of the scalar
 * one: same trajectory, same best, same stage counters, and every
 * draw the sampler completes served from a batch.
 */
std::optional<std::string>
batchedSearchReplaysScalar(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    SearchOptions scalar;
    scalar.seed = c.sampleSeed;
    scalar.maxEvaluations = 400;
    scalar.terminationStreak = 150;
    scalar.recordTrajectory = true;
    scalar.threads = 1;
    scalar.batchEval = false;
    SearchOptions batched = scalar;
    batched.batchEval = true;

    const SearchResult a = randomSearch(space, eval, scalar);
    const SearchResult b = randomSearch(space, eval, batched);

    std::ostringstream os;
    os.precision(17);
    if (a.evaluated != b.evaluated || a.valid != b.valid) {
        os << "totals diverge: scalar " << a.evaluated << "/" << a.valid
           << " vs batched " << b.evaluated << "/" << b.valid << " ("
           << c.describe() << ")";
        return os.str();
    }
    if (a.trajectory != b.trajectory) {
        os << "trajectories diverge after "
           << a.trajectory.size() << "/" << b.trajectory.size()
           << " steps (" << c.describe() << ")";
        return os.str();
    }
    if (a.stats.invalid != b.stats.invalid ||
        a.stats.prunedBound != b.stats.prunedBound ||
        a.stats.modeled != b.stats.modeled) {
        os << "stage counters diverge (" << c.describe() << ")";
        return os.str();
    }
    if (a.best.has_value() != b.best.has_value()) {
        os << "best presence diverges (" << c.describe() << ")";
        return os.str();
    }
    if (a.best && (a.bestResult.edp != b.bestResult.edp ||
                   a.best->toString() != b.best->toString())) {
        os << "best diverges: scalar edp " << a.bestResult.edp
           << " vs batched " << b.bestResult.edp << " ("
           << c.describe() << ")";
        return os.str();
    }
    // Every completed draw takes a lane and passes it: the sampler
    // rejects doomed draws before they are batched.
    if (b.stats.batchedEvals != b.valid || b.stats.batchRejects != 0 ||
        b.stats.decided() != b.evaluated) {
        os << "batched counters broken: batchedEvals="
           << b.stats.batchedEvals << " decided=" << b.stats.decided()
           << " evaluated=" << b.evaluated << " (" << c.describe()
           << ")";
        return os.str();
    }
    return std::nullopt;
}

TEST(BatchPbt, BatchedRandomSearchReplaysScalarSearch)
{
    ruby::pbt::check("batchedSearchReplaysScalar", 0xBA7Du,
                     pbt::genWorkload, batchedSearchReplaysScalar,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     15);
}

} // namespace
