/**
 * @file
 * Batched-evaluation properties: for any generated workload,
 * architecture, and mapspace variant, the SoA BatchEvaluator decides
 * every lane — validity, objective bound, and the scratch handed to
 * the full model — bit-identically to the scalar Evaluator stages, at
 * every batch width including 1, primes, the default, and widths
 * beyond it; the batched random search replays a scalar loop over
 * the same draws exactly, trajectory and counters included; and rows
 * edited by the Mapspace operators are decided like the scalar
 * stages, on hierarchies of any depth.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
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
 * stages: one restart on one thread answers exactly what a plain loop
 * over the same keyed draws answers when it decides each draw with
 * Evaluator::evaluateStaged() against the best so far — same
 * trajectory, same best, same stage counters — and every draw the
 * sampler completes is served from a batch.
 */
std::optional<std::string>
batchedSearchReplaysScalar(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    SearchOptions opts;
    opts.seed = c.sampleSeed;
    opts.maxEvaluations = 400;
    opts.terminationStreak = 150;
    opts.recordTrajectory = true;
    opts.threads = 1;
    const SearchResult b = randomSearch(space, eval, opts);

    // The reference: draw i reads Rng::keyed(seed, i); a strict
    // improvement becomes the incumbent; only valid draws move the
    // streak.
    SearchResult a;
    EvalScratch scratch;
    Decisions rows;
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t streak = 0;
    for (std::uint64_t i = 0; i < opts.maxEvaluations; ++i) {
        Rng rng = Rng::keyed(opts.seed, i);
        ++a.evaluated;
        if (!space.sampleInto(rng, rows)) {
            ++a.stats.invalid;
        } else {
            const Mapping mapping = space.materialize(rows);
            switch (eval.evaluateStaged(mapping, opts.objective, best,
                                        true, scratch)) {
              case StagedEval::Invalid:
                ++a.stats.invalid;
                break;
              case StagedEval::PrunedBound:
                ++a.stats.prunedBound;
                ++a.valid;
                ++streak;
                break;
              case StagedEval::Modeled: {
                ++a.stats.modeled;
                ++a.valid;
                const double metric =
                    scratch.result.objective(opts.objective);
                if (metric < best) {
                    best = metric;
                    a.best = mapping;
                    a.bestResult = scratch.result;
                    streak = 0;
                } else {
                    ++streak;
                }
                break;
              }
            }
        }
        a.trajectory.push_back(best);
        if (streak >= opts.terminationStreak)
            break;
    }

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

/**
 * Property 3 — edited rows go to the batch engine as they stand:
 * after any sequence of mutate(), undoMutation() and crossover() on
 * sampled rows, the engine decides every edited draw exactly like the
 * scalar stages — validity, objective bound and tile table. @p valid
 * counts the edited draws that were valid.
 */
std::optional<std::string>
editedDecisionsBatchLikeScalar(const Problem &prob, const ArchSpec &arch,
                               MapspaceVariant variant,
                               std::uint64_t seed,
                               const std::string &what,
                               std::size_t *valid = nullptr)
{
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, variant);
    const Evaluator eval(prob, arch);

    Rng rng(seed);
    Decisions a, b;
    space.sample(rng, a);
    space.sample(rng, b);
    MutationUndo undo;
    std::vector<Decisions> edited;
    for (int step = 0; step < 48; ++step) {
        switch (rng.below(4)) {
          case 0:
            space.mutate(a, rng);
            break;
          case 1:
            space.mutate(a, rng, &undo);
            if (rng.below(2) == 0)
                space.undoMutation(a, undo);
            break;
          case 2:
            a = space.crossover(a, b, rng);
            break;
          default:
            space.mutate(b, rng);
            std::swap(a, b);
            break;
        }
        edited.push_back(a);
    }

    BatchEvaluator batch(eval);
    EvalStats stats;
    EvalScratch scalar, batched;
    batch.begin(edited.size());
    for (const Decisions &rows : edited)
        batch.add(rows);
    batch.run(Objective::EDP, stats);
    for (std::size_t i = 0; i < edited.size(); ++i) {
        const Mapping mapping = space.materialize(edited[i]);
        const bool ok = eval.checkValidity(mapping, scalar, false);
        std::ostringstream os;
        os.precision(17);
        os << "edited draw " << i << " (" << what << "): ";
        if (batch.valid(i) != ok) {
            os << "batch valid=" << batch.valid(i)
               << " but scalar valid=" << ok;
            return os.str();
        }
        if (!ok)
            continue;
        if (valid != nullptr)
            ++*valid;
        const double bound =
            eval.objectiveLowerBound(mapping, Objective::EDP);
        if (batch.bound(i) != bound) {
            os << "batch bound " << batch.bound(i) << " != scalar "
               << bound;
            return os.str();
        }
        batch.prepareScratch(i, batched);
        if (batched.tiles.tileWords != scalar.tiles.tileWords) {
            os << "batch tile table differs from the scalar one";
            return os.str();
        }
    }
    return std::nullopt;
}

TEST(BatchPbt, EditedDecisionsBatchLikeScalar)
{
    ruby::pbt::check(
        "editedDecisionsBatchLikeScalar", 0xBA7Eu, pbt::genWorkload,
        [](const WorkloadCase &c) {
            return editedDecisionsBatchLikeScalar(
                c.problem(), c.arch(), c.variant, c.sampleSeed,
                c.describe());
        },
        pbt::shrinkWorkload,
        [](const WorkloadCase &c) { return c.describe(); }, 25);
}

/**
 * The same property on a hierarchy far deeper than any preset
 * (pbt::makeDeep23): every lane spans several mask words.
 */
TEST(BatchPbt, EditedDecisionsOfADeepHierarchyBatchLikeScalar)
{
    const ArchSpec arch = pbt::makeDeep23();
    const Problem prob = pbt::makeDeepConv();
    ASSERT_GT(arch.numLevels() * prob.numTensors(), 64);
    ASSERT_GT(arch.numLevels() * prob.numDims(), 128);
    std::size_t valid = 0;
    for (const MapspaceVariant variant :
         {MapspaceVariant::Ruby, MapspaceVariant::RubyS})
        for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
            const auto failure = editedDecisionsBatchLikeScalar(
                prob, arch, variant, seed, "deep-23", &valid);
            EXPECT_FALSE(failure.has_value()) << *failure;
        }
    EXPECT_GT(valid, 0u);
}

} // namespace
