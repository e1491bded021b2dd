/**
 * @file
 * Batched-evaluation properties: for any generated workload,
 * architecture, and mapspace variant, the SoA BatchEvaluator decides
 * every lane — validity, objective bound, and the scratch handed to
 * the full model — bit-identically to the scalar Evaluator stages, at
 * every batch width including 1, primes, the default, and widths
 * beyond it; and rows edited by the Mapspace operators are decided
 * like the scalar stages, on hierarchies of any depth. (The random
 * search's replay of a scalar loop lives in search_pbt_test.cpp.)
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/mapspace/mapspace.hpp"
#include "ruby/model/batch_eval.hpp"
#include "ruby/model/evaluator.hpp"

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
 * Property 2 — edited rows go to the batch engine as they stand:
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
