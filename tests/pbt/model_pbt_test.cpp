/**
 * @file
 * Model-layer properties: the incremental evaluator is an exact
 * recomputation (delta == full, bit for bit), padding never beats
 * Ruby-S on the toy linear array (Fig. 8's claim as a universally
 * quantified property), and the mixed-radix remainder identity of
 * paper eq. (4)/(5) holds on arbitrary factor chains.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/common/math_util.hpp"
#include "ruby/mapspace/padding.hpp"
#include "ruby/model/delta_eval.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/search/exhaustive_search.hpp"

namespace
{

using namespace ruby;
using pbt::ChainCase;
using pbt::WorkloadCase;

/**
 * Property 1 — delta evaluation is exact: for any workload and any
 * candidate stream, DeltaEvaluator::evaluateCandidate() produces the
 * same validity flag and bit-identical metrics as a from-scratch
 * Evaluator::evaluate() of the same mapping, including across
 * promoteLast() rebasing.
 */
std::optional<std::string>
deltaMatchesFull(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    Rng rng(c.sampleSeed);
    DeltaEvaluator delta(eval);
    EvalStats stats;
    delta.rebase(space.sample(rng), stats);

    for (int i = 0; i < 24; ++i) {
        const Mapping candidate = space.sample(rng);
        const EvalResult &incr =
            delta.evaluateCandidate(candidate.decisions(), stats);
        const EvalResult full = eval.evaluate(candidate);

        if (incr.valid != full.valid) {
            std::ostringstream os;
            os << "candidate " << i << ": delta valid=" << incr.valid
               << " but full valid=" << full.valid << " ("
               << c.describe() << ")";
            return os.str();
        }
        if (full.valid &&
            (incr.energy != full.energy || incr.cycles != full.cycles ||
             incr.edp != full.edp ||
             incr.utilization != full.utilization)) {
            std::ostringstream os;
            os.precision(17);
            os << "candidate " << i << ": delta (e=" << incr.energy
               << ", c=" << incr.cycles << ", edp=" << incr.edp
               << ", u=" << incr.utilization << ") != full (e="
               << full.energy << ", c=" << full.cycles
               << ", edp=" << full.edp << ", u=" << full.utilization
               << ") (" << c.describe() << ")";
            return os.str();
        }
        // Exercise the rebase path: adopt every third valid candidate.
        if (full.valid && i % 3 == 0)
            delta.promoteLast();
    }
    return std::nullopt;
}

TEST(ModelPbt, DeltaEvaluationMatchesFullEvaluation)
{
    ruby::pbt::check("deltaMatchesFull", 0xD31Au, pbt::genWorkload,
                     deltaMatchesFull, pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     30);
}

/**
 * Property 2 — padding never beats Ruby-S: on the linear array of
 * Fig. 8, the best Ruby-S mapping is at least as good as the best
 * padded-PFM mapping on EDP, and its effective utilization (useful
 * work over occupied PE-cycles) is at least as high — padding's
 * extra MACs are never free.
 */
std::optional<std::string>
paddingNeverBeatsRubyS(const WorkloadCase &c)
{
    // The padding heuristic targets one spatial array; use the toy
    // linear arch and the 1-D workload regardless of the drawn kind.
    const ArchSpec arch = makeToyLinear(c.pes);
    const Problem raw = makeVector1D(c.d);
    const MappingConstraints rawCons(raw, arch);
    const Evaluator rawEval(raw, arch);

    const ExhaustiveResult rubys = exhaustiveSearch(
        Mapspace(rawCons, MapspaceVariant::RubyS), rawEval);

    const Problem padded = padForArray(raw, rawCons);
    const MappingConstraints padCons(padded, arch);
    const Evaluator padEval(padded, arch);
    const ExhaustiveResult pfmPadded = exhaustiveSearch(
        Mapspace(padCons, MapspaceVariant::PFM), padEval);

    if (!pfmPadded.best)
        return std::nullopt; // nothing to beat
    if (!rubys.best)
        return "padded PFM mapped but Ruby-S found no mapping (" +
               c.describe() + ")";

    if (rubys.bestResult.edp >
        pfmPadded.bestResult.edp * (1 + 1e-12)) {
        std::ostringstream os;
        os.precision(17);
        os << "Ruby-S edp " << rubys.bestResult.edp
           << " worse than padded-PFM edp " << pfmPadded.bestResult.edp
           << " (d=" << c.d << ", pes=" << c.pes << ")";
        return os.str();
    }

    // Effective utilization: padding inflates ops, so score both
    // winners by *useful* MACs (the raw problem's d) per PE-cycle.
    const double rubysUtil =
        static_cast<double>(c.d) /
        (static_cast<double>(c.pes) * rubys.bestResult.cycles);
    const double paddedUtil =
        static_cast<double>(c.d) /
        (static_cast<double>(c.pes) * pfmPadded.bestResult.cycles);
    if (rubysUtil < paddedUtil * (1 - 1e-12)) {
        std::ostringstream os;
        os.precision(17);
        os << "Ruby-S effective utilization " << rubysUtil
           << " below padded-PFM " << paddedUtil << " (d=" << c.d
           << ", pes=" << c.pes << ")";
        return os.str();
    }
    return std::nullopt;
}

TEST(ModelPbt, PaddingNeverBeatsRubySOnLinearArray)
{
    auto gen = [](Rng &rng) {
        WorkloadCase c;
        c.kind = pbt::WorkloadKind::Vector1D;
        c.d = rng.between(1, 200);
        c.archKind = pbt::ArchKind::ToyLinear;
        c.pes = rng.between(2, 16);
        c.sampleSeed = rng.next();
        return c;
    };
    ruby::pbt::check("paddingNeverBeatsRubyS", 0xFA08u, gen,
                     paddingNeverBeatsRubyS, pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     25);
}

/**
 * Property 3 — the mixed-radix remainder identity (paper eq. 4/5):
 * for any dimension D and steady chain P with prod(P) >= D, the
 * derived tails R satisfy 1 <= R_k <= P_k, the coverage identity
 * D = 1 + sum_k (R_k - 1) prod_{i<k} P_i, the body-count recursion
 * bottoms out at exactly D bodies, and a chain that needs no
 * remainder (prod == D ... with all-perfect digits) derives perfect
 * tails.
 */
std::optional<std::string>
mixedRadixIdentity(const ChainCase &c)
{
    const std::vector<std::uint64_t> tails =
        deriveTails(c.dim, c.steady);
    if (tails.size() != c.steady.size())
        return "tail count mismatch (" + c.describe() + ")";
    for (std::size_t k = 0; k < tails.size(); ++k) {
        if (tails[k] < 1 || tails[k] > c.steady[k]) {
            std::ostringstream os;
            os << "tail out of range at slot " << k << ": R=" << tails[k]
               << " P=" << c.steady[k] << " (" << c.describe() << ")";
            return os.str();
        }
    }
    if (!coverageHolds(c.dim, c.steady, tails))
        return "coverage identity violated (" + c.describe() + ")";
    const std::vector<std::uint64_t> bodies =
        bodyCounts(c.steady, tails);
    if (bodies.empty() || bodies[0] != c.dim) {
        std::ostringstream os;
        os << "body recursion gives B_0="
           << (bodies.empty() ? 0 : bodies[0]) << ", want " << c.dim
           << " (" << c.describe() << ")";
        return os.str();
    }
    // Derivation is canonical: perturbing any single non-trivial tail
    // breaks coverage (the digits of D-1 are unique).
    for (std::size_t k = 0; k < tails.size(); ++k) {
        std::vector<std::uint64_t> bent = tails;
        if (bent[k] < c.steady[k])
            bent[k] += 1;
        else if (bent[k] > 1)
            bent[k] -= 1;
        else
            continue;
        if (coverageHolds(c.dim, c.steady, bent)) {
            std::ostringstream os;
            os << "coverage not unique: slot " << k << " tail "
               << tails[k] << " -> " << bent[k] << " still covers ("
               << c.describe() << ")";
            return os.str();
        }
    }
    return std::nullopt;
}

TEST(ModelPbt, MixedRadixRemainderIdentity)
{
    ruby::pbt::check("mixedRadixIdentity", 0xE445u, pbt::genChain,
                     mixedRadixIdentity, pbt::shrinkChain,
                     [](const ChainCase &c) { return c.describe(); },
                     300);
}

} // namespace
