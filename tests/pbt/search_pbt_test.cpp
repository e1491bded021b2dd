/**
 * @file
 * Search-layer properties: staged evaluation (bound pruning) never
 * changes a search's trajectory or result, exhaustive
 * enumeration is bit-identical across thread counts, and the
 * mapspace-containment chain PFM subset Ruby-S/Ruby-T subset Ruby is
 * visible in the optima (a larger space never loses).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>

#include "generators.hpp"
#include "pbt.hpp"
#include "ruby/model/evaluator.hpp"
#include "ruby/search/exhaustive_search.hpp"
#include "ruby/search/random_search.hpp"

namespace
{

using namespace ruby;
using pbt::WorkloadCase;

/**
 * Property 4 — staged == unstaged trajectories: with the termination
 * rules fixed, enabling bound pruning changes neither the
 * best-so-far trajectory nor the final result of a
 * random search. The staged path must be a pure execution detail.
 */
std::optional<std::string>
stagedMatchesUnstagedTrajectory(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    SearchOptions base;
    base.recordTrajectory = true; // forces single-threaded
    base.terminationStreak = 0;
    base.maxEvaluations = 250;
    base.seed = c.sampleSeed;
    base.incremental = false;

    SearchOptions staged = base;
    staged.boundPruning = true;
    SearchOptions unstaged = base;
    unstaged.boundPruning = false;

    const SearchResult a = randomSearch(space, eval, staged);
    const SearchResult b = randomSearch(space, eval, unstaged);

    if (a.evaluated != b.evaluated || a.valid != b.valid) {
        std::ostringstream os;
        os << "counts diverge: staged evaluated=" << a.evaluated
           << " valid=" << a.valid << ", unstaged evaluated="
           << b.evaluated << " valid=" << b.valid << " ("
           << c.describe() << ")";
        return os.str();
    }
    if (a.trajectory != b.trajectory) {
        std::size_t at = 0;
        const std::size_t n =
            std::min(a.trajectory.size(), b.trajectory.size());
        while (at < n && a.trajectory[at] == b.trajectory[at])
            ++at;
        std::ostringstream os;
        os.precision(17);
        os << "trajectories diverge at step " << at << " (sizes "
           << a.trajectory.size() << " vs " << b.trajectory.size()
           << "): "
           << (at < a.trajectory.size()
                   ? std::to_string(a.trajectory[at])
                   : std::string("<end>"))
           << " vs "
           << (at < b.trajectory.size()
                   ? std::to_string(b.trajectory[at])
                   : std::string("<end>"))
           << " (" << c.describe() << ")";
        return os.str();
    }
    if (a.best.has_value() != b.best.has_value())
        return "one path found a mapping, the other did not (" +
               c.describe() + ")";
    if (a.best && (a.bestResult.edp != b.bestResult.edp ||
                   a.bestResult.energy != b.bestResult.energy ||
                   a.bestResult.cycles != b.bestResult.cycles)) {
        std::ostringstream os;
        os.precision(17);
        os << "best diverges: staged edp=" << a.bestResult.edp
           << " unstaged edp=" << b.bestResult.edp << " ("
           << c.describe() << ")";
        return os.str();
    }
    return std::nullopt;
}

TEST(SearchPbt, StagedEvaluationMatchesUnstagedTrajectory)
{
    ruby::pbt::check("stagedMatchesUnstaged", 0x57A6u,
                     pbt::genWorkload, stagedMatchesUnstagedTrajectory,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     20);
}

/**
 * Property 5 — serial == parallel: the sharded exhaustive
 * enumeration returns the identical best mapping, evaluated count
 * and truncation flag no matter how many worker threads shard the
 * index range.
 */
std::optional<std::string>
exhaustiveParallelMatchesSerial(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Mapspace space(cons, c.variant);
    const Evaluator eval(prob, arch);

    ExhaustiveOptions serial;
    serial.maxEvaluations = 30'000;
    serial.threads = 1;
    ExhaustiveOptions parallel = serial;
    parallel.threads = 3;

    const ExhaustiveResult a = exhaustiveSearch(space, eval, serial);
    const ExhaustiveResult b = exhaustiveSearch(space, eval, parallel);

    if (a.evaluated != b.evaluated || a.valid != b.valid ||
        a.truncated != b.truncated) {
        std::ostringstream os;
        os << "counters diverge: serial (evaluated=" << a.evaluated
           << ", valid=" << a.valid << ", truncated=" << a.truncated
           << ") vs parallel (evaluated=" << b.evaluated
           << ", valid=" << b.valid << ", truncated=" << b.truncated
           << ") (" << c.describe() << ")";
        return os.str();
    }
    if (a.best.has_value() != b.best.has_value())
        return "only one thread count found a mapping (" +
               c.describe() + ")";
    if (a.best) {
        if (a.bestResult.edp != b.bestResult.edp ||
            a.bestResult.energy != b.bestResult.energy ||
            a.bestResult.cycles != b.bestResult.cycles) {
            std::ostringstream os;
            os.precision(17);
            os << "best metrics diverge: serial edp="
               << a.bestResult.edp << " parallel edp="
               << b.bestResult.edp << " (" << c.describe() << ")";
            return os.str();
        }
        if (a.best->toString() != b.best->toString())
            return "best mappings differ (" + c.describe() + ")";
    }
    return std::nullopt;
}

TEST(SearchPbt, ExhaustiveSearchIsThreadCountInvariant)
{
    ruby::pbt::check("exhaustiveThreadInvariant", 0x9A7Au,
                     pbt::genTinyWorkload,
                     exhaustiveParallelMatchesSerial,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     15);
}

/**
 * Property 6 — mapspace containment (paper Sec. III-A): PFM is a
 * subset of Ruby-S and Ruby-T, which are subsets of Ruby, so on a
 * complete enumeration a larger space's optimum is never worse.
 * Vacuous when any enumeration truncates (containment only binds
 * complete sweeps).
 */
std::optional<std::string>
largerMapspaceNeverLoses(const WorkloadCase &c)
{
    const Problem prob = c.problem();
    const ArchSpec arch = c.arch();
    const MappingConstraints cons(prob, arch);
    const Evaluator eval(prob, arch);

    ExhaustiveOptions opts;
    opts.maxEvaluations = 400'000;

    const auto sweep = [&](MapspaceVariant v) {
        return exhaustiveSearch(Mapspace(cons, v), eval, opts);
    };
    const ExhaustiveResult pfm = sweep(MapspaceVariant::PFM);
    const ExhaustiveResult rubyS = sweep(MapspaceVariant::RubyS);
    const ExhaustiveResult rubyT = sweep(MapspaceVariant::RubyT);
    const ExhaustiveResult full = sweep(MapspaceVariant::Ruby);
    if (pfm.truncated || rubyS.truncated || rubyT.truncated ||
        full.truncated)
        return std::nullopt;

    const auto contained = [&](const ExhaustiveResult &small,
                               const char *smallName,
                               const ExhaustiveResult &big,
                               const char *bigName)
        -> std::optional<std::string> {
        if (!small.best)
            return std::nullopt;
        if (!big.best)
            return std::string(bigName) +
                   " found nothing although its subset " + smallName +
                   " mapped (" + c.describe() + ")";
        if (big.bestResult.edp >
            small.bestResult.edp * (1 + 1e-12)) {
            std::ostringstream os;
            os.precision(17);
            os << bigName << " optimum edp=" << big.bestResult.edp
               << " worse than subset " << smallName
               << " edp=" << small.bestResult.edp << " ("
               << c.describe() << ")";
            return os.str();
        }
        return std::nullopt;
    };

    for (const auto &check :
         {contained(pfm, "PFM", rubyS, "Ruby-S"),
          contained(pfm, "PFM", rubyT, "Ruby-T"),
          contained(pfm, "PFM", full, "Ruby"),
          contained(rubyS, "Ruby-S", full, "Ruby"),
          contained(rubyT, "Ruby-T", full, "Ruby")}) {
        if (check)
            return check;
    }
    return std::nullopt;
}

TEST(SearchPbt, LargerMapspaceNeverLosesOnCompleteSweeps)
{
    ruby::pbt::check("mapspaceContainment", 0xC047u,
                     pbt::genTinyWorkload, largerMapspaceNeverLoses,
                     pbt::shrinkWorkload,
                     [](const WorkloadCase &c) { return c.describe(); },
                     12);
}

} // namespace
