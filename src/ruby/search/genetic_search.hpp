/**
 * @file
 * Genetic mapspace search in the spirit of GAMMA (Kao & Krishna,
 * ICCAD 2020), which the paper cites as an orthogonal search strategy
 * its mapspaces can leverage: tournament selection, uniform
 * crossover of factor chains / loop orders / residency rows, and the
 * same mutation operators as local search.
 */

#ifndef RUBY_SEARCH_GENETIC_SEARCH_HPP
#define RUBY_SEARCH_GENETIC_SEARCH_HPP

#include "ruby/search/random_search.hpp"

namespace ruby
{

/** Genetic-search configuration. */
struct GeneticOptions
{
    Objective objective = Objective::EDP;

    unsigned populationSize = 64;
    unsigned generations = 60;

    /** Probability a child is mutated after crossover. */
    double mutationRate = 0.4;

    /**
     * Probability a child is bred by uniform crossover of its two
     * tournament parents; otherwise the child is a clone of its first
     * parent (mutation still applies at mutationRate). Values >= 1.0
     * skip the decision draw entirely, reproducing the historical
     * every-child-crossover RNG stream bit for bit. Mutation-only
     * children are single-row deltas that the incremental engine can
     * score without a full model run.
     */
    double crossoverRate = 0.8;

    /** Tournament size for parent selection. */
    unsigned tournament = 3;

    /** Top members copied unchanged into the next generation. */
    unsigned elites = 2;

    std::uint64_t seed = 42;

    /**
     * Independent sub-populations (islands), each with its own RNG
     * stream and population of populationSize, evolved in lockstep
     * and coupled only by migration. islands == 1 reproduces the
     * classic single-population GA.
     */
    unsigned islands = 1;

    /** Generations between migrations (islands > 1 only). */
    unsigned migrationInterval = 5;

    /**
     * Individuals copied ring-wise (island k -> k+1) per migration,
     * replacing the destination's worst. 0 disables migration.
     */
    unsigned migrants = 2;

    /**
     * Worker threads for fitness evaluation (0 = one per hardware
     * thread). Breeding consumes each island's RNG stream serially;
     * only the evaluations fan out, and scoring never touches an RNG,
     * so results are bit-identical across thread counts for a fixed
     * (seed, islands) pair. With the incremental engine the fan-out
     * is one contiguous task per island (finer per-individual tasks
     * would defeat the engine's base reuse).
     */
    unsigned threads = 1;

    /**
     * Score each generation through a per-island incremental (delta)
     * evaluation engine rebased on the island's lead member:
     * mutation-only children of that member are served as single-row
     * deltas, everything else by a full in-place recomputation inside
     * the engine. With the flag off each generation is scored through
     * the batch engine, like the initial population. Fitness values
     * are bit-identical with the flag on or off; disable only to
     * measure the engine's effect.
     */
    bool incremental = true;

    /**
     * External cooperative cancellation (e.g. a serving drain):
     * polled per scored individual and between generations; the
     * best-so-far across completed scoring is still returned. Not
     * owned.
     */
    const CancelToken *cancel = nullptr;
};

/** Evolve mappings of @p space; returns the best valid one found.
 *  A run whose populations never hold a valid member falls back to
 *  the capacity-rejecting sampler for one valid draw. */
SearchResult geneticSearch(const Mapspace &space,
                           const Evaluator &evaluator,
                           const GeneticOptions &options = {});

} // namespace ruby

#endif // RUBY_SEARCH_GENETIC_SEARCH_HPP
