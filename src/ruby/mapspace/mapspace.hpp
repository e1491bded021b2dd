/**
 * @file
 * Mapspace definition and random sampling for the four spaces the
 * paper studies.
 *
 * A mapspace variant fixes, per tiling slot, whether factors must be
 * perfect (divide the remaining tile count) or may be imperfect (any
 * bound; the tail pass covers the remainder). Sampling walks each
 * dimension's slots inner to outer maintaining the remaining tile
 * count m: a perfect slot draws a divisor of m, an imperfect slot
 * draws any bound in [1, min(cap, m)] and continues with ceil(m / P);
 * the outermost temporal slot absorbs what remains. By construction
 * (see math_util.hpp) the derived tails are perfect exactly at the
 * perfect slots, so Ruby-S chains carry remainders only at spatial
 * slots, Ruby-T only at temporal ones.
 *
 * A draw makes the residency (keep) bits first, because interior
 * residency decides which tensors a level's capacity counts, then the
 * tiling slots inner to outer (the tiling phase), and the loop orders
 * last (the order phase). Level l's steady tiles depend only on slots
 * [0, 2l+2) (TileInfo::boundarySlot), so once slot 2l+1 is drawn
 * sampleTiling() checks level l's capacity with capacityOverflow()
 * and stops the draw on the first overflow. Spatial fit holds by
 * construction, so a draw that completes is valid. The tiling phase
 * also carries each dimension's serial-step recurrence (serialSteps()
 * over the chain it is drawing), so it returns the draw's exact
 * serial-step product and a search can bound the draw before its
 * loop orders exist. The distribution is unchanged: a rejected draw
 * is one the evaluator would reject, a completed one is exactly what
 * sample() returns on the same stream, and each search draw reads its
 * own keyed stream (Rng::keyed), so stopping one early shifts no
 * other.
 *
 * The visit order of the dimensions is reshuffled only at spatial
 * slots with fanout > 1, where they share the mesh-axis budgets. At
 * temporal and fanout-1 slots each dimension's draw depends on its
 * own m alone, so a shuffle would cost RNG calls and change nothing;
 * spatial slots of a 1x1 level draw nothing at all and are not
 * visited. The allowed mesh axes per (level, dimension) are tabulated
 * at construction; everything else a draw looks up (the per-slot
 * plan, the keep codes, the flat tensor terms and the divisor lists)
 * on the first draw, so building a mapspace stays cheap. A Mapspace
 * is logically immutable and may be shared across threads.
 *
 * sampleInto() writes one draw's decisions into reused flat rows
 * without allocating, and materialize() builds the Mapping from them.
 * Random search runs the two phases itself: it bounds each completed
 * tiling, draws loop orders only for a draw the bound cannot prune,
 * and materializes only those. sample() is the same draw run to
 * completion (never rejecting), so there is one sampler.
 *
 * The iterative searches (genetic, local, random search's refinement)
 * edit the same rows with the operators below: mutate() resamples a
 * chain under the sampler's variant rules, slot caps and divisor
 * tables, swaps two loops, or flips a residency bit or a mesh axis
 * where the constraints allow; crossover() mixes two parents row by
 * row. An edited draw goes to BatchEvaluator::add() and
 * DeltaEvaluator as it stands.
 */

#ifndef RUBY_MAPSPACE_MAPSPACE_HPP
#define RUBY_MAPSPACE_MAPSPACE_HPP

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ruby/common/rng.hpp"
#include "ruby/mapping/constraints.hpp"
#include "ruby/mapping/decisions.hpp"
#include "ruby/mapping/mapping.hpp"

namespace ruby
{

/**
 * Inverse record of one Mapspace::mutate(): which row moved and what
 * it held before. Reusing one instance across calls keeps a
 * neighbourhood walk allocation-free (the chain buffer keeps its
 * capacity).
 */
struct MutationUndo
{
    enum class Kind { None, Chain, PermSwap, Keep, Axis };
    Kind kind = Kind::None;
    std::size_t row = 0; ///< dimension (Chain) or level (others)
    std::size_t i = 0;   ///< swapped position / flipped column
    std::size_t j = 0;   ///< second swapped position (PermSwap)
    std::vector<std::uint64_t> chain; ///< previous chain row (Chain)
};

/** The four mapspaces of the paper (Sec. III-A). */
enum class MapspaceVariant
{
    PFM,   ///< perfect factorization only (the Timeloop baseline)
    Ruby,  ///< imperfect factors at every slot
    RubyS, ///< imperfect factors at spatial slots only
    RubyT, ///< imperfect factors at temporal slots only
};

/** Short display name ("PFM", "Ruby", "Ruby-S", "Ruby-T"). */
std::string variantName(MapspaceVariant variant);

/** Does @p variant allow imperfect factors at spatial slots? */
bool imperfectSpatial(MapspaceVariant variant);

/** Does @p variant allow imperfect factors at temporal slots? */
bool imperfectTemporal(MapspaceVariant variant);

/**
 * The ascending divisors of every remaining tile count m a draw can
 * reach, stored flat, one list per m. A dimension of size D reaches
 * exactly the counts m = ceil(D / k), about 2 sqrt(D) of them. Each
 * entry holds a divisor p, the quotient m / p and the id of m / p's
 * list (m / p is reachable too: ceil(ceil(D / k) / p) ==
 * ceil(D / (k p))), so a perfect step of a draw moves to its next
 * list with no division.
 */
class DivisorLists
{
  public:
    struct Entry
    {
        std::uint64_t divisor;  ///< p
        std::uint64_t quotient; ///< m / p
        std::uint32_t next;     ///< the list id of m / p
    };

    /** Add the lists of the next dimension (ids 0, 1, ... in call
     *  order), of size @p size >= 1. A dimension whose size equals
     *  an earlier one's shares that dimension's lists and ids. */
    void addDim(std::uint64_t size);

    /**
     * The list id of count @p m, reachable by dimension @p d: the
     * dimension's base plus m for m <= floor(sqrt(D)), else plus
     * floor(sqrt(D)) + 1 + ceil(D / m). ceil(D / m) is the smallest k
     * with ceil(D / k) == m: distinct for distinct reachable m, and at
     * most about sqrt(D).
     */
    std::uint32_t id(DimId d, std::uint64_t m) const
    {
        const Dim &dim = dims_[static_cast<std::size_t>(d)];
        return static_cast<std::uint32_t>(
            m <= dim.split ? dim.base + m
                           : dim.base + dim.split + 1 +
                                 (dim.size + m - 1) / m);
    }

    /** The entries of list @p id, ascending by divisor. */
    std::span<const Entry> list(std::uint32_t id) const
    {
        return {entries_.data() + begin_[id],
                begin_[id + 1] - begin_[id]};
    }

  private:
    struct Dim
    {
        std::uint64_t size = 1;  ///< D
        std::uint64_t split = 1; ///< floor(sqrt(D))
        std::size_t base = 0;    ///< id of the dimension's first list
    };

    std::vector<Dim> dims_;
    std::vector<std::size_t> begin_{0}; ///< list id -> first entry
    std::vector<Entry> entries_;
};

/**
 * A mapspace over one (problem, architecture, constraints) triple.
 * The constraints object (and the problem/arch it references) must
 * outlive the mapspace.
 */
class Mapspace
{
  public:
    /** Most problem dimensions a draw supports (its work rows live on
     *  the stack); the constructor rejects larger problems. */
    static constexpr int kMaxDims = 64;

    Mapspace(const MappingConstraints &constraints,
             MapspaceVariant variant);

    const Problem &problem() const { return constraints_->problem(); }
    const ArchSpec &arch() const { return constraints_->arch(); }
    const MappingConstraints &constraints() const
    {
        return *constraints_;
    }
    MapspaceVariant variant() const { return variant_; }

    /**
     * Draw a random mapping, always to completion. Factor chains and
     * spatial fanout usage are valid by construction; capacity may
     * still be violated (the evaluator filters, mirroring Timeloop's
     * generate-then-filter flow).
     */
    Mapping sample(Rng &rng) const;

    /**
     * Draw one mapping as flat decision rows in @p out, reusing its
     * capacity (no heap allocation once @p out has grown). Returns
     * false as soon as a level's kept tiles overflow its capacity;
     * the rows are then incomplete and must not be used. On true the
     * rows materialize to exactly the mapping sample() returns on the
     * same stream, and that mapping passes the evaluator's validity
     * check. sampleTiling() then sampleOrders() on one stream.
     */
    bool sampleInto(Rng &rng, Decisions &out) const;

    /**
     * The tiling phase of sampleInto(): the keep, steady and axis rows
     * of @p out, stopping (false) at the first capacity overflow. On
     * true, @p cycles is the product of serialSteps() of the draw's
     * chains, multiplied in dimension order, so
     * Evaluator::boundFromCycles(cycles, obj) equals
     * objectiveLowerBound() of the finished draw bit for bit. The loop
     * orders are not drawn yet: the perms row is sized but unset
     * until sampleOrders() runs on the same stream.
     */
    bool sampleTiling(Rng &rng, Decisions &out, double &cycles) const;

    /** The order phase: each level's random temporal loop order, into
     *  the perms row of a draw whose tiling phase completed. */
    void sampleOrders(Rng &rng, Decisions &out) const;

    /** Draw a random mapping's decision rows into @p out, always to
     *  completion: the draw behind sample(), without the Mapping. */
    void sample(Rng &rng, Decisions &out) const;

    /** The Mapping of a draw made by sampleInto() or sample(). */
    Mapping materialize(const Decisions &decisions) const;

    /**
     * Resample dimension @p d's chain in @p decisions under the
     * variant rules (divisors of the remaining count at perfect
     * slots, any bound up to the slot cap at imperfect ones; the
     * outermost slot absorbs the residual). Other rows untouched.
     */
    void mutateChain(Decisions &decisions, DimId d, Rng &rng) const;

    /**
     * Apply one random mutation to a complete draw: resample a chain,
     * swap two loops in a level's order, flip a residency bit on an
     * intermediate level, or flip a mesh axis. Forced bypasses and
     * the allowed axes are honoured; fanout and capacity are left to
     * the evaluator. When @p undo is non-null it records how to
     * revert the mutation, so a neighbourhood search can mutate one
     * draw in place instead of copying it per candidate.
     */
    void mutate(Decisions &decisions, Rng &rng,
                MutationUndo *undo = nullptr) const;

    /** Revert the mutation @p undo describes (exact inverse). */
    void undoMutation(Decisions &decisions,
                      const MutationUndo &undo) const;

    /**
     * Uniform crossover: the child takes each dimension's chain and
     * each level's loop order, residency row and axis row from one of
     * the parents.
     */
    Decisions crossover(const Decisions &a, const Decisions &b,
                        Rng &rng) const;

    /**
     * Per-slot factor cap for dimension d at slot k: the level
     * fanout at allowed spatial slots, 1 at disallowed spatial
     * slots, unbounded (0) at temporal slots.
     */
    std::uint64_t slotCap(DimId d, int slot) const;

    /** Is slot k allowed to carry a remainder under this variant? */
    bool slotImperfect(int slot) const;

  private:
    /**
     * Everything a draw looks up beyond axisMask_, built by the first
     * draw (see docs/PERFORMANCE.md: eagerly, the tables would be
     * built for every mapspace a sweep constructs, and the benchmark's
     * setup_s times those builds).
     */
    struct DrawTables
    {
        /** One tiling slot a draw visits, inner to outer. */
        struct Slot
        {
            int index = 0; ///< k
            int level = 0; ///< slotLevel(k)
            bool spatial = false;
            bool imperfect = false; ///< slotImperfect(k)
            bool last = false;      ///< the outermost (residual) slot
            bool check = false;     ///< level's tiles are final here
            std::uint64_t fanoutX = 0; ///< mesh budgets (spatial only)
            std::uint64_t fanoutY = 0;
        };

        /** One term of a tensor axis, flat: the axis ends at a term
         *  with axisEnd set. */
        struct Term
        {
            std::size_t dim = 0;
            std::uint64_t coef = 0;
            bool axisEnd = false;
        };

        /** Keep codes, [l * nt + t]: a fixed flag, or one coin flip. */
        static constexpr char kDrawKeep = 2;

        std::once_flag built;
        DivisorLists divisors;
        std::vector<std::uint32_t> firstList; ///< per dim: D's list id
        std::vector<Slot> slots;      ///< skips spatial slots of 1x1 levels
        std::vector<char> keep;       ///< 0, 1 or kDrawKeep
        std::vector<SpatialAxis> axes; ///< axis row before any draw
        std::vector<Term> terms;      ///< every tensor's axes, flat
        std::vector<std::size_t> termsOf; ///< tensor t: [t], [t + 1])

        void build(const Mapspace &space);
    };

    /**
     * The one draw body: the tiling phase, stopping at the first
     * capacity overflow when @p reject is set. Returns the draw's
     * serial-step product, or 0 when it stopped.
     */
    double drawTiling(Rng &rng, Decisions &out, bool reject) const;

    /** The draw tables, built by the first caller. */
    const DrawTables &tables() const;

    const MappingConstraints *constraints_;
    MapspaceVariant variant_;

    /** Axes dimension d may occupy at level l, [l * nd + d]: bit 0 X,
     *  bit 1 Y. */
    std::vector<std::uint8_t> axisMask_;
    std::unique_ptr<DrawTables> tables_;
};

} // namespace ruby

#endif // RUBY_MAPSPACE_MAPSPACE_HPP
