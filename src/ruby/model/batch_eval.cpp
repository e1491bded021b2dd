#include "ruby/model/batch_eval.hpp"

#include <algorithm>

#include "ruby/common/error.hpp"

/**
 * The full-width stage loops are pure u64 lane arithmetic, and their
 * whole value is vector width: baseline x86-64 has no vector 64-bit
 * multiply, so without wider codegen the batch runs at scalar speed.
 * Function multiversioning keeps the binary portable while letting the
 * loader pick an AVX2 or AVX-512 clone where the host supports one
 * (AVX-512DQ's vpmullq is the big win). GCC-only: other compilers just
 * build the default clone. Disabled under TSan: the ifunc resolvers
 * multiversioning emits run during relocation, before the TSan
 * runtime is initialized, and crash on startup.
 */
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define RUBY_BATCH_KERNEL                                             \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                                 "default")))
#else
#define RUBY_BATCH_KERNEL
#endif

/** Force the shared stage body into each clone so it is vectorized
 *  with that clone's instruction set. */
#if defined(__GNUC__)
#define RUBY_BATCH_INLINE inline __attribute__((always_inline))
#else
#define RUBY_BATCH_INLINE inline
#endif

namespace ruby
{

namespace
{

/**
 * Pack @p n 0/1 flags, flag(at) for at in [0, n), into one lane's
 * mask words: flag at is bit at & 63 of word row at >> 6, and word
 * rows are @p stride lanes apart. Every word the flags span is
 * written whole, so a reused lane needs no clearing.
 */
template <typename Flag>
void
packFlags(std::uint64_t *lane, std::size_t stride, std::size_t n,
          Flag flag)
{
    for (std::size_t base = 0; base < n; base += 64, lane += stride) {
        const std::size_t width = std::min<std::size_t>(64, n - base);
        std::uint64_t bits = 0;
        for (std::size_t b = 0; b < width; ++b)
            bits |= static_cast<std::uint64_t>(flag(base + b)) << b;
        *lane = bits;
    }
}

/**
 * The four full-width validity stages over raw lane arrays. Lane
 * arrays never alias each other (they are distinct vectors of one
 * BatchEvaluator), which the __restrict qualifiers assert so the
 * vectorizer does not emit runtime overlap checks.
 *
 * The stages are hundreds of *short* lane loops (a batch of 32 is
 * four 512-bit vectors), so per-loop setup would dominate the vector
 * work. KW > 0 bakes the batch width in as a compile-time constant so
 * every lane loop fully unrolls into straight-line vector code; KW ==
 * 0 is the generic-width fallback for odd tail batches.
 */
template <std::size_t KW>
RUBY_BATCH_INLINE void
validityStagesBody(std::size_t kRun, std::size_t capRun,
                   const Problem &prob, const ArchSpec &arch,
                   const std::uint64_t *__restrict steady,
                   std::uint64_t *__restrict ext,
                   std::uint64_t *__restrict tile,
                   const std::uint64_t *__restrict keepMask,
                   const std::uint64_t *__restrict axisYMask,
                   std::uint64_t *__restrict acc,
                   std::uint64_t *__restrict acc2,
                   std::uint64_t *__restrict valid)
{
    const std::size_t k = KW != 0 ? KW : kRun;
    const std::size_t cap = KW != 0 ? KW : capRun;
    const int nd = prob.numDims();
    const int nl = arch.numLevels();
    const int nt = prob.numTensors();
    const int ns = 2 * nl;
    const auto row = [cap](std::size_t r) { return r * cap; };

    // --- Boundary extents -------------------------------------------
    // Per dimension, one forward pass over the slots keeps a running
    // steady product per lane and snapshots it at every level's tile
    // boundary (slot 2(l+1)) — the lane form of steadyExtentBelow().
    for (DimId d = 0; d < nd; ++d) {
        for (std::size_t i = 0; i < k; ++i)
            acc[i] = 1;
        const std::size_t base = static_cast<std::size_t>(d) *
                                 static_cast<std::size_t>(ns);
        for (int s = 0; s < ns; ++s) {
            const std::uint64_t *__restrict p =
                &steady[row(base + static_cast<std::size_t>(s))];
            // Most slots hold factor 1 in every lane (a dimension's
            // factorization touches few of its slots); an OR-reduce
            // costs a fraction of the multi-uop vector multiplies it
            // skips, and multiplying by all-ones is a no-op.
            std::uint64_t any = 0;
            for (std::size_t i = 0; i < k; ++i)
                any |= p[i] ^ 1;
            if (any != 0)
                for (std::size_t i = 0; i < k; ++i)
                    acc[i] *= p[i];
            if ((s & 1) != 0) {
                const int level = (s - 1) / 2;
                std::uint64_t *__restrict out = &ext[row(
                    static_cast<std::size_t>(level) *
                        static_cast<std::size_t>(nd) +
                    static_cast<std::size_t>(d))];
                for (std::size_t i = 0; i < k; ++i)
                    out[i] = acc[i];
            }
        }
    }

    // --- Spatial fit ------------------------------------------------
    for (std::size_t i = 0; i < k; ++i)
        valid[i] = 1;
    for (int l = 0; l < nl; ++l) {
        for (std::size_t i = 0; i < k; ++i) {
            acc[i] = 1;
            acc2[i] = 1;
        }
        const std::size_t abase = static_cast<std::size_t>(l) *
                                  static_cast<std::size_t>(nd);
        for (DimId d = 0; d < nd; ++d) {
            const std::uint64_t *__restrict p = &steady[row(
                static_cast<std::size_t>(d) *
                    static_cast<std::size_t>(ns) +
                static_cast<std::size_t>(spatialSlot(l)))];
            // Only levels with real fanout carry spatial factors, so
            // almost every row here is all-ones: skip it outright.
            std::uint64_t any = 0;
            for (std::size_t i = 0; i < k; ++i)
                any |= p[i] ^ 1;
            if (any == 0)
                continue;
            // The axis flag is bit l*nd+d of the lane's mask words —
            // a constant shift-and per row against the full lane row
            // (and its scattered ingestion stores) it replaces.
            const std::size_t at = abase + static_cast<std::size_t>(d);
            const std::uint64_t *__restrict ay =
                &axisYMask[row(at >> 6)];
            const int shift = static_cast<int>(at & 63);
            // y is 0/1, p >= 1: with t = (p-1)*y, the select pair
            // "y ? 1 : p" / "y ? p : 1" is (p - t) and (1 + t) —
            // three multiplies instead of four.
            for (std::size_t i = 0; i < k; ++i) {
                const std::uint64_t y = (ay[i] >> shift) & 1;
                const std::uint64_t t = (p[i] - 1) * y;
                acc[i] *= p[i] - t;
                acc2[i] *= 1 + t;
            }
        }
        const std::uint64_t fx = arch.level(l).fanoutX;
        const std::uint64_t fy = arch.level(l).fanoutY;
        for (std::size_t i = 0; i < k; ++i)
            valid[i] &= static_cast<std::uint64_t>(acc[i] <= fx) &
                        static_cast<std::uint64_t>(acc2[i] <= fy);
    }

    // --- Tile footprints --------------------------------------------
    // tileVolume() in lane form: per axis, extent = 1 + sum over terms
    // of coef * (dim extent - 1); the tile is the axis-extent product.
    for (int l = 0; l < nl; ++l) {
        const std::size_t ebase = static_cast<std::size_t>(l) *
                                  static_cast<std::size_t>(nd);
        for (int t = 0; t < nt; ++t) {
            std::uint64_t *__restrict tl = &tile[row(
                static_cast<std::size_t>(l) *
                    static_cast<std::size_t>(nt) +
                static_cast<std::size_t>(t))];
            for (std::size_t i = 0; i < k; ++i)
                tl[i] = 1;
            for (const TensorAxis &axis : prob.tensor(t).axes) {
                for (std::size_t i = 0; i < k; ++i)
                    acc[i] = 1;
                for (const AxisTerm &term : axis.terms) {
                    const std::uint64_t *__restrict e = &ext[row(
                        ebase + static_cast<std::size_t>(term.dim))];
                    // Extent 1 in every lane contributes nothing, and
                    // unit coefficients (the common case) need no
                    // multiply at all.
                    std::uint64_t any = 0;
                    for (std::size_t i = 0; i < k; ++i)
                        any |= e[i] ^ 1;
                    if (any == 0)
                        continue;
                    const std::uint64_t coef = term.coef;
                    if (coef == 1)
                        for (std::size_t i = 0; i < k; ++i)
                            acc[i] += e[i] - 1;
                    else
                        for (std::size_t i = 0; i < k; ++i)
                            acc[i] += coef * (e[i] - 1);
                }
                for (std::size_t i = 0; i < k; ++i)
                    tl[i] *= acc[i];
            }
        }
    }

    // --- Capacity ---------------------------------------------------
    // The outermost level is the unbounded backing store.
    for (int l = 0; l < nl - 1; ++l) {
        const auto &lvl = arch.level(l);
        for (std::size_t i = 0; i < k; ++i)
            acc[i] = 0;
        for (int t = 0; t < nt; ++t) {
            const std::size_t r = static_cast<std::size_t>(l) *
                                      static_cast<std::size_t>(nt) +
                                  static_cast<std::size_t>(t);
            const std::uint64_t *__restrict tl = &tile[row(r)];
            // The keep flag is bit l*nt+t of the lane's mask words.
            const std::uint64_t *__restrict kp =
                &keepMask[row(r >> 6)];
            const int shift = static_cast<int>(r & 63);
            const std::uint64_t partition =
                lvl.perTensorCapacity.empty()
                    ? 0
                    : lvl.perTensorCapacity[static_cast<std::size_t>(
                          t)];
            if (partition > 0) {
                for (std::size_t i = 0; i < k; ++i) {
                    const std::uint64_t kept = (kp[i] >> shift) & 1;
                    valid[i] &=
                        (kept ^ 1) |
                        static_cast<std::uint64_t>(tl[i] <=
                                                   partition);
                }
            } else {
                // kept is 0/1: the select "kept ? tile : 0" as a mul.
                for (std::size_t i = 0; i < k; ++i)
                    acc[i] += ((kp[i] >> shift) & 1) * tl[i];
            }
        }
        if (lvl.capacityWords > 0) {
            const std::uint64_t cap_words = lvl.capacityWords;
            for (std::size_t i = 0; i < k; ++i)
                valid[i] &=
                    static_cast<std::uint64_t>(acc[i] <= cap_words);
        }
    }
}

/** Fully unrolled instantiations for the common power-of-two widths
 *  (target_clones cannot attach to a template, so one thin wrapper
 *  per width). */
#define RUBY_BATCH_FIXED_WIDTH(NAME, WIDTH)                           \
    RUBY_BATCH_KERNEL void NAME(                                      \
        const Problem &prob, const ArchSpec &arch,                    \
        const std::uint64_t *__restrict steady,                       \
        std::uint64_t *__restrict ext,                                \
        std::uint64_t *__restrict tile,                               \
        const std::uint64_t *__restrict keepMask,                     \
        const std::uint64_t *__restrict axisYMask,                    \
        std::uint64_t *__restrict acc,                                \
        std::uint64_t *__restrict acc2,                               \
        std::uint64_t *__restrict valid)                              \
    {                                                                 \
        validityStagesBody<WIDTH>(0, 0, prob, arch, steady, ext,      \
                                  tile, keepMask, axisYMask, acc,     \
                                  acc2, valid);                       \
    }

RUBY_BATCH_FIXED_WIDTH(runValidityStagesW32, 32)
RUBY_BATCH_FIXED_WIDTH(runValidityStagesW64, 64)
RUBY_BATCH_FIXED_WIDTH(runValidityStagesW128, 128)
#undef RUBY_BATCH_FIXED_WIDTH

/** Generic-width fallback (tail batches, explicit widths). */
RUBY_BATCH_KERNEL void
runValidityStagesAnyWidth(std::size_t k, std::size_t cap,
                          const Problem &prob, const ArchSpec &arch,
                          const std::uint64_t *__restrict steady,
                          std::uint64_t *__restrict ext,
                          std::uint64_t *__restrict tile,
                          const std::uint64_t *__restrict keepMask,
                          const std::uint64_t *__restrict axisYMask,
                          std::uint64_t *__restrict acc,
                          std::uint64_t *__restrict acc2,
                          std::uint64_t *__restrict valid)
{
    validityStagesBody<0>(k, cap, prob, arch, steady, ext, tile,
                          keepMask, axisYMask, acc, acc2, valid);
}

} // namespace

BatchEvaluator::BatchEvaluator(const Evaluator &evaluator)
    : eval_(&evaluator), prob_(&evaluator.problem()),
      arch_(&evaluator.arch()), nd_(prob_->numDims()),
      nl_(arch_->numLevels()), nt_(prob_->numTensors()), ns_(2 * nl_),
      keepWords_((static_cast<std::size_t>(nl_ * nt_) + 63) / 64),
      axisWords_((static_cast<std::size_t>(nl_ * nd_) + 63) / 64)
{
    // The scalar capacity walk validates this per evaluation; the
    // batch form hoists the configuration check out of the lane loops.
    for (int l = 0; l < nl_ - 1; ++l) {
        const auto &lvl = arch_->level(l);
        if (!lvl.perTensorCapacity.empty())
            RUBY_CHECK(lvl.perTensorCapacity.size() ==
                           static_cast<std::size_t>(nt_),
                       "level ", lvl.name,
                       ": per-tensor capacities must match the "
                       "problem's tensor count");
    }
}

void
BatchEvaluator::reserveLanes(std::size_t cap)
{
    const std::size_t nd = static_cast<std::size_t>(nd_);
    const std::size_t nl = static_cast<std::size_t>(nl_);
    const std::size_t nt = static_cast<std::size_t>(nt_);
    const std::size_t ns = static_cast<std::size_t>(ns_);
    steady_.resize(nd * ns * cap);
    ext_.resize(nl * nd * cap);
    tile_.resize(nl * nt * cap);
    keepMask_.resize(keepWords_ * cap);
    axisYMask_.resize(axisWords_ * cap);
    acc_.resize(cap);
    acc2_.resize(cap);
    valid_.resize(cap);
    bound_.resize(cap);
}

void
BatchEvaluator::begin(std::size_t expected)
{
    k_ = 0;
    if (expected == 0)
        expected = 1;
    // The lane stride *is* the batch width, so a smaller final batch
    // stays contiguous; the vectors never release their capacity, so
    // alternating widths do not reallocate in steady state.
    if (cap_ != expected) {
        cap_ = expected;
        reserveLanes(cap_);
    }
}

void
BatchEvaluator::add(const Mapping &mapping)
{
    RUBY_ASSERT(&mapping.problem() == prob_ &&
                    &mapping.arch() == arch_,
                "batched mapping targets a different problem/arch");
    add(mapping.decisions());
}

void
BatchEvaluator::add(const Decisions &decisions)
{
    RUBY_ASSERT(k_ < cap_, "batch is full; call begin() with a "
                           "larger expected size");
    const std::size_t rows = static_cast<std::size_t>(nd_) *
                             static_cast<std::size_t>(ns_);
    RUBY_ASSERT(decisions.steady.size() == rows,
                "batched decisions need one chain per dimension");
    RUBY_ASSERT(decisions.keep.size() ==
                    static_cast<std::size_t>(nl_ * nt_),
                "batched decisions need one keep flag per level and "
                "tensor");
    RUBY_ASSERT(decisions.axes.size() ==
                    static_cast<std::size_t>(nl_ * nd_),
                "batched decisions need one axis per level and "
                "dimension");
    const std::size_t i = k_++;
    // The flat index d * ns + s is the lane row index.
    for (std::size_t r = 0; r < rows; ++r)
        steady_[row(r) + i] = decisions.steady[r];
    packFlags(&keepMask_[i], cap_, decisions.keep.size(),
              [&](std::size_t at) { return decisions.keep[at] != 0; });
    packFlags(&axisYMask_[i], cap_, decisions.axes.size(),
              [&](std::size_t at) {
                  return decisions.axes[at] == SpatialAxis::Y;
              });
}

void
BatchEvaluator::run(Objective obj, EvalStats &stats, bool withBound)
{
    if (k_ == 0)
        return;
    ++stats.batchCalls;
    const std::size_t k = k_;

    if (k == cap_ && k == 32)
        runValidityStagesW32(*prob_, *arch_, steady_.data(),
                             ext_.data(), tile_.data(),
                             keepMask_.data(), axisYMask_.data(),
                             acc_.data(), acc2_.data(), valid_.data());
    else if (k == cap_ && k == 64)
        runValidityStagesW64(*prob_, *arch_, steady_.data(),
                             ext_.data(), tile_.data(),
                             keepMask_.data(), axisYMask_.data(),
                             acc_.data(), acc2_.data(), valid_.data());
    else if (k == cap_ && k == 128)
        runValidityStagesW128(*prob_, *arch_, steady_.data(),
                              ext_.data(), tile_.data(),
                              keepMask_.data(), axisYMask_.data(),
                              acc_.data(), acc2_.data(),
                              valid_.data());
    else
        runValidityStagesAnyWidth(
            k, cap_, *prob_, *arch_, steady_.data(), ext_.data(),
            tile_.data(), keepMask_.data(), axisYMask_.data(),
            acc_.data(), acc2_.data(), valid_.data());

    if (withBound) {
        // --- Objective bound (survivors only) -----------------------
        // Almost every lane dies above, so the serialSteps()
        // recurrence runs per surviving lane, exactly as the scalar
        // path would have, re-deriving the tails from the steady
        // lanes (the mixed-radix digits of D-1 — FactorChain::assign's
        // forward pass): the divisions are spent on survivors only.
        for (std::size_t i = 0; i < k; ++i) {
            if (!valid_[i])
                continue;
            double cycles = 1.0;
            for (DimId d = 0; d < nd_; ++d) {
                const std::size_t base =
                    static_cast<std::size_t>(d) *
                    static_cast<std::size_t>(ns_);
                std::uint64_t q = prob_->dimSize(d) - 1;
                std::uint64_t full = 1;
                std::uint64_t tl = 1;
                for (int s = 0; s < ns_; ++s) {
                    const std::uint64_t p =
                        steady_[row(base + static_cast<std::size_t>(s)) +
                                i];
                    const std::uint64_t r = q % p + 1;
                    q /= p;
                    if (isSpatialSlot(s)) {
                        tl = r >= 2 ? full : tl;
                    } else {
                        tl = (r - 1) * full + tl;
                        full = p * full;
                    }
                }
                cycles *= static_cast<double>(tl);
            }
            bound_[i] = eval_->boundFromCycles(cycles, obj);
        }
    }

#ifndef NDEBUG
    crossCheck(obj, withBound);
#endif
}

void
BatchEvaluator::prepareScratch(std::size_t i,
                               EvalScratch &scratch) const
{
    RUBY_ASSERT(i < k_ && valid(i),
                "prepareScratch needs a valid batched candidate");
    // Mirror checkValidity()'s successful path: reset the result
    // header and hand over this candidate's tile table, so
    // modelValidated() produces a bit-identical EvalResult.
    EvalResult &res = scratch.result;
    res.valid = false;
    res.invalidReason.clear();
    res.ops = prob_->totalOperations();
    auto &tw = scratch.tiles.tileWords;
    tw.resize(static_cast<std::size_t>(nl_));
    for (int l = 0; l < nl_; ++l) {
        auto &trow = tw[static_cast<std::size_t>(l)];
        trow.resize(static_cast<std::size_t>(nt_));
        const std::size_t tbase = static_cast<std::size_t>(l) *
                                  static_cast<std::size_t>(nt_);
        for (int t = 0; t < nt_; ++t)
            trow[static_cast<std::size_t>(t)] =
                tile_[row(tbase + static_cast<std::size_t>(t)) + i];
    }
}

#ifndef NDEBUG
void
BatchEvaluator::crossCheck(Objective obj, bool withBound) const
{
    // Every lane as decision rows: its steady bounds, the keep and
    // axis rows unpacked from its mask words, and identity loop
    // orders (a lane carries none).
    const std::size_t rows = static_cast<std::size_t>(nd_) *
                             static_cast<std::size_t>(ns_);
    Decisions lane;
    lane.steady.resize(rows);
    lane.perms.resize(static_cast<std::size_t>(nl_) *
                      static_cast<std::size_t>(nd_));
    for (std::size_t at = 0; at < lane.perms.size(); ++at)
        lane.perms[at] = static_cast<DimId>(
            at % static_cast<std::size_t>(nd_));
    lane.keep.resize(static_cast<std::size_t>(nl_ * nt_));
    lane.axes.resize(lane.perms.size());
    EvalScratch scratch;
    for (std::size_t i = 0; i < k_; ++i) {
        for (std::size_t r = 0; r < rows; ++r)
            lane.steady[r] = steady_[row(r) + i];
        for (std::size_t at = 0; at < lane.keep.size(); ++at)
            lane.keep[at] = static_cast<char>(
                (keepMask_[row(at >> 6) + i] >> (at & 63)) & 1);
        for (std::size_t at = 0; at < lane.axes.size(); ++at)
            lane.axes[at] =
                ((axisYMask_[row(at >> 6) + i] >> (at & 63)) & 1) != 0
                    ? SpatialAxis::Y
                    : SpatialAxis::X;
        const Mapping mapping(*prob_, *arch_, lane);
        const bool scalar_valid =
            eval_->checkValidity(mapping, scratch, false);
        RUBY_ASSERT(scalar_valid == valid(i),
                    "batch validity diverges from the scalar path");
        if (scalar_valid)
            for (int l = 0; l < nl_; ++l)
                for (int t = 0; t < nt_; ++t)
                    RUBY_ASSERT(
                        scratch.tiles.tileWords
                                [static_cast<std::size_t>(l)]
                                [static_cast<std::size_t>(t)] ==
                            tile_[row(static_cast<std::size_t>(l) *
                                          static_cast<std::size_t>(
                                              nt_) +
                                      static_cast<std::size_t>(t)) +
                                  i],
                        "batch tile table diverges from the scalar "
                        "path");
        if (withBound && scalar_valid)
            RUBY_ASSERT(eval_->objectiveLowerBound(mapping, obj) ==
                            bound_[i],
                        "batch bound diverges from the scalar path");
    }
}
#endif

} // namespace ruby
