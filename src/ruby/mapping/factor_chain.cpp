#include "ruby/mapping/factor_chain.hpp"

#include "ruby/common/error.hpp"

namespace ruby
{

FactorChain::FactorChain(std::uint64_t dim,
                         std::span<const std::uint64_t> steady)
    : dim_(dim), factors_(steady.size()), bodies_(steady.size() + 1),
      extents_(steady.size() + 1)
{
    RUBY_ASSERT(dim >= 1, "dimension must be >= 1");
    assign(steady);
}

void
FactorChain::assign(std::span<const std::uint64_t> steady)
{
    RUBY_ASSERT(steady.size() == factors_.size(),
                "assign must preserve the slot count");
    // Forward pass: tails are the mixed-radix digits of dim-1 in the
    // new radices (deriveTails inlined so no scratch vector is
    // needed); extents are running steady products.
    std::uint64_t q = dim_ - 1;
    std::uint64_t extent = 1;
    for (std::size_t k = 0; k < steady.size(); ++k) {
        RUBY_ASSERT(steady[k] >= 1, "steady bound must be positive");
        factors_[k] = FactorPair{steady[k], q % steady[k] + 1};
        q /= steady[k];
        extents_[k] = extent;
        extent *= steady[k];
    }
    extents_[steady.size()] = extent;
    RUBY_ASSERT(q == 0, "product of steady bounds below dim=", dim_,
                " -- caller must guarantee prod(P) >= D");
    // Backward pass: exact ragged body counts (bodyCounts inlined).
    bodies_[steady.size()] = 1;
    std::uint64_t above = 1;
    for (std::size_t k = steady.size(); k-- > 0;) {
        bodies_[k] =
            (above - 1) * factors_[k].steady + factors_[k].tail;
        above = bodies_[k];
    }
    RUBY_ASSERT(bodies_.front() == dim_,
                "ragged body count must equal the dimension");
}

const FactorPair &
FactorChain::at(int slot) const
{
    RUBY_ASSERT(slot >= 0 && slot < numSlots());
    return factors_[static_cast<std::size_t>(slot)];
}

std::uint64_t
FactorChain::bodyCount(int slot) const
{
    RUBY_ASSERT(slot >= 0 && slot <= numSlots());
    return bodies_[static_cast<std::size_t>(slot)];
}

std::uint64_t
FactorChain::steadyExtentBelow(int slot) const
{
    RUBY_ASSERT(slot >= 0 && slot <= numSlots());
    return extents_[static_cast<std::size_t>(slot)];
}

bool
FactorChain::fullyPerfect() const
{
    for (const auto &f : factors_)
        if (!f.perfect())
            return false;
    return true;
}

} // namespace ruby
