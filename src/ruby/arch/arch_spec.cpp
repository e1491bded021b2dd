#include "ruby/arch/arch_spec.hpp"

#include "ruby/common/error.hpp"

namespace ruby
{

ArchSpec::ArchSpec(std::string name, std::vector<StorageLevelSpec> levels,
                   double mac_energy, double mac_area,
                   std::uint64_t word_bits)
    : name_(std::move(name)), levels_(std::move(levels)),
      mac_energy_(mac_energy), mac_area_(mac_area), word_bits_(word_bits)
{
    RUBY_CHECK(!levels_.empty(), "architecture needs >= 1 storage level");
    RUBY_CHECK(levels_.back().capacityWords == 0 &&
                   levels_.back().perTensorCapacity.empty(),
               "outermost level must be an unbounded backing store");
    RUBY_CHECK(word_bits_ >= 1, "word width must be >= 1 bit");
    RUBY_CHECK(mac_energy_ >= 0 && mac_area_ >= 0,
               "MAC energy/area must be non-negative");
    for (const auto &lvl : levels_) {
        RUBY_CHECK(lvl.fanoutX >= 1 && lvl.fanoutY >= 1,
                   "level ", lvl.name, ": fanout must be >= 1");
        RUBY_CHECK(lvl.bandwidthWordsPerCycle >= 0,
                   "level ", lvl.name, ": bandwidth must be >= 0");
        // The objective bound's energy floor assumes every access
        // costs >= 0; a negative energy would let pruning change the
        // best mapping.
        RUBY_CHECK(lvl.readEnergy >= 0 && lvl.writeEnergy >= 0,
                   "level ", lvl.name,
                   ": access energies must be non-negative");
    }
}

const StorageLevelSpec &
ArchSpec::level(int l) const
{
    RUBY_ASSERT(l >= 0 && l < numLevels());
    return levels_[static_cast<std::size_t>(l)];
}

StorageLevelSpec &
ArchSpec::level(int l)
{
    RUBY_ASSERT(l >= 0 && l < numLevels());
    return levels_[static_cast<std::size_t>(l)];
}

std::uint64_t
ArchSpec::instancesOf(int l) const
{
    RUBY_ASSERT(l >= 0 && l < numLevels());
    std::uint64_t n = 1;
    for (int k = l + 1; k < numLevels(); ++k)
        n *= level(k).fanout();
    return n;
}

std::uint64_t
ArchSpec::totalMacs() const
{
    std::uint64_t n = 1;
    for (const auto &lvl : levels_)
        n *= lvl.fanout();
    return n;
}

double
ArchSpec::totalArea() const
{
    double area = static_cast<double>(totalMacs()) * mac_area_;
    for (int l = 0; l < numLevels(); ++l) {
        // The backing store (DRAM) is off-chip: excluded from area.
        if (l == numLevels() - 1)
            break;
        area += static_cast<double>(instancesOf(l)) * level(l).area;
    }
    return area;
}

} // namespace ruby
