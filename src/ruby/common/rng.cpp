#include "ruby/common/rng.hpp"

namespace ruby
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa0761d6478bd642full);
}

Rng
Rng::keyed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t key = seed ^ splitmix64(index);
    return Rng(splitmix64(key));
}

} // namespace ruby
