#include "ruby/mapspace/factor_space.hpp"

#include <algorithm>

#include "ruby/common/error.hpp"
#include "ruby/common/math_util.hpp"

namespace ruby
{

std::vector<SlotRule>
chainRules(const Mapspace &space, DimId d)
{
    std::vector<SlotRule> rules;
    const int slots = 2 * space.arch().numLevels();
    rules.reserve(static_cast<std::size_t>(slots));
    for (int k = 0; k < slots; ++k)
        rules.push_back(
            SlotRule{space.slotCap(d, k), space.slotImperfect(k)});
    return rules;
}

std::vector<std::vector<std::uint64_t>>
enumerateChains(std::uint64_t dim, const std::vector<SlotRule> &rules,
                std::size_t limit)
{
    RUBY_CHECK(!rules.empty(), "chain needs >= 1 slot");
    std::vector<std::vector<std::uint64_t>> out;
    std::vector<std::uint64_t> cur(rules.size(), 1);

    auto recurse = [&](auto &&self, std::size_t slot,
                       std::uint64_t m) -> bool {
        if (limit != 0 && out.size() >= limit)
            return false;
        if (slot == rules.size() - 1) {
            // The outermost slot absorbs the residual; it must fit
            // the cap (and, at perfect slots, m always divides m).
            const auto &rule = rules[slot];
            if (rule.cap != 0 && m > rule.cap)
                return true;
            cur[slot] = m;
            out.push_back(cur);
            return true;
        }
        const auto &rule = rules[slot];
        const std::uint64_t hi =
            rule.cap == 0 ? m : std::min(rule.cap, m);
        if (rule.imperfect) {
            for (std::uint64_t p = 1; p <= hi; ++p) {
                cur[slot] = p;
                if (!self(self, slot + 1, ceilDiv(m, p)))
                    return false;
            }
        } else {
            for (std::uint64_t p : divisors(m)) {
                if (p > hi)
                    break;
                cur[slot] = p;
                if (!self(self, slot + 1, m / p))
                    return false;
            }
        }
        return true;
    };
    recurse(recurse, 0, dim);
    return out;
}

Decisions
leafRows(const Mapspace &space)
{
    const int nd = space.problem().numDims();
    const int nl = space.arch().numLevels();
    const int nt = space.problem().numTensors();
    Decisions rows;
    rows.steady.resize(static_cast<std::size_t>(nd * 2 * nl));
    rows.perms.resize(static_cast<std::size_t>(nl * nd));
    rows.keep.resize(static_cast<std::size_t>(nl * nt));
    rows.axes.assign(static_cast<std::size_t>(nl * nd), SpatialAxis::X);
    for (int l = 0; l < nl; ++l)
        for (int t = 0; t < nt; ++t) {
            const bool bypass = l > 0 && l < nl - 1 &&
                                space.constraints().bypassForced(l, t);
            rows.keep[static_cast<std::size_t>(l * nt + t)] =
                bypass ? 0 : 1;
        }
    return rows;
}

void
writeLeaf(
    const std::vector<std::vector<std::vector<std::uint64_t>>> &chains,
    const std::vector<std::vector<DimId>> &perms,
    const std::vector<std::size_t> &pick,
    const std::vector<std::size_t> &permPick, Decisions &rows)
{
    auto steady = rows.steady.begin();
    for (std::size_t d = 0; d < chains.size(); ++d)
        steady = std::copy(chains[d][pick[d]].begin(),
                           chains[d][pick[d]].end(), steady);
    auto order = rows.perms.begin();
    for (const std::size_t p : permPick)
        order = std::copy(perms[p].begin(), perms[p].end(), order);
}

} // namespace ruby
