/**
 * @file
 * Re-scoring of the best mappings a search returns. searchLayer and
 * searchNetwork hand back the best mapping only as its rendered text
 * (Mapping::toString), so the benchmark parses that text back into a
 * Mapping, checks the rendering round-trips byte for byte, and runs
 * the scalar Evaluator::evaluate on it: the result must equal the
 * search's reported evaluation in every encoded bit.
 */

#ifndef PERFBENCH_RESCORE_HPP
#define PERFBENCH_RESCORE_HPP

#include <optional>
#include <string>

#include "ruby/mapping/mapping.hpp"
#include "ruby/search/driver.hpp"

namespace perfbench
{

/** Parse Mapping::toString() output; nullopt if it does not parse. */
std::optional<ruby::Mapping> parseMapping(const std::string &text,
                                          const ruby::Problem &problem,
                                          const ruby::ArchSpec &arch);

/**
 * True when @p outcome found a mapping whose scalar re-evaluation on
 * (@p problem, @p arch) reproduces outcome.result exactly; otherwise
 * false with the reason in @p why.
 */
bool rescoreMatches(const ruby::LayerOutcome &outcome,
                    const ruby::Problem &problem,
                    const ruby::ArchSpec &arch, std::string &why);

} // namespace perfbench

#endif // PERFBENCH_RESCORE_HPP
