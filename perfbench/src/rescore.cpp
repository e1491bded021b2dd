#include "rescore.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "ruby/model/evaluator.hpp"
#include "ruby/serve/json.hpp"
#include "ruby/serve/protocol.hpp"

namespace perfbench
{

namespace
{

using ruby::DimId;

std::vector<std::string>
splitWords(const std::string &line)
{
    std::istringstream is(line);
    std::vector<std::string> words;
    for (std::string w; is >> w;)
        words.push_back(w);
    return words;
}

int
dimByName(const ruby::Problem &problem, const std::string &name)
{
    for (DimId d = 0; d < problem.numDims(); ++d)
        if (problem.dimName(d) == name)
            return d;
    return -1;
}

/**
 * Parse the factor list after "for:" / "parFor:". Each entry is
 * NAME[@X|@Y]=STEADY, optionally followed by "(tail T)" (split over
 * two words). Returns false on anything unexpected.
 */
bool
parseFactors(const std::vector<std::string> &words,
             const ruby::Problem &problem, int slot,
             std::vector<std::vector<std::uint64_t>> &steady,
             std::vector<DimId> *order,
             std::vector<ruby::SpatialAxis> *axes)
{
    for (std::size_t i = 1; i < words.size(); ++i) {
        std::string w = words[i];
        const bool hasTail = w.size() > 5 &&
                             w.compare(w.size() - 5, 5, "(tail") == 0;
        if (hasTail) {
            w.resize(w.size() - 5);
            ++i; // the "T)" word
        }
        const auto eq = w.find('=');
        if (eq == std::string::npos)
            return false;
        std::string name = w.substr(0, eq);
        ruby::SpatialAxis axis = ruby::SpatialAxis::X;
        if (const auto at = name.find('@'); at != std::string::npos) {
            axis = name.substr(at + 1) == "Y" ? ruby::SpatialAxis::Y
                                              : ruby::SpatialAxis::X;
            name.resize(at);
        }
        const int d = dimByName(problem, name);
        if (d < 0)
            return false;
        steady[static_cast<std::size_t>(d)]
              [static_cast<std::size_t>(slot)] =
                  std::stoull(w.substr(eq + 1));
        if (order != nullptr)
            order->push_back(d);
        if (axes != nullptr)
            (*axes)[static_cast<std::size_t>(d)] = axis;
    }
    return true;
}

} // namespace

std::optional<ruby::Mapping>
parseMapping(const std::string &text, const ruby::Problem &problem,
             const ruby::ArchSpec &arch)
{
    const int nl = arch.numLevels();
    const int nd = problem.numDims();
    const int nt = problem.numTensors();
    std::vector<std::string> lines;
    {
        std::istringstream is(text);
        for (std::string line; std::getline(is, line);)
            lines.push_back(line);
    }
    if (static_cast<int>(lines.size()) != 3 * nl)
        return std::nullopt;

    std::vector<std::vector<std::uint64_t>> steady(
        static_cast<std::size_t>(nd),
        std::vector<std::uint64_t>(static_cast<std::size_t>(2 * nl), 1));
    std::vector<std::vector<DimId>> perms(static_cast<std::size_t>(nl));
    std::vector<std::vector<char>> keep(
        static_cast<std::size_t>(nl),
        std::vector<char>(static_cast<std::size_t>(nt), 0));
    std::vector<std::vector<ruby::SpatialAxis>> axes(
        static_cast<std::size_t>(nl),
        std::vector<ruby::SpatialAxis>(static_cast<std::size_t>(nd),
                                       ruby::SpatialAxis::X));
    try {
        for (int k = 0; k < nl; ++k) {
            const int l = nl - 1 - k;
            const auto head = splitWords(lines[3 * k]);
            if (head.size() < 2 || head[0] != arch.level(l).name)
                return std::nullopt;
            for (std::size_t i = 2; i < head.size(); ++i) {
                std::string name = head[i];
                if (!name.empty() && name.back() == ']')
                    name.pop_back();
                for (int t = 0; t < nt; ++t)
                    if (problem.tensor(t).name == name)
                        keep[static_cast<std::size_t>(l)]
                            [static_cast<std::size_t>(t)] = 1;
            }
            const auto temporal = splitWords(lines[3 * k + 1]);
            const auto spatial = splitWords(lines[3 * k + 2]);
            if (temporal.empty() || temporal[0] != "for:" ||
                spatial.empty() || spatial[0] != "parFor:")
                return std::nullopt;
            auto &perm = perms[static_cast<std::size_t>(l)];
            if (!parseFactors(temporal, problem, ruby::temporalSlot(l),
                              steady, &perm, nullptr) ||
                !parseFactors(spatial, problem, ruby::spatialSlot(l),
                              steady, nullptr,
                              &axes[static_cast<std::size_t>(l)]))
                return std::nullopt;
            // Unit loops are not printed; they add no nest level, so
            // their position in the permutation is immaterial.
            for (DimId d = 0; d < nd; ++d)
                if (std::find(perm.begin(), perm.end(), d) ==
                    perm.end())
                    perm.push_back(d);
        }
        return ruby::Mapping(problem, arch, steady, perms, keep, axes);
    } catch (const std::exception &) {
        return std::nullopt;
    }
}

bool
rescoreMatches(const ruby::LayerOutcome &outcome,
               const ruby::Problem &problem, const ruby::ArchSpec &arch,
               std::string &why)
{
    if (!outcome.found) {
        why = outcome.name + ": no mapping (" + outcome.diagnostic + ")";
        return false;
    }
    const std::optional<ruby::Mapping> mapping =
        parseMapping(outcome.bestMapping, problem, arch);
    if (!mapping) {
        why = outcome.name + ": best mapping text does not parse";
        return false;
    }
    if (mapping->toString() != outcome.bestMapping) {
        why = outcome.name + ": best mapping text does not round-trip";
        return false;
    }
    const ruby::Evaluator evaluator(problem, arch);
    // Not spanned: the check is the benchmark's work, not the
    // workload's.
    const ruby::EvalResult again = evaluator.evaluate(*mapping);
    using ruby::serve::evalResultToJson;
    using ruby::serve::writeJson;
    if (writeJson(evalResultToJson(again)) !=
        writeJson(evalResultToJson(outcome.result))) {
        why = outcome.name + ": scalar re-evaluation differs from the "
                             "search's result";
        return false;
    }
    return true;
}

} // namespace perfbench
