/**
 * @file
 * Shared helpers for the test suite: compact constructors for
 * mappings with identity permutations and keep-all residency, and
 * views of the process's live threads.
 */

#ifndef RUBY_TESTS_TEST_UTIL_HPP
#define RUBY_TESTS_TEST_UTIL_HPP

#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "ruby/arch/arch_spec.hpp"
#include "ruby/mapping/mapping.hpp"
#include "ruby/workload/problem.hpp"

namespace ruby::test
{

/** The `Threads:` line of /proc/self/status (0 when unreadable). */
inline int
processThreadCount()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoi(line.substr(8));
    return 0;
}

/** Kernel thread ids of the process's live threads (/proc/self/task). */
inline std::set<int>
liveThreadIds()
{
    std::set<int> ids;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task", ec))
        ids.insert(std::stoi(entry.path().filename().string()));
    return ids;
}

/** Identity permutations for every level. */
inline std::vector<std::vector<DimId>>
identityPerms(const Problem &prob, const ArchSpec &arch)
{
    std::vector<DimId> identity(
        static_cast<std::size_t>(prob.numDims()));
    std::iota(identity.begin(), identity.end(), 0);
    return std::vector<std::vector<DimId>>(
        static_cast<std::size_t>(arch.numLevels()), identity);
}

/** Keep-all residency flags. */
inline std::vector<std::vector<char>>
keepAll(const Problem &prob, const ArchSpec &arch)
{
    return std::vector<std::vector<char>>(
        static_cast<std::size_t>(arch.numLevels()),
        std::vector<char>(static_cast<std::size_t>(prob.numTensors()),
                          1));
}

/**
 * Mapping from per-dimension steady chains with identity permutations
 * and keep-all residency.
 */
inline Mapping
makeMapping(const Problem &prob, const ArchSpec &arch,
            std::vector<std::vector<std::uint64_t>> steady)
{
    return Mapping(prob, arch, steady, identityPerms(prob, arch),
                   keepAll(prob, arch));
}

} // namespace ruby::test

#endif // RUBY_TESTS_TEST_UTIL_HPP
