/**
 * @file
 * Golden-output tests for the report renderer. The network summary is
 * part of the serving bit-identity contract (remote results are
 * re-rendered through the same code), so its exact text — the PARTIAL
 * RESULT block, the "ok (memo)" status, the fast-path/memo stats
 * lines and the stats-check diagnostics — is pinned here.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "ruby/arch/presets.hpp"
#include "ruby/io/report.hpp"
#include "ruby/workload/gemm.hpp"

namespace ruby
{
namespace
{

LayerOutcome
okLayer(const std::string &name, double edp)
{
    LayerOutcome layer;
    layer.name = name;
    layer.group = "conv";
    layer.count = 2;
    layer.found = true;
    layer.evaluated = 50;
    layer.stats.modeled = 40;
    layer.stats.invalid = 10;
    layer.result.valid = true;
    layer.result.edp = edp;
    return layer;
}

std::string
render(const NetworkOutcome &net)
{
    std::ostringstream os;
    printNetworkSummary(os, net);
    return os.str();
}

/** Everything after the per-layer table (the "<<"-built block). */
std::string
tailAfterTable(const std::string &text)
{
    const std::size_t pos = text.find("mapped ");
    EXPECT_NE(pos, std::string::npos) << text;
    return pos == std::string::npos ? std::string() : text.substr(pos);
}

TEST(ReportGolden, FullyMappedNetworkSummary)
{
    NetworkOutcome net;
    net.layers = {okLayer("conv_a", 50.0), okLayer("conv_b", 75.0)};
    net.allFound = true;
    net.totalEnergy = 2.5e12;
    net.totalCycles = 5e6;
    net.edp = 1.25e19;
    net.stats.invalid = 10;
    net.stats.prunedBound = 20;
    net.stats.modeled = 99;

    const std::string golden = "mapped 2/2 unique layers\n"
                               "fast path      : 10 invalid, "
                               "20 bound-pruned, 99 fully modeled\n"
                               "network energy : 2.500e+12 pJ\n"
                               "network cycles : 5.000e+06\n"
                               "network EDP    : 1.250e+19\n";
    EXPECT_EQ(tailAfterTable(render(net)), golden);
}

TEST(ReportGolden, PartialResultSummary)
{
    NetworkOutcome net;
    net.layers = {okLayer("conv_a", 50.0)};
    LayerOutcome failed;
    failed.name = "conv_bad";
    failed.group = "conv";
    failed.count = 1;
    failed.failure = FailureKind::NoValidMapping;
    failed.diagnostic = "exhausted the mapspace";
    net.layers.push_back(failed);
    net.allFound = false;
    net.failedLayers = 1;
    net.totalEnergy = 1.5e9;
    net.totalCycles = 300.0;
    net.stats.modeled = 40;
    net.stats.invalid = 10;

    const std::string text = render(net);
    // Failed layers keep their kind and diagnostic in the table.
    EXPECT_NE(text.find("no-valid-mapping"), std::string::npos);
    EXPECT_NE(text.find("exhausted the mapspace"), std::string::npos);

    const std::string golden =
        "mapped 1/2 unique layers\n"
        "fast path      : 10 invalid, 0 bound-pruned, "
        "40 fully modeled\n"
        "PARTIAL RESULT: 1 layer(s) failed; totals cover mapped "
        "layers only\n"
        "mapped energy  : 1.500e+09 pJ\n"
        "mapped cycles  : 300.0\n";
    EXPECT_EQ(tailAfterTable(text), golden);
}

TEST(ReportGolden, MemoizedLayersGetMemoStatusAndStatsLine)
{
    NetworkOutcome net;
    net.layers = {okLayer("conv_a", 50.0)};
    LayerOutcome memo = okLayer("conv_a_dup", 50.0);
    memo.memoized = true;
    memo.evaluated = 0;
    memo.stats = EvalStats{};
    net.layers.push_back(memo);
    net.allFound = true;
    net.memoizedLayers = 1;
    net.totalEnergy = 4e9;
    net.totalCycles = 400.0;
    net.edp = 1.6e12;
    net.stats.modeled = 40;
    net.stats.invalid = 10;

    const std::string text = render(net);
    EXPECT_NE(text.find("ok (memo)"), std::string::npos);

    const std::string golden =
        "mapped 2/2 unique layers\n"
        "fast path      : 10 invalid, 0 bound-pruned, "
        "40 fully modeled\n"
        "layer memo     : 1 duplicate layer(s) replicated without "
        "searching\n"
        "network energy : 4.000e+09 pJ\n"
        "network cycles : 400.0\n"
        "network EDP    : 1.600e+12\n";
    EXPECT_EQ(tailAfterTable(text), golden);
}

TEST(ReportGolden, BatchEvalLinePrintedOnlyWhenBatchesRan)
{
    // Batch-free summaries are pinned byte-identical by the goldens
    // above (batchCalls == 0 prints nothing); a run that batched gets
    // exactly one extra line after the fast-path stats.
    NetworkOutcome net;
    net.layers = {okLayer("conv_a", 50.0)};
    net.allFound = true;
    net.totalEnergy = 1e9;
    net.totalCycles = 100.0;
    net.edp = 1e11;
    net.stats.invalid = 10;
    net.stats.modeled = 40;
    net.stats.batchCalls = 3;
    net.stats.batchedEvals = 96;
    net.stats.batchRejects = 10;

    const std::string golden =
        "mapped 1/1 unique layers\n"
        "fast path      : 10 invalid, 0 bound-pruned, "
        "40 fully modeled\n"
        "batch eval     : 96 batched over 3 batches (10 rejects)\n"
        "network energy : 1.000e+09 pJ\n"
        "network cycles : 100.0\n"
        "network EDP    : 1.000e+11\n";
    EXPECT_EQ(tailAfterTable(render(net)), golden);
}

TEST(ReportGolden, StatsCheckViolationSurfacesOneLinePerLayer)
{
    NetworkOutcome net;
    LayerOutcome bad = okLayer("conv_x", 50.0);
    bad.statsNote =
        "eval-stats mismatch: invalid+pruned+modeled = 49 "
        "!= evaluated = 50";
    net.layers = {bad};
    net.allFound = true;
    net.totalEnergy = 1e9;
    net.totalCycles = 100.0;
    net.edp = 1e11;
    net.stats.modeled = 40;
    net.stats.invalid = 9;

    const std::string golden =
        "mapped 1/1 unique layers\n"
        "fast path      : 9 invalid, 0 bound-pruned, "
        "40 fully modeled\n"
        "stats check    : conv_x: eval-stats mismatch: "
        "invalid+pruned+modeled = 49 != evaluated = 50\n"
        "network energy : 1.000e+09 pJ\n"
        "network cycles : 100.0\n"
        "network EDP    : 1.000e+11\n";
    EXPECT_EQ(tailAfterTable(render(net)), golden);
}

TEST(ReportGolden, BudgetHitLayersAreMarked)
{
    NetworkOutcome net;
    LayerOutcome late = okLayer("conv_late", 60.0);
    late.timedOut = true;
    net.layers = {late};
    net.allFound = true;
    net.totalEnergy = 1e9;
    net.totalCycles = 100.0;
    net.edp = 1e11;

    EXPECT_NE(render(net).find("ok (budget hit)"),
              std::string::npos);
}

TEST(ReportGolden, InvalidEvaluationReportIsShortCircuited)
{
    // printReport on an invalid result prints the reason and stops
    // before any table; pin that exact shape.
    Problem problem = makeGemm(8, 8, 8);
    const ArchSpec arch = makeToyLinear(4);
    EvalResult result;
    result.valid = false;
    result.invalidReason = "tile exceeds spad capacity";

    std::ostringstream os;
    printReport(os, problem, arch, result);
    const std::string golden =
        "=== evaluation: " + problem.name() + " on " + arch.name() +
        " ===\nINVALID: tile exceeds spad capacity\n";
    EXPECT_EQ(os.str(), golden);
}

} // namespace
} // namespace ruby
