#include "ruby/io/report.hpp"

#include <algorithm>

#include "ruby/common/table.hpp"

namespace ruby
{

void
printReport(std::ostream &os, const Problem &problem,
            const ArchSpec &arch, const EvalResult &result)
{
    os << "=== evaluation: " << problem.name() << " on "
       << arch.name() << " ===\n";
    if (!result.valid) {
        os << "INVALID: " << result.invalidReason << "\n";
        return;
    }

    std::vector<std::string> headers{"level"};
    for (int t = 0; t < problem.numTensors(); ++t) {
        headers.push_back(problem.tensor(t).name + " reads");
        headers.push_back(problem.tensor(t).name + " writes");
    }
    headers.push_back("energy (pJ)");
    Table table(std::move(headers));
    for (int l = arch.numLevels() - 1; l >= 0; --l) {
        std::vector<std::string> row{arch.level(l).name};
        for (int t = 0; t < problem.numTensors(); ++t) {
            row.push_back(formatCompact(
                result.accesses
                    .reads[static_cast<std::size_t>(l)]
                          [static_cast<std::size_t>(t)]));
            row.push_back(formatCompact(
                result.accesses
                    .writes[static_cast<std::size_t>(l)]
                           [static_cast<std::size_t>(t)]));
        }
        row.push_back(formatCompact(
            result.levelEnergy[static_cast<std::size_t>(l)]));
        table.addRow(std::move(row));
    }
    table.print(os);

    os << "MACs            : " << formatCompact(
              static_cast<double>(result.ops))
       << "\n"
       << "MAC energy      : " << formatCompact(result.macEnergy)
       << " pJ\n"
       << "network energy  : " << formatCompact(result.networkEnergy)
       << " pJ\n"
       << "total energy    : " << formatCompact(result.energy)
       << " pJ\n"
       << "compute cycles  : "
       << formatCompact(result.latency.computeCycles) << "\n";
    for (int l = 0; l < arch.numLevels(); ++l) {
        const double bw =
            result.latency.bandwidthCycles[static_cast<std::size_t>(l)];
        if (bw > 0)
            os << "bw cycles @" << arch.level(l).name << "  : "
               << formatCompact(bw) << "\n";
    }
    os << "total cycles    : " << formatCompact(result.cycles) << "\n"
       << "utilization     : "
       << formatFixed(100 * result.utilization, 1) << " %\n"
       << "EDP             : " << formatCompact(result.edp) << "\n";
}

void
printNetworkSummary(std::ostream &os, const NetworkOutcome &net)
{
    Table table({"layer", "group", "count", "status", "evals",
                 "modeled", "EDP", "detail"});
    table.setTitle("network search summary");
    for (const LayerOutcome &layer : net.layers) {
        std::string status;
        if (layer.found)
            status = layer.memoized          ? "ok (memo)"
                     : layer.certified       ? "ok (certified)"
                     : layer.timedOut        ? "ok (budget hit)"
                                             : "ok";
        else
            status = failureKindName(layer.failure);
        // "evals" counts mappings drawn; "modeled" counts full
        // cost-model runs — the gap is what the fast path skipped
        // (invalid, bound-pruned, or served from the memo cache).
        table.addRow({layer.name, layer.group,
                      std::to_string(layer.count), status,
                      formatCompact(
                          static_cast<double>(layer.evaluated)),
                      formatCompact(
                          static_cast<double>(layer.stats.modeled)),
                      layer.found ? formatCompact(layer.result.edp)
                                  : "-",
                      layer.diagnostic});
    }
    table.print(os);

    const std::size_t mapped =
        net.layers.size() - static_cast<std::size_t>(net.failedLayers);
    os << "mapped " << mapped << "/" << net.layers.size()
       << " unique layers\n"
       << "fast path      : "
       << formatCompact(static_cast<double>(net.stats.invalid))
       << " invalid, "
       << formatCompact(static_cast<double>(net.stats.prunedBound))
       << " bound-pruned, "
       << formatCompact(static_cast<double>(net.stats.modeled))
       << " fully modeled\n";
    // Only printed when an incremental engine actually served
    // candidates: the counters are deterministic per (seed, threads),
    // and searches that never attempt a delta keep the report
    // byte-identical to pre-engine builds.
    if (net.stats.deltaAttempts > 0)
        os << "delta eval     : "
           << formatCompact(
                  static_cast<double>(net.stats.deltaHits))
           << " incremental, "
           << formatCompact(
                  static_cast<double>(net.stats.deltaFallbacks))
           << " fallbacks ("
           << formatCompact(
                  static_cast<double>(net.stats.deltaRebases))
           << " rebases)\n";
    // Same discipline for the batch engine: batch-free runs stay
    // byte-identical to pre-engine builds.
    if (net.stats.batchCalls > 0)
        os << "batch eval     : "
           << formatCompact(
                  static_cast<double>(net.stats.batchedEvals))
           << " batched over "
           << formatCompact(
                  static_cast<double>(net.stats.batchCalls))
           << " batches ("
           << formatCompact(
                  static_cast<double>(net.stats.batchRejects))
           << " rejects)\n";
    // Optimality accounting, printed only when some layer ran a
    // bound-tracking strategy — sampling-only sweeps stay
    // byte-identical to earlier builds.
    {
        int certified = 0;
        double worstGap = -1.0;
        bool tracked = false;
        for (const LayerOutcome &layer : net.layers) {
            if (layer.certified) {
                ++certified;
                tracked = true;
            }
            if (layer.gapPercent >= 0.0) {
                tracked = true;
                worstGap = std::max(worstGap, layer.gapPercent);
            }
        }
        if (tracked) {
            os << "optimality     : " << certified << "/"
               << net.layers.size() << " layer(s) certified";
            if (certified <
                static_cast<int>(net.layers.size()) &&
                worstGap >= 0.0)
                os << ", worst gap "
                   << formatFixed(worstGap, 2) << " %";
            os << "\n";
        }
    }
    // Partition-identity violations (see LayerOutcome::statsNote) are
    // surfaced here rather than aborting: the counters are diagnostics
    // and a broken diagnostic must not suppress the result.
    for (const LayerOutcome &layer : net.layers)
        if (!layer.statsNote.empty())
            os << "stats check    : " << layer.name << ": "
               << layer.statsNote << "\n";
    if (net.memoizedLayers > 0)
        os << "layer memo     : " << net.memoizedLayers
           << " duplicate layer(s) replicated without searching\n";
    if (net.allFound) {
        os << "network energy : " << formatCompact(net.totalEnergy)
           << " pJ\nnetwork cycles : "
           << formatCompact(net.totalCycles)
           << "\nnetwork EDP    : " << formatCompact(net.edp) << "\n";
    } else {
        os << "PARTIAL RESULT: " << net.failedLayers
           << " layer(s) failed; totals cover mapped layers only\n"
           << "mapped energy  : " << formatCompact(net.totalEnergy)
           << " pJ\nmapped cycles  : "
           << formatCompact(net.totalCycles) << "\n";
    }
}

void
writeResultYaml(std::ostream &os, const Problem &problem,
                const ArchSpec &arch, const EvalResult &result)
{
    os << "result:\n"
       << "  workload: " << problem.name() << "\n"
       << "  architecture: " << arch.name() << "\n"
       << "  valid: " << (result.valid ? "true" : "false") << "\n";
    if (!result.valid) {
        os << "  reason: \"" << result.invalidReason << "\"\n";
        return;
    }
    os << "  macs: " << result.ops << "\n"
       << "  energy_pj: " << result.energy << "\n"
       << "  cycles: " << result.cycles << "\n"
       << "  edp: " << result.edp << "\n"
       << "  utilization: " << result.utilization << "\n"
       << "  levels:\n";
    for (int l = 0; l < arch.numLevels(); ++l) {
        os << "    - name: " << arch.level(l).name << "\n"
           << "      energy_pj: "
           << result.levelEnergy[static_cast<std::size_t>(l)] << "\n"
           << "      tensors:\n";
        for (int t = 0; t < problem.numTensors(); ++t) {
            os << "        - name: " << problem.tensor(t).name << "\n"
               << "          reads: "
               << result.accesses.reads[static_cast<std::size_t>(l)]
                                       [static_cast<std::size_t>(t)]
               << "\n"
               << "          writes: "
               << result.accesses.writes[static_cast<std::size_t>(l)]
                                        [static_cast<std::size_t>(t)]
               << "\n";
        }
    }
}

} // namespace ruby
