// What a run prints: provenance, every metric by name with unit and sample
// count, and — as the last line of standard output — the one-line JSON
// result {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Where a number was measured: the guard against layout and placement
/// effects being mistaken for code changes.
std::vector<std::pair<std::string, std::string>> provenance(
    const RunOptions& opts, const std::string& commit);

/// Print the human-readable report, then the JSON line. Returns the
/// process exit code: 0 when the run is correct, 1 otherwise.
int print_report(const RunResult& res,
                 const std::vector<std::pair<std::string, std::string>>& prov);

}  // namespace perfbench
