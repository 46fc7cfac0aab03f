// The three benchmark workloads and what one run of each reports.
//
//   replay-wiki        closed-loop replay of a wikipedia-like test split
//                      through Backend::process_batch (cpu-mt, GEMM-bound),
//                      plus a paced replay ladder; no ServingEngine
//   serve-sparse       open-loop serving of a sparse uniform-user graph
//                      through the sharded multi-lane ServingEngine
//   serve-skew-oocore  open-loop serving of a Zipf-skewed graph through the
//                      pipelined engine over a 25%-resident vertex store
//
// See perfbench/README.md for every metric's definition.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< measured time of the run
  bool trace = false;      ///< traced run: per-layer metrics + span file
  std::string out_dir = ".";  ///< span files and state checkpoints
  /// Where the run was measured; copied into the span file.
  std::vector<std::pair<std::string, std::string>> provenance;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< samples behind the value (0 = a count)
  /// False for a layer the workload bypasses: reported as 0 so that every
  /// run of a mode prints the same metric set.
  bool measured = true;
  /// False for report-only lines (fail_frac, which the JSON result carries
  /// as failed / attempted).
  bool in_json = true;
};

struct MetricName {
  const char* name;
  const char* unit;
};

/// The metrics a run puts in its JSON result: end-to-end ones without
/// --trace, per-layer ones with it. BENCHMARK.json lists the same names
/// and units; run.py checks that they agree.
const std::vector<MetricName>& end_to_end_metrics();
const std::vector<MetricName>& per_layer_metrics();

struct RunResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< why `correct` is false
  /// Workload facts for the report (rates, limits, sizes).
  std::vector<std::pair<std::string, std::string>> facts;
};

/// Workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Run one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& opts);

}  // namespace perfbench
