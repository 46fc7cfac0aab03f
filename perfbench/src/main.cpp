// perfbench: one run of one benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Prints the report and, as its last line, the JSON result. Exits 0 when
// every output check passed, 1 when a check failed, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\nworkloads:",
               msg);
  for (const auto& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string commit;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") opts.workload = value;
      else if (flag == "--seed") opts.seed = std::stoull(value);
      else if (flag == "--seconds") opts.seconds = std::stod(value);
      else if (flag == "--trace") opts.trace = std::stoi(value) != 0;
      else if (flag == "--out-dir") opts.out_dir = value;
      else if (flag == "--commit") commit = value;
      else return usage(("unknown flag " + flag).c_str());
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (opts.workload.empty()) return usage("--workload is required");
  if (!(opts.seconds > 0.0)) return usage("--seconds must be positive");
  try {
    opts.provenance = perfbench::provenance(opts, commit);
    const perfbench::RunResult res = perfbench::run_workload(opts);
    return perfbench::print_report(res, opts.provenance);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
