#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "kernels/gemm_dispatch.hpp"
#include "kernels/quant.hpp"

namespace perfbench {

namespace {

std::string cpu_model() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[512];
  std::string model = "unknown";
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "model name", 10) != 0) continue;
    const char* colon = std::strchr(line, ':');
    if (colon == nullptr) continue;
    model = colon + 1;
    while (!model.empty() && (model.front() == ' ' || model.front() == '\t'))
      model.erase(model.begin());
    while (!model.empty() && (model.back() == '\n' || model.back() == ' '))
      model.pop_back();
    break;
  }
  std::fclose(f);
  return model;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> provenance(
    const RunOptions& opts, const std::string& commit) {
  const char* arch_cap = std::getenv("TGNN_KERNEL_ARCH");
  return {
      {"workload", opts.workload},
      {"seed", std::to_string(opts.seed)},
      {"seconds", std::to_string(opts.seconds)},
      {"trace", opts.trace ? "1" : "0"},
      {"cpu", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd_arch", tgnn::kernels::simd_arch_name()},
      {"quant_arch", tgnn::kernels::quant_arch_name()},
      {"TGNN_KERNEL_ARCH", arch_cap != nullptr ? arch_cap : "(unset)"},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", commit.empty() ? "unknown" : commit},
  };
}

int print_report(const RunResult& res,
                 const std::vector<std::pair<std::string, std::string>>& prov) {
  std::printf("# provenance\n");
  for (const auto& [k, v] : prov) std::printf("  %-18s %s\n", k.c_str(), v.c_str());
  std::printf("# workload\n");
  for (const auto& [k, v] : res.facts)
    std::printf("  %-18s %s\n", k.c_str(), v.c_str());
  std::printf("# metrics (name, value, unit, samples)\n");
  bool finite = true;
  for (const auto& m : res.metrics) {
    if (!std::isfinite(m.value)) finite = false;
    std::printf("  %-34s %14.6g %-8s %zu%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples,
                m.measured ? "" : "  (layer bypassed by this workload)",
                m.in_json ? "" : "  (report only)");
  }
  std::vector<std::string> problems = res.problems;
  if (!finite) problems.push_back("a metric is not a finite number");
  const bool correct = res.correct && problems.empty();
  std::printf("# result: %s\n", correct ? "correct" : "INCORRECT");
  for (const auto& p : problems) std::printf("  problem: %s\n", p.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", res.attempted, res.failed);
  const char* sep = "";
  for (const auto& m : res.metrics) {
    if (!m.in_json) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
