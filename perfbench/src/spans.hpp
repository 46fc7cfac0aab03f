// In-memory span recorder for the traced run. A span is one timed call at
// a layer boundary: name, start, end, the span that caused it, and the
// stream index of the request it serves (a batch's spans carry the index
// of its first request). Spans stay in memory while the workload runs and
// are written once at exit as Chrome Trace Event JSON, which Perfetto and
// chrome://tracing open directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stopwatch.hpp"

namespace perfbench {

inline constexpr std::int64_t kNoParent = -1;

struct Span {
  const char* name = "";  ///< static string: the layer call's name
  std::uint64_t id = 0;   ///< stream index of the request (batch: first)
  std::uint32_t tid = 0;  ///< small per-thread index of the recording thread
  std::int64_t parent = kNoParent;  ///< index of the causing span
  double start_s = 0.0;   ///< seconds since the recorder was created
  double end_s = 0.0;
  [[nodiscard]] double duration_s() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  /// Seconds since construction — the time base every span uses.
  [[nodiscard]] double now() const { return clock_.seconds(); }

  /// Open a span starting now; close it with end(). Returns its index,
  /// which children pass as their parent.
  std::int64_t begin(const char* name, std::uint64_t id,
                     std::int64_t parent = kNoParent);
  void end(std::int64_t span);
  /// Record a span whose bounds were measured by the caller.
  std::int64_t record(const char* name, std::uint64_t id, double start_s,
                      double end_s, std::int64_t parent = kNoParent);

  [[nodiscard]] std::vector<Span> snapshot() const;

  /// Write every span as Chrome Trace Event JSON ("X" complete events,
  /// microseconds), with `metadata` key/value pairs under "otherData".
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& metadata) const;

 private:
  tgnn::Stopwatch clock_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once).
std::vector<double> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
