#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::uint32_t this_thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// Minimal JSON string escaping for names and metadata values.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::int64_t SpanRecorder::begin(const char* name, std::uint64_t id,
                                 std::int64_t parent) {
  const double t = now();
  std::lock_guard lk(mu_);
  spans_.push_back({name, id, this_thread_index(), parent, t, t});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t span) {
  const double t = now();
  std::lock_guard lk(mu_);
  spans_.at(static_cast<std::size_t>(span)).end_s = t;
}

std::int64_t SpanRecorder::record(const char* name, std::uint64_t id,
                                  double start_s, double end_s,
                                  std::int64_t parent) {
  std::lock_guard lk(mu_);
  spans_.push_back({name, id, this_thread_index(), parent, start_s, end_s});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> SpanRecorder::snapshot() const {
  std::lock_guard lk(mu_);
  return spans_;
}

bool SpanRecorder::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
  const std::vector<Span> spans = snapshot();
  const std::vector<double> self = self_times(spans);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{");
  for (std::size_t i = 0; i < metadata.size(); ++i)
    std::fprintf(f, "%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                 json_escape(metadata[i].first).c_str(),
                 json_escape(metadata[i].second).c_str());
  std::fprintf(f, "},\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"span\":%zu,\"parent\":%lld,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",\n", json_escape(s.name).c_str(), s.tid,
                 s.start_s * 1e6, s.duration_s() * 1e6,
                 static_cast<unsigned long long>(s.id), i,
                 static_cast<long long>(s.parent), self[i] * 1e6);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const double a = std::max(spans[c].start_s, s.start_s);
      const double b = std::min(spans[c].end_s, s.end_s);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, run_a = 0.0, run_b = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > run_b) {
        if (run_b > run_a) covered += run_b - run_a;
        run_a = a;
        run_b = b;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (run_b > run_a) covered += run_b - run_a;
    self[i] = s.duration_s() - covered;
  }
  return self;
}

}  // namespace perfbench
