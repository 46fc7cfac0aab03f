// The benchmark's own arithmetic: percentile selection, the choice of a
// run's quiet parts, and the SLO-rate interpolation over an offered-rate
// ladder. Pure functions over plain vectors, so tests/selftest.cpp can pin
// every edge case.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `v` (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return percentile(v, 0.5); }

/// Samples strictly beyond the q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return static_cast<std::size_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it — below that it is one or two outliers, not a percentile.
inline constexpr std::size_t kMinBeyond = 10;

inline bool supports_percentile(std::size_t n, double q) {
  return samples_beyond(n, q) >= kMinBeyond;
}

/// Share of the samples that are <= limit; 0 for an empty sample.
inline double share_within(const std::vector<double>& v, double limit) {
  if (v.empty()) return 0.0;
  const auto in =
      std::count_if(v.begin(), v.end(), [&](double x) { return x <= limit; });
  return static_cast<double>(in) / static_cast<double>(v.size());
}

/// A part of a run (an open-loop part, a closed-loop segment) is quiet
/// when the hypervisor took at most this share of the machine's CPU time
/// while it ran (/proc/stat steal). A shared machine's host takes CPU time
/// in bursts; one burst of tens of ms moves a p99 several-fold.
inline constexpr double kQuietSteal = 0.005;

/// The parts of a run the metrics use: every quiet part (kQuietSteal),
/// and at least the half of the parts with the least host steal. The
/// choice looks only at the host's steal counter, never at the measured
/// figures.
template <class Part>
std::vector<Part> quiet_parts(const std::vector<Part>& parts) {
  std::vector<Part> kept = parts;
  std::stable_sort(kept.begin(), kept.end(), [](const Part& a, const Part& b) {
    return a.steal < b.steal;
  });
  std::size_t n = (kept.size() + 1) / 2;
  while (n < kept.size() && kept[n].steal <= kQuietSteal) ++n;
  kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(n), kept.end());
  return kept;
}

/// One offered rate of the open-loop ladder and what it achieved.
struct LadderStep {
  double offered_rps = 0.0;
  double p99_s = 0.0;         ///< request latency p99 over the step
  double served_ratio = 0.0;  ///< served rate / offered rate
};

/// A step meets the SLO when its p99 latency is within the limit (at least
/// 99% of requests within it) and it served at least this share of the
/// offered rate (no growing backlog).
inline constexpr double kServedTarget = 0.98;

/// Signed, dimensionless distance from failing: >= 0 passes. The latency
/// criterion sets it, on a log scale so that a p99 far past the limit (a
/// growing queue) does not swamp the interpolation below. The served-rate
/// criterion only ever lowers it: its own margin is at most log(1/0.98),
/// which would pin every interpolation to the lower step.
inline double slo_margin(const LadderStep& s, double limit_s) {
  const double lat = s.p99_s > 0.0 ? std::log(limit_s / s.p99_s) : 1.0;
  if (s.served_ratio >= kServedTarget) return lat;
  const double served = s.served_ratio > 0.0
                            ? std::log(s.served_ratio / kServedTarget)
                            : -1e9;
  return std::min(lat, served);
}

/// Margin of the virtual rate-0 step: at zero load the p99 is taken to be
/// limit/e. Only an all-fail ladder interpolates toward it.
inline constexpr double kZeroRateMargin = 1.0;

/// Highest rate that meets the SLO, interpolated linearly in slo_margin
/// between the highest passing step and the step above it, so the result
/// moves with the measured p99s instead of jumping a whole ladder step when
/// one step flips. An all-pass ladder returns its top rate (nothing above
/// it was measured); an all-fail ladder interpolates between the virtual
/// rate-0 step and its first rate. Steps must ascend in offered rate.
inline double slo_rps(const std::vector<LadderStep>& steps, double limit_s) {
  if (steps.empty()) throw std::invalid_argument("slo_rps: empty ladder");
  for (std::size_t i = 1; i < steps.size(); ++i)
    if (steps[i].offered_rps <= steps[i - 1].offered_rps)
      throw std::invalid_argument("slo_rps: ladder not ascending");
  std::size_t top = steps.size();  // highest passing step; size() = none
  for (std::size_t i = steps.size(); i-- > 0;)
    if (slo_margin(steps[i], limit_s) >= 0.0) {
      top = i;
      break;
    }
  if (top == steps.size() - 1) return steps.back().offered_rps;
  const bool none = top == steps.size();
  const double r_lo = none ? 0.0 : steps[top].offered_rps;
  const double m_lo = none ? kZeroRateMargin : slo_margin(steps[top], limit_s);
  const LadderStep& hi = none ? steps.front() : steps[top + 1];
  const double m_hi = slo_margin(hi, limit_s);
  const double frac = m_lo / (m_lo - m_hi);  // in [0, 1): m_lo >= 0 > m_hi
  return r_lo + frac * (hi.offered_rps - r_lo);
}

}  // namespace perfbench
