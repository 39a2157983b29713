// Repetition statistics and the host record of a benchmark run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Linearly interpolated quantile of sorted `values` (q in [0, 1]); 0 for an
/// empty sample.
inline double sorted_quantile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  if (lo + 1 >= values.size()) return values.back();
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

/// Median, quartiles, extremes and count of one metric over repetitions.
struct RepStats {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

inline RepStats rep_stats(std::vector<double> values) {
  RepStats stats;
  if (values.empty()) return stats;
  std::sort(values.begin(), values.end());
  stats.median = sorted_quantile(values, 0.50);
  stats.q1 = sorted_quantile(values, 0.25);
  stats.q3 = sorted_quantile(values, 0.75);
  stats.min = values.front();
  stats.max = values.back();
  stats.n = values.size();
  return stats;
}

/// What a result depends on besides the code: core count, compiler and
/// whether assertions and optimization were compiled in.
struct HostRecord {
  unsigned nproc = std::thread::hardware_concurrency();
  std::string compiler = __VERSION__;
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif
#ifdef __OPTIMIZE__
  bool optimized = true;
#else
  bool optimized = false;
#endif
};

}  // namespace perfbench
