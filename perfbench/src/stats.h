// Order statistics over raw samples.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` in (0, 1] of `v` (copied and sorted).
/// Empty input gives 0.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(const std::vector<double>& v) {
  return Percentile(v, 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
