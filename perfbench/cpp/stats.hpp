// Order statistics used by the benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct TailPercentile {
  double percentile = 0.0;  ///< e.g. 95.0
  double value = 0.0;
  std::size_t samples = 0;
};

/// The percentiles a tail may be reported at, ascending.  A fixed ladder
/// keeps the reported percentile the same across seeds whose answered
/// counts differ slightly.
inline constexpr double kTailLadder[] = {50.0, 75.0, 90.0, 95.0, 99.0, 99.9};

/// The highest ladder percentile whose nearest-rank value still has at
/// least `beyond` samples ranked above it.  Empty when even the median
/// lacks that many (fewer than 2 * beyond samples).
inline std::optional<TailPercentile> tail_percentile(std::vector<double> values,
                                                     std::size_t beyond = 10) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::optional<TailPercentile> best;
  for (double pct : kTailLadder) {
    if (n == 0) break;
    auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * double(n)));
    rank = std::clamp<std::size_t>(rank, 1, n);
    if (n - rank < beyond) break;
    best = TailPercentile{pct, values[rank - 1], n};
  }
  return best;
}

}  // namespace perfbench
