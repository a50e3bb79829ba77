// Nearest-rank percentiles over a sorted latency window.
//
// One definition for every reader: ServingEngine::Stats(), the brownout
// controller's recent-p99 signal, and the serving benches. The nearest-rank
// p-th percentile of n ascending samples is the sample at index
// ceil(p/100 * n) - 1, so a p99 over fewer than 100 samples is the largest
// one — a window can never hide its worst request.
#ifndef LACA_COMMON_QUANTILE_HPP_
#define LACA_COMMON_QUANTILE_HPP_

#include <cstddef>
#include <span>

namespace laca {

/// Nearest-rank `percent`-th percentile (0 < percent <= 100) of an
/// ascending sample; 0 for an empty one.
inline double NearestRank(std::span<const double> sorted, size_t percent) {
  if (sorted.empty()) return 0.0;
  const size_t rank = (sorted.size() * percent + 99) / 100;  // ceil
  return sorted[rank == 0 ? 0 : rank - 1];
}

}  // namespace laca

#endif  // LACA_COMMON_QUANTILE_HPP_
