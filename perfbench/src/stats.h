#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Exact order statistics over per-request samples. Nothing here buckets:
/// every percentile is a value that was actually measured.

/// Nearest-rank quantile: the value at 1-based rank ceil(q * n) of the
/// sorted samples, q in (0, 1]. NaN when `values` is empty.
double Quantile(std::vector<double> values, double q);

/// Quantile(values, 0.5).
double Median(std::vector<double> values);

/// A tail percentile chosen by the ">= 10 samples beyond it" rule.
struct Tail {
  double value = 0.0;
  /// The percentile actually used, as a fraction (0.99 when n >= 1000).
  double percentile = 0.0;
  size_t samples = 0;  ///< n
  size_t beyond = 0;   ///< samples ranked strictly above the chosen one
  bool ok = false;     ///< false when n < min_beyond + 1
};

/// The highest percentile, capped at `cap`, that leaves at least
/// `min_beyond` samples ranked above it: rank min(ceil(cap * n), n -
/// min_beyond). With fewer than 1000 samples a p99 would rest on fewer
/// than ten observations, so the tail slides down to 1 - 10/n instead of
/// reporting a percentile the data cannot resolve.
Tail TailQuantile(std::vector<double> values, double cap = 0.99,
                  size_t min_beyond = 10);

/// Geometric mean; NaN when `values` is empty or holds a value <= 0.
double Geomean(const std::vector<double>& values);

/// Optimizer q-error of one plan step: max(e/a, a/e) with both sides
/// clamped to at least one row, so an empty step is not an infinite error.
double QError(double estimated, double actual);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
