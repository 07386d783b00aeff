#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

/// 1-based nearest rank ceil(q * n), clamped to [1, n]. The epsilon keeps
/// products that are whole numbers up to rounding (0.99 * 1000) on their
/// exact rank.
size_t NearestRank(double q, size_t n) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  if (raw < 1.0) return 1;
  if (raw > static_cast<double>(n)) return n;
  return static_cast<size_t>(raw);
}

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t rank = NearestRank(q, values.size());
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

Tail TailQuantile(std::vector<double> values, double cap, size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.size() <= min_beyond) return tail;
  const size_t rank =
      std::min(NearestRank(cap, values.size()), values.size() - min_beyond);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  tail.value = values[rank - 1];
  tail.percentile =
      static_cast<double>(rank) / static_cast<double>(values.size());
  tail.beyond = values.size() - rank;
  tail.ok = true;
  return tail;
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double log_sum = 0.0;
  for (double v : values) {
    if (!(v > 0.0)) return std::numeric_limits<double>::quiet_NaN();
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double QError(double estimated, double actual) {
  const double e = std::max(estimated, 1.0);
  const double a = std::max(actual, 1.0);
  return std::max(e / a, a / e);
}

}  // namespace perfbench
