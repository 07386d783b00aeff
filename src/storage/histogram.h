#ifndef PARJ_STORAGE_HISTOGRAM_H_
#define PARJ_STORAGE_HISTOGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace parj::storage {

/// Equi-depth histogram over the sorted distinct-key array of a replica
/// (paper §4.3). Bucket boundaries are placed every key_count/buckets keys;
/// per boundary we also record the cumulative pair (triple) count so that
/// both key selectivity and triple mass of a range can be estimated.
class EquiDepthHistogram {
 public:
  EquiDepthHistogram() = default;

  /// Builds from a replica's keys and CSR offsets. `bucket_count` is a
  /// target; degenerate inputs produce fewer buckets.
  static EquiDepthHistogram Build(std::span<const TermId> keys,
                                  std::span<const uint64_t> offsets,
                                  size_t bucket_count);

  size_t bucket_count() const {
    return boundaries_.empty() ? 0 : boundaries_.size() - 1;
  }

  uint64_t total_keys() const { return total_keys_; }
  uint64_t total_pairs() const { return total_pairs_; }

  /// Estimated number of distinct keys with value <= x.
  double EstimateKeysLessEqual(TermId x) const;

  /// Estimated number of (key, value) pairs whose key is <= x.
  double EstimatePairsLessEqual(TermId x) const;

  /// Estimated number of distinct keys in [lo, hi] (inclusive).
  double EstimateKeysInRange(TermId lo, TermId hi) const;

  /// Estimated number of pairs whose key lies in [lo, hi] (inclusive).
  double EstimatePairsInRange(TermId lo, TermId hi) const;

  /// Estimated run length (pairs per key) around key value x: the pair/key
  /// density of x's bucket. Falls back to the global average off-range.
  double EstimateRunLength(TermId x) const;

  /// Fraction of this histogram's keys expected to also occur in a foreign
  /// key range [lo, hi] under the uniform assumption.
  double OverlapKeyFraction(TermId lo, TermId hi) const;

  friend bool operator==(const EquiDepthHistogram&,
                         const EquiDepthHistogram&) = default;

 private:
  // boundaries_[i]..boundaries_[i+1] delimit bucket i (key values,
  // inclusive lower, inclusive upper at the final boundary).
  std::vector<TermId> boundaries_;
  // cum_keys_[i]  = keys strictly before bucket i.
  // cum_pairs_[i] = pairs strictly before bucket i. Size = buckets + 1.
  std::vector<uint64_t> cum_keys_;
  std::vector<uint64_t> cum_pairs_;
  uint64_t total_keys_ = 0;
  uint64_t total_pairs_ = 0;
};

}  // namespace parj::storage

#endif  // PARJ_STORAGE_HISTOGRAM_H_
