#ifndef PARJ_STORAGE_PROPERTY_TABLE_H_
#define PARJ_STORAGE_PROPERTY_TABLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace parj::storage {

/// Which replica of a property's two-column table (paper §3): S-O is sorted
/// by subject then object; O-S by object then subject.
enum class ReplicaKind : uint8_t { kSO = 0, kOS = 1 };

inline const char* ReplicaKindName(ReplicaKind kind) {
  return kind == ReplicaKind::kSO ? "S-O" : "O-S";
}

/// One sort-order replica of a property table, stored in the paper's
/// compact two-level layout:
///
///   keys[]    sorted array of DISTINCT key values (subjects for S-O,
///             objects for O-S) — the "first array" of Figure 1;
///   offsets[] one entry per key plus a sentinel: offsets[i]..offsets[i+1]
///             delimit key i's partner run inside values[] — the paper's
///             "single pointer to the start of this memory area ... keep
///             offsets in each position of the second array";
///   values[]  all partner runs concatenated in one contiguous allocation,
///             each run sorted ascending.
///
/// The layout stores each distinct key exactly once (the paper's simple
/// column-specific compression) and makes both the key array and each run
/// sequentially scannable, which the adaptive join exploits.
class TableReplica {
 public:
  TableReplica() = default;

  /// Builds a replica from unsorted (key, value) pairs. Duplicate pairs are
  /// collapsed (RDF graphs are triple sets).
  static TableReplica Build(std::vector<std::pair<TermId, TermId>> pairs);

  TableReplica(TableReplica&&) = default;
  TableReplica& operator=(TableReplica&&) = default;
  TableReplica(const TableReplica&) = delete;
  TableReplica& operator=(const TableReplica&) = delete;

  /// Number of distinct keys.
  size_t key_count() const { return keys_.size(); }

  /// Number of (key, value) pairs, i.e. distinct triples in this property.
  size_t pair_count() const { return values_.size(); }

  bool empty() const { return key_count() == 0; }

  /// The sorted distinct-key array.
  std::span<const TermId> keys() const { return keys_; }

  /// The concatenated value runs.
  std::span<const TermId> values() const { return values_; }

  /// Run offsets (size key_count()+1).
  std::span<const uint64_t> offsets() const { return offsets_; }

  /// The sorted partner run of the key at `key_index`.
  std::span<const TermId> Run(size_t key_index) const {
    return {values_.data() + offsets_[key_index],
            static_cast<size_t>(offsets_[key_index + 1] -
                                offsets_[key_index])};
  }

  /// Length of the run at `key_index`.
  size_t RunLength(size_t key_index) const {
    return static_cast<size_t>(offsets_[key_index + 1] - offsets_[key_index]);
  }

  TermId KeyAt(size_t key_index) const { return keys_[key_index]; }

  TermId min_key() const { return keys_.empty() ? 0 : keys_.front(); }
  TermId max_key() const { return keys_.empty() ? 0 : keys_.back(); }

  /// Average arithmetic distance between consecutive keys under the
  /// paper's uniform-distribution assumption:
  /// (keys[size-1] - keys[0]) / size. Returns 1.0 for degenerate arrays.
  double AverageKeyGap() const;

  /// Average run length (pairs / keys); 0 for an empty replica.
  double AverageRunLength() const {
    return empty() ? 0.0
                   : static_cast<double>(pair_count()) /
                         static_cast<double>(key_count());
  }

  /// Exact position of `key` via std::lower_bound semantics, or SIZE_MAX.
  /// Reference implementation used by tests and cold paths; the join path
  /// uses the search kernels in join/search.h.
  size_t FindKey(TermId key) const;

  /// Cost of processing the key range [begin, end): its cumulative run
  /// length (= number of triples).
  uint64_t RangeCost(size_t begin, size_t end) const {
    return offsets_[end] - offsets_[begin];
  }

  /// Cuts the key range [begin, end) into `parts` contiguous sub-ranges of
  /// approximately equal RangeCost (not equal key count), via binary search
  /// on the cumulative offsets. Returns parts+1 monotone cut positions with
  /// cuts.front() == begin and cuts.back() == end. A single key whose run
  /// exceeds the per-part share gets its own (oversized) sub-range and the
  /// neighbouring sub-ranges may be empty — cost balance is as good as the
  /// key granularity allows.
  std::vector<size_t> CostBalancedSplit(size_t begin, size_t end,
                                        size_t parts) const;

  /// Membership of `value` in the (sorted) run of `key_index`.
  bool RunContains(size_t key_index, TermId value) const;

  /// Calls fn(key_index, key, run) for every key in order.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    for (size_t i = 0; i < keys_.size(); ++i) fn(i, keys_[i], Run(i));
  }

  /// Bytes of heap memory USED by the replica's arrays (size-based; the
  /// serve-time `store_bytes` gauge). See AllocatedBytes() for
  /// capacity-based accounting.
  size_t MemoryUsage() const {
    return keys_.size() * sizeof(TermId) +
           offsets_.size() * sizeof(uint64_t) +
           values_.size() * sizeof(TermId);
  }

  /// Bytes of heap memory RESERVED by the replica's arrays.
  size_t AllocatedBytes() const {
    return keys_.capacity() * sizeof(TermId) +
           offsets_.capacity() * sizeof(uint64_t) +
           values_.capacity() * sizeof(TermId);
  }

 private:
  friend class PropertyTable;

  std::vector<TermId> keys_;
  std::vector<uint64_t> offsets_;
  std::vector<TermId> values_;
};

/// One property's S-O replica as bare CSR arrays, in TableReplica's layout:
/// the distinct subjects, keys.size()+1 run offsets, and the concatenated
/// object runs. The input of PropertyTable::FromSortedRuns.
struct SortedRuns {
  std::vector<TermId> keys;
  std::vector<uint64_t> offsets;
  std::vector<TermId> values;
};

/// Both replicas of one property's two-column table plus its triple count.
/// O-S is always derived from S-O by a counting transpose (paper §3: O-S
/// is the transpose of S-O), never sorted on its own.
class PropertyTable {
 public:
  PropertyTable() = default;

  /// Builds both replicas from this property's (subject, object) pairs:
  /// sorts and dedups them into S-O once, then transposes.
  static PropertyTable Build(
      std::vector<std::pair<TermId, TermId>> subject_object_pairs);

  /// Takes over already-sorted S-O arrays and transposes them. Rejects
  /// (InvalidArgument) keys that do not strictly increase, offsets that do
  /// not start at 0, rise strictly and end at values.size() (so every run
  /// is non-empty), runs that do not strictly increase, and any ID outside
  /// [1, max_id]. Snapshot load and compaction both build through this.
  static Result<PropertyTable> FromSortedRuns(SortedRuns so, TermId max_id);

  /// A deep copy (compaction keeps untouched predicates this way).
  PropertyTable Clone() const;

  PropertyTable(PropertyTable&&) = default;
  PropertyTable& operator=(PropertyTable&&) = default;
  PropertyTable(const PropertyTable&) = delete;
  PropertyTable& operator=(const PropertyTable&) = delete;

  const TableReplica& so() const { return so_; }
  const TableReplica& os() const { return os_; }

  const TableReplica& replica(ReplicaKind kind) const {
    return kind == ReplicaKind::kSO ? so_ : os_;
  }

  /// Number of distinct triples with this predicate.
  uint64_t triple_count() const { return so_.pair_count(); }

  size_t distinct_subjects() const { return so_.key_count(); }
  size_t distinct_objects() const { return os_.key_count(); }

  size_t MemoryUsage() const {
    return so_.MemoryUsage() + os_.MemoryUsage();
  }

  size_t AllocatedBytes() const {
    return so_.AllocatedBytes() + os_.AllocatedBytes();
  }

 private:
  /// Derives os_ from so_ by a counting transpose. Scattering the pairs
  /// in S-O order leaves each object's subjects ascending.
  void TransposeSubjectObject();

  TableReplica so_;
  TableReplica os_;
};

}  // namespace parj::storage

#endif  // PARJ_STORAGE_PROPERTY_TABLE_H_
