#ifndef PARJ_JOIN_AGGREGATE_H_
#define PARJ_JOIN_AGGREGATE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "query/plan.h"

namespace parj::server {
class ThreadPool;
}  // namespace parj::server

namespace parj::join {

/// Number of radix partitions (top bits of the group-key hash — the
/// GroupTable directories probe with the low bits, so using the top bits
/// keeps per-partition probes well distributed). Enough
/// that per-partition merge parallelism covers any realistic core count,
/// few enough that per-worker partition tables stay cheap when empty.
inline constexpr size_t kAggRadixPartitions = 64;

/// Group-count threshold at which a worker re-buckets its thread-local
/// table into radix partitions and continues partitioned.
inline constexpr size_t kAggAdaptiveThreshold = 4096;

/// Canonical aggregation output: one row per group, sorted ascending by
/// the group-key TermId tuple. Row layout is `group_cols` key cells
/// (TermIds widened to u64) followed by one cell per aggregate — counts
/// raw u64, SUM/MIN/MAX doubles bit-cast (NaN = no numeric input).
struct AggregateOutput {
  size_t rows = 0;
  size_t width = 0;
  std::vector<uint64_t> cells;  ///< row-major, rows * width
};

/// Open-addressing group hash table with flat key/cell storage. Not
/// thread-safe; each worker owns its own instances.
class GroupTable {
 public:
  GroupTable() = default;
  GroupTable(int group_cols, std::span<const uint64_t> init_cells);

  /// Row index for `key` (group_cols TermIds), inserting a fresh row with
  /// the initial cell values when absent.
  size_t FindOrInsert(const TermId* key);
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  // data() + offset: group_cols / naggs may be 0 (global aggregate,
  // GROUP BY without aggregates), where operator[] would be out of range.
  const TermId* KeyAt(size_t row) const {
    return keys_.data() + row * group_cols_;
  }
  uint64_t* CellsAt(size_t row) { return cells_.data() + row * naggs_; }
  const uint64_t* CellsAt(size_t row) const {
    return cells_.data() + row * naggs_;
  }

 private:
  void Grow();

  int group_cols_ = 0;
  int naggs_ = 0;
  std::vector<uint64_t> init_cells_;
  std::vector<uint64_t> hash_;  ///< open-addressing directory, 0 = empty
  std::vector<uint32_t> row_;   ///< parallel to hash_, row index + 1
  size_t mask_ = 0;
  size_t count_ = 0;
  std::vector<TermId> keys_;     ///< row-major, count_ * group_cols_
  std::vector<uint64_t> cells_;  ///< row-major, count_ * naggs_
};

/// Morsel-parallel GROUP BY aggregator (DESIGN.md §16). One instance
/// serves one query execution: the engine installs `Accumulate` as the
/// executor's RowVisitor sink (ResultMode::kVisit), so aggregation
/// overlaps the join scan instead of materializing rows first. `worker`
/// is the executor shard id; each worker's state is private
/// (cache-line separated), so workers share nothing until `Finish`.
///
/// Every worker starts with a thread-local GroupTable and re-buckets it
/// into kAggRadixPartitions radix partitions once its group count reaches
/// kAggAdaptiveThreshold. `Finish` merges centrally when no worker
/// converted, and per partition (in parallel) otherwise; either way it
/// canonicalizes (groups sorted by key TermIds) and checks the
/// `agg.merge` failpoint so a faulting merge fails only its own query.
class Aggregator {
 public:
  /// `spec` and `numeric_values` must outlive the Aggregator;
  /// `numeric_values` may be null when no SUM/MIN/MAX is present.
  /// `num_workers` is the executor shard count (ExecOptions::num_threads).
  Aggregator(const query::AggregateSpec* spec,
             const std::vector<double>* numeric_values, size_t num_workers);

  /// Folds one executor row into worker `worker`'s state. Thread-safe for
  /// distinct workers.
  void Accumulate(size_t worker, std::span<const TermId> row);

  /// Merges every worker's state into the canonical output. `pool` runs
  /// the per-partition merges once any worker went radix (null = shared
  /// pool). Call exactly once, after all Accumulate calls completed.
  Result<AggregateOutput> Finish(server::ThreadPool* pool);

 private:
  struct alignas(64) WorkerState {
    GroupTable local;
    bool radix = false;
    std::vector<GroupTable> parts;  ///< kAggRadixPartitions when radix
  };

  void UpdateCells(uint64_t* cells, std::span<const TermId> row) const;
  void ConvertToRadix(WorkerState* w) const;
  void MergeRow(GroupTable* dst, const TermId* key,
                const uint64_t* cells) const;
  void MergeTableInto(const GroupTable& src, GroupTable* dst) const;
  size_t PartitionOf(const TermId* key) const;

  const query::AggregateSpec* spec_;
  const std::vector<double>* numeric_values_;
  int group_cols_ = 0;
  int naggs_ = 0;
  std::vector<uint64_t> init_cells_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
};

/// Per-worker bounded top-k collector for ORDER BY ... LIMIT k push-down
/// over plain (non-aggregate) TermId rows: each worker keeps at most
/// `limit` rows in a bounded heap ordered by the ORDER BY keys (with a
/// full-row tiebreak making the order total), and Finish merges the
/// heaps into the globally best `limit` rows, fully sorted. Memory is
/// O(workers * limit * width) regardless of result size.
class TopK {
 public:
  TopK(size_t width, size_t limit, std::span<const query::OrderKey> keys,
       size_t num_workers);

  /// Offers one row to worker `worker`'s heap. Thread-safe for distinct
  /// workers.
  void Add(size_t worker, std::span<const TermId> row);

  /// The globally best `limit` rows across all workers, sorted. Row-major
  /// flat TermIds, width as constructed.
  std::vector<TermId> Finish() const;

  /// Total order over rows: ORDER BY keys first, then every column
  /// ascending as tiebreak.
  bool RowLess(const TermId* a, const TermId* b) const;

 private:
  struct alignas(64) WorkerHeap {
    /// Flat kept rows (size * width); `heap` indexes them as a max-heap
    /// by RowLess (root = worst kept row).
    std::vector<TermId> rows;
    std::vector<uint32_t> heap;
  };

  size_t width_;
  size_t limit_;
  std::vector<query::OrderKey> keys_;
  std::vector<std::unique_ptr<WorkerHeap>> workers_;
};

/// Kind-aware three-way compare of two output cells: kTerm compares the
/// widened TermIds, kCount unsigned, kNumber as doubles with NaN (empty
/// MIN/MAX) ordered after every number. Returns <0, 0, >0.
int CompareAggCell(uint64_t a, uint64_t b, query::ColumnKind kind);

}  // namespace parj::join

#endif  // PARJ_JOIN_AGGREGATE_H_
