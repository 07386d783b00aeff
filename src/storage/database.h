#ifndef PARJ_STORAGE_DATABASE_H_
#define PARJ_STORAGE_DATABASE_H_

#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "dict/dictionary.h"
#include "index/id_position_index.h"
#include "join/calibration.h"
#include "join/search.h"
#include "storage/property_table.h"

namespace parj::server {
class ThreadPool;
}  // namespace parj::server

namespace parj::storage {

/// Which column of a property a value comes from.
enum class Role : uint8_t { kSubject = 0, kObject = 1 };

inline const char* RoleName(Role role) {
  return role == Role::kSubject ? "subject" : "object";
}

/// The replica whose key column is `role`.
inline ReplicaKind ReplicaForKeyRole(Role role) {
  return role == Role::kSubject ? ReplicaKind::kSO : ReplicaKind::kOS;
}

/// Precomputed statistics for the join of two property columns
/// (paper §4.3's "precomputed cardinalities between pairs of properties
/// used as a corrective step"). For columns A = (p1, role1) and
/// B = (p2, role2):
///   intersection  |distinct(A) ∩ distinct(B)|
///   pairs_left    Σ_{k ∈ ∩} run-length of k in p1's role1-keyed replica
///   pairs_right   Σ_{k ∈ ∩} run-length of k in p2's role2-keyed replica
/// The exact cardinality of the two-pattern join A ⋈ B is then
/// Σ run_A(k)·run_B(k); intersection and the one-sided sums are enough for
/// the optimizer's per-step estimates and are much cheaper to store.
struct PairJoinStat {
  uint64_t intersection = 0;
  uint64_t pairs_left = 0;
  uint64_t pairs_right = 0;
};

/// Derived per-replica metadata: optional ID-to-Position index and the
/// adaptive-search thresholds (window sizes in positions and their
/// value-distance conversions).
struct ReplicaMeta {
  index::IdPositionIndex id_index;
  bool has_index = false;

  /// Calibrated (or default) window sizes, in key-array positions.
  double window_binary = 200.0;
  double window_index = 20.0;
  /// The windows converted to value distances (Algorithm 1 operands).
  int64_t threshold_binary = 200;
  int64_t threshold_index = 20;

  /// The threshold for a strategy's fallback method.
  int64_t ThresholdFor(join::SearchStrategy strategy) const {
    return (strategy == join::SearchStrategy::kIndex ||
            strategy == join::SearchStrategy::kAdaptiveIndex)
               ? threshold_index
               : threshold_binary;
  }
};

/// One property's storage plus metadata for both replicas.
struct PropertyEntry {
  PropertyTable table;
  ReplicaMeta so_meta;
  ReplicaMeta os_meta;

  const ReplicaMeta& meta(ReplicaKind kind) const {
    return kind == ReplicaKind::kSO ? so_meta : os_meta;
  }
  ReplicaMeta& meta(ReplicaKind kind) {
    return kind == ReplicaKind::kSO ? so_meta : os_meta;
  }
};

/// Build-time options.
struct DatabaseOptions {
  /// Build ID-to-Position indexes for every replica (paper §4.2; they are
  /// auxiliary — the kBinary / kAdaptiveBinary strategies ignore them).
  bool build_id_position_indexes = true;
  /// Precompute PairJoinStats for all property-column pairs. Skipped when
  /// the dataset has more than `pairwise_max_columns` property columns
  /// (2 per property); 0 builds none.
  size_t pairwise_max_columns = 256;
  /// Default windows (positions) used before/without calibration. The
  /// paper's calibrated values on its test machine were ~200 (binary) and
  /// ~20 (index).
  double default_binary_window = 200.0;
  double default_index_window = 20.0;
  /// Worker threads for store construction: the grouping scatter, the
  /// per-predicate table + metadata builds, and the pairwise-stat loop.
  /// <=1 builds serially (0 is NOT hardware concurrency here, to keep the
  /// default deterministic-cheap); the built store is identical whatever
  /// the value (DESIGN.md §10).
  int build_threads = 1;
};

/// Wall-clock breakdown of one Database::Build (+ Calibrate), filled when
/// the caller passes a timings sink. The loader surfaces these as the
/// "build" and "index" phases of its per-phase load report.
struct BuildTimings {
  double group_millis = 0.0;       ///< validate + count + scatter by predicate
  /// Per-predicate tables: sort + dedup S-O and transpose it to O-S
  /// (Build), or validate the given S-O runs and transpose them
  /// (FromSortedRuns, which also copies reused predicates here).
  double tables_millis = 0.0;
  double meta_millis = 0.0;        ///< ID indexes, thresholds
  double pair_stats_millis = 0.0;  ///< pairwise join statistics
};

/// An immutable-after-build, in-memory RDF store: dictionary + vertically
/// partitioned, doubly-replicated property tables + derived metadata
/// (paper §3). All query-time state lives in the executor, so a Database
/// can be shared read-only by any number of threads.
class Database {
 public:
  Database() = default;
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Builds from encoded triples: groups them by predicate, sorts each
  /// group into S-O once (PropertyTable::Build), then finishes. Duplicate
  /// triples are collapsed. Predicate IDs in `triples` must be dense in
  /// [1, dict.predicate_count()]. With options.build_threads > 1 the
  /// grouping scatter, per-predicate tables and finishing run on a private
  /// thread pool; the result is bit-identical to a serial build. `timings`
  /// (optional) receives the phase breakdown.
  static Result<Database> Build(dict::Dictionary dict,
                                std::vector<EncodedTriple> triples,
                                const DatabaseOptions& options = {},
                                BuildTimings* timings = nullptr);

  /// Builds from each predicate's sorted S-O runs (index = predicate id -
  /// 1; one entry per dictionary predicate), as snapshot load and
  /// compaction hold them: each is validated and transposed by
  /// PropertyTable::FromSortedRuns, then the store is finished as Build
  /// finishes it. An invalid entry fails the build with InvalidArgument
  /// naming the lowest such predicate. A nullopt entry copies that
  /// predicate's table and replica metadata (calibrated windows included)
  /// from `reuse`, rebuilding only its ID indexes when the resource count
  /// differs; compaction passes its old base there.
  static Result<Database> FromSortedRuns(
      dict::Dictionary dict, std::vector<std::optional<SortedRuns>> runs,
      const DatabaseOptions& options = {}, const Database* reuse = nullptr,
      BuildTimings* timings = nullptr);

  /// Runs Algorithm 2 on every replica large enough to measure, replacing
  /// the default windows/thresholds. Call once after load, before queries
  /// (paper: "this process takes place after data loading, prior to query
  /// execution").
  void Calibrate(const join::CalibrationOptions& options = {});

  const dict::Dictionary& dictionary() const { return dict_; }

  size_t predicate_count() const { return entries_.size(); }

  /// Entry for predicate `pid` (1-based). Asserts on range.
  const PropertyEntry& entry(PredicateId pid) const;

  /// Entry or nullptr when `pid` is invalid/out of range.
  const PropertyEntry* FindEntry(PredicateId pid) const;

  uint64_t total_triples() const { return total_triples_; }

  /// Universe for ID-to-Position indexes: the largest resource ID.
  TermId max_resource_id() const { return dict_.resource_count(); }

  /// Pairwise stat for columns (p1, role1) and (p2, role2), oriented so
  /// that `pairs_left` refers to (p1, role1). Empty when not precomputed.
  std::optional<PairJoinStat> GetPairStat(PredicateId p1, Role role1,
                                          PredicateId p2, Role role2) const;

  bool has_pair_stats() const { return has_pair_stats_; }

  /// Heap bytes of tables + metadata, excluding the dictionary (the paper
  /// quotes storage "excluding dictionary" separately). Counts live bytes
  /// (vector sizes), not reserve slack.
  size_t TableMemoryUsage() const;

  /// Like TableMemoryUsage() but counting allocated capacity, so the gap
  /// between the two gauges is exactly the allocator slack.
  size_t TableAllocatedUsage() const;

  const DatabaseOptions& options() const { return options_; }

  /// Heap bytes of the dictionary.
  size_t DictionaryMemoryUsage() const { return dict_.MemoryUsage(); }

 private:
  static uint64_t PairKey(PredicateId p1, Role role1, PredicateId p2,
                          Role role2);
  /// Intersects every column pair, on `pool`. A pair whose two
  /// predicates are both marked in `kept` copies its stat from `reuse`.
  void ComputePairStats(size_t max_columns, server::ThreadPool* pool,
                        const std::vector<bool>& kept, const Database* reuse);
  /// The finishing step both builders share: replica metadata for every
  /// entry not marked in `kept` (empty: none kept), then pair stats, both
  /// on `pool`. Kept entries take both from `reuse`.
  void Finish(server::ThreadPool* pool, const std::vector<bool>& kept,
              const Database* reuse, BuildTimings* timings);

  dict::Dictionary dict_;
  std::vector<PropertyEntry> entries_;  // index = predicate id - 1
  uint64_t total_triples_ = 0;
  bool has_pair_stats_ = false;
  std::unordered_map<uint64_t, PairJoinStat> pair_stats_;
  DatabaseOptions options_;
};

}  // namespace parj::storage

#endif  // PARJ_STORAGE_DATABASE_H_
