#ifndef PARJ_SERVER_METRICS_H_
#define PARJ_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace parj::server {

/// Lock-free fixed-bucket latency histogram. Bucket i covers
/// [2^(i-1), 2^i) microseconds (bucket 0 is [0, 1us)), so 32 buckets span
/// sub-microsecond to ~35 minutes — plenty for query latencies — with one
/// relaxed atomic increment per Record.
class LatencyHistogram {
 public:
  static constexpr size_t kBucketCount = 32;

  void Record(double millis);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_millis() const {
    return static_cast<double>(sum_micros_.load(std::memory_order_relaxed)) /
           1e3;
  }
  double mean_millis() const {
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum_millis() / static_cast<double>(n);
  }
  double max_millis() const {
    return static_cast<double>(max_micros_.load(std::memory_order_relaxed)) /
           1e3;
  }

  /// Upper bound (ms) of the bucket holding the p-quantile (0 < p <= 1);
  /// 0 when empty. Bucketed percentiles are exact to within a factor of 2,
  /// which is the standard tradeoff for lock-free serving metrics.
  double PercentileMillis(double p) const;

  /// Upper bound of bucket `i` in milliseconds.
  static double BucketUpperMillis(size_t bucket);

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_micros_{0};
  std::atomic<uint64_t> max_micros_{0};
};

/// All serving-layer counters and histograms. One instance per
/// QueryServer; everything is an atomic, so workers record without locks
/// and Dump() reads a consistent-enough snapshot for operators.
struct MetricsRegistry {
  std::atomic<uint64_t> queries_submitted{0};
  std::atomic<uint64_t> queries_admitted{0};
  std::atomic<uint64_t> admission_rejected{0};  ///< queue-full rejections
  std::atomic<uint64_t> queries_completed{0};
  std::atomic<uint64_t> queries_failed{0};      ///< non-cancel errors
  std::atomic<uint64_t> queries_cancelled{0};   ///< client-initiated
  std::atomic<uint64_t> deadlines_expired{0};
  std::atomic<uint64_t> rows_returned{0};
  /// Rows the cross-shard LIMIT gate rejected after saturation (see
  /// join::ExecResult::rows_skipped_by_limit); nonzero proves LIMIT-k
  /// early exit is actually cutting work.
  std::atomic<uint64_t> rows_skipped_by_limit{0};

  // Robustness counters (retry / containment / integrity).
  std::atomic<uint64_t> retries{0};              ///< re-submissions after transient failure
  std::atomic<uint64_t> worker_faults{0};        ///< exceptions contained at the worker boundary
  std::atomic<uint64_t> snapshot_crc_verified{0};///< mirrored from GlobalSnapshotStats

  // Bulk-load phase gauges (microseconds), set once by the serving CLI
  // after load from engine::LoadStats so operators can see where start-up
  // time went without rerunning the load.
  std::atomic<uint64_t> load_total_micros{0};
  std::atomic<uint64_t> load_parse_micros{0};
  std::atomic<uint64_t> load_encode_micros{0};
  std::atomic<uint64_t> load_build_micros{0};
  std::atomic<uint64_t> load_index_micros{0};
  std::atomic<uint64_t> load_calibrate_micros{0};
  std::atomic<uint64_t> load_threads_used{0};

  // Live-mutability gauges (DESIGN.md §12), refreshed from
  // mut::MutationStats by QueryServer::RefreshMutationGauges(), which the
  // serving CLI calls before each `.metrics` dump.
  std::atomic<uint64_t> delta_triples{0};     ///< pending inserts + deletes
  std::atomic<uint64_t> delta_bytes{0};       ///< delta tables + overlay heap
  std::atomic<uint64_t> compactions{0};       ///< completed compactions
  std::atomic<uint64_t> compaction_micros{0}; ///< cumulative compaction wall
  std::atomic<uint64_t> active_epochs{0};     ///< live pinned versions

  // Base-store size gauges (refreshed alongside the mutation gauges).
  // store_bytes counts live bytes (vector sizes); store_allocated_bytes
  // counts allocator capacity, so the difference is exactly the reserve
  // slack.
  std::atomic<uint64_t> store_bytes{0};
  std::atomic<uint64_t> store_allocated_bytes{0};

  // Crash-durability gauges (DESIGN.md §14), refreshed from mut::WalStats /
  // mut::RecoveryStats alongside the mutation gauges. All zero when the
  // engine serves without a WAL.
  std::atomic<uint64_t> wal_records{0};        ///< batch records appended
  std::atomic<uint64_t> wal_bytes{0};          ///< framed bytes written
  std::atomic<uint64_t> wal_fsyncs{0};         ///< segment fsyncs issued
  std::atomic<uint64_t> wal_group_commit_micros{0};  ///< cumulative fsync wait
  std::atomic<uint64_t> wal_group_commits{0};  ///< batched fsync rounds
  std::atomic<uint64_t> wal_backlog_bytes{0};  ///< queued, not yet written
  std::atomic<uint64_t> wal_segments{0};       ///< live segment files
  std::atomic<uint64_t> wal_checkpoints{0};    ///< completed checkpoints
  std::atomic<uint64_t> wal_backpressure_waits{0};  ///< appends that blocked
  std::atomic<uint64_t> recovery_replayed{0};  ///< records replayed at boot
  std::atomic<uint64_t> recovery_truncated_bytes{0};  ///< torn tail dropped
  std::atomic<uint64_t> recovery_millis{0};    ///< snapshot load + replay

  // Serving-cache counters (DESIGN.md §15). The plan/result cache rows
  // are gauges refreshed from the caches' own stats alongside the
  // mutation gauges; the shared-scan rows are incremented directly by
  // the serving path.
  std::atomic<uint64_t> plan_cache_hits{0};       ///< bound-text or shape hits
  std::atomic<uint64_t> plan_cache_misses{0};     ///< eligible lookups that optimized
  std::atomic<uint64_t> plan_cache_evictions{0};  ///< LRU evictions (gauge)
  std::atomic<uint64_t> result_cache_hits{0};     ///< answers served from cache
  std::atomic<uint64_t> result_cache_misses{0};   ///< lookups that executed
  std::atomic<uint64_t> result_cache_bytes{0};    ///< resident bytes (gauge)
  std::atomic<uint64_t> shared_scan_groups{0};    ///< shared passes executed
  std::atomic<uint64_t> shared_scan_queries_coalesced{0};  ///< queries served by another query's pass
  std::atomic<uint64_t> shared_scan_fallbacks{0};  ///< groups degraded to solo execution

  LatencyHistogram queue_wait;  ///< submit -> job start
  LatencyHistogram execution;   ///< engine Execute wall time
  LatencyHistogram total;       ///< submit -> result ready

  /// One row of the counter name table. Dump() prints and Reset() zeroes
  /// exactly the table's rows, in table order.
  struct Counter {
    const char* name;
    std::atomic<uint64_t> MetricsRegistry::*field;
    /// Printed as milliseconds with three decimals (the field holds µs).
    bool micros_as_millis = false;
  };
  /// Every counter above, each exactly once.
  static std::span<const Counter> Counters();

  /// Human-readable text dump for the CLI / benches.
  std::string Dump() const;

  void Reset();
};

}  // namespace parj::server

#endif  // PARJ_SERVER_METRICS_H_
