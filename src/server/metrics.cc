#include "server/metrics.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace parj::server {

namespace {

size_t BucketFor(uint64_t micros) {
  if (micros == 0) return 0;
  const size_t width = static_cast<size_t>(std::bit_width(micros));
  return width < LatencyHistogram::kBucketCount
             ? width
             : LatencyHistogram::kBucketCount - 1;
}

}  // namespace

void LatencyHistogram::Record(double millis) {
  if (millis < 0 || !std::isfinite(millis)) millis = 0;
  const uint64_t micros = static_cast<uint64_t>(millis * 1e3);
  buckets_[BucketFor(micros)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_micros_.fetch_add(micros, std::memory_order_relaxed);
  uint64_t prev = max_micros_.load(std::memory_order_relaxed);
  while (micros > prev && !max_micros_.compare_exchange_weak(
                              prev, micros, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::BucketUpperMillis(size_t bucket) {
  return static_cast<double>(uint64_t{1} << bucket) / 1e3;
}

double LatencyHistogram::PercentileMillis(double p) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  if (p < 0) p = 0;
  if (p > 1) p = 1;
  const uint64_t target =
      static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i].load(std::memory_order_relaxed);
    if (cumulative >= target && cumulative > 0) return BucketUpperMillis(i);
  }
  return BucketUpperMillis(kBucketCount - 1);
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_micros_.store(0, std::memory_order_relaxed);
  max_micros_.store(0, std::memory_order_relaxed);
}

namespace {

void AppendHistogram(std::string* out, const char* name,
                     const LatencyHistogram& h) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "%-12s count=%llu mean=%.3fms p50<=%.3fms p99<=%.3fms "
                "max=%.3fms\n",
                name, static_cast<unsigned long long>(h.count()),
                h.mean_millis(), h.PercentileMillis(0.5),
                h.PercentileMillis(0.99), h.max_millis());
  *out += line;
}

}  // namespace

std::span<const MetricsRegistry::Counter> MetricsRegistry::Counters() {
  using M = MetricsRegistry;
  static constexpr Counter kCounters[] = {
      {"queries_submitted", &M::queries_submitted},
      {"queries_admitted", &M::queries_admitted},
      {"admission_rejected", &M::admission_rejected},
      {"queries_completed", &M::queries_completed},
      {"queries_failed", &M::queries_failed},
      {"queries_cancelled", &M::queries_cancelled},
      {"deadlines_expired", &M::deadlines_expired},
      {"rows_returned", &M::rows_returned},
      {"rows_skipped_by_limit", &M::rows_skipped_by_limit},
      {"retries", &M::retries},
      {"worker_faults", &M::worker_faults},
      {"snapshot_crc_verified", &M::snapshot_crc_verified},
      {"load_total_micros", &M::load_total_micros},
      {"load_parse_micros", &M::load_parse_micros},
      {"load_encode_micros", &M::load_encode_micros},
      {"load_build_micros", &M::load_build_micros},
      {"load_index_micros", &M::load_index_micros},
      {"load_calibrate_micros", &M::load_calibrate_micros},
      {"load_threads_used", &M::load_threads_used},
      {"delta_triples", &M::delta_triples},
      {"delta_bytes", &M::delta_bytes},
      {"compactions", &M::compactions},
      {"compaction_ms", &M::compaction_micros, true},
      {"active_epochs", &M::active_epochs},
      {"store_bytes", &M::store_bytes},
      {"store_allocated_bytes", &M::store_allocated_bytes},
      {"wal_records", &M::wal_records},
      {"wal_bytes", &M::wal_bytes},
      {"wal_fsyncs", &M::wal_fsyncs},
      {"group_commit_ms", &M::wal_group_commit_micros, true},
      {"wal_group_commits", &M::wal_group_commits},
      {"wal_backlog_bytes", &M::wal_backlog_bytes},
      {"wal_segments", &M::wal_segments},
      {"wal_checkpoints", &M::wal_checkpoints},
      {"wal_backpressure_waits", &M::wal_backpressure_waits},
      {"recovery_replayed", &M::recovery_replayed},
      {"recovery_truncated_bytes", &M::recovery_truncated_bytes},
      {"recovery_millis", &M::recovery_millis},
      {"plan_cache_hits", &M::plan_cache_hits},
      {"plan_cache_misses", &M::plan_cache_misses},
      {"plan_cache_evictions", &M::plan_cache_evictions},
      {"result_cache_hits", &M::result_cache_hits},
      {"result_cache_misses", &M::result_cache_misses},
      {"result_cache_bytes", &M::result_cache_bytes},
      {"shared_scan_groups", &M::shared_scan_groups},
      {"shared_scan_queries_coalesced", &M::shared_scan_queries_coalesced},
      {"shared_scan_fallbacks", &M::shared_scan_fallbacks},
  };
  // A counter added to the struct but not to the table would be neither
  // dumped nor reset; the registry holds nothing but counters and the
  // three histograms, so its size pins the table's length.
  static_assert(sizeof(MetricsRegistry) ==
                std::size(kCounters) * sizeof(std::atomic<uint64_t>) +
                    3 * sizeof(LatencyHistogram));
  return kCounters;
}

std::string MetricsRegistry::Dump() const {
  std::string out = "--- serving metrics ---\n";
  char line[96];
  for (const Counter& c : Counters()) {
    const uint64_t value = (this->*c.field).load(std::memory_order_relaxed);
    if (c.micros_as_millis) {
      std::snprintf(line, sizeof(line), "%-20s %.3f\n", c.name,
                    static_cast<double>(value) / 1e3);
    } else {
      std::snprintf(line, sizeof(line), "%-20s %llu\n", c.name,
                    static_cast<unsigned long long>(value));
    }
    out += line;
  }
  AppendHistogram(&out, "queue_wait", queue_wait);
  AppendHistogram(&out, "execution", execution);
  AppendHistogram(&out, "total", total);
  return out;
}

void MetricsRegistry::Reset() {
  for (const Counter& c : Counters()) {
    (this->*c.field).store(0, std::memory_order_relaxed);
  }
  queue_wait.Reset();
  execution.Reset();
  total.Reset();
}

}  // namespace parj::server
