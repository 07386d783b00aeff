#ifndef PARJ_SERVER_SERVER_H_
#define PARJ_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/parj_engine.h"
#include "query/normalize.h"
#include "query/plan_cache.h"
#include "server/cancellation.h"
#include "server/metrics.h"
#include "server/result_cache.h"
#include "server/retry.h"
#include "server/scheduler.h"
#include "server/shared_scan.h"
#include "server/thread_pool.h"

namespace parj::server {

struct ServerOptions {
  SchedulerOptions scheduler;
  /// Pool running both query jobs and their intra-query shards; nullptr
  /// means ThreadPool::Shared().
  ThreadPool* pool = nullptr;
  /// Engine options applied to every submission unless overridden
  /// per-query (SubmitOptions::query).
  engine::QueryOptions query_defaults;
  /// Server-wide cap on one query's runtime in ms (0 = off), counted
  /// from job start so queue wait never spends it. It tightens the
  /// query's deadline; a tighter client deadline still wins.
  double max_query_millis = 0.0;

  // ---- Serving caches (DESIGN.md §15) ---------------------------------
  /// Two-level plan cache (exact text -> bound plan, shape -> template).
  bool enable_plan_cache = true;
  size_t plan_cache_entries = query::PlanCache::kDefaultMaxEntries;
  /// Result-cache byte budget; 0 disables the result cache entirely.
  size_t result_cache_bytes = size_t{64} << 20;
  /// Coalesce in-flight queries sharing a leading scan into one pass.
  bool enable_shared_scan = true;
  /// Max queries per shared pass, leader included.
  size_t shared_scan_max_group = 8;
};

struct SubmitOptions {
  /// Higher dispatches first; FIFO within a priority level.
  int priority = 0;
  /// Relative timeout in ms (0 = none); converted to an absolute deadline
  /// at submission time.
  double timeout_millis = 0.0;
  /// Absolute steady-clock deadline; takes precedence over timeout_millis.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Per-query engine options; defaults to ServerOptions::query_defaults.
  std::optional<engine::QueryOptions> query;
  /// Per-query opt-outs of the serving caches (effective only when the
  /// corresponding ServerOptions switch is on). Useful for benchmarking
  /// the uncached path and for queries that must observe the very latest
  /// plan statistics.
  bool use_plan_cache = true;
  bool use_result_cache = true;
  bool use_shared_scan = true;
};

/// A query parsed and shape-normalized once, reusable across submissions:
/// SubmitPrepared() skips parse + normalize on every call, and skips
/// encode + optimize whenever the shape is already cached. Immutable and
/// thread-safe; obtain from QueryServer::Prepare().
struct PreparedStatement {
  std::string sparql;
  query::SelectQueryAst ast;
  query::NormalizedQuery normalized;
};

/// Client-side handle for one submitted query: the eventual result plus
/// the cancellation source for client-initiated cancel.
struct SubmittedQuery {
  uint64_t id = 0;
  std::future<Result<engine::QueryResult>> result;
  CancellationSource cancel;

  /// Requests cooperative cancellation; the result future then resolves
  /// to a Cancelled Status (unless the query already finished).
  void Cancel() { cancel.Cancel(); }
};

/// The concurrent query-serving front of a ParjEngine: a shared thread
/// pool under an admission-controlled scheduler, with per-query
/// deadlines/cancellation and a metrics registry. The engine itself stays
/// a read-only, thread-safe evaluator — all serving policy lives here.
///
///   server::QueryServer server(&engine, {});
///   auto q = server.Submit(sparql, {.timeout_millis = 500});
///   auto result = q.result.get();      // Result<QueryResult>
///
/// Intra-query parallelism (the paper's one-thread-per-shard model) and
/// inter-query concurrency share the same pool; SchedulerOptions bounds
/// how many queries compete for it at once.
class QueryServer {
 public:
  explicit QueryServer(const engine::ParjEngine* engine,
                       ServerOptions options = {});
  /// Drains admitted jobs before any member the jobs touch (metrics,
  /// caches) is torn down.
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Asynchronously executes `sparql`. Never blocks: an over-limit
  /// submission resolves immediately with ResourceExhausted, an expired
  /// deadline with DeadlineExceeded (without executing). Queries that run
  /// past their deadline or max_query_millis resolve with
  /// DeadlineExceeded; an exception escaping the engine resolves the
  /// future with a contained Status instead of crashing the serving
  /// thread.
  SubmittedQuery Submit(std::string sparql, SubmitOptions options = {});

  /// Parses and shape-normalizes once; the handle makes every subsequent
  /// SubmitPrepared() skip that work. Fails on parse errors only —
  /// shapes the caches cannot parameterize still prepare fine and take
  /// the uncached path at submit time.
  Result<std::shared_ptr<const PreparedStatement>> Prepare(
      std::string sparql) const;

  /// Submit() for a prepared query.
  SubmittedQuery SubmitPrepared(std::shared_ptr<const PreparedStatement> stmt,
                                SubmitOptions options = {});

  /// Submit + wait convenience. Transient failures (ResourceExhausted:
  /// admission rejection, allocation pressure) are retried under
  /// RetryPolicy. A timeout becomes one absolute deadline before the
  /// first attempt, so retries and backoff spend the same budget.
  Result<engine::QueryResult> Execute(std::string sparql,
                                      SubmitOptions options = {});

  /// Blocks until every admitted query has finished.
  void Drain() { scheduler_.Drain(); }

  /// Copies the engine's live-mutability counters (delta sizes,
  /// compactions, active epochs) and the caches' stats into the metrics
  /// registry. Nothing on the submit path calls it: callers that dump
  /// metrics (the serving CLI's `.metrics`, serving_bench) refresh first.
  void RefreshMutationGauges();

  const MetricsRegistry& metrics() const { return metrics_; }
  MetricsRegistry& metrics() { return metrics_; }
  const QueryScheduler& scheduler() const { return scheduler_; }
  ThreadPool& pool() { return *pool_; }

  /// nullptr when the cache is disabled by ServerOptions.
  query::PlanCache* plan_cache() { return plan_cache_.get(); }
  ResultCache* result_cache() { return result_cache_.get(); }

  /// Drops every cached plan and result (operator command; also handy in
  /// tests). Running queries are unaffected.
  void ClearCaches();

 private:
  void CountTermination(const CancellationToken& token);

  SubmittedQuery SubmitInternal(
      std::string sparql, std::shared_ptr<const PreparedStatement> prepared,
      SubmitOptions options);

  /// The no-bound-plan path: parse (or reuse the prepared AST),
  /// normalize, probe the shape cache, bind or optimize, execute against
  /// one pinned snapshot, and seed both plan-cache levels.
  Result<engine::QueryResult> ExecuteCold(
      const std::string& sparql,
      const std::shared_ptr<const PreparedStatement>& prepared,
      const engine::QueryOptions& query_options, bool use_plan_cache,
      uint64_t optimizer_fp);

  /// Solo execution + delivery of a member claimed from the shared-scan
  /// registry (used when the shared pass is rejected or the leader dies).
  void RunClaimedSolo(const std::shared_ptr<SharedScanMember>& member);

  /// Dispatch for one admitted job: shared pass (when `claimed` is
  /// non-empty), bound-plan fast path, or cold path. Delivers every
  /// claimed member; returns the job's own result.
  Result<engine::QueryResult> RunJob(
      const std::string& sparql,
      const std::shared_ptr<const PreparedStatement>& prepared,
      const engine::QueryOptions& query_options,
      const std::shared_ptr<const query::Plan>& bound,
      const std::shared_ptr<SharedScanMember>& member,
      std::vector<std::shared_ptr<SharedScanMember>>& claimed,
      bool use_plan_cache, uint64_t optimizer_fp);

  /// Resolves one submission: records its total latency, counts it as
  /// completed, failed, cancelled or expired, caches a fresh success when
  /// `want_result_cache`, and fulfils the promise.
  void Deliver(std::promise<Result<engine::QueryResult>>& promise,
               const CancellationToken& token,
               std::chrono::steady_clock::time_point submit_time,
               const std::string& sparql, uint64_t result_fp,
               bool want_result_cache, Result<engine::QueryResult> result);

  /// Copies a successful result's rows into the result cache (unless the
  /// `resultcache.insert` failpoint is armed).
  void MaybeCacheResult(const std::string& sparql, uint64_t fingerprint,
                        const engine::QueryResult& result);

  const engine::ParjEngine* engine_;
  ServerOptions options_;
  ThreadPool* pool_;
  QueryScheduler scheduler_;
  MetricsRegistry metrics_;
  std::unique_ptr<query::PlanCache> plan_cache_;
  std::unique_ptr<ResultCache> result_cache_;
  SharedScanRegistry shared_scans_;
  std::atomic<uint64_t> next_query_id_{1};
  std::mutex retry_mu_;  ///< guards retry_rng_ (backoff path only)
  Rng retry_rng_{0x7261626E6F77ULL};
};

}  // namespace parj::server

#endif  // PARJ_SERVER_SERVER_H_
