#include "server/server.h"

#include <exception>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/failpoint.h"
#include "common/timer.h"
#include "query/parser.h"

namespace parj::server {

namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::chrono::steady_clock::time_point DeadlineAfter(double millis) {
  return std::chrono::steady_clock::now() +
         std::chrono::nanoseconds(static_cast<int64_t>(millis * 1e6));
}

/// The worker containment boundary around one engine call: the
/// `server.execute` failpoint fires first, and whatever escapes `body` —
/// including injected std::bad_alloc — is folded into the query's Status
/// (`worker_faults`), so one faulting query never takes down the serving
/// thread.
template <typename Body>
auto Contained(MetricsRegistry& metrics, Body&& body) -> decltype(body()) {
  try {
    Status fault = failpoint::Check("server.execute");
    if (!fault.ok()) return fault;
    return body();
  } catch (const std::bad_alloc&) {
    metrics.worker_faults.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted("query failed: out of memory");
  } catch (const std::exception& e) {
    metrics.worker_faults.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal(std::string("query failed with exception: ") +
                            e.what());
  } catch (...) {
    metrics.worker_faults.fetch_add(1, std::memory_order_relaxed);
    return Status::Internal("query failed with unknown exception");
  }
}

/// Fingerprint over the QueryOptions fields that change the answer bytes
/// (result mode, row cap). Scheduling knobs are deliberately excluded:
/// thread count and strategy never change which rows a query returns —
/// aggregation included, whose canonical group->value map is the same
/// at any thread count or schedule (the differential suite enforces it).
/// The aggregation/DISTINCT/ORDER-LIMIT *structure* lives in the
/// query text, which is the cache key itself, and cached entries carry
/// their column_kinds so an aggregate answer replays with its exact
/// shape.
uint64_t ResultFingerprint(const engine::QueryOptions& options) {
  uint64_t fp = static_cast<uint64_t>(options.mode);
  fp = fp * 0x100000001b3ull ^ options.max_rows;
  return fp;
}

/// A plan can join a shared pass only when its leading step is the
/// unbound-key/unbound-value table scan ExecuteShared drives, and the
/// request carries no per-query instrumentation the shared executor
/// cannot honor per member.
bool SharedScanEligible(const query::Plan& plan,
                        const engine::QueryOptions& options) {
  if (plan.known_empty || plan.steps.empty()) return false;
  if (options.collect_probe_trace || options.emulate_parallel) return false;
  // Aggregation and ORDER BY run through the engine's shaped (visitor)
  // path, which the shared executor cannot drive per member.
  if (plan.aggregate.enabled || !plan.order_by.empty()) return false;
  const query::PlanStep& first = plan.steps.front();
  return first.key.is_variable() && first.value.is_variable();
}

}  // namespace

QueryServer::QueryServer(const engine::ParjEngine* engine,
                         ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      pool_(options_.pool != nullptr ? options_.pool : &ThreadPool::Shared()),
      scheduler_(pool_, options_.scheduler) {
  if (options_.enable_plan_cache && options_.plan_cache_entries > 0) {
    plan_cache_ =
        std::make_unique<query::PlanCache>(options_.plan_cache_entries);
  }
  if (options_.result_cache_bytes > 0) {
    result_cache_ = std::make_unique<ResultCache>(options_.result_cache_bytes);
  }
}

QueryServer::~QueryServer() {
  // Members are destroyed in reverse declaration order, which would tear
  // down the caches and metrics_ while scheduler_'s destructor is still
  // draining jobs that use them. Drain first so nothing is running.
  scheduler_.Drain();
}

void QueryServer::ClearCaches() {
  if (plan_cache_ != nullptr) plan_cache_->Clear();
  if (result_cache_ != nullptr) result_cache_->Clear();
}

void QueryServer::RefreshMutationGauges() {
  const mut::MutationStats s = engine_->mutation_stats();
  metrics_.delta_triples.store(s.delta_insert_triples + s.delta_delete_triples,
                               std::memory_order_relaxed);
  metrics_.delta_bytes.store(s.delta_bytes, std::memory_order_relaxed);
  metrics_.compactions.store(s.compactions, std::memory_order_relaxed);
  metrics_.compaction_micros.store(s.compaction_micros,
                                   std::memory_order_relaxed);
  metrics_.active_epochs.store(s.active_epochs, std::memory_order_relaxed);
  const storage::Database& db = engine_->database();
  metrics_.store_bytes.store(db.TableMemoryUsage(), std::memory_order_relaxed);
  metrics_.store_allocated_bytes.store(db.TableAllocatedUsage(),
                                       std::memory_order_relaxed);
  const mut::WalStats w = engine_->wal_stats();
  metrics_.wal_records.store(w.records, std::memory_order_relaxed);
  metrics_.wal_bytes.store(w.bytes, std::memory_order_relaxed);
  metrics_.wal_fsyncs.store(w.fsyncs, std::memory_order_relaxed);
  metrics_.wal_group_commit_micros.store(w.group_commit_micros,
                                         std::memory_order_relaxed);
  metrics_.wal_group_commits.store(w.group_commits,
                                   std::memory_order_relaxed);
  metrics_.wal_backlog_bytes.store(w.backlog_bytes,
                                   std::memory_order_relaxed);
  metrics_.wal_segments.store(w.segments, std::memory_order_relaxed);
  metrics_.wal_checkpoints.store(w.checkpoints, std::memory_order_relaxed);
  metrics_.wal_backpressure_waits.store(w.backpressure_waits,
                                        std::memory_order_relaxed);
  const mut::RecoveryStats& r = engine_->recovery_stats();
  metrics_.recovery_replayed.store(r.records_replayed,
                                   std::memory_order_relaxed);
  metrics_.recovery_truncated_bytes.store(r.truncated_bytes,
                                          std::memory_order_relaxed);
  metrics_.recovery_millis.store(
      static_cast<uint64_t>(r.snapshot_load_millis + r.replay_millis),
      std::memory_order_relaxed);
  if (plan_cache_ != nullptr) {
    const query::PlanCacheStats pc = plan_cache_->stats();
    metrics_.plan_cache_hits.store(pc.hits, std::memory_order_relaxed);
    metrics_.plan_cache_misses.store(pc.misses, std::memory_order_relaxed);
    metrics_.plan_cache_evictions.store(pc.evictions,
                                        std::memory_order_relaxed);
  }
  if (result_cache_ != nullptr) {
    const ResultCacheStats rc = result_cache_->stats();
    metrics_.result_cache_hits.store(rc.hits, std::memory_order_relaxed);
    metrics_.result_cache_misses.store(rc.misses, std::memory_order_relaxed);
    metrics_.result_cache_bytes.store(rc.bytes, std::memory_order_relaxed);
  }
}

void QueryServer::CountTermination(const CancellationToken& token) {
  if (token.reason() == CancelReason::kDeadlineExceeded) {
    metrics_.deadlines_expired.fetch_add(1, std::memory_order_relaxed);
  } else {
    metrics_.queries_cancelled.fetch_add(1, std::memory_order_relaxed);
  }
}

Result<engine::QueryResult> QueryServer::ExecuteCold(
    const std::string& sparql,
    const std::shared_ptr<const PreparedStatement>& prepared,
    const engine::QueryOptions& query_options, bool use_plan_cache,
    uint64_t optimizer_fp) {
  if (!use_plan_cache || plan_cache_ == nullptr) {
    return engine_->Execute(sparql, query_options);
  }
  query::SelectQueryAst local_ast;
  const query::SelectQueryAst* ast = nullptr;
  const query::NormalizedQuery* normalized = nullptr;
  query::NormalizedQuery local_norm;
  if (prepared != nullptr) {
    ast = &prepared->ast;
    normalized = &prepared->normalized;
  } else {
    auto parsed = query::ParseQuery(sparql);
    if (!parsed.ok()) return parsed.status();
    local_ast = std::move(*parsed);
    ast = &local_ast;
  }
  // UNION queries and unparameterizable shapes take the engine's own
  // path (the re-parse there is the price of staying uncached).
  if (!ast->union_arms.empty()) {
    return engine_->Execute(sparql, query_options);
  }
  if (normalized == nullptr) {
    local_norm = query::NormalizeQuery(*ast);
    normalized = &local_norm;
  }
  if (!normalized->eligible) {
    return engine_->Execute(sparql, query_options);
  }
  // Bind or optimize against one pinned snapshot, so the plan, the
  // rows and the cached entry all describe the same store contents.
  const mut::MvccSnapshot snap = engine_->snapshot();
  const uint64_t generation = engine_->plan_generation();
  std::shared_ptr<const query::Plan> tmpl = plan_cache_->LookupShape(
      normalized->shape_key, generation, optimizer_fp);
  if (tmpl != nullptr) {
    Result<query::Plan> bound = query::BindTemplate(
        *tmpl, *normalized, snap.base(), &snap.delta().overlay());
    if (bound.ok()) {
      const bool cacheable = !bound->known_empty;
      auto plan = std::make_shared<const query::Plan>(std::move(*bound));
      Result<engine::QueryResult> result =
          engine_->ExecutePlan(*plan, query_options, &snap);
      if (result.ok()) {
        result->plan_cached = true;
        // Plans made known_empty by a still-absent term must not be
        // cached: the term can be inserted later without bumping the
        // plan generation.
        if (cacheable && failpoint::Check("plancache.insert").ok()) {
          plan_cache_->InsertBound(sparql, generation, optimizer_fp,
                                   std::move(plan));
        }
      }
      return result;
    }
    // Template/shape mismatch should not happen, but a fresh optimize
    // is always a correct answer to it.
  }
  PARJ_ASSIGN_OR_RETURN(
      query::EncodedQuery encoded,
      query::EncodeQuery(*ast, snap.base(), &snap.delta().overlay()));
  PARJ_ASSIGN_OR_RETURN(query::Plan optimized,
                        query::Optimize(encoded, snap.base(),
                                        query_options.optimizer,
                                        &snap.delta()));
  const bool cacheable = !optimized.known_empty;
  auto plan = std::make_shared<const query::Plan>(std::move(optimized));
  Result<engine::QueryResult> result =
      engine_->ExecutePlan(*plan, query_options, &snap);
  if (result.ok() && cacheable &&
      failpoint::Check("plancache.insert").ok()) {
    plan_cache_->InsertShape(normalized->shape_key, generation,
                             optimizer_fp, plan);
    plan_cache_->InsertBound(sparql, generation, optimizer_fp,
                             std::move(plan));
  }
  return result;
}

void QueryServer::RunClaimedSolo(
    const std::shared_ptr<SharedScanMember>& member) {
  if (member->options.cancel.StopRequested()) {
    member->deliver(member->options.cancel.ToStatus());
    return;
  }
  Result<engine::QueryResult> result = Contained(metrics_, [&] {
    return engine_->ExecutePlan(*member->plan, member->options);
  });
  if (result.ok()) result->plan_cached = true;
  member->deliver(std::move(result));
}

Result<engine::QueryResult> QueryServer::RunJob(
    const std::string& sparql,
    const std::shared_ptr<const PreparedStatement>& prepared,
    const engine::QueryOptions& query_options,
    const std::shared_ptr<const query::Plan>& bound,
    const std::shared_ptr<SharedScanMember>& member,
    std::vector<std::shared_ptr<SharedScanMember>>& claimed,
    bool use_plan_cache, uint64_t optimizer_fp) {
  if (!claimed.empty()) {
    // This job leads a shared pass: members whose cancellation fired
    // while queued resolve now, the rest run in one ExecuteShared call.
    std::vector<std::shared_ptr<SharedScanMember>> live;
    live.reserve(claimed.size());
    for (auto& m : claimed) {
      if (m->options.cancel.StopRequested()) {
        m->deliver(m->options.cancel.ToStatus());
      } else {
        live.push_back(std::move(m));
      }
    }
    claimed.clear();
    if (!live.empty()) {
      metrics_.shared_scan_groups.fetch_add(1, std::memory_order_relaxed);
      // Members identical in (text, fingerprint) are row-identical:
      // execute one representative and copy its rows to the rest.
      std::vector<const query::Plan*> plans;
      std::vector<engine::QueryOptions> opts;
      std::unordered_map<std::string, size_t> slots;
      auto slot_for = [&](const std::string& text, uint64_t fingerprint,
                          const query::Plan* plan,
                          const engine::QueryOptions& options) -> size_t {
        std::string key = text;
        key.push_back('\0');
        key += std::to_string(fingerprint);
        auto [it, inserted] = slots.emplace(std::move(key), plans.size());
        if (inserted) {
          plans.push_back(plan);
          opts.push_back(options);
        }
        return it->second;
      };
      slot_for(member->sparql, member->result_fingerprint, bound.get(),
               query_options);  // slot 0: this job, the group leader
      std::vector<size_t> member_slot;
      member_slot.reserve(live.size());
      for (const auto& m : live) {
        member_slot.push_back(
            slot_for(m->sparql, m->result_fingerprint, m->plan.get(),
                     m->options));
      }
      Result<std::vector<engine::QueryResult>> shared = Contained(
          metrics_, [&] {
            return engine_->ExecuteShared(
                std::span<const query::Plan* const>(plans.data(),
                                                    plans.size()),
                std::span<const engine::QueryOptions>(opts.data(),
                                                      opts.size()));
          });
      if (shared.ok()) {
        metrics_.shared_scan_queries_coalesced.fetch_add(
            live.size(), std::memory_order_relaxed);
        for (size_t i = 0; i < live.size(); ++i) {
          engine::QueryResult copy = (*shared)[member_slot[i]];
          copy.plan_cached = true;
          live[i]->deliver(std::move(copy));
        }
        engine::QueryResult own = std::move((*shared)[0]);
        own.plan_cached = true;
        return own;
      }
      // The shared pass was rejected (a member restriction) or faulted:
      // every member degrades to an independent solo execution, so
      // coalescing can only ever cost latency, never answers.
      metrics_.shared_scan_fallbacks.fetch_add(1, std::memory_order_relaxed);
      for (const auto& m : live) RunClaimedSolo(m);
    }
  }
  if (bound != nullptr) {
    Result<engine::QueryResult> result = Contained(
        metrics_, [&] { return engine_->ExecutePlan(*bound, query_options); });
    if (result.ok()) result->plan_cached = true;
    return result;
  }
  return Contained(metrics_, [&] {
    return ExecuteCold(sparql, prepared, query_options, use_plan_cache,
                       optimizer_fp);
  });
}

void QueryServer::Deliver(std::promise<Result<engine::QueryResult>>& promise,
                          const CancellationToken& token,
                          std::chrono::steady_clock::time_point submit_time,
                          const std::string& sparql, uint64_t result_fp,
                          bool want_result_cache,
                          Result<engine::QueryResult> result) {
  metrics_.total.Record(MillisSince(submit_time));
  if (result.ok()) {
    metrics_.queries_completed.fetch_add(1, std::memory_order_relaxed);
    metrics_.rows_returned.fetch_add(result->row_count,
                                     std::memory_order_relaxed);
    metrics_.rows_skipped_by_limit.fetch_add(result->rows_skipped_by_limit,
                                             std::memory_order_relaxed);
    if (want_result_cache && !result->result_cached) {
      MaybeCacheResult(sparql, result_fp, *result);
    }
  } else if (result.status().code() == StatusCode::kCancelled ||
             result.status().code() == StatusCode::kDeadlineExceeded) {
    CountTermination(token);
  } else {
    metrics_.queries_failed.fetch_add(1, std::memory_order_relaxed);
  }
  promise.set_value(std::move(result));
}

void QueryServer::MaybeCacheResult(const std::string& sparql,
                                   uint64_t fingerprint,
                                   const engine::QueryResult& result) {
  if (result_cache_ == nullptr) return;
  if (!failpoint::Check("resultcache.insert").ok()) return;
  auto cached = std::make_shared<CachedResult>();
  cached->row_count = result.row_count;
  cached->column_count = result.column_count;
  cached->rows = result.rows;
  cached->var_names = result.var_names;
  cached->agg_rows = result.agg_rows;
  cached->column_kinds.reserve(result.column_kinds.size());
  for (query::ColumnKind kind : result.column_kinds) {
    cached->column_kinds.push_back(static_cast<uint8_t>(kind));
  }
  cached->data_version = result.data_version;
  result_cache_->Insert(sparql, fingerprint, std::move(cached));
}

SubmittedQuery QueryServer::Submit(std::string sparql, SubmitOptions options) {
  return SubmitInternal(std::move(sparql), nullptr, std::move(options));
}

Result<std::shared_ptr<const PreparedStatement>> QueryServer::Prepare(
    std::string sparql) const {
  PARJ_ASSIGN_OR_RETURN(query::SelectQueryAst ast, query::ParseQuery(sparql));
  auto stmt = std::make_shared<PreparedStatement>();
  stmt->sparql = std::move(sparql);
  if (ast.union_arms.empty()) {
    stmt->normalized = query::NormalizeQuery(ast);
  }
  stmt->ast = std::move(ast);
  return std::shared_ptr<const PreparedStatement>(std::move(stmt));
}

SubmittedQuery QueryServer::SubmitPrepared(
    std::shared_ptr<const PreparedStatement> stmt, SubmitOptions options) {
  std::string sparql = stmt->sparql;
  return SubmitInternal(std::move(sparql), std::move(stmt),
                        std::move(options));
}

SubmittedQuery QueryServer::SubmitInternal(
    std::string sparql, std::shared_ptr<const PreparedStatement> prepared,
    SubmitOptions options) {
  metrics_.queries_submitted.fetch_add(1, std::memory_order_relaxed);
  const auto submit_time = std::chrono::steady_clock::now();
  SubmittedQuery out;
  out.id = next_query_id_.fetch_add(1, std::memory_order_relaxed);
  if (options.deadline.has_value()) {
    out.cancel.set_deadline(*options.deadline);
  } else if (options.timeout_millis > 0) {
    out.cancel.set_deadline(DeadlineAfter(options.timeout_millis));
  }
  auto promise =
      std::make_shared<std::promise<Result<engine::QueryResult>>>();
  out.result = promise->get_future();
  CancellationToken token = out.cancel.token();

  // Admission-time fast path: an already-expired deadline never executes
  // (and never occupies a scheduler slot).
  if (token.StopRequested()) {
    CountTermination(token);
    promise->set_value(token.ToStatus());
    return out;
  }

  engine::QueryOptions query_options =
      options.query.has_value() ? *options.query : options_.query_defaults;
  query_options.cancel = token;

  // Result-cache fast path, on the submit thread: a hit costs one shard
  // lock and resolves the future immediately — no scheduler slot, no
  // queue wait. This is the main warm-QPS lever.
  const bool want_result_cache = result_cache_ != nullptr &&
                                 options.use_result_cache &&
                                 !query_options.collect_probe_trace;
  const uint64_t result_fp = ResultFingerprint(query_options);
  if (want_result_cache) {
    if (std::shared_ptr<const CachedResult> hit = result_cache_->Lookup(
            sparql, result_fp, engine_->data_version())) {
      engine::QueryResult result;
      result.row_count = hit->row_count;
      result.column_count = hit->column_count;
      result.rows = hit->rows;
      result.var_names = hit->var_names;
      result.agg_rows = hit->agg_rows;
      result.column_kinds.reserve(hit->column_kinds.size());
      for (uint8_t kind : hit->column_kinds) {
        result.column_kinds.push_back(static_cast<query::ColumnKind>(kind));
      }
      result.data_version = hit->data_version;
      result.result_cached = true;
      Deliver(*promise, token, submit_time, sparql, result_fp,
              want_result_cache, std::move(result));
      return out;
    }
  }

  // Plan-cache bound-level probe, still on the submit thread: one hash
  // lookup decides whether this query can skip parse + optimize and —
  // when its plan opens with a shared-scannable leading table — join an
  // in-flight shared pass.
  const bool use_plan_cache = plan_cache_ != nullptr && options.use_plan_cache;
  const uint64_t optimizer_fp =
      query::OptimizerFingerprint(query_options.optimizer);
  std::shared_ptr<const query::Plan> bound;
  if (use_plan_cache) {
    bound = plan_cache_->LookupBound(sparql, engine_->plan_generation(),
                                     optimizer_fp);
  }

  CancellationSource cancel_source = out.cancel;

  std::shared_ptr<SharedScanMember> member;
  uint64_t group_key = 0;
  if (bound != nullptr && options_.enable_shared_scan &&
      options.use_shared_scan && options_.shared_scan_max_group > 1 &&
      SharedScanEligible(*bound, query_options)) {
    member = std::make_shared<SharedScanMember>();
    member->plan = bound;
    member->options = query_options;
    member->sparql = sparql;
    member->result_fingerprint = result_fp;
    member->deliver = [this, promise, token, submit_time,
                       sparql_copy = sparql, result_fp,
                       want_result_cache](Result<engine::QueryResult> result) {
      Deliver(*promise, token, submit_time, sparql_copy, result_fp,
              want_result_cache, std::move(result));
    };
    group_key = SharedScanRegistry::GroupKey(*bound, query_options);
    shared_scans_.Add(group_key, member);
  }

  auto job = [this, sparql = std::move(sparql), prepared = std::move(prepared),
              query_options, token, promise, submit_time, cancel_source,
              member, group_key, bound, result_fp, want_result_cache,
              use_plan_cache, optimizer_fp]() mutable {
    metrics_.queue_wait.Record(MillisSince(submit_time));
    std::vector<std::shared_ptr<SharedScanMember>> claimed;
    if (member != nullptr &&
        !shared_scans_.Start(group_key, member, &claimed,
                             options_.shared_scan_max_group)) {
      // Coalesced into a concurrent leader's shared pass; that leader
      // owns delivery of this query's promise.
      return;
    }
    if (token.StopRequested()) {
      // Cancelled or expired while waiting in the admission queue. Any
      // members this job claimed still get real (solo) results.
      for (const auto& m : claimed) RunClaimedSolo(m);
      Deliver(*promise, token, submit_time, sparql, result_fp,
              want_result_cache, token.ToStatus());
      return;
    }
    if (options_.max_query_millis > 0) {
      // The server-wide cap starts at job start, so queue wait never
      // spends it; a tighter client deadline still wins.
      cancel_source.TightenDeadline(DeadlineAfter(options_.max_query_millis));
    }
    Stopwatch exec_timer;
    Result<engine::QueryResult> result =
        RunJob(sparql, prepared, query_options, bound, member, claimed,
               use_plan_cache, optimizer_fp);
    metrics_.execution.Record(exec_timer.ElapsedMillis());
    Deliver(*promise, token, submit_time, sparql, result_fp,
            want_result_cache, std::move(result));
  };

  Status admitted = failpoint::Check("server.admit");
  if (admitted.ok()) {
    admitted = scheduler_.Submit(options.priority, std::move(job));
  }
  if (!admitted.ok()) {
    metrics_.admission_rejected.fetch_add(1, std::memory_order_relaxed);
    if (member == nullptr || shared_scans_.Abandon(group_key, member)) {
      promise->set_value(admitted);
    }
    // else: a leader already claimed the member and will deliver a real
    // result, which beats surfacing the admission error.
    return out;
  }
  metrics_.queries_admitted.fetch_add(1, std::memory_order_relaxed);
  return out;
}

Result<engine::QueryResult> QueryServer::Execute(std::string sparql,
                                                 SubmitOptions options) {
  // Every attempt and backoff spends one client budget: a relative
  // timeout restarted per Submit would stretch across the retries.
  if (!options.deadline.has_value() && options.timeout_millis > 0) {
    options.deadline = DeadlineAfter(options.timeout_millis);
  }
  for (int attempt = 1;; ++attempt) {
    SubmittedQuery q = Submit(sparql, options);
    Result<engine::QueryResult> result = q.result.get();
    if (result.ok() || !RetryPolicy::IsRetryable(result.status()) ||
        attempt >= RetryPolicy::kMaxAttempts) {
      return result;
    }
    double backoff_millis;
    {
      std::lock_guard<std::mutex> lock(retry_mu_);
      backoff_millis = RetryPolicy::BackoffMillis(attempt, &retry_rng_);
    }
    metrics_.retries.fetch_add(1, std::memory_order_relaxed);
    if (backoff_millis > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(backoff_millis));
    }
  }
}

}  // namespace parj::server
