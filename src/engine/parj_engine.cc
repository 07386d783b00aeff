#include "engine/parj_engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <span>

#include "common/timer.h"
#include "dict/sharded_encoder.h"
#include "join/aggregate.h"
#include "rdf/ntriples.h"
#include "server/thread_pool.h"
#include "storage/snapshot.h"

namespace parj::engine {

namespace {

/// In-place lexicographic dedup of row-major `rows`.
void DeduplicateRows(std::vector<TermId>* rows, size_t width,
                     uint64_t* row_count) {
  if (width == 0 || rows->empty()) return;
  const size_t n = rows->size() / width;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  auto row_less = [&](size_t a, size_t b) {
    return std::lexicographical_compare(
        rows->begin() + a * width, rows->begin() + (a + 1) * width,
        rows->begin() + b * width, rows->begin() + (b + 1) * width);
  };
  auto row_eq = [&](size_t a, size_t b) {
    return std::equal(rows->begin() + a * width,
                      rows->begin() + (a + 1) * width,
                      rows->begin() + b * width);
  };
  std::sort(order.begin(), order.end(), row_less);
  order.erase(std::unique(order.begin(), order.end(), row_eq), order.end());
  std::vector<TermId> deduped;
  deduped.reserve(order.size() * width);
  for (size_t idx : order) {
    deduped.insert(deduped.end(), rows->begin() + idx * width,
                   rows->begin() + (idx + 1) * width);
  }
  *rows = std::move(deduped);
  *row_count = order.size();
}

/// The executor options every query path copies from QueryOptions. Each
/// caller adds its own extras: mode, visitor, limits and, where wanted,
/// probe tracing.
join::ExecOptions BaseExecOptions(const QueryOptions& options) {
  join::ExecOptions exec;
  exec.num_threads = options.num_threads;
  exec.strategy = options.strategy;
  exec.scheduling = options.scheduling;
  exec.batch_probes = options.batch_probes;
  exec.emulate_parallel = options.emulate_parallel;
  exec.cancel = options.cancel;
  return exec;
}

/// Evaluates a UNION query: every arm is encoded, planned and executed
/// independently (projection is by name, so arms with different variable
/// numberings still align column-wise); rows are bag-unioned, then
/// DISTINCT / LIMIT apply to the whole union, per SPARQL semantics.
Result<engine::QueryResult> ExecuteUnionAst(
    const storage::Database& db, const mut::DeltaView& delta,
    const query::SelectQueryAst& ast, const engine::QueryOptions& options,
    double parse_millis) {
  using engine::QueryResult;
  if (ast.select_all) {
    return Status::Unsupported(
        "SELECT * with UNION is ambiguous; list the projected variables");
  }
  QueryResult result;
  result.parse_millis = parse_millis;
  result.var_names = ast.projection;
  result.column_count = ast.projection.size();
  result.data_version = delta.sequence();

  std::vector<query::SelectQueryAst> arms;
  {
    query::SelectQueryAst first = ast;
    first.union_arms.clear();
    first.distinct = false;
    first.limit = 0;
    arms.push_back(std::move(first));
    for (const auto& arm : ast.union_arms) {
      query::SelectQueryAst next = arms[0];
      next.patterns = arm.patterns;
      next.filters = arm.filters;
      arms.push_back(std::move(next));
    }
  }

  join::Executor executor(&db, &delta);
  for (const query::SelectQueryAst& arm : arms) {
    PARJ_ASSIGN_OR_RETURN(query::EncodedQuery encoded,
                          query::EncodeQuery(arm, db, &delta.overlay()));
    Stopwatch optimize_timer;
    PARJ_ASSIGN_OR_RETURN(
        query::Plan plan,
        query::Optimize(encoded, db, options.optimizer, &delta));
    result.optimize_millis += optimize_timer.ElapsedMillis();
    if (plan.known_empty) continue;

    join::ExecOptions exec = BaseExecOptions(options);
    exec.mode = join::ResultMode::kMaterialize;
    PARJ_ASSIGN_OR_RETURN(join::ExecResult arm_result,
                          executor.Execute(plan, exec));
    result.row_count += arm_result.row_count;
    result.counters.Add(arm_result.counters);
    result.execute_millis += arm_result.wall_millis;
    result.emulated_parallel_millis += arm_result.emulated_parallel_millis;
    result.rows.insert(result.rows.end(), arm_result.rows.begin(),
                       arm_result.rows.end());
    result.plan = std::move(plan);  // last non-empty arm's plan, for EXPLAIN
  }

  if (ast.distinct) {
    DeduplicateRows(&result.rows, result.column_count, &result.row_count);
  }
  if (ast.limit != 0 && result.row_count > ast.limit) {
    result.row_count = ast.limit;
    result.rows.resize(ast.limit * result.column_count);
  }
  if (options.mode == join::ResultMode::kCount) {
    result.rows.clear();
    result.rows.shrink_to_fit();
  }
  return result;
}

}  // namespace

Result<ParjEngine> ParjEngine::FinishLoad(dict::Dictionary dict,
                                          std::vector<EncodedTriple> triples,
                                          const EngineOptions& options,
                                          LoadStats stats) {
  // load.threads is the default for the store/calibration phases too,
  // unless the caller configured those explicitly.
  EngineOptions effective = options;
  if (effective.load.threads > 1) {
    if (effective.database.build_threads <= 1) {
      effective.database.build_threads = effective.load.threads;
    }
    if (effective.calibration.threads <= 1) {
      effective.calibration.threads = effective.load.threads;
    }
  }
  stats.triples = triples.size();
  stats.threads = std::max(1, effective.load.threads);
  storage::BuildTimings timings;
  PARJ_ASSIGN_OR_RETURN(
      storage::Database db,
      storage::Database::Build(std::move(dict), std::move(triples),
                               effective.database, &timings));
  stats.build_millis += timings.group_millis + timings.tables_millis;
  stats.index_millis += timings.meta_millis + timings.pair_stats_millis +
                        timings.char_sets_millis;
  ParjEngine engine(std::move(db), effective.calibration, effective.database);
  if (effective.calibrate) {
    Stopwatch calibrate_timer;
    engine.Calibrate();
    stats.calibrate_millis = calibrate_timer.ElapsedMillis();
  }
  stats.total_millis = stats.read_millis + stats.parse_millis +
                       stats.encode_millis + stats.build_millis +
                       stats.index_millis + stats.calibrate_millis;
  engine.load_stats_ = stats;
  if (effective.wal.enabled()) {
    PARJ_RETURN_NOT_OK(engine.EnableWal(effective.wal));
  }
  return engine;
}

Result<ParjEngine> ParjEngine::FromEncoded(dict::Dictionary dict,
                                           std::vector<EncodedTriple> triples,
                                           const EngineOptions& options) {
  return FinishLoad(std::move(dict), std::move(triples), options, LoadStats{});
}

namespace {

/// Sharded two-phase encode of parsed triples: per-chunk delta encode
/// against the (empty) base dictionary in parallel, then a chunk-order
/// merge that reproduces serial first-occurrence IDs exactly (see
/// dict/sharded_encoder.h).
Result<std::vector<EncodedTriple>> EncodeShards(
    dict::Dictionary* dict, std::vector<std::span<const rdf::Triple>> shards,
    server::ThreadPool* pool) {
  std::vector<dict::EncodedChunk> encoded(shards.size());
  const dict::Dictionary& base = *dict;
  const auto encode_one = [&](size_t i) {
    encoded[i] = dict::EncodeChunk(base, shards[i]);
  };
  if (pool != nullptr && shards.size() > 1) {
    pool->ParallelFor(shards.size(), encode_one);
  } else {
    for (size_t i = 0; i < shards.size(); ++i) encode_one(i);
  }
  return dict::MergeEncodedChunks(dict, std::move(encoded), pool);
}

}  // namespace

Result<ParjEngine> ParjEngine::FromTriples(
    const std::vector<rdf::Triple>& triples, const EngineOptions& options) {
  LoadStats stats;
  std::optional<server::ThreadPool> pool;
  if (options.load.threads > 1) pool.emplace(options.load.threads);

  Stopwatch encode_timer;
  // Shard the input into contiguous spans (chunk order = input order, so
  // the merged IDs match a serial encode of the same vector).
  constexpr size_t kTriplesPerShard = size_t{64} << 10;
  std::vector<std::span<const rdf::Triple>> shards;
  for (size_t begin = 0; begin < triples.size(); begin += kTriplesPerShard) {
    const size_t len = std::min(kTriplesPerShard, triples.size() - begin);
    shards.emplace_back(triples.data() + begin, len);
  }
  dict::Dictionary dict;
  PARJ_ASSIGN_OR_RETURN(
      std::vector<EncodedTriple> encoded,
      EncodeShards(&dict, std::move(shards),
                   pool.has_value() ? &*pool : nullptr));
  stats.encode_millis = encode_timer.ElapsedMillis();
  return FinishLoad(std::move(dict), std::move(encoded), options, stats);
}

Result<ParjEngine> ParjEngine::FromNTriplesText(std::string_view text,
                                                const EngineOptions& options) {
  LoadStats stats;
  std::optional<server::ThreadPool> pool;
  if (options.load.threads > 1) pool.emplace(options.load.threads);
  rdf::ParallelParseOptions parse_options;
  parse_options.strict = options.load.strict;
  parse_options.chunk_bytes = options.load.chunk_bytes;
  parse_options.pool = pool.has_value() ? &*pool : nullptr;

  Stopwatch parse_timer;
  PARJ_ASSIGN_OR_RETURN(std::vector<rdf::ParsedChunk> chunks,
                        rdf::ParseTextParallel(text, parse_options));
  stats.parse_millis = parse_timer.ElapsedMillis();
  stats.chunks = chunks.size();
  for (const rdf::ParsedChunk& chunk : chunks) {
    stats.skipped_lines += chunk.skipped_lines;
  }

  Stopwatch encode_timer;
  std::vector<std::span<const rdf::Triple>> shards;
  shards.reserve(chunks.size());
  for (const rdf::ParsedChunk& chunk : chunks) shards.emplace_back(chunk.triples);
  dict::Dictionary dict;
  PARJ_ASSIGN_OR_RETURN(
      std::vector<EncodedTriple> encoded,
      EncodeShards(&dict, std::move(shards),
                   pool.has_value() ? &*pool : nullptr));
  stats.encode_millis = encode_timer.ElapsedMillis();
  return FinishLoad(std::move(dict), std::move(encoded), options, stats);
}

Result<ParjEngine> ParjEngine::FromNTriplesFile(const std::string& path,
                                                const EngineOptions& options) {
  LoadStats stats;
  std::optional<server::ThreadPool> pool;
  if (options.load.threads > 1) pool.emplace(options.load.threads);
  rdf::ParallelParseOptions parse_options;
  parse_options.strict = options.load.strict;
  parse_options.chunk_bytes = options.load.chunk_bytes;
  parse_options.pool = pool.has_value() ? &*pool : nullptr;

  Stopwatch parse_timer;
  PARJ_ASSIGN_OR_RETURN(
      std::vector<rdf::ParsedChunk> chunks,
      rdf::ParseFileParallel(path, parse_options, &stats.read_millis));
  stats.parse_millis = parse_timer.ElapsedMillis() - stats.read_millis;
  stats.chunks = chunks.size();
  for (const rdf::ParsedChunk& chunk : chunks) {
    stats.skipped_lines += chunk.skipped_lines;
  }

  Stopwatch encode_timer;
  std::vector<std::span<const rdf::Triple>> shards;
  shards.reserve(chunks.size());
  for (const rdf::ParsedChunk& chunk : chunks) shards.emplace_back(chunk.triples);
  dict::Dictionary dict;
  PARJ_ASSIGN_OR_RETURN(
      std::vector<EncodedTriple> encoded,
      EncodeShards(&dict, std::move(shards),
                   pool.has_value() ? &*pool : nullptr));
  stats.encode_millis = encode_timer.ElapsedMillis();
  return FinishLoad(std::move(dict), std::move(encoded), options, stats);
}

Result<ParjEngine> ParjEngine::FromSnapshotFile(const std::string& path,
                                                const EngineOptions& options) {
  EngineOptions effective = options;
  if (effective.load.threads > 1 && effective.database.build_threads <= 1) {
    effective.database.build_threads = effective.load.threads;
  }
  storage::SnapshotLoadStats snapshot_stats;
  PARJ_ASSIGN_OR_RETURN(storage::Database db,
                        storage::LoadSnapshot(path, effective.database,
                                              &snapshot_stats));
  LoadStats stats;
  stats.parse_millis = snapshot_stats.decode_millis;  // decode == "parse"
  stats.build_millis = snapshot_stats.build_millis;
  stats.triples = db.total_triples();
  stats.threads = std::max(1, effective.load.threads);
  ParjEngine engine(std::move(db), effective.calibration, effective.database);
  if (effective.calibrate) {
    Stopwatch calibrate_timer;
    engine.Calibrate();
    stats.calibrate_millis = calibrate_timer.ElapsedMillis();
  }
  stats.total_millis =
      stats.parse_millis + stats.build_millis + stats.calibrate_millis;
  engine.load_stats_ = stats;
  if (effective.wal.enabled()) {
    PARJ_RETURN_NOT_OK(engine.EnableWal(effective.wal));
  }
  return engine;
}

Status ParjEngine::EnableWal(const mut::WalOptions& options) {
  if (wal_ != nullptr) {
    return Status::AlreadyExists("this engine already has a WAL attached");
  }
  PARJ_ASSIGN_OR_RETURN(
      wal_, mut::Wal::Initialize(store_->base(), store_->epoch(), options));
  store_->AttachWal(wal_.get());
  return Status::OK();
}

Result<ParjEngine> ParjEngine::RecoverFromWal(const mut::WalOptions& wal,
                                              const EngineOptions& options) {
  EngineOptions effective = options;
  if (effective.load.threads > 1 && effective.database.build_threads <= 1) {
    effective.database.build_threads = effective.load.threads;
  }
  Stopwatch total_timer;
  PARJ_ASSIGN_OR_RETURN(mut::Wal::Recovered recovered,
                        mut::Wal::Recover(wal, effective.database));
  ParjEngine engine(std::move(recovered.base), effective.calibration,
                    effective.database, recovered.epoch);
  // Replay before the WAL is attached: the batches are already in the
  // log, so re-applying them must not re-log them. Each Apply re-derives
  // the delta and re-allocates overlay TermIds in first-seen order —
  // exactly the IDs the crashed process handed out.
  Stopwatch replay_timer;
  for (const std::vector<mut::Mutation>& batch : recovered.batches) {
    PARJ_RETURN_NOT_OK(engine.store_->Apply(batch));
  }
  recovered.stats.replay_millis += replay_timer.ElapsedMillis();
  PARJ_ASSIGN_OR_RETURN(engine.wal_,
                        mut::Wal::Open(wal, recovered.next_segment));
  engine.store_->AttachWal(engine.wal_.get());
  if (effective.calibrate) engine.Calibrate();
  engine.recovery_stats_ = recovered.stats;
  engine.recovered_ = true;
  LoadStats stats;
  stats.read_millis = recovered.stats.snapshot_load_millis;
  stats.parse_millis = recovered.stats.replay_millis;
  stats.triples = engine.store_->base().total_triples();
  stats.threads = std::max(1, effective.load.threads);
  stats.total_millis = total_timer.ElapsedMillis();
  engine.load_stats_ = stats;
  return engine;
}

Result<query::Plan> ParjEngine::Explain(
    std::string_view sparql, const query::OptimizerOptions& options) const {
  const mut::MvccSnapshot snap = store_->snapshot();
  const storage::Database& db = snap.base();
  const mut::DeltaView& delta = snap.delta();
  PARJ_ASSIGN_OR_RETURN(query::SelectQueryAst ast, query::ParseQuery(sparql));
  PARJ_ASSIGN_OR_RETURN(query::EncodedQuery encoded,
                        query::EncodeQuery(ast, db, &delta.overlay()));
  return query::Optimize(encoded, db, options, &delta);
}

namespace {

/// Builds the executor options for one materializing/counting query run
/// (DISTINCT needs materialized rows to deduplicate, whatever the caller
/// asked for; LIMIT without DISTINCT can stop shards early). `gate`, when
/// non-null and the plan is a plain LIMIT (no DISTINCT / ORDER BY /
/// aggregation), is armed with the limit and wired in so the k-th row
/// produced anywhere stops every shard (cross-shard early exit); the
/// caller owns the gate and must keep it alive through the execution.
join::ExecOptions MakeExecOptions(const query::Plan& plan,
                                  const QueryOptions& options,
                                  join::LimitGate* gate) {
  join::ExecOptions exec = BaseExecOptions(options);
  exec.collect_probe_trace = options.collect_probe_trace;
  const bool need_rows =
      plan.distinct || options.mode == join::ResultMode::kMaterialize;
  exec.mode = need_rows ? join::ResultMode::kMaterialize
                        : join::ResultMode::kCount;
  const bool plain_limit = plan.limit != 0 && !plan.distinct &&
                           plan.order_by.empty() && !plan.aggregate.enabled;
  if (plain_limit) {
    exec.per_shard_limit = plan.limit;
    if (gate != nullptr) {
      gate->limit = plan.limit;
      exec.limit_gate = gate;
    }
  }
  if (options.max_rows != 0 &&
      (exec.per_shard_limit == 0 || options.max_rows < exec.per_shard_limit)) {
    exec.per_shard_limit = options.max_rows;
  }
  return exec;
}

/// Applies the engine-level result semantics (DISTINCT dedup, LIMIT trim,
/// count-only row drop, projected variable names) to one executor result.
QueryResult FinishResult(join::ExecResult exec_result, query::Plan plan,
                         const QueryOptions& options) {
  QueryResult result;
  result.row_count = exec_result.row_count;
  result.column_count = exec_result.column_count;
  result.rows_skipped_by_limit = exec_result.rows_skipped_by_limit;
  result.rows = std::move(exec_result.rows);
  result.step_rows = std::move(exec_result.step_rows);
  result.counters = exec_result.counters;
  result.morsel_workers = std::move(exec_result.morsel_workers);
  result.execute_millis = exec_result.wall_millis;
  result.emulated_parallel_millis = exec_result.emulated_parallel_millis;
  result.shard_millis = std::move(exec_result.shard_millis);
  result.trace = std::move(exec_result.trace);

  if (plan.distinct) {
    DeduplicateRows(&result.rows, result.column_count, &result.row_count);
  }
  if (plan.limit != 0 && result.row_count > plan.limit) {
    result.row_count = plan.limit;
    if (!result.rows.empty()) {
      result.rows.resize(plan.limit * result.column_count);
    }
  }
  if (options.mode == join::ResultMode::kCount) {
    result.rows.clear();
    result.rows.shrink_to_fit();
  }

  result.var_names.reserve(plan.projection.size());
  for (int var : plan.projection) result.var_names.push_back(plan.var_names[var]);
  result.plan = std::move(plan);
  return result;
}

/// Copies the executor-side diagnostics (counters, timings, per-step and
/// per-worker tallies) into a shaped-path result.
void AbsorbExecStats(join::ExecResult* exec_result, QueryResult* result) {
  result->step_rows = std::move(exec_result->step_rows);
  result->counters = exec_result->counters;
  result->morsel_workers = std::move(exec_result->morsel_workers);
  result->execute_millis = exec_result->wall_millis;
  result->emulated_parallel_millis = exec_result->emulated_parallel_millis;
  result->shard_millis = std::move(exec_result->shard_millis);
}

/// Executes a plan with a result-shaping tail — aggregation (GROUP BY /
/// COUNT / SUM / MIN / MAX) and/or ORDER BY [LIMIT]. The pipeline runs in
/// ResultMode::kVisit: every worker streams its rows straight into the
/// shaping operator (Aggregator or bounded TopK heaps), so shaping
/// overlaps the join scan instead of materializing first. Plain ORDER BY
/// without LIMIT (or with DISTINCT) falls back to materialize-sort.
Result<QueryResult> ExecuteShapedPlan(const storage::Database& db,
                                      const mut::DeltaView& delta,
                                      query::Plan plan,
                                      const QueryOptions& options) {
  QueryResult result;
  join::Executor executor(&db, &delta);
  const size_t workers = static_cast<size_t>(std::max(1, options.num_threads));

  join::ExecOptions exec = BaseExecOptions(options);
  exec.collect_probe_trace = options.collect_probe_trace;
  exec.mode = join::ResultMode::kVisit;

  if (plan.aggregate.enabled) {
    const query::AggregateSpec& spec = plan.aggregate;
    const size_t ncols = spec.output.size();
    result.column_count = ncols;
    result.column_kinds = spec.column_kinds;
    result.var_names = spec.output_names;

    join::Aggregator agg(&spec, plan.numeric_values.get(), workers);
    exec.visitor = [&agg](size_t shard, std::span<const TermId> row) {
      agg.Accumulate(shard, row);
    };
    // A known-empty plan skips execution but still runs Finish: a global
    // aggregate over nothing is one row (COUNT = 0), not zero rows.
    if (!plan.known_empty) {
      PARJ_ASSIGN_OR_RETURN(join::ExecResult exec_result,
                            executor.Execute(plan, exec));
      AbsorbExecStats(&exec_result, &result);
      result.trace = std::move(exec_result.trace);
    }
    // The shaping tail — merge, output layout, ORDER BY, trim — runs on
    // the calling thread after the shards complete; fold it into both the
    // wall time and the emulated-parallel model (it is the serial section
    // Amdahl charges against strategies with expensive merges).
    Stopwatch shape_timer;
    PARJ_ASSIGN_OR_RETURN(join::AggregateOutput out, agg.Finish(exec.pool));

    // Canonical internal layout is [group keys..., agg cells...]; lay the
    // result columns out in SELECT order via spec.output.
    result.agg_rows.reserve(out.rows * ncols);
    for (size_t r = 0; r < out.rows; ++r) {
      const uint64_t* in = out.cells.data() + r * out.width;
      for (int v : spec.output) {
        result.agg_rows.push_back(
            v >= 0 ? in[v] : in[spec.group_cols + ~v]);
      }
    }
    result.row_count = out.rows;

    if (!plan.order_by.empty() && result.row_count > 1) {
      // Kind-aware ORDER BY over the (small) aggregate table; the
      // full-row tiebreak makes the order total, hence deterministic.
      std::vector<uint32_t> order(result.row_count);
      std::iota(order.begin(), order.end(), 0);
      const std::vector<uint64_t>& cells = result.agg_rows;
      auto row_less = [&](uint32_t a, uint32_t b) {
        const uint64_t* ra = cells.data() + static_cast<size_t>(a) * ncols;
        const uint64_t* rb = cells.data() + static_cast<size_t>(b) * ncols;
        for (const query::OrderKey& key : plan.order_by) {
          const int c = join::CompareAggCell(ra[key.column], rb[key.column],
                                             spec.column_kinds[key.column]);
          if (c != 0) return key.descending ? c > 0 : c < 0;
        }
        for (size_t col = 0; col < ncols; ++col) {
          const int c = join::CompareAggCell(ra[col], rb[col],
                                             spec.column_kinds[col]);
          if (c != 0) return c < 0;
        }
        return false;
      };
      std::sort(order.begin(), order.end(), row_less);
      std::vector<uint64_t> sorted;
      sorted.reserve(cells.size());
      for (uint32_t r : order) {
        sorted.insert(sorted.end(),
                      cells.begin() + static_cast<size_t>(r) * ncols,
                      cells.begin() + static_cast<size_t>(r + 1) * ncols);
      }
      result.agg_rows = std::move(sorted);
    }
    if (plan.limit != 0 && result.row_count > plan.limit) {
      result.row_count = plan.limit;
      result.agg_rows.resize(plan.limit * ncols);
    }
    const double shape_millis = shape_timer.ElapsedMillis();
    result.execute_millis += shape_millis;
    result.emulated_parallel_millis += shape_millis;
    result.plan = std::move(plan);
    return result;
  }

  // Plain (non-aggregate) ORDER BY. Rows are projected TermIds; the sort
  // compares the ORDER BY columns by TermId — the deterministic
  // dictionary-encoding order — with a full-row ascending tiebreak.
  const size_t width = plan.projection.size();
  result.column_count = width;
  result.var_names.reserve(width);
  for (int var : plan.projection) {
    result.var_names.push_back(plan.var_names[var]);
  }

  if (plan.limit != 0 && !plan.distinct && !plan.known_empty) {
    // ORDER BY ... LIMIT k push-down: per-worker bounded top-k heaps,
    // merged at the end. Memory O(workers * k), scan never materializes.
    join::TopK topk(width, plan.limit, plan.order_by, workers);
    exec.visitor = [&topk](size_t shard, std::span<const TermId> row) {
      topk.Add(shard, row);
    };
    PARJ_ASSIGN_OR_RETURN(join::ExecResult exec_result,
                          executor.Execute(plan, exec));
    AbsorbExecStats(&exec_result, &result);
    result.trace = std::move(exec_result.trace);
    const Stopwatch shape_timer;
    result.rows = topk.Finish();
    result.row_count = width == 0 ? 0 : result.rows.size() / width;
    const double shape_millis = shape_timer.ElapsedMillis();
    result.execute_millis += shape_millis;
    result.emulated_parallel_millis += shape_millis;
  } else if (!plan.known_empty) {
    // ORDER BY without LIMIT (or with DISTINCT): materialize, dedup,
    // sort, trim.
    exec.mode = join::ResultMode::kMaterialize;
    exec.visitor = {};
    PARJ_ASSIGN_OR_RETURN(join::ExecResult exec_result,
                          executor.Execute(plan, exec));
    AbsorbExecStats(&exec_result, &result);
    result.trace = std::move(exec_result.trace);
    result.rows = std::move(exec_result.rows);
    result.row_count = exec_result.row_count;
    const Stopwatch shape_timer;
    if (plan.distinct) {
      DeduplicateRows(&result.rows, width, &result.row_count);
    }
    if (result.row_count > 1) {
      std::vector<uint32_t> order(result.row_count);
      std::iota(order.begin(), order.end(), 0);
      const std::vector<TermId>& rows = result.rows;
      auto row_less = [&](uint32_t a, uint32_t b) {
        const TermId* ra = rows.data() + static_cast<size_t>(a) * width;
        const TermId* rb = rows.data() + static_cast<size_t>(b) * width;
        for (const query::OrderKey& key : plan.order_by) {
          if (ra[key.column] != rb[key.column]) {
            return key.descending ? rb[key.column] < ra[key.column]
                                  : ra[key.column] < rb[key.column];
          }
        }
        for (size_t c = 0; c < width; ++c) {
          if (ra[c] != rb[c]) return ra[c] < rb[c];
        }
        return false;
      };
      std::sort(order.begin(), order.end(), row_less);
      std::vector<TermId> sorted;
      sorted.reserve(rows.size());
      for (uint32_t r : order) {
        sorted.insert(sorted.end(),
                      rows.begin() + static_cast<size_t>(r) * width,
                      rows.begin() + static_cast<size_t>(r + 1) * width);
      }
      result.rows = std::move(sorted);
    }
    if (plan.limit != 0 && result.row_count > plan.limit) {
      result.row_count = plan.limit;
      result.rows.resize(plan.limit * width);
    }
    const double shape_millis = shape_timer.ElapsedMillis();
    result.execute_millis += shape_millis;
    result.emulated_parallel_millis += shape_millis;
  }
  if (options.mode == join::ResultMode::kCount) {
    result.rows.clear();
    result.rows.shrink_to_fit();
  }
  result.plan = std::move(plan);
  return result;
}

}  // namespace

Result<QueryResult> ParjEngine::Execute(std::string_view sparql,
                                        const QueryOptions& options) const {
  // A query submitted with an already-expired deadline (or pre-cancelled
  // token) returns its cancellation Status without parsing or executing.
  if (options.cancel.StopRequested()) return options.cancel.ToStatus();

  // Pin the current epoch: the whole query — encode, plan, execute —
  // sees one immutable (base, delta) pair however many writes or
  // compactions land meanwhile.
  const mut::MvccSnapshot snap = store_->snapshot();
  const storage::Database& db = snap.base();
  const mut::DeltaView& delta = snap.delta();

  Stopwatch parse_timer;
  PARJ_ASSIGN_OR_RETURN(query::SelectQueryAst ast, query::ParseQuery(sparql));
  if (!ast.union_arms.empty()) {
    return ExecuteUnionAst(db, delta, ast, options,
                           parse_timer.ElapsedMillis());
  }
  PARJ_ASSIGN_OR_RETURN(query::EncodedQuery encoded,
                        query::EncodeQuery(ast, db, &delta.overlay()));
  const double parse_millis = parse_timer.ElapsedMillis();

  Stopwatch optimize_timer;
  PARJ_ASSIGN_OR_RETURN(
      query::Plan plan,
      query::Optimize(encoded, db, options.optimizer, &delta));
  const double optimize_millis = optimize_timer.ElapsedMillis();

  if (plan.aggregate.enabled || !plan.order_by.empty()) {
    PARJ_ASSIGN_OR_RETURN(
        QueryResult result,
        ExecuteShapedPlan(db, delta, std::move(plan), options));
    result.parse_millis = parse_millis;
    result.optimize_millis = optimize_millis;
    result.data_version = snap.data_version();
    return result;
  }

  join::Executor executor(&db, &delta);
  join::LimitGate gate;
  PARJ_ASSIGN_OR_RETURN(
      join::ExecResult exec_result,
      executor.Execute(plan, MakeExecOptions(plan, options, &gate)));

  QueryResult result = FinishResult(std::move(exec_result), std::move(plan),
                                    options);
  result.parse_millis = parse_millis;
  result.optimize_millis = optimize_millis;
  result.data_version = snap.data_version();
  return result;
}

Result<QueryResult> ParjEngine::ExecutePlan(
    const query::Plan& plan, const QueryOptions& options,
    const mut::MvccSnapshot* pinned) const {
  if (options.cancel.StopRequested()) return options.cancel.ToStatus();
  // A bound plan stays valid across epochs (TermIds are permanent:
  // compaction folds overlay terms into the next base dictionary at the
  // same IDs), so executing a cached plan against a later snapshot is
  // exactly re-running the query on the current data.
  const mut::MvccSnapshot snap =
      pinned != nullptr ? *pinned : store_->snapshot();
  const storage::Database& db = snap.base();
  const mut::DeltaView& delta = snap.delta();
  if (plan.aggregate.enabled || !plan.order_by.empty()) {
    PARJ_ASSIGN_OR_RETURN(QueryResult result,
                          ExecuteShapedPlan(db, delta, plan, options));
    result.data_version = snap.data_version();
    return result;
  }
  join::Executor executor(&db, &delta);
  join::LimitGate gate;
  PARJ_ASSIGN_OR_RETURN(
      join::ExecResult exec_result,
      executor.Execute(plan, MakeExecOptions(plan, options, &gate)));
  QueryResult result = FinishResult(std::move(exec_result), plan, options);
  result.data_version = snap.data_version();
  return result;
}

Result<std::vector<QueryResult>> ParjEngine::ExecuteShared(
    std::span<const query::Plan* const> plans,
    std::span<const QueryOptions> options) const {
  if (plans.size() != options.size()) {
    return Status::InvalidArgument(
        "ExecuteShared needs one QueryOptions per plan");
  }
  // One snapshot for the whole group: every member executes — and is
  // version-stamped — against the same (base, delta) pair.
  const mut::MvccSnapshot snap = store_->snapshot();
  const storage::Database& db = snap.base();
  const mut::DeltaView& delta = snap.delta();

  std::vector<join::ExecOptions> exec(plans.size());
  for (size_t m = 0; m < plans.size(); ++m) {
    if (plans[m]->aggregate.enabled || !plans[m]->order_by.empty()) {
      return Status::InvalidArgument(
          "shared-scan members cannot aggregate or ORDER BY; execute them "
          "solo");
    }
    exec[m] = MakeExecOptions(*plans[m], options[m], nullptr);
  }
  join::Executor executor(&db, &delta);
  PARJ_ASSIGN_OR_RETURN(std::vector<join::ExecResult> raw,
                        executor.ExecuteShared(plans, exec));
  std::vector<QueryResult> results;
  results.reserve(plans.size());
  for (size_t m = 0; m < plans.size(); ++m) {
    QueryResult result = FinishResult(std::move(raw[m]), *plans[m],
                                      options[m]);
    result.data_version = snap.data_version();
    result.shared_scan = true;
    results.push_back(std::move(result));
  }
  return results;
}

Result<QueryResult> ParjEngine::ExecuteStreaming(
    std::string_view sparql, const QueryOptions& options,
    const join::RowVisitor& visitor) const {
  QueryResult result;
  if (options.cancel.StopRequested()) return options.cancel.ToStatus();

  const mut::MvccSnapshot snap = store_->snapshot();
  const storage::Database& db = snap.base();
  const mut::DeltaView& delta = snap.delta();

  Stopwatch parse_timer;
  PARJ_ASSIGN_OR_RETURN(query::SelectQueryAst ast, query::ParseQuery(sparql));
  PARJ_ASSIGN_OR_RETURN(query::EncodedQuery encoded,
                        query::EncodeQuery(ast, db, &delta.overlay()));
  result.parse_millis = parse_timer.ElapsedMillis();
  if (encoded.distinct) {
    return Status::Unsupported(
        "DISTINCT requires buffering and is not available in streaming mode");
  }
  if (encoded.aggregate.enabled || !encoded.order_by.empty()) {
    return Status::Unsupported(
        "aggregation and ORDER BY are not available in streaming mode; use "
        "Execute");
  }

  Stopwatch optimize_timer;
  PARJ_ASSIGN_OR_RETURN(
      query::Plan plan,
      query::Optimize(encoded, db, options.optimizer, &delta));
  result.optimize_millis = optimize_timer.ElapsedMillis();

  join::ExecOptions exec = BaseExecOptions(options);
  exec.mode = join::ResultMode::kVisit;
  exec.visitor = visitor;
  if (plan.limit != 0) exec.per_shard_limit = plan.limit;
  if (options.max_rows != 0 &&
      (exec.per_shard_limit == 0 || options.max_rows < exec.per_shard_limit)) {
    exec.per_shard_limit = options.max_rows;
  }

  join::Executor executor(&db, &delta);
  PARJ_ASSIGN_OR_RETURN(join::ExecResult exec_result,
                        executor.Execute(plan, exec));
  result.row_count = exec_result.row_count;
  result.column_count = exec_result.column_count;
  result.counters = exec_result.counters;
  result.morsel_workers = std::move(exec_result.morsel_workers);
  result.execute_millis = exec_result.wall_millis;
  result.emulated_parallel_millis = exec_result.emulated_parallel_millis;
  result.shard_millis = std::move(exec_result.shard_millis);
  result.var_names.reserve(plan.projection.size());
  for (int var : plan.projection) result.var_names.push_back(plan.var_names[var]);
  result.plan = std::move(plan);
  result.data_version = snap.data_version();
  return result;
}

std::vector<std::string> ParjEngine::DecodeRow(const QueryResult& result,
                                               size_t row) const {
  // IDs are stable across epochs (compaction folds overlay terms into the
  // next base dictionary in allocation order), so decoding against the
  // CURRENT snapshot is correct even for results produced at an earlier
  // epoch: an old overlay ID is by now either still in the overlay or
  // absorbed into the base at the same ID.
  const mut::MvccSnapshot snap = store_->snapshot();
  const dict::Dictionary& dict = snap.base().dictionary();
  const mut::TermOverlay& overlay = snap.delta().overlay();
  std::vector<std::string> out;
  out.reserve(result.column_count);
  const auto decode_term = [&](TermId id) -> std::string {
    if (id <= dict.resource_count()) {
      return dict.DecodeResource(id).ToNTriples();
    }
    const rdf::Term* term = overlay.DecodeResource(id);
    return term != nullptr ? term->ToNTriples() : std::string("?");
  };
  if (!result.column_kinds.empty()) {
    // Aggregated layout: row-major u64 cells typed by column_kinds.
    for (size_t c = 0; c < result.column_count; ++c) {
      const uint64_t cell = result.agg_rows[row * result.column_count + c];
      switch (result.column_kinds[c]) {
        case query::ColumnKind::kTerm:
          out.push_back(decode_term(static_cast<TermId>(cell)));
          break;
        case query::ColumnKind::kCount:
          out.push_back(std::to_string(cell));
          break;
        case query::ColumnKind::kNumber: {
          const double v = std::bit_cast<double>(cell);
          if (std::isnan(v)) {
            out.emplace_back();  // unbound (e.g. MIN over no numeric values)
          } else if (std::floor(v) == v && std::abs(v) <= 9.007199254740992e15) {
            out.push_back(std::to_string(static_cast<int64_t>(v)));
          } else {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.17g", v);
            out.push_back(buf);
          }
          break;
        }
      }
    }
    return out;
  }
  for (size_t c = 0; c < result.column_count; ++c) {
    out.push_back(decode_term(result.rows[row * result.column_count + c]));
  }
  return out;
}

}  // namespace parj::engine
