#ifndef PARJ_ENGINE_PARJ_ENGINE_H_
#define PARJ_ENGINE_PARJ_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "join/executor.h"
#include "mutable/delta_store.h"
#include "mutable/wal.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "storage/database.h"

namespace parj::engine {

/// Bulk-load pipeline options (DESIGN.md §10). The pipeline is the same
/// at any thread count — chunked parse, sharded dictionary encode,
/// grouped store build — so the loaded engine is identical whatever
/// `threads` is; only wall time changes.
struct LoadOptions {
  /// Worker threads for every load phase (parse, encode, build, index,
  /// calibrate). A snapshot load streams its decode serially and uses
  /// the threads for the store build. <= 1 runs the pipeline serially.
  int threads = 1;
  /// Parser chunk size in bytes; chunks split at newline boundaries so a
  /// triple never straddles two chunks.
  size_t chunk_bytes = size_t{16} << 20;
  /// Fail on the first malformed line (reported with its 1-based line
  /// number); false skips malformed lines, counted in
  /// LoadStats::skipped_lines.
  bool strict = true;
};

/// Per-phase wall-clock breakdown of one load, plus dataset counters.
/// Phases are disjoint; total_millis covers the whole load call.
struct LoadStats {
  double read_millis = 0.0;       ///< file -> memory (file loads only)
  double parse_millis = 0.0;      ///< N-Triples chunks -> rdf::Triple
  double encode_millis = 0.0;     ///< terms -> dense IDs (shard + merge)
  double build_millis = 0.0;      ///< group by predicate + CSR tables
  double index_millis = 0.0;      ///< histograms, ID indexes, statistics
  double calibrate_millis = 0.0;  ///< Algorithm 2 (when enabled)
  double total_millis = 0.0;
  uint64_t triples = 0;        ///< encoded triples handed to the store
  uint64_t skipped_lines = 0;  ///< malformed lines dropped (strict=false)
  uint64_t chunks = 0;         ///< parse chunks (0 for non-text loads)
  int threads = 1;             ///< effective LoadOptions::threads
};

/// Load-time options for a PARJ instance.
struct EngineOptions {
  storage::DatabaseOptions database;
  /// Run Algorithm 2 after load (paper: calibration happens "after data
  /// loading, prior to query execution"). Off by default because timing
  /// calibration takes measurable wall time; the database then uses the
  /// paper's published windows (200 / 20 positions).
  bool calibrate = false;
  join::CalibrationOptions calibration;
  /// Bulk-load pipeline knobs. `load.threads > 1` also becomes the
  /// default for database.build_threads / calibration.threads unless the
  /// caller set those explicitly.
  LoadOptions load;
  /// Crash durability (DESIGN.md §14). When `wal.dir` is set, every load
  /// path finishes by initializing a fresh write-ahead log there
  /// (AlreadyExists if the directory holds one — recover with
  /// RecoverFromWal instead), and acknowledged mutations survive crashes
  /// under the configured sync policy.
  mut::WalOptions wal;
};

/// Per-query execution options.
struct QueryOptions {
  int num_threads = 1;
  join::SearchStrategy strategy = join::SearchStrategy::kAdaptiveBinary;
  /// Work distribution across shard threads (see join::Scheduling).
  /// kMorsel by default; the paper-replication benches pin kStatic.
  join::Scheduling scheduling = join::Scheduling::kMorsel;
  /// Batched prefetched probing in the executor's inner value loops
  /// (see join::ExecOptions::batch_probes). Result-identical; off
  /// reproduces the strictly serial probe loop.
  bool batch_probes = true;
  /// kCount reproduces the paper's silent mode; kMaterialize its full
  /// result handling (minus printing).
  join::ResultMode mode = join::ResultMode::kMaterialize;
  /// See join::ExecOptions::emulate_parallel.
  bool emulate_parallel = false;
  bool collect_probe_trace = false;
  /// Hard per-shard row cap applied on top of any query LIMIT (0 = none).
  /// A safety valve for workloads with combinatorially exploding results
  /// (e.g. WatDiv IL-3 at large path lengths). Not applied to aggregation
  /// or ORDER BY queries — a mid-scan cap would silently change their
  /// answers, not just truncate them.
  uint64_t max_rows = 0;
  /// Cooperative cancellation/deadline token (see join::ExecOptions).
  /// Checked before parsing and throughout execution; a stopped query
  /// returns the token's Status. Default token never fires.
  server::CancellationToken cancel;
  query::OptimizerOptions optimizer;
};

/// Result of one query execution, with timing broken down the way the
/// paper reports it (optimization time is part of every reported number;
/// silent mode skips decode/aggregation).
struct QueryResult {
  uint64_t row_count = 0;
  size_t column_count = 0;
  std::vector<TermId> rows;  ///< row-major IDs (kMaterialize only)
  std::vector<std::string> var_names;

  /// Aggregate results (GROUP BY / COUNT / SUM / MIN / MAX) come back here
  /// instead of `rows`: row-major u64 cells, one per result column, typed
  /// by `column_kinds` (kTerm = widened TermId, kCount = raw count,
  /// kNumber = bit-cast double, NaN = unbound). Empty for plain queries;
  /// `column_kinds` is non-empty exactly when the query aggregated.
  /// DecodeRow understands both layouts.
  std::vector<uint64_t> agg_rows;
  std::vector<query::ColumnKind> column_kinds;
  /// Rows the cross-shard LIMIT gate skipped (see
  /// join::ExecResult::rows_skipped_by_limit); nonzero means LIMIT-k
  /// early exit actually cut work.
  uint64_t rows_skipped_by_limit = 0;

  /// Data-content version of the snapshot this result was computed
  /// against (see mut::MvccSnapshot::data_version). Result caches key
  /// entries on it: equal versions mean identical store contents.
  uint64_t data_version = 0;
  // Serving-path provenance, for caching metrics and tests.
  bool plan_cached = false;    ///< parse+optimize skipped (plan cache hit)
  bool result_cached = false;  ///< rows served straight from the result cache
  bool shared_scan = false;    ///< executed inside a shared-scan group

  /// Actual intermediate tuples per plan step (EXPLAIN ANALYZE data; see
  /// join::ExecResult::step_rows). Empty for UNION queries.
  std::vector<uint64_t> step_rows;
  join::SearchCounters counters;
  /// Per-worker morsel tallies (kMorsel multi-thread runs; see
  /// join::ExecResult::morsel_workers). Empty for UNION queries.
  std::vector<join::MorselWorkerStats> morsel_workers;
  double parse_millis = 0.0;
  double optimize_millis = 0.0;
  double execute_millis = 0.0;
  /// Max-shard execution time (the straggler wall model); for shaped
  /// queries the serial shaping tail (aggregate merge, ORDER BY sort) is
  /// added on top, since it runs after the shards on one thread.
  double emulated_parallel_millis = 0.0;
  std::vector<double> shard_millis;
  join::ProbeTrace trace;
  query::Plan plan;

  /// parse + optimize + execute (wall model); for emulated parallel runs
  /// use emulated_total_millis() instead.
  double total_millis() const {
    return parse_millis + optimize_millis + execute_millis;
  }
  /// parse + optimize + max-shard execution time: models the wall time of
  /// a true multi-core run (parsing/optimization are single-threaded in
  /// the paper too and dominate very selective queries, §5.2.3).
  double emulated_total_millis() const {
    return parse_millis + optimize_millis + emulated_parallel_millis;
  }
};

/// The public PARJ facade: loads RDF data into the in-memory store and
/// evaluates SPARQL BGP queries with the parallel adaptive join.
///
/// Typical use:
///
///   auto engine = ParjEngine::FromNTriplesFile("data.nt").value();
///   QueryOptions opts;
///   opts.num_threads = 16;
///   auto result = engine.Execute(
///       "SELECT ?x WHERE { ?x <p> ?y . ?y <q> <o> }", opts).value();
///   for (size_t r = 0; r < result.row_count; ++r)
///     Print(engine.DecodeRow(result, r));
class ParjEngine {
 public:
  /// Builds from string-level triples.
  static Result<ParjEngine> FromTriples(const std::vector<rdf::Triple>& triples,
                                        const EngineOptions& options = {});

  /// Parses `text` as N-Triples and builds.
  static Result<ParjEngine> FromNTriplesText(std::string_view text,
                                             const EngineOptions& options = {});

  /// Reads and parses an N-Triples file and builds.
  static Result<ParjEngine> FromNTriplesFile(const std::string& path,
                                             const EngineOptions& options = {});

  /// Builds from an already-encoded dataset (the workload generators emit
  /// this form directly, skipping string materialization).
  static Result<ParjEngine> FromEncoded(dict::Dictionary dict,
                                        std::vector<EncodedTriple> triples,
                                        const EngineOptions& options = {});

  /// Loads a snapshot file (see storage/snapshot.h) and wraps it. The
  /// decode streams serially; options.load.threads feeds the store build
  /// (database.build_threads, unless set explicitly).
  static Result<ParjEngine> FromSnapshotFile(const std::string& path,
                                             const EngineOptions& options = {});

  /// Rebuilds an engine from a WAL directory (DESIGN.md §14): loads the
  /// checkpoint snapshot, replays the logged mutation batches in order
  /// (overlay TermIds re-allocate deterministically, so the recovered
  /// store is row-identical to the acknowledged prefix), truncates any
  /// torn tail, and resumes logging on a fresh segment. NotFound when the
  /// directory has no manifest (use a load path with options.wal set, or
  /// EnableWal); kDataLoss on unrecoverable corruption.
  static Result<ParjEngine> RecoverFromWal(const mut::WalOptions& wal,
                                           const EngineOptions& options = {});

  /// Wraps an already-built database (e.g. one loaded from a snapshot —
  /// see storage/snapshot.h).
  static ParjEngine FromDatabase(storage::Database db) {
    return ParjEngine(std::move(db), join::CalibrationOptions{});
  }

  ParjEngine(ParjEngine&&) = default;
  ParjEngine& operator=(ParjEngine&&) = default;

  /// Parses, plans and executes a SPARQL query.
  Result<QueryResult> Execute(std::string_view sparql,
                              const QueryOptions& options = {}) const;

  /// Executes, streaming every projected row to `visitor` instead of
  /// materializing (the paper's iterator-style result handling, §5.2).
  /// The returned QueryResult carries counts/timings but no rows.
  /// Restrictions: DISTINCT is rejected (it requires buffering); with
  /// num_threads > 1 and no emulation the visitor is called concurrently
  /// from different shards.
  Result<QueryResult> ExecuteStreaming(std::string_view sparql,
                                       const QueryOptions& options,
                                       const join::RowVisitor& visitor) const;

  /// Parses and plans without executing.
  Result<query::Plan> Explain(std::string_view sparql,
                              const query::OptimizerOptions& options = {}) const;

  /// Executes an already-optimized plan, skipping parse/encode/optimize —
  /// the plan-cache fast path. The plan must have been produced by
  /// Optimize() against this engine (TermIds are stable across
  /// compactions, so cached plans stay valid). When `pinned` is non-null
  /// the query runs against that snapshot; otherwise the current epoch is
  /// pinned. Applies the same DISTINCT / LIMIT / result-mode tail as
  /// Execute().
  Result<QueryResult> ExecutePlan(const query::Plan& plan,
                                  const QueryOptions& options,
                                  const mut::MvccSnapshot* pinned =
                                      nullptr) const;

  /// Executes several plans that share an identical leading scan in one
  /// pipeline pass over one pinned snapshot (shared-scan batching): the
  /// leading table is iterated once and every key range is pushed through
  /// each member's residual pipeline. Returns one result per plan, each
  /// row-identical to a solo ExecutePlan of that member. All members run
  /// under options[i]; plans.size() must equal options.size().
  Result<std::vector<QueryResult>> ExecuteShared(
      std::span<const query::Plan* const> plans,
      std::span<const QueryOptions> options) const;

  /// Runs Algorithm 2 on all replicas (idempotent; repeatable). Must not
  /// race with queries — a load-time / maintenance-window operation.
  void Calibrate() { store_->CalibrateBase(calibration_options_); }

  // ---- Live mutability (DESIGN.md §12) ---------------------------------
  // The engine serves queries over an MVCC store: every Execute pins an
  // epoch snapshot (base CSR store + pending-write delta), so readers are
  // never blocked by writers or compaction and always see a transaction-
  // consistent view.

  /// Inserts one triple (no-op if already present). Unseen terms get IDs
  /// past the base dictionary, stable across compactions.
  Status Insert(const rdf::Triple& triple) { return store_->Insert(triple); }

  /// Removes one triple (no-op if absent).
  Status Remove(const rdf::Triple& triple) { return store_->Remove(triple); }

  /// Applies a batch atomically: queries see none or all of it.
  Status ApplyBatch(std::span<const mut::Mutation> mutations) {
    return store_->Apply(mutations);
  }

  /// Synchronously folds the pending delta into a rebuilt base (parallel
  /// build path) and bumps the epoch. AlreadyExists when a compaction is
  /// already in flight; on any failure the serving snapshot is untouched.
  Status Compact() { return store_->Compact(); }

  /// Pins the current epoch's read view.
  mut::MvccSnapshot snapshot() const { return store_->snapshot(); }

  /// Serving gauges: delta sizes, compaction counters, live epochs.
  mut::MutationStats mutation_stats() const { return store_->stats(); }

  /// Data-content version of the current epoch: bumps on every mutation,
  /// unchanged across compaction (result-cache invalidation key).
  uint64_t data_version() const { return store_->data_version(); }

  /// Plan-statistics generation: bumps when compaction or recalibration
  /// changes the base statistics (plan-cache freshness key).
  uint64_t plan_generation() const { return store_->plan_generation(); }

  // ---- Crash durability (DESIGN.md §14) --------------------------------

  /// Starts write-ahead logging for this engine: initializes a fresh WAL
  /// directory from the current base + epoch and attaches it, so every
  /// subsequent mutation is logged before it is applied and acknowledged
  /// only once durable. AlreadyExists if this engine already logs or the
  /// directory holds a manifest. Call before serving writes.
  Status EnableWal(const mut::WalOptions& options);

  bool wal_enabled() const { return wal_ != nullptr; }

  /// Log-writer counters (all zero when WAL is disabled).
  mut::WalStats wal_stats() const {
    return wal_ != nullptr ? wal_->stats() : mut::WalStats{};
  }

  /// What recovery replayed (all zero unless this engine came from
  /// RecoverFromWal).
  const mut::RecoveryStats& recovery_stats() const { return recovery_stats_; }
  bool recovered() const { return recovered_; }

  /// The underlying MVCC store, for wiring a background mut::Compactor.
  mut::DeltaStore* delta_store() { return store_.get(); }
  const mut::DeltaStore* delta_store() const { return store_.get(); }

  /// The current epoch's base database (no pending writes). Valid until
  /// the next successful Compact(); callers that run queries should pin
  /// snapshot() instead.
  const storage::Database& database() const { return store_->base(); }

  /// Phase breakdown of the load that produced this engine (zeroed for
  /// FromDatabase-wrapped instances).
  const LoadStats& load_stats() const { return load_stats_; }

  /// Decodes one materialized row to N-Triples term strings.
  std::vector<std::string> DecodeRow(const QueryResult& result,
                                     size_t row) const;

 private:
  explicit ParjEngine(storage::Database db, join::CalibrationOptions calibration,
                      storage::DatabaseOptions database_options = {},
                      uint64_t initial_epoch = 0)
      : calibration_options_(calibration) {
    mut::DeltaStoreOptions store_options;
    store_options.database = database_options;
    store_options.calibration = calibration;
    store_options.initial_epoch = initial_epoch;
    store_ = std::make_unique<mut::DeltaStore>(std::move(db), store_options);
  }

  /// Shared tail of every load path: build the store (threaded per
  /// `options`), calibrate if asked, and finalize `stats`.
  static Result<ParjEngine> FinishLoad(dict::Dictionary dict,
                                       std::vector<EncodedTriple> triples,
                                       const EngineOptions& options,
                                       LoadStats stats);

  /// The MVCC store: immutable base + pending-write delta behind epoch
  /// snapshots. unique_ptr keeps the engine movable (DeltaStore holds
  /// mutexes).
  std::unique_ptr<mut::DeltaStore> store_;
  /// Optional write-ahead log the store is attached to. Declared after
  /// store_ so it is destroyed (flushed, writer joined) first, while the
  /// store it logs for is still alive.
  std::unique_ptr<mut::Wal> wal_;
  join::CalibrationOptions calibration_options_;
  LoadStats load_stats_;
  mut::RecoveryStats recovery_stats_;
  bool recovered_ = false;
};

}  // namespace parj::engine

#endif  // PARJ_ENGINE_PARJ_ENGINE_H_
