#ifndef PARJ_JOIN_EXECUTOR_H_
#define PARJ_JOIN_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "join/morsel.h"
#include "join/search.h"
#include "query/plan.h"
#include "server/cancellation.h"
#include "storage/database.h"

namespace parj::server {
class ThreadPool;
}  // namespace parj::server

namespace parj::mut {
class DeltaView;
}  // namespace parj::mut

namespace parj::join {

/// What the executor does with result tuples.
enum class ResultMode : uint8_t {
  /// Count only — the paper's "silent mode" used in all timing tables.
  kCount = 0,
  /// Materialize projected rows (IDs; dictionary decoding is the engine's
  /// job) — the paper's "full result handling".
  kMaterialize = 1,
  /// Stream each projected row to ExecOptions::visitor as it is produced —
  /// the paper's iterator-style result handling ("send the results to the
  /// master as they are produced" instead of keeping them in memory,
  /// §5.2). Nothing is buffered.
  kVisit = 2,
};

/// Callback for ResultMode::kVisit. `shard` identifies the producing
/// worker; with num_threads > 1 (and no emulation) the visitor is invoked
/// CONCURRENTLY from different shards and must be thread-safe for distinct
/// shard ids. The row span is only valid during the call.
using RowVisitor =
    std::function<void(size_t shard, std::span<const TermId> row)>;

/// Cross-shard LIMIT-k gate. Each produced row claims a slot with one
/// relaxed fetch_add; a claim at or past `limit` is rejected — the row is
/// not produced, the shard tallies it in ExecResult::rows_skipped_by_limit
/// and unwinds through the per-shard limit machinery. Shards also poll
/// `emitted` at the kCancelCheckInterval sites, so once the k-th row is
/// claimed anywhere every shard stops within one check interval instead
/// of finishing its share. Exactly min(limit, available) rows are
/// produced across all shards. The caller owns the gate (stack is fine)
/// and must keep it alive for the execution.
struct LimitGate {
  uint64_t limit = 0;
  std::atomic<uint64_t> emitted{0};
};

/// How the first step's work range is distributed over threads. Both are
/// schedules for the executor's one driver (DESIGN.md §8).
enum class Scheduling : uint8_t {
  /// The paper's §5 scheme: num_threads equal-count contiguous shards,
  /// fixed up front — one morsel per worker with stealing off, so worker
  /// w runs exactly shard w. Zero scheduling overhead, but a skewed
  /// property table (one giant run next to singleton keys) leaves one
  /// straggler thread doing nearly all the work.
  kStatic = 0,
  /// Morsel-driven: the range is cut into cost-balanced morsels (equal
  /// cumulative run length, read off the CSR offsets) that workers pull
  /// from a shared lock-free dispenser, stealing from each other's local
  /// queues when theirs drain. Identical results, robust to skew; the
  /// paper's zero-communication pipeline is preserved within a morsel.
  kMorsel = 1,
};

inline const char* SchedulingName(Scheduling s) {
  return s == Scheduling::kStatic ? "static" : "morsel";
}

struct ExecOptions {
  /// Number of shards/threads for the first step (paper §3: each worker is
  /// exactly one thread).
  int num_threads = 1;
  SearchStrategy strategy = SearchStrategy::kAdaptiveBinary;
  ResultMode mode = ResultMode::kMaterialize;
  /// Work distribution across threads. kMorsel (the default) is
  /// skew-robust and produces the same result set as kStatic; the
  /// paper-replication benches pin kStatic to reproduce §5 exactly.
  /// Ignored when only one shard runs (that run is static). Emulated and
  /// real runs of either go through the same driver: under
  /// emulate_parallel units execute sequentially, each dispatched to the
  /// virtual worker with the smallest accumulated clock, so
  /// emulated_parallel_millis models both schedules the same way.
  Scheduling scheduling = Scheduling::kMorsel;
  /// Run shards sequentially on the calling thread, timing each shard.
  /// `emulated_parallel_millis` then models wall time on num_threads real
  /// cores (shards share nothing, so max-of-shard-times is exact up to
  /// spawn overhead). Used for the scaling experiments on machines with
  /// fewer cores than the paper's server.
  bool emulate_parallel = false;
  /// Batched prefetched probing (DESIGN.md §11): value runs feeding a
  /// variable-key next step are probed in groups of kProbeBatchSize with
  /// predicted first touches prefetched ahead of the searches, so
  /// independent cache misses overlap. Produces byte-identical results,
  /// counters and traces (the per-step search order is unchanged);
  /// automatically disabled when per_shard_limit != 0.
  bool batch_probes = true;
  /// Record every probe value per plan step (Table 6 replay input).
  bool collect_probe_trace = false;
  /// Safety cap for trace memory.
  size_t max_trace_entries = 50000000;
  /// Stop each shard after this many rows (0 = unlimited). The engine
  /// trims the merged result to the plan's LIMIT.
  uint64_t per_shard_limit = 0;
  /// Optional cross-shard LIMIT gate (see LimitGate): stops ALL shards
  /// shortly after `limit_gate->limit` rows exist globally, where
  /// per_shard_limit alone lets every shard produce up to the limit.
  /// Must have limit > 0 when set; rejected by ExecuteShared.
  LimitGate* limit_gate = nullptr;
  /// Required when mode == kVisit.
  RowVisitor visitor;
  /// Cooperative cancellation/deadline token, checked on entry and then
  /// every kCancelCheckInterval tuples inside each shard's pipeline. A
  /// default-constructed token never fires. On cancellation Execute
  /// returns the token's Status (Cancelled / DeadlineExceeded) and any
  /// partial results are discarded.
  server::CancellationToken cancel;
  /// Pool used for multi-shard dispatch; nullptr means the process-wide
  /// server::ThreadPool::Shared(). Workers are a RunWorkers gang on the
  /// pool, not per-query spawned threads; one-shard and emulated runs
  /// never touch the pool.
  server::ThreadPool* pool = nullptr;
};

/// Tuples processed between cancellation-token checks in a shard loop
/// (flag-only check; deadline clock reads are equally amortized).
inline constexpr int kCancelCheckInterval = 2048;

/// Values probed per group by the batched probe loop (ExecOptions::
/// batch_probes): enough independent prefetches to cover one search's
/// memory latency, small enough that the group's run starts are still in
/// cache when stage C descends into them.
inline constexpr size_t kProbeBatchSize = 16;

/// Probe values per plan step, in shard order: one entry per search
/// actually performed into the step's key array. The first step is never
/// searched, and a step whose key did not change since its last search
/// reuses that position and records nothing (DESIGN.md §11).
struct ProbeTrace {
  std::vector<std::vector<TermId>> step_values;
};

struct ExecResult {
  uint64_t row_count = 0;
  size_t column_count = 0;
  /// Rows whose LimitGate slot claim was rejected (the gate was already
  /// saturated when the shard tried to emit). Nonzero means the early
  /// exit actually cut work; 0 without a gate.
  uint64_t rows_skipped_by_limit = 0;
  /// Row-major projected bindings; size = row_count * column_count.
  std::vector<TermId> rows;
  /// step_rows[i] = number of intermediate tuples that survived steps
  /// 0..i (the pipeline's actual per-step cardinalities — the runtime
  /// counterpart of PlanStep::estimated_rows).
  std::vector<uint64_t> step_rows;
  SearchCounters counters;
  /// Per-worker morsel tallies (kMorsel multi-shard runs only): morsels
  /// executed / stolen, first-step items and rows per worker. The spread
  /// of `items` across workers is the load-balance diagnostic the skew
  /// bench reports.
  std::vector<MorselWorkerStats> morsel_workers;
  /// Per-shard execution times (emulate_parallel or one-shard runs).
  std::vector<double> shard_millis;
  /// Wall-clock of the whole execution.
  double wall_millis = 0.0;
  /// max(shard_millis) — the shard-sequential model of parallel wall time.
  double emulated_parallel_millis = 0.0;
  ProbeTrace trace;
};

/// Evaluates left-deep plans over a read-only Database with the paper's
/// pipelined, communication-free parallelization: the first step's key
/// range (or, for a constant first key, its value run — Example 3.2) is
/// split across workers; each runs the entire pipeline with private
/// cursors, counters and result buffers. No locks, no queues, no data
/// exchange at tuple granularity. Scheduling::kStatic reproduces the
/// paper's fixed equal-count shards; Scheduling::kMorsel (default) cuts
/// the range into cost-balanced morsels dispensed dynamically with work
/// stealing, which produces the identical result set but stays balanced
/// on skewed data (DESIGN.md §8).
class Executor {
 public:
  /// `delta` (optional) is an immutable pending-write view over `db`
  /// (mut::DeltaView): steps whose predicate has pending inserts/deletes
  /// run through merge cursors — base CSR ∪ delta inserts, minus delta
  /// deletes — while untouched predicates keep the exact read-only code
  /// paths. Both pointers must outlive the Executor; pinning an
  /// mut::MvccSnapshot for the duration is the intended way to get that.
  explicit Executor(const storage::Database* db,
                    const mut::DeltaView* delta = nullptr)
      : db_(db), delta_(delta) {}

  Result<ExecResult> Execute(const query::Plan& plan,
                             const ExecOptions& options = {}) const;

  /// Shared-scan batching: executes several plans whose FIRST step is the
  /// same unbound scan — identical predicate and replica, variable key and
  /// value, neither pre-bound — in one pass over the leading key range.
  /// The range is cut once (static shards or cost-balanced morsels, per
  /// options[0]); every cut is pushed through each member's residual
  /// pipeline with fully private contexts, so per-member results, counters
  /// and step_rows are identical to a solo Execute of that member over the
  /// same cuts. Per-member options control mode / per_shard_limit /
  /// cancellation; scheduling fields (num_threads, strategy, scheduling,
  /// batch eligibility inputs) are taken from options[0] and must match
  /// across members for the cuts to be shared.
  ///
  /// Restrictions (InvalidArgument): members must not be known_empty, must
  /// not use kVisit / emulate_parallel / probe tracing / a LIMIT gate,
  /// and all leading steps must resolve to the same table replica. Any
  /// member fault or cancellation fails the whole call — callers degrade
  /// to solo execution per member.
  Result<std::vector<ExecResult>> ExecuteShared(
      std::span<const query::Plan* const> plans,
      std::span<const ExecOptions> options) const;

 private:
  const storage::Database* db_;
  const mut::DeltaView* delta_;
};

}  // namespace parj::join

#endif  // PARJ_JOIN_EXECUTOR_H_
