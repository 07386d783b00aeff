#include "join/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <new>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/timer.h"
#include "mutable/delta_view.h"
#include "server/thread_pool.h"

namespace parj::join {

namespace {

using query::PatternTerm;
using query::Plan;
using query::PlanStep;
using storage::ReplicaMeta;
using storage::TableReplica;

/// Immutable per-step lookup info resolved once per execution.
struct StepInfo {
  const TableReplica* replica = nullptr;
  const index::IdPositionIndex* index = nullptr;
  int64_t threshold = 0;
  /// Gallop-phase cap for the binary kernel, from the replica's
  /// calibrated window (GallopCapForWindow).
  size_t gallop_cap = kDefaultGallopCap;
  /// Linear-interpolation model of this replica's key array
  /// (position ~= (v - interp_base) * interp_scale), used only to predict
  /// prefetch addresses for batched probing — never for the search itself.
  TermId interp_base = 0;
  double interp_scale = 0.0;
  PatternTerm key;
  PatternTerm value;
  bool key_bound = false;
  bool value_bound = false;
  bool value_is_key_var = false;
  /// The key cannot change inside the enclosing value loop (step d−1's):
  /// it is a constant, or a variable that loop does not bind. The step
  /// then searches only when its key value changes (ShardContext::
  /// ProbeKey).
  bool key_reuse = false;
  /// Pending-write replicas for this step's predicate (same ReplicaKind as
  /// `replica`), from the execution's mut::DeltaView; null/empty on a
  /// clean step. Invariants (see mut::PropertyDelta): ins ∩ base = ∅ and
  /// del ⊆ base, so merged membership is (base ∧ ¬del) ∨ ins.
  const TableReplica* ins = nullptr;
  const TableReplica* del = nullptr;
  /// True when ins or del is non-empty — the one flag every hot path
  /// checks before leaving the read-only code.
  bool dirty = false;
};

/// The value run of `key` in `replica`, or an empty span when the replica
/// is null/empty or lacks the key.
std::span<const TermId> LookupRun(const TableReplica* replica, TermId key) {
  if (replica == nullptr || replica->empty()) return {};
  const size_t pos = replica->FindKey(key);
  if (pos == SIZE_MAX) return {};
  return replica->Run(pos);
}

/// Merges (base_run ∖ del_run) ∪ ins_run into `out`, ascending. All three
/// inputs are sorted; ins is disjoint from base and del ⊆ base, so the
/// result is exactly the run a store rebuilt from the merged triple set
/// would hold — which is what makes delta-merged query results
/// bit-identical to a rebuilt store's.
void MergeDeltaRun(std::span<const TermId> base_run,
                   std::span<const TermId> ins_run,
                   std::span<const TermId> del_run,
                   std::vector<TermId>* out) {
  out->clear();
  out->reserve(base_run.size() + ins_run.size());
  size_t ii = 0;
  size_t di = 0;
  for (const TermId b : base_run) {
    while (ii < ins_run.size() && ins_run[ii] < b) {
      out->push_back(ins_run[ii++]);
    }
    while (di < del_run.size() && del_run[di] < b) ++di;
    if (di < del_run.size() && del_run[di] == b) continue;
    out->push_back(b);
  }
  while (ii < ins_run.size()) out->push_back(ins_run[ii++]);
}

/// Floor (in rows) for the first materialization buffer reservation, so
/// result-heavy shards skip the pathological small-capacity doublings.
constexpr size_t kRowsReserveFloor = 256;

/// All mutable state of one worker's pipeline run. Workers never share
/// mutable state — this is the paper's "no communication or
/// synchronization between the workers"; under kMorsel scheduling one
/// context is reused across every morsel its worker claims. Cache-line
/// aligned so adjacent workers' hot counters (row_count, counters,
/// cancel_countdown) never false-share.
struct alignas(64) ShardContext {
  const std::vector<StepInfo>* steps = nullptr;
  /// batch_at[d] => the value loop at depth d feeds step d+1's variable
  /// key and may run through the batched prefetched pipeline (resolved
  /// once in Execute from the plan shape + ExecOptions::batch_probes).
  const std::vector<uint8_t>* batch_at = nullptr;
  /// intersect_at[d] => the value loop at depth d intersects its run with
  /// step d+1's run instead of probing it per tuple (IntersectNext).
  const std::vector<uint8_t>* intersect_at = nullptr;
  /// A value loop at the last step adds its run length to row_count
  /// instead of emitting each row (kCount, no limit, no leaf FILTER).
  bool count_leaf = false;
  /// filters_at[d] is checked on entry to Descend(d), i.e. as soon as the
  /// bindings of steps 0..d-1 exist (filter pushdown).
  const std::vector<std::vector<const query::EncodedFilter*>>* filters_at =
      nullptr;
  const std::vector<int>* projection = nullptr;
  ResultMode mode = ResultMode::kCount;
  uint64_t per_shard_limit = 0;
  size_t shard_id = 0;
  const RowVisitor* visitor = nullptr;
  /// Scratch for one projected row, sized once to the projection width;
  /// Emit gathers into it and appends with a single insert.
  std::vector<TermId> emit_row;

  std::vector<TermId> bindings;
  std::vector<size_t> cursors;
  /// Per-depth last (key, position) of a key_reuse step's search; no
  /// stored or bound ID is kInvalidTermId, so it marks an empty memo.
  struct KeyMemo {
    TermId key = kInvalidTermId;
    size_t pos = kNotFound;
  };
  std::vector<KeyMemo> key_memo;
  /// Per-depth membership cursor into the base value run last checked.
  struct RunCursor {
    const TermId* run = nullptr;
    size_t pos = 0;
  };
  std::vector<RunCursor> run_cursors;
  /// Per-depth scratch for materialized merged runs (dirty steps only).
  /// Safe without further care: recursion depth is strictly increasing,
  /// so at most one live frame uses merged_runs[d].
  std::vector<std::vector<TermId>> merged_runs;
  std::vector<uint64_t> step_rows;  // index d-1: tuples entering Descend(d)
  SearchCounters counters;
  uint64_t row_count = 0;
  std::vector<TermId> rows;
  bool limit_reached = false;
  LimitGate* limit_gate = nullptr;
  uint64_t rows_skipped = 0;

  bool tracing = false;
  size_t max_trace_entries = 0;
  size_t trace_entries = 0;
  std::vector<std::vector<TermId>> trace;

  server::CancellationToken cancel;
  bool cancel_enabled = false;
  int cancel_countdown = kCancelCheckInterval;

  void Emit() {
    if (limit_gate != nullptr &&
        limit_gate->emitted.fetch_add(1, std::memory_order_relaxed) >=
            limit_gate->limit) {
      // The gate saturated before this row's claim: drop it and unwind
      // this shard through the limit machinery.
      ++rows_skipped;
      limit_reached = true;
      return;
    }
    ++row_count;
    if (mode != ResultMode::kCount) {
      const std::vector<int>& proj = *projection;
      const size_t width = proj.size();
      for (size_t i = 0; i < width; ++i) emit_row[i] = bindings[proj[i]];
      if (mode == ResultMode::kMaterialize) {
        if (rows.size() + width > rows.capacity()) {
          rows.reserve(std::max(kRowsReserveFloor * width,
                                rows.capacity() * 2));
        }
        rows.insert(rows.end(), emit_row.begin(), emit_row.end());
      } else {
        (*visitor)(shard_id, emit_row);
      }
    }
    if (per_shard_limit != 0 && row_count >= per_shard_limit) {
      limit_reached = true;
    }
  }

  void Trace(size_t step, TermId value) {
    if (!tracing || trace_entries >= max_trace_entries) return;
    trace[step].push_back(value);
    ++trace_entries;
  }

  bool PassesFilter(const query::EncodedFilter& filter) const {
    const TermId lhs = bindings[filter.lhs.var];
    if (filter.passing != nullptr) return (*filter.passing)[lhs];
    const TermId rhs = filter.rhs.is_variable() ? bindings[filter.rhs.var]
                                                : filter.rhs.constant;
    return filter.op == query::FilterOp::kEq ? lhs == rhs : lhs != rhs;
  }

  /// Forgets every cursor and memo, so a shard's searches and counters
  /// depend only on its own content, never on which worker ran the
  /// previous morsel.
  void ResetCursors() {
    std::fill(cursors.begin(), cursors.end(), 0);
    std::fill(key_memo.begin(), key_memo.end(), KeyMemo());
    std::fill(run_cursors.begin(), run_cursors.end(), RunCursor());
  }

  /// Position of `key` in step `depth`'s (non-empty) key array, or
  /// kNotFound. A key_reuse step repeats its last answer while the key
  /// value stays the same; only searches actually run are counted and
  /// traced, so ReplaySearchTrace replays exactly this stream.
  size_t ProbeKey(size_t depth, const StepInfo& step, TermId key,
                  SearchStrategy strategy) {
    KeyMemo& memo = key_memo[depth];
    if (step.key_reuse && memo.key == key) return memo.pos;
    Trace(depth, key);
    const size_t pos =
        AdaptiveSearch(step.replica->keys(), key, &cursors[depth],
                       step.threshold, strategy, step.index, &counters,
                       step.gallop_cap);
    if (step.key_reuse) memo = {key, pos};
    return pos;
  }

  /// Membership of `value` in a base value run at `depth`. A long run is
  /// searched from the cursor its previous check left, so probes that
  /// arrive in order gallop instead of starting over.
  bool RunHas(size_t depth, std::span<const TermId> run, TermId value) {
    RunCursor& cursor = run_cursors[depth];
    if (cursor.run != run.data()) cursor = {run.data(), 0};
    return RunContains(run, value, &cursor.pos);
  }

  /// Delete-aware membership in (base_run ∖ del_run) ∪ ins_run.
  bool MergedRunHas(size_t depth, std::span<const TermId> base_run,
                    std::span<const TermId> ins_run,
                    std::span<const TermId> del_run, TermId value) {
    if (RunHas(depth, base_run, value)) {
      return del_run.empty() || !RunContains(del_run, value);
    }
    return !ins_run.empty() && RunContains(ins_run, value);
  }

  /// Charges `n` tuples handled run-at-a-time against the cancellation
  /// countdown, checking the token whenever the countdown runs out as
  /// Descend would have over those tuples; false once the shard must
  /// stop. Only used where no LIMIT gate exists.
  bool Charge(size_t n) {
    if (limit_reached) return false;
    if (!cancel_enabled) return true;
    if (n < static_cast<size_t>(cancel_countdown)) {
      cancel_countdown -= static_cast<int>(n);
      return true;
    }
    cancel_countdown = kCancelCheckInterval;
    if (cancel.StopRequested()) limit_reached = true;
    return !limit_reached;
  }

  /// True when another shard has saturated the LIMIT gate — this shard's
  /// remaining work cannot produce rows, so stop it at the next check.
  bool GateSaturated() const {
    return limit_gate != nullptr &&
           limit_gate->emitted.load(std::memory_order_relaxed) >=
               limit_gate->limit;
  }

  /// Evaluates steps[depth..] given bindings for earlier steps.
  void Descend(size_t depth, SearchStrategy strategy) {
    if (limit_reached) return;
    if ((cancel_enabled || limit_gate != nullptr) && --cancel_countdown <= 0) {
      cancel_countdown = kCancelCheckInterval;
      if ((cancel_enabled && cancel.StopRequested()) || GateSaturated()) {
        // Reuse the limit machinery to unwind every loop in this shard.
        limit_reached = true;
        return;
      }
    }
    for (const query::EncodedFilter* filter : (*filters_at)[depth]) {
      if (!PassesFilter(*filter)) return;
    }
    ++step_rows[depth - 1];
    if (depth == steps->size()) {
      Emit();
      return;
    }
    const StepInfo& step = (*steps)[depth];
    const TableReplica& replica = *step.replica;
    if (replica.empty() && !step.dirty) return;

    if (!step.key_bound) {
      if (step.dirty) {
        ScanMergedKeys(depth, strategy);
        return;
      }
      // Cartesian continuation (or a forced odd plan): scan every key.
      const size_t key_count = replica.key_count();
      for (size_t pos = 0; pos < key_count && !limit_reached; ++pos) {
        bindings[step.key.var] = replica.KeyAt(pos);
        DescendIntoRun(depth, pos, strategy);
      }
      return;
    }

    const TermId key_value = step.key.is_constant()
                                 ? step.key.constant
                                 : bindings[step.key.var];
    const size_t pos = replica.empty()
                           ? kNotFound
                           : ProbeKey(depth, step, key_value, strategy);
    if (!step.dirty) {
      if (pos == kNotFound) return;
      if (step.key.is_variable()) bindings[step.key.var] = key_value;
      DescendIntoRun(depth, pos, strategy);
      return;
    }
    // Dirty step: a base miss can still hit a pending insert, and a base
    // hit may be partially or fully deleted.
    const std::span<const TermId> base_run =
        pos == kNotFound ? std::span<const TermId>() : replica.Run(pos);
    const std::span<const TermId> ins_run = LookupRun(step.ins, key_value);
    if (base_run.empty() && ins_run.empty()) return;
    const std::span<const TermId> del_run =
        base_run.empty() ? std::span<const TermId>()
                         : LookupRun(step.del, key_value);
    if (step.key.is_variable()) bindings[step.key.var] = key_value;
    DescendMergedRun(depth, base_run, ins_run, del_run, strategy);
  }

  /// Dirty-step counterpart of DescendIntoRun: descends into the merged
  /// (base ∖ del) ∪ ins run of the key the caller just bound.
  void DescendMergedRun(size_t depth, std::span<const TermId> base_run,
                        std::span<const TermId> ins_run,
                        std::span<const TermId> del_run,
                        SearchStrategy strategy) {
    const StepInfo& step = (*steps)[depth];
    if (step.value.is_constant() || step.value_is_key_var ||
        step.value_bound) {
      const TermId value = step.value.is_constant() ? step.value.constant
                           : step.value_is_key_var ? bindings[step.key.var]
                                                   : bindings[step.value.var];
      ++counters.run_probes;
      if (MergedRunHas(depth, base_run, ins_run, del_run, value)) {
        Descend(depth + 1, strategy);
      }
      return;
    }
    // Unbound value: iterate the merged run. The two trivial cases keep
    // the original zero-copy spans; only a genuinely mixed key pays for
    // the scratch merge.
    if (ins_run.empty() && del_run.empty()) {
      RunValues(depth, base_run, strategy);
      return;
    }
    if (base_run.empty()) {
      RunValues(depth, ins_run, strategy);
      return;
    }
    MergeDeltaRun(base_run, ins_run, del_run, &merged_runs[depth]);
    RunValues(depth, merged_runs[depth], strategy);
  }

  /// Dirty-step counterpart of the cartesian key scan: iterates the
  /// merged (base ∪ ins) key set in ascending order, so emit order stays
  /// exactly what a rebuilt store would produce.
  void ScanMergedKeys(size_t depth, SearchStrategy strategy) {
    const StepInfo& step = (*steps)[depth];
    const TableReplica& base = *step.replica;
    const TableReplica* ins = step.ins;
    const size_t base_count = base.key_count();
    const size_t ins_count = ins == nullptr ? 0 : ins->key_count();
    size_t bi = 0;
    size_t ii = 0;
    while ((bi < base_count || ii < ins_count) && !limit_reached) {
      const bool take_ins =
          bi >= base_count ||
          (ii < ins_count && ins->KeyAt(ii) < base.KeyAt(bi));
      if (take_ins) {
        // Delta-only key: no base run, and del ⊆ base means no deletes.
        bindings[step.key.var] = ins->KeyAt(ii);
        DescendMergedRun(depth, {}, ins->Run(ii), {}, strategy);
        ++ii;
        continue;
      }
      const TermId key = base.KeyAt(bi);
      const bool merged = ii < ins_count && ins->KeyAt(ii) == key;
      bindings[step.key.var] = key;
      DescendMergedRun(depth, base.Run(bi),
                       merged ? ins->Run(ii) : std::span<const TermId>(),
                       LookupRun(step.del, key), strategy);
      if (merged) ++ii;
      ++bi;
    }
  }

  void DescendIntoRun(size_t depth, size_t key_pos, SearchStrategy strategy) {
    const StepInfo& step = (*steps)[depth];
    const std::span<const TermId> run = step.replica->Run(key_pos);
    if (step.value.is_constant() || step.value_is_key_var ||
        step.value_bound) {
      // Bound value: only membership matters.
      const TermId value = step.value.is_constant() ? step.value.constant
                           : step.value_is_key_var ? bindings[step.key.var]
                                                   : bindings[step.value.var];
      ++counters.run_probes;
      if (RunHas(depth, run, value)) Descend(depth + 1, strategy);
      return;
    }
    RunValues(depth, run, strategy);
  }

  /// Iterates a value run at `depth`, binding the step's value variable
  /// and descending into step depth+1 for each element — the innermost
  /// loop of the pipeline. When batch_at[depth] is set, values are
  /// processed in groups of kProbeBatchSize through a three-stage
  /// software pipeline (DESIGN.md §11):
  ///
  ///   A  prefetch each probe's predicted first touch (interpolated
  ///      key-array position, or the rank index's three lines), so the
  ///      group's independent cache misses are in flight together;
  ///   B  run the searches serially — Algorithm 1's cursor makes probe
  ///      k+1's start depend on probe k's result, so the search ORDER is
  ///      exactly the unbatched one and counters/traces/cursors are
  ///      byte-identical — prefetching each hit's run area;
  ///   C  descend into the hits' runs, again in probe order, so Emit
  ///      order is unchanged.
  ///
  /// Two shapes need no per-tuple descent at all (DESIGN.md §11): a
  /// counted leaf (count_leaf at the last step) only adds the run's
  /// length, and an intersect_at loop intersects its run with the next
  /// step's (IntersectNext). Both keep step_rows and counters exactly as
  /// the per-tuple loop would leave them.
  void RunValues(size_t depth, std::span<const TermId> values,
                 SearchStrategy strategy) {
    if (count_leaf && depth + 1 == steps->size()) {
      if (!Charge(values.size())) return;
      step_rows[depth] += values.size();
      row_count += values.size();
      return;
    }
    if ((*intersect_at)[depth]) {
      IntersectNext(depth, values, strategy);
      return;
    }
    const StepInfo& step = (*steps)[depth];
    if (!(*batch_at)[depth]) {
      for (TermId v : values) {
        if (limit_reached) return;
        bindings[step.value.var] = v;
        Descend(depth + 1, strategy);
      }
      return;
    }
    const size_t next_depth = depth + 1;
    const StepInfo& next = (*steps)[next_depth];
    const TableReplica& replica = *next.replica;
    const std::span<const TermId> keys = replica.keys();
    const size_t key_count = keys.size();
    const bool use_index = strategy == SearchStrategy::kIndex ||
                           strategy == SearchStrategy::kAdaptiveIndex;
    // Per-group hit buffers live on the stack: stage C's descents can
    // re-enter RunValues at deeper depths.
    TermId hit_vals[kProbeBatchSize];
    size_t hit_pos[kProbeBatchSize];
    size_t i = 0;
    const size_t n = values.size();
    while (i < n && !limit_reached) {
      const size_t group = std::min(kProbeBatchSize, n - i);
      for (size_t j = 0; j < group; ++j) {
        const TermId v = values[i + j];
        if (use_index) {
          next.index->PrefetchFind(v);
        } else {
          double pred = (static_cast<double>(v) -
                         static_cast<double>(next.interp_base)) *
                        next.interp_scale;
          if (pred < 0.0) pred = 0.0;
          size_t guess = static_cast<size_t>(pred);
          if (guess >= key_count) guess = key_count - 1;
          __builtin_prefetch(&keys[guess], 0, 1);
        }
      }
      size_t hits = 0;
      for (size_t j = 0; j < group; ++j) {
        if (limit_reached) break;
        // Mirrors Descend(next_depth) up to the run descent; batching is
        // disabled whenever any of Descend's other entry paths (limit,
        // Emit, empty replica, constant/unbound key) could trigger.
        if ((cancel_enabled || limit_gate != nullptr) &&
            --cancel_countdown <= 0) {
          cancel_countdown = kCancelCheckInterval;
          if ((cancel_enabled && cancel.StopRequested()) || GateSaturated()) {
            limit_reached = true;
            break;
          }
        }
        const TermId v = values[i + j];
        bindings[step.value.var] = v;
        bool pass = true;
        for (const query::EncodedFilter* filter : (*filters_at)[next_depth]) {
          if (!PassesFilter(*filter)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        ++step_rows[next_depth - 1];
        const size_t pos = ProbeKey(next_depth, next, v, strategy);
        if (pos == kNotFound) continue;
        hit_vals[hits] = v;
        hit_pos[hits] = pos;
        ++hits;
        __builtin_prefetch(replica.Run(pos).data(), 0, 1);
      }
      for (size_t h = 0; h < hits && !limit_reached; ++h) {
        bindings[step.value.var] = hit_vals[h];
        DescendIntoRun(next_depth, hit_pos[h], strategy);
      }
      i += group;
    }
  }

  /// The value loop at `depth` over `values` (?v) when step depth+1 is a
  /// clean membership check of ?v in the run of a key this loop never
  /// changes (intersect_at). Per tuple, Descend(depth+1) would count the
  /// tuple, reuse the key's memoized position and probe the run; here
  /// the key goes through ProbeKey once, so the memo, counters and trace
  /// see the same single search, and only the common values descend.
  void IntersectNext(size_t depth, std::span<const TermId> values,
                     SearchStrategy strategy) {
    if (values.empty() || !Charge(values.size())) return;
    const size_t next_depth = depth + 1;
    const StepInfo& next = (*steps)[next_depth];
    step_rows[depth] += values.size();
    if (next.replica->empty()) return;
    const TermId key =
        next.key.is_constant() ? next.key.constant : bindings[next.key.var];
    const size_t pos = ProbeKey(next_depth, next, key, strategy);
    if (pos == kNotFound) return;
    counters.run_probes += values.size();
    const std::span<const TermId> run = next.replica->Run(pos);
    if (count_leaf && next_depth + 1 == steps->size()) {
      const size_t matches = CountIntersection(values, run);
      step_rows[next_depth] += matches;
      row_count += matches;
      Charge(matches);
      return;
    }
    const int var = next.value.var;
    IntersectRuns(values, run, [&](TermId v) {
      bindings[var] = v;
      Descend(next_depth + 1, strategy);
      return !limit_reached;
    });
  }
};

/// Description of the first step's parallelizable work.
struct WorkSource {
  enum class Kind {
    kEmpty,      ///< no results possible
    kKeyRange,   ///< iterate first replica's keys [0, size)
    kRunRange,   ///< constant first key: iterate its value run [0, size)
    kSingle,     ///< fully constant first pattern: one existence check
  };
  Kind kind = Kind::kEmpty;
  size_t size = 0;
  size_t key_pos = 0;  ///< for kRunRange / kSingle
  /// Dirty-first-step fields. base_key_present: key_pos is a valid base
  /// position (kRunRange / kSingle). keys_from_delta: the base replica is
  /// empty and kKeyRange iterates the delta-insert key array instead.
  /// merged_run: materialized (base ∖ del) ∪ ins run for a constant dirty
  /// first key, sliced by shards exactly like a base run.
  bool base_key_present = false;
  bool keys_from_delta = false;
  bool use_merged_run = false;
  std::vector<TermId> merged_run;
};

WorkSource ResolveWorkSource(const StepInfo& first) {
  WorkSource src;
  const TableReplica& replica = *first.replica;
  if (replica.empty() && !first.dirty) return src;
  if (first.key.is_constant()) {
    const size_t pos =
        replica.empty() ? SIZE_MAX : replica.FindKey(first.key.constant);
    src.base_key_present = pos != SIZE_MAX;
    if (src.base_key_present) src.key_pos = pos;
    const std::span<const TermId> ins_run =
        first.dirty ? LookupRun(first.ins, first.key.constant)
                    : std::span<const TermId>();
    if (!src.base_key_present && ins_run.empty()) return src;
    if (first.value.is_constant() || first.value_is_key_var) {
      src.kind = WorkSource::Kind::kSingle;
      src.size = 1;
      return src;
    }
    const std::span<const TermId> del_run =
        src.base_key_present ? LookupRun(first.del, first.key.constant)
                             : std::span<const TermId>();
    if (ins_run.empty() && del_run.empty()) {
      // Clean key (even under a dirty step): slice the base run in place.
      src.kind = WorkSource::Kind::kRunRange;
      src.size = replica.RunLength(pos);
      return src;
    }
    const std::span<const TermId> base_run =
        src.base_key_present ? replica.Run(pos) : std::span<const TermId>();
    MergeDeltaRun(base_run, ins_run, del_run, &src.merged_run);
    if (src.merged_run.empty()) return src;
    src.use_merged_run = true;
    src.kind = WorkSource::Kind::kRunRange;
    src.size = src.merged_run.size();
    return src;
  }
  // Variable (unbound) first key: shard the key array. With a dirty step
  // whose base is empty, the delta-insert keys are the work range.
  src.kind = WorkSource::Kind::kKeyRange;
  if (replica.empty()) {
    src.keys_from_delta = true;
    src.size = first.ins->key_count();
  } else {
    src.size = replica.key_count();
  }
  return src;
}

/// Morsel sizing (DESIGN.md §8): aim for kMorselsPerWorker morsels per
/// worker so the dispenser can smooth skew and stragglers, but never cut
/// morsels below kMinMorselCost triples of estimated work — claim overhead
/// (one fetch_add) must stay invisible next to the pipeline work — and
/// never more morsels than work items.
constexpr size_t kMorselsPerWorker = 8;
constexpr uint64_t kMinMorselCost = 2048;

size_t MorselTarget(size_t workers, size_t items, uint64_t cost) {
  const uint64_t by_cost =
      std::max<uint64_t>(workers, cost / kMinMorselCost);
  const size_t target =
      std::min<size_t>(workers * kMorselsPerWorker,
                       static_cast<size_t>(by_cost));
  return std::clamp<size_t>(target, 1, std::max<size_t>(1, items));
}

/// Dirty first step with a variable key: merged scan of the base key
/// range [begin, end) with delta-insert keys interleaved in ascending
/// order. Shard ownership of delta-only keys is positional: the shard
/// processing base key position p owns ins keys strictly between
/// keys[p-1] and keys[p], and the shard ending at the last base key also
/// owns the tail past it. Cuts are monotone, so exactly one non-empty
/// shard has begin == 0 and one has end == key_count — every delta-only
/// key runs exactly once, whatever the shard/morsel cuts, and each
/// shard's emit order is the merged ascending key order (what a rebuilt
/// store's key array would give).
void RunMergedKeyRange(const StepInfo& first, const WorkSource& src,
                       size_t begin, size_t end, SearchStrategy strategy,
                       ShardContext* ctx) {
  const TableReplica& replica = *first.replica;
  if (src.keys_from_delta) {
    // Base replica empty: every key is delta-only (del ⊆ base is empty).
    const TableReplica& ins = *first.ins;
    for (size_t pos = begin; pos < end && !ctx->limit_reached; ++pos) {
      ctx->bindings[first.key.var] = ins.KeyAt(pos);
      ctx->DescendMergedRun(0, {}, ins.Run(pos), {}, strategy);
    }
    return;
  }
  const TableReplica* ins = first.ins;
  const size_t ins_count = ins == nullptr ? 0 : ins->key_count();
  size_t ii = 0;
  if (begin > 0 && ins_count > 0) {
    const std::span<const TermId> ins_keys = ins->keys();
    ii = static_cast<size_t>(
        std::upper_bound(ins_keys.begin(), ins_keys.end(),
                         replica.KeyAt(begin - 1)) -
        ins_keys.begin());
  }
  for (size_t pos = begin; pos < end && !ctx->limit_reached; ++pos) {
    const TermId key = replica.KeyAt(pos);
    while (ii < ins_count && ins->KeyAt(ii) < key && !ctx->limit_reached) {
      ctx->bindings[first.key.var] = ins->KeyAt(ii);
      ctx->DescendMergedRun(0, {}, ins->Run(ii), {}, strategy);
      ++ii;
    }
    if (ctx->limit_reached) return;
    const bool merged = ii < ins_count && ins->KeyAt(ii) == key;
    ctx->bindings[first.key.var] = key;
    ctx->DescendMergedRun(0, replica.Run(pos),
                          merged ? ins->Run(ii) : std::span<const TermId>(),
                          LookupRun(first.del, key), strategy);
    if (merged) ++ii;
  }
  if (end == replica.key_count() && begin < end) {
    while (ii < ins_count && !ctx->limit_reached) {
      ctx->bindings[first.key.var] = ins->KeyAt(ii);
      ctx->DescendMergedRun(0, {}, ins->Run(ii), {}, strategy);
      ++ii;
    }
  }
}

/// Executes one shard [begin, end) of the work source.
void RunShard(const std::vector<StepInfo>& steps, const WorkSource& src,
              size_t begin, size_t end, SearchStrategy strategy,
              ShardContext* ctx) {
  // Reset the per-depth search cursors and key memos so adaptive
  // sequential-vs-binary decisions and skipped searches depend only on
  // this shard's content, never on which worker ran the previous morsel —
  // SearchCounters stay deterministic under work stealing (the
  // equivalence gates compare them across runs).
  ctx->ResetCursors();
  const StepInfo& first = steps[0];
  const TableReplica& replica = *first.replica;
  switch (src.kind) {
    case WorkSource::Kind::kEmpty:
      return;
    case WorkSource::Kind::kSingle: {
      // Fully bound first pattern: existence check of (key, value).
      const TermId value = first.value.is_constant()
                               ? first.value.constant
                               : first.key.constant;  // ?x==?x impossible here
      if (first.dirty) {
        const std::span<const TermId> base_run =
            src.base_key_present ? replica.Run(src.key_pos)
                                 : std::span<const TermId>();
        const std::span<const TermId> ins_run =
            LookupRun(first.ins, first.key.constant);
        const std::span<const TermId> del_run =
            base_run.empty() ? std::span<const TermId>()
                             : LookupRun(first.del, first.key.constant);
        ++ctx->counters.run_probes;
        if (ctx->MergedRunHas(0, base_run, ins_run, del_run, value)) {
          ctx->Descend(1, strategy);
        }
        return;
      }
      ++ctx->counters.run_probes;
      if (ctx->RunHas(0, replica.Run(src.key_pos), value)) {
        if (first.key.is_variable()) {
          ctx->bindings[first.key.var] = replica.KeyAt(src.key_pos);
        }
        ctx->Descend(1, strategy);
      }
      return;
    }
    case WorkSource::Kind::kRunRange: {
      std::span<const TermId> run =
          src.use_merged_run ? std::span<const TermId>(src.merged_run)
                             : replica.Run(src.key_pos);
      ctx->RunValues(0, run.subspan(begin, end - begin), strategy);
      return;
    }
    case WorkSource::Kind::kKeyRange: {
      if (first.dirty) {
        RunMergedKeyRange(first, src, begin, end, strategy, ctx);
        return;
      }
      for (size_t pos = begin; pos < end && !ctx->limit_reached; ++pos) {
        const TermId key = replica.KeyAt(pos);
        if (first.value_is_key_var) {
          // ?x p ?x: key scan with reflexive membership check.
          ++ctx->counters.run_probes;
          if (!ctx->RunHas(0, replica.Run(pos), key)) continue;
          ctx->bindings[first.key.var] = key;
          ctx->Descend(1, strategy);
          continue;
        }
        ctx->bindings[first.key.var] = key;
        if (first.value.is_constant()) {
          ++ctx->counters.run_probes;
          if (ctx->RunHas(0, replica.Run(pos), first.value.constant)) {
            ctx->Descend(1, strategy);
          }
          continue;
        }
        ctx->RunValues(0, replica.Run(pos), strategy);
      }
      return;
    }
  }
}

/// First-fault latch shared by a query's workers. A worker that faults
/// records its Status here; the others observe Faulted() between work
/// units and stop early, so one bad worker fails only its own query —
/// the pool threads themselves always return to the pool intact.
class FaultCollector {
 public:
  void Record(Status status) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (status_.ok()) status_ = std::move(status);
    }
    faulted_.store(true, std::memory_order_release);
  }
  bool Faulted() const { return faulted_.load(std::memory_order_relaxed); }
  Status Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

 private:
  std::atomic<bool> faulted_{false};
  std::mutex mu_;
  Status status_;
};

/// Runs one work unit with exception containment: anything thrown inside
/// (allocation failure, injected faults, logic errors surfacing as
/// exceptions) becomes a Status instead of std::terminate on a pool
/// thread.
template <typename Fn>
Status RunContained(Fn&& fn) {
  try {
    return fn();
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted("join worker: out of memory");
  } catch (const std::exception& e) {
    return Status::Internal(std::string("join worker exception: ") + e.what());
  } catch (...) {
    return Status::Internal("join worker: unknown exception");
  }
}

/// Everything an execution needs that is derived purely from (plan,
/// database, delta, options): resolved step infos, batched-probe
/// eligibility and pushed-down filters. Factored out of Execute so the
/// shared-scan pass can resolve each member plan identically.
struct ResolvedPlan {
  std::vector<StepInfo> steps;
  std::vector<uint8_t> batch_at;
  std::vector<uint8_t> intersect_at;
  bool count_leaf = false;
  std::vector<std::vector<const query::EncodedFilter*>> filters_at;
};

/// Resolves `plan` against the database and (when present) the
/// pending-write delta view. A predicate that only exists in the delta
/// (allocated after the base was built) gets an empty base replica with
/// default thresholds — every probe then falls through to the delta
/// merge paths.
Status ResolvePlan(const storage::Database& db, const mut::DeltaView* delta,
                   const Plan& plan, const ExecOptions& options,
                   ResolvedPlan* out) {
  const bool needs_index = options.strategy == SearchStrategy::kIndex ||
                           options.strategy == SearchStrategy::kAdaptiveIndex;
  static const TableReplica kEmptyReplica;
  static const ReplicaMeta kEmptyMeta;
  std::vector<StepInfo>& steps = out->steps;
  steps.reserve(plan.steps.size());
  for (const PlanStep& ps : plan.steps) {
    const storage::PropertyEntry* entry = db.FindEntry(ps.predicate);
    const mut::PropertyDelta* pending =
        delta != nullptr ? delta->Find(ps.predicate) : nullptr;
    if (entry == nullptr && pending == nullptr) {
      return Status::InvalidArgument("plan references unknown predicate " +
                                     std::to_string(ps.predicate));
    }
    StepInfo info;
    info.replica =
        entry != nullptr ? &entry->table.replica(ps.replica) : &kEmptyReplica;
    const ReplicaMeta& meta =
        entry != nullptr ? entry->meta(ps.replica) : kEmptyMeta;
    if (needs_index) {
      if (!meta.has_index && !info.replica->empty()) {
        return Status::InvalidArgument(
            "strategy requires ID-to-Position indexes, but predicate " +
            std::to_string(ps.predicate) + " has none");
      }
      info.index = &meta.id_index;
    }
    info.threshold = meta.ThresholdFor(options.strategy);
    info.gallop_cap = GallopCapForWindow(meta.window_binary);
    // Interpolation model from the key-set summary.
    const size_t key_count = info.replica->key_count();
    if (key_count > 1 && info.replica->max_key() > info.replica->min_key()) {
      info.interp_base = info.replica->min_key();
      info.interp_scale =
          static_cast<double>(key_count - 1) /
          (static_cast<double>(info.replica->max_key()) -
           static_cast<double>(info.replica->min_key()));
    }
    if (pending != nullptr) {
      info.ins = &pending->inserts.replica(ps.replica);
      info.del = &pending->deletes.replica(ps.replica);
      if (info.ins->empty()) info.ins = nullptr;
      if (info.del->empty()) info.del = nullptr;
      info.dirty = info.ins != nullptr || info.del != nullptr;
    }
    info.key = ps.key;
    info.value = ps.value;
    info.key_bound = ps.key_bound;
    info.value_bound = ps.value_bound;
    info.value_is_key_var = ps.value.is_variable() && ps.key.is_variable() &&
                            ps.value.var == ps.key.var;
    if (!steps.empty() && info.key_bound) {
      // Descend(d) runs once per tuple of step d−1's value loop; only a
      // key that loop binds can differ between consecutive calls.
      const StepInfo& prev = steps.back();
      info.key_reuse = query::KeyOutlivesLoop(
          info.key, query::LoopVariable(prev.key, prev.value, prev.value_bound));
    }
    steps.push_back(info);
  }
  PARJ_CHECK(!steps[0].key_bound || steps[0].key.is_constant())
      << "first plan step cannot have a pre-bound key variable";

  // Batched-probing eligibility per depth: the value loop at depth d may
  // batch when it feeds exactly the variable key of step d+1 (the common
  // chain shape), so stage B can mirror Descend(d+1)'s probe path
  // verbatim. Any limit makes descent order observable mid-stream, so a
  // per-shard limit disables batching outright.
  out->batch_at.assign(steps.size(), 0);
  if (options.batch_probes && options.per_shard_limit == 0) {
    for (size_t d = 0; d + 1 < steps.size(); ++d) {
      const StepInfo& cur = steps[d];
      const StepInfo& nxt = steps[d + 1];
      // A dirty next step is excluded: stage B mirrors Descend's clean
      // probe path, which a pending-write step must not take (its base
      // misses can still hit delta inserts and its hits may be deleted).
      out->batch_at[d] = cur.value.is_variable() && !cur.value_is_key_var &&
                         !cur.value_bound && nxt.key_bound &&
                         nxt.key.is_variable() && nxt.key.var == cur.value.var &&
                         !nxt.replica->empty() && !nxt.dirty;
    }
  }

  // Push every FILTER down to the earliest depth at which its variables
  // are bound; filters_at[d] is evaluated on entry to Descend(d).
  out->filters_at.assign(plan.steps.size() + 1, {});
  {
    std::vector<uint64_t> bound_after(plan.steps.size(), 0);
    uint64_t bound = 0;
    for (size_t i = 0; i < plan.steps.size(); ++i) {
      const query::PlanStep& ps = plan.steps[i];
      if (ps.key.is_variable()) bound |= uint64_t{1} << ps.key.var;
      if (ps.value.is_variable()) bound |= uint64_t{1} << ps.value.var;
      bound_after[i] = bound;
    }
    for (const query::EncodedFilter& filter : plan.filters) {
      uint64_t needed = uint64_t{1} << filter.lhs.var;
      if (filter.rhs.is_variable()) needed |= uint64_t{1} << filter.rhs.var;
      size_t depth = plan.steps.size();
      for (size_t i = 0; i < plan.steps.size(); ++i) {
        if ((bound_after[i] & needed) == needed) {
          depth = i + 1;
          break;
        }
      }
      if ((bound_after.back() & needed) != needed) {
        return Status::InvalidArgument(
            "FILTER references a variable the plan never binds");
      }
      out->filters_at[depth].push_back(&filter);
    }
  }

  // Run-at-a-time eligibility, from the plan's shape alone. Both paths
  // fold a whole run's tuples into one step, so anything that observes
  // single tuples between them — a LIMIT (the emit order and the point
  // where a shard stops), or a FILTER pushed to the fused depth — keeps
  // the per-tuple loop.
  const bool unlimited =
      options.per_shard_limit == 0 && options.limit_gate == nullptr;
  out->count_leaf = unlimited && options.mode == ResultMode::kCount &&
                    out->filters_at[steps.size()].empty();
  out->intersect_at.assign(steps.size(), 0);
  if (unlimited) {
    for (size_t d = 0; d + 1 < steps.size(); ++d) {
      const StepInfo& cur = steps[d];
      const StepInfo& nxt = steps[d + 1];
      // The value loop at d binds ?v; step d+1 checks ?v in the run of a
      // key that loop never changes. A dirty step d+1 keeps its merged
      // membership path.
      const int loop_var =
          query::LoopVariable(cur.key, cur.value, cur.value_bound);
      out->intersect_at[d] = loop_var >= 0 && nxt.key_bound &&
                             nxt.key_reuse && !nxt.dirty &&
                             nxt.value.is_variable() &&
                             nxt.value.var == loop_var &&
                             out->filters_at[d + 1].empty();
    }
  }
  return Status::OK();
}

/// One shard's private context, wired to a resolved plan. Identical
/// whether the shard serves a solo execution or one member of a shared
/// pass.
void InitShardContext(ShardContext* ctx, size_t shard,
                      const ResolvedPlan& resolved, const Plan& plan,
                      const ExecOptions& options, size_t num_shards) {
  ctx->shard_id = shard;
  ctx->visitor = &options.visitor;
  ctx->steps = &resolved.steps;
  ctx->batch_at = &resolved.batch_at;
  ctx->intersect_at = &resolved.intersect_at;
  ctx->count_leaf = resolved.count_leaf;
  ctx->filters_at = &resolved.filters_at;
  ctx->projection = &plan.projection;
  ctx->mode = options.mode;
  ctx->per_shard_limit = options.per_shard_limit;
  ctx->limit_gate = options.limit_gate;
  ctx->bindings.assign(std::max(1, plan.variable_count), kInvalidTermId);
  ctx->emit_row.assign(plan.projection.size(), 0);
  ctx->cursors.assign(resolved.steps.size(), 0);
  ctx->key_memo.assign(resolved.steps.size(), {});
  ctx->run_cursors.assign(resolved.steps.size(), {});
  ctx->merged_runs.resize(resolved.steps.size());
  ctx->step_rows.assign(resolved.steps.size(), 0);
  ctx->tracing = options.collect_probe_trace;
  if (ctx->tracing) {
    ctx->max_trace_entries = options.max_trace_entries / num_shards + 1;
    ctx->trace.resize(resolved.steps.size());
  }
  ctx->cancel = options.cancel;
  ctx->cancel_enabled = options.cancel.valid();
}

/// Validation shared by Execute and ExecuteShared.
Status ValidateExecOptions(const Plan& plan, const ExecOptions& options) {
  if (plan.steps.empty()) {
    return Status::InvalidArgument("plan has no steps");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.mode == ResultMode::kVisit && !options.visitor) {
    return Status::InvalidArgument("kVisit mode requires a visitor");
  }
  if (options.limit_gate != nullptr && options.limit_gate->limit == 0) {
    return Status::InvalidArgument("limit_gate requires limit > 0");
  }
  return Status::OK();
}

/// The work units of one execution over the first step's work source and
/// the workers that share them (DESIGN.md §8).
struct Schedule {
  std::vector<Morsel> morsels;
  size_t workers = 1;
  /// kMorsel with several workers and a divisible range. Off, the list
  /// holds one equal-count shard per worker — the paper's §3 cut — and
  /// worker w runs exactly shard w.
  bool steal = false;
};

Schedule PlanSchedule(const ExecOptions& options, const StepInfo& first,
                      const WorkSource& src) {
  Schedule schedule;
  const size_t items = src.size;
  schedule.workers = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(options.num_threads), items));
  // A fully constant first pattern is one existence check either way.
  schedule.steal = options.scheduling == Scheduling::kMorsel &&
                   schedule.workers > 1 &&
                   src.kind != WorkSource::Kind::kSingle;
  if (!schedule.steal) {
    schedule.morsels =
        MorselScheduler::EqualSplit(0, items, schedule.workers);
  } else if (src.kind == WorkSource::Kind::kKeyRange) {
    // Cost-balanced morsels: cut where the CSR offsets cross equal shares
    // of cumulative run length (prefix sums are already materialized, so
    // the split is a handful of binary searches). Delta-only key ranges
    // cut on the insert replica's CSR; the merged scan's positional
    // ownership rule keeps any cut correct either way.
    const storage::TableReplica& replica =
        src.keys_from_delta ? *first.ins : *first.replica;
    const uint64_t cost = replica.RangeCost(0, items);
    schedule.morsels = MorselScheduler::MorselsFromCuts(
        replica.CostBalancedSplit(0, items,
                                  MorselTarget(schedule.workers, items, cost)));
  } else {
    // A constant key's value run: every item costs one descent, so an
    // equal-count cut is already cost-balanced.
    schedule.morsels = MorselScheduler::EqualSplit(
        0, items, MorselTarget(schedule.workers, items, items));
  }
  return schedule;
}

/// Per-worker outcome of one RunSchedule call.
struct DriveResult {
  std::vector<MorselWorkerStats> workers;
  /// Accumulated unit time per worker. Under emulation (or with one
  /// worker) max(clocks) is the straggler model of parallel wall time.
  std::vector<double> clocks;
};

/// Runs one unit [morsel.begin, morsel.end) as `worker`; returns false
/// once that worker must claim nothing more (its limit is reached or the
/// query is cancelled).
using UnitFn = std::function<bool(size_t worker, const Morsel& morsel)>;

/// The one scheduler driver behind Execute and ExecuteShared: static and
/// morsel schedules, emulated and real, solo and shared scans. With one
/// worker or under emulation, units run on the calling thread, each
/// dispatched to the virtual worker whose accumulated clock is lowest —
/// the assignment a real dispenser run converges to. With one un-stolen
/// morsel per worker that dispatch runs shards 0..n-1 in order, which is
/// the static emulation. Otherwise the workers are a gang on the pool:
/// members start on idle pool workers via direct handoff and the caller
/// claims any member the pool cannot start, so saturation or nesting
/// degrades to fewer effective workers, never to deadlock. A faulted unit
/// fails the run with the first recorded Status; the pool itself is
/// untouched and immediately reusable.
Status RunSchedule(Schedule schedule, bool emulate, server::ThreadPool* pool,
                   const UnitFn& unit, DriveResult* out) {
  const size_t n = schedule.workers;
  MorselScheduler scheduler(std::move(schedule.morsels), n, schedule.steal);
  const char* failpoint_name =
      schedule.steal ? "join.worker.morsel" : "join.worker.shard";
  out->workers.assign(n, MorselWorkerStats());
  out->clocks.assign(n, 0.0);
  FaultCollector faults;

  // Claims and runs worker w's next unit; false once w is finished.
  auto step = [&](size_t w) {
    Morsel morsel;
    bool stolen = false;
    if (!scheduler.Next(w, &morsel, &stolen)) return false;
    bool more = true;
    Stopwatch timer;
    const Status status = RunContained([&]() -> Status {
      PARJ_RETURN_NOT_OK(failpoint::Check(failpoint_name));
      more = unit(w, morsel);
      return Status::OK();
    });
    if (!status.ok()) {
      faults.Record(status);
      return false;
    }
    out->clocks[w] += timer.ElapsedMillis();
    MorselWorkerStats& stats = out->workers[w];
    ++stats.morsels;
    if (stolen) ++stats.stolen;
    stats.items += morsel.size();
    return more;
  };

  if (n == 1 || emulate) {
    std::vector<bool> drained(n, false);
    size_t active = n;
    while (active > 0 && !faults.Faulted()) {
      size_t w = SIZE_MAX;
      for (size_t i = 0; i < n; ++i) {
        if (!drained[i] && (w == SIZE_MAX || out->clocks[i] < out->clocks[w])) {
          w = i;
        }
      }
      if (!step(w)) {
        drained[w] = true;
        --active;
      }
    }
  } else {
    server::ThreadPool& gang_pool =
        pool != nullptr ? *pool : server::ThreadPool::Shared();
    gang_pool.RunWorkers(static_cast<int>(n), [&](int w) {
      while (!faults.Faulted() && step(static_cast<size_t>(w))) {
      }
    });
  }
  return faults.Faulted() ? faults.Take() : Status::OK();
}

/// Merges per-shard buffers into `result` in shard order — the only
/// post-processing step; during the join there is no cross-thread
/// traffic.
void MergeShards(const ExecOptions& options, size_t step_count,
                 const std::vector<ShardContext>& contexts,
                 ExecResult* result) {
  result->step_rows.assign(step_count, 0);
  for (const ShardContext& ctx : contexts) {
    result->row_count += ctx.row_count;
    result->rows_skipped_by_limit += ctx.rows_skipped;
    result->counters.Add(ctx.counters);
    for (size_t s = 0; s < step_count; ++s) {
      result->step_rows[s] += ctx.step_rows[s];
    }
    if (options.mode == ResultMode::kMaterialize) {
      result->rows.insert(result->rows.end(), ctx.rows.begin(),
                          ctx.rows.end());
    }
  }
  if (options.collect_probe_trace) {
    result->trace.step_values.resize(step_count);
    for (const ShardContext& ctx : contexts) {
      for (size_t s = 0; s < ctx.trace.size(); ++s) {
        auto& dst = result->trace.step_values[s];
        dst.insert(dst.end(), ctx.trace[s].begin(), ctx.trace[s].end());
      }
    }
  }
}

}  // namespace

Result<ExecResult> Executor::Execute(const Plan& plan,
                                     const ExecOptions& options) const {
  ExecResult result;
  result.column_count = plan.projection.size();
  if (plan.known_empty) return result;
  PARJ_RETURN_NOT_OK(ValidateExecOptions(plan, options));
  // Admission check: an already-cancelled token (e.g. an expired
  // deadline) stops the query before any work happens.
  if (options.cancel.StopRequested()) return options.cancel.ToStatus();

  ResolvedPlan resolved;
  PARJ_RETURN_NOT_OK(ResolvePlan(*db_, delta_, plan, options, &resolved));
  std::vector<StepInfo>& steps = resolved.steps;

  Stopwatch total_timer;
  const WorkSource src = ResolveWorkSource(steps[0]);
  if (src.kind == WorkSource::Kind::kEmpty) {
    result.wall_millis = total_timer.ElapsedMillis();
    return result;
  }

  Schedule schedule = PlanSchedule(options, steps[0], src);
  const size_t num_shards = schedule.workers;
  const bool morsel_run = schedule.steal;
  std::vector<ShardContext> contexts(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    InitShardContext(&contexts[shard], shard, resolved, plan, options,
                     num_shards);
  }

  DriveResult drive;
  PARJ_RETURN_NOT_OK(RunSchedule(
      std::move(schedule), options.emulate_parallel, options.pool,
      [&](size_t w, const Morsel& morsel) {
        ShardContext& ctx = contexts[w];
        RunShard(steps, src, morsel.begin, morsel.end, options.strategy,
                 &ctx);
        return !ctx.limit_reached;
      },
      &drive));

  // A cancelled query reports its Status instead of partial results.
  if (options.cancel.StopRequested()) return options.cancel.ToStatus();

  if (morsel_run) {
    for (size_t w = 0; w < num_shards; ++w) {
      drive.workers[w].rows = contexts[w].row_count;
    }
    result.morsel_workers = std::move(drive.workers);
  }
  if (options.emulate_parallel || num_shards == 1) {
    result.emulated_parallel_millis =
        *std::max_element(drive.clocks.begin(), drive.clocks.end());
    result.shard_millis = std::move(drive.clocks);
  }
  MergeShards(options, steps.size(), contexts, &result);
  result.wall_millis = total_timer.ElapsedMillis();
  return result;
}

Result<std::vector<ExecResult>> Executor::ExecuteShared(
    std::span<const query::Plan* const> plans,
    std::span<const ExecOptions> options) const {
  if (plans.empty() || plans.size() != options.size()) {
    return Status::InvalidArgument(
        "ExecuteShared needs matching, non-empty plan/options spans");
  }
  const size_t n = plans.size();
  for (size_t m = 0; m < n; ++m) {
    const Plan& plan = *plans[m];
    const ExecOptions& opt = options[m];
    if (plan.known_empty) {
      return Status::InvalidArgument("shared-scan member is known empty");
    }
    PARJ_RETURN_NOT_OK(ValidateExecOptions(plan, opt));
    if (opt.mode == ResultMode::kVisit || opt.emulate_parallel ||
        opt.collect_probe_trace || opt.limit_gate != nullptr) {
      return Status::InvalidArgument(
          "shared-scan members cannot use kVisit, emulation, probe tracing "
          "or a LIMIT gate");
    }
    const PlanStep& first = plan.steps[0];
    if (!first.key.is_variable() || first.key_bound ||
        !first.value.is_variable() || first.value_bound) {
      return Status::InvalidArgument(
          "shared-scan members must start with an unbound variable scan");
    }
    if (first.predicate != plans[0]->steps[0].predicate ||
        first.replica != plans[0]->steps[0].replica) {
      return Status::InvalidArgument(
          "shared-scan members must share the leading predicate and replica");
    }
    // Admission check, exactly like Execute's.
    if (opt.cancel.StopRequested()) return opt.cancel.ToStatus();
  }
  const ExecOptions& lead = options[0];

  std::vector<ExecResult> results(n);
  for (size_t m = 0; m < n; ++m) {
    results[m].column_count = plans[m]->projection.size();
  }

  // Resolve every member against the same database/delta. Identical
  // leading (predicate, replica) across members means identical step-0
  // pointers, so member 0's WorkSource and cuts serve the whole group.
  std::vector<ResolvedPlan> resolved(n);
  for (size_t m = 0; m < n; ++m) {
    PARJ_RETURN_NOT_OK(
        ResolvePlan(*db_, delta_, *plans[m], options[m], &resolved[m]));
  }

  Stopwatch total_timer;
  const WorkSource src = ResolveWorkSource(resolved[0].steps[0]);
  if (src.kind == WorkSource::Kind::kEmpty) {
    const double wall = total_timer.ElapsedMillis();
    for (ExecResult& result : results) result.wall_millis = wall;
    return results;
  }
  // An unbound variable first key always shards the key array.
  PARJ_CHECK(src.kind == WorkSource::Kind::kKeyRange)
      << "shared scan over a non-key-range work source";

  // The same cuts a solo run of any member would make: the shared leading
  // replica's CSR is the cost model for all of them.
  Schedule schedule = PlanSchedule(lead, resolved[0].steps[0], src);
  const size_t num_shards = schedule.workers;

  // Fully private per-member, per-shard contexts: within a cut each
  // member runs the exact solo pipeline — no cross-member state at all,
  // the sharing is purely that one cut schedule drives all members.
  std::vector<std::vector<ShardContext>> contexts(n);
  for (size_t m = 0; m < n; ++m) {
    contexts[m].resize(num_shards);
    for (size_t shard = 0; shard < num_shards; ++shard) {
      InitShardContext(&contexts[m][shard], shard, resolved[m], *plans[m],
                       options[m], num_shards);
    }
  }

  // Any member's fault or cancellation fails the whole group; the caller
  // degrades to solo execution per member.
  DriveResult drive;
  PARJ_RETURN_NOT_OK(RunSchedule(
      std::move(schedule), lead.emulate_parallel, lead.pool,
      [&](size_t w, const Morsel& morsel) {
        for (size_t m = 0; m < n; ++m) {
          ShardContext& ctx = contexts[m][w];
          if (ctx.limit_reached) continue;
          RunShard(resolved[m].steps, src, morsel.begin, morsel.end,
                   options[m].strategy, &ctx);
        }
        return true;
      },
      &drive));
  for (size_t m = 0; m < n; ++m) {
    if (options[m].cancel.StopRequested()) {
      return options[m].cancel.ToStatus();
    }
  }

  const double wall = total_timer.ElapsedMillis();
  for (size_t m = 0; m < n; ++m) {
    MergeShards(options[m], resolved[m].steps.size(), contexts[m],
                &results[m]);
    results[m].wall_millis = wall;
  }
  return results;
}

}  // namespace parj::join
