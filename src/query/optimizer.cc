#include "query/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "mutable/delta_view.h"

namespace parj::query {

namespace {

using storage::Database;
using storage::PropertyEntry;
using storage::ReplicaKind;
using storage::Role;
using storage::TableReplica;

constexpr double kCartesianPenalty = 1e9;
constexpr double kInfCost = std::numeric_limits<double>::infinity();

Role KeyRole(ReplicaKind kind) {
  return kind == ReplicaKind::kSO ? Role::kSubject : Role::kObject;
}
Role ValueRole(ReplicaKind kind) {
  return kind == ReplicaKind::kSO ? Role::kObject : Role::kSubject;
}
ReplicaKind OtherReplica(ReplicaKind kind) {
  return kind == ReplicaKind::kSO ? ReplicaKind::kOS : ReplicaKind::kSO;
}

double Log2Clamped(double x) { return std::log2(std::max(2.0, x)); }

/// Optimizer-side knowledge about a bound variable.
struct VarEstimate {
  double distinct = 1.0;
  /// The property column that first bound the variable, for pairwise-stat
  /// lookups.
  PredicateId prov_pred = kInvalidPredicateId;
  Role prov_role = Role::kSubject;
  /// True when the pipeline enumerates this variable in globally ascending
  /// order (the first step's key variable, or the value variable of a
  /// constant-key first step) — probes keyed on it behave like merge scans.
  bool globally_sorted = false;
  /// Set when a step with a constant key or value bound the variable: the
  /// replica and key position of the run that holds exactly its values.
  /// Joins on the variable are then estimated by probing samples of that
  /// run (EstimateJoin) instead of through the whole column's pair stat.
  const TableReplica* run_replica = nullptr;
  size_t run_pos = 0;
  /// How many times the pipeline binds the variable: the tuples of the
  /// step that binds it. A probe keyed on it that reuses its search
  /// (KeyOutlivesLoop) searches at most this often.
  double rebinds = 1.0;
};
// Every DP extension copies a PlanState; a trivially copyable VarEstimate
// keeps that to one allocation per state.
static_assert(std::is_trivially_copyable_v<VarEstimate>);

struct PlanState {
  double cost = 0.0;
  double card = 1.0;
  uint32_t pattern_mask = 0;
  uint64_t bound_vars = 0;
  std::vector<VarEstimate> vars;
  std::vector<std::pair<int, ReplicaKind>> order;
  /// The last step's LoopVariable: a following probe keyed on any other
  /// variable reuses its search while the key stays the same.
  int loop_var = -1;

  bool IsVarBound(int v) const { return (bound_vars >> v) & 1; }
};

struct StepOutcome {
  bool feasible = false;
  double step_cost = 0.0;
  double new_card = 0.0;
  PlanState next;
};

class PlannerContext {
 public:
  PlannerContext(const EncodedQuery& query, const Database& db,
                 const mut::DeltaView* delta)
      : query_(query), db_(db), delta_(delta) {}

  /// Evaluates appending `pattern_idx` with `kind` to `state`.
  StepOutcome EvaluateStep(const PlanState& state, int pattern_idx,
                           ReplicaKind kind) const {
    StepOutcome out;
    const EncodedPattern& pat = query_.patterns[pattern_idx];
    const PropertyEntry* entry = db_.FindEntry(pat.predicate);
    const storage::PropertyTable* table =
        entry != nullptr ? &entry->table : nullptr;
    if (table == nullptr && delta_ != nullptr) {
      // Delta-only predicate: plan over the pending inserts. Exact, not an
      // approximation — a predicate absent from the base cannot have
      // deletes (del ⊆ base), so the insert table IS the merged table.
      const mut::PropertyDelta* pending = delta_->Find(pat.predicate);
      if (pending != nullptr) table = &pending->inserts;
    }
    if (table == nullptr) return out;  // absent predicate: planner skips
    const TableReplica& replica = table->replica(kind);
    const TableReplica& other = table->replica(OtherReplica(kind));

    const PatternTerm& key = pat.slot(KeyRole(kind));
    const PatternTerm& value = pat.slot(ValueRole(kind));

    const double num_keys = static_cast<double>(replica.key_count());
    const double num_pairs = static_cast<double>(replica.pair_count());
    const double num_values = static_cast<double>(other.key_count());
    out.next = state;
    PlanState& next = out.next;
    next.pattern_mask |= 1u << pattern_idx;
    next.order.emplace_back(pattern_idx, kind);

    const bool first = state.order.empty();
    double step_cost = 0.0;
    double card = state.card;

    const bool key_const = key.is_constant();
    const bool key_bound_var = key.is_variable() && state.IsVarBound(key.var);
    const bool value_const = value.is_constant();
    const bool value_is_key_var =
        value.is_variable() && key.is_variable() && value.var == key.var;
    const bool value_bound_var = value.is_variable() && !value_is_key_var &&
                                 state.IsVarBound(value.var);
    next.loop_var = LoopVariable(key, value, value_const || value_bound_var);

    if (replica.empty()) {
      out.feasible = true;
      out.new_card = 0.0;
      out.step_cost = 1.0;
      next.cost += 1.0;
      next.card = 0.0;
      MarkBound(&next, key, 1.0, pat.predicate, KeyRole(kind), false);
      MarkBound(&next, value, 1.0, pat.predicate, ValueRole(kind), false);
      return out;
    }

    if (key_const) {
      // Exact: the planner can afford one binary search per candidate.
      const size_t pos = replica.FindKey(key.constant);
      const double run_len =
          pos == SIZE_MAX ? 0.0 : static_cast<double>(replica.RunLength(pos));
      double per_tuple_matches;
      double value_distinct = 1.0;
      if (value_const) {
        const bool hit =
            pos != SIZE_MAX && replica.RunContains(pos, value.constant);
        per_tuple_matches = hit ? 1.0 : 0.0;
      } else if (value_is_key_var) {
        per_tuple_matches = run_len > 0 ? 1.0 : 0.0;  // checked exactly later
      } else if (value_bound_var) {
        const double dv = std::max(1.0, state.vars[value.var].distinct);
        per_tuple_matches = std::min(1.0, run_len / dv);
      } else {
        per_tuple_matches = run_len;
        value_distinct = std::max(1.0, run_len);
      }
      step_cost = Log2Clamped(num_keys) + card * (1.0 + per_tuple_matches);
      card *= per_tuple_matches;
      MarkBound(&next, value, value_distinct, pat.predicate, ValueRole(kind),
                /*sorted=*/first, pos != SIZE_MAX ? &replica : nullptr, pos);
    } else if (key_bound_var) {
      const VarEstimate& kv = state.vars[key.var];
      double hit_fraction;
      double avg_run_hit;
      const index::IdPositionIndex* key_index =
          entry != nullptr && entry->meta(kind).has_index
              ? &entry->meta(kind).id_index
              : nullptr;
      EstimateJoin(kv, pat.predicate, KeyRole(kind), replica, key_index,
                   &hit_fraction, &avg_run_hit);
      double per_probe_matches;
      double value_distinct = 1.0;
      if (value_const) {
        per_probe_matches =
            hit_fraction * std::min(1.0, avg_run_hit / std::max(1.0, num_values));
      } else if (value_is_key_var) {
        per_probe_matches =
            hit_fraction * std::min(1.0, avg_run_hit / std::max(1.0, num_values));
      } else if (value_bound_var) {
        const double dv = std::max(1.0, state.vars[value.var].distinct);
        per_probe_matches = hit_fraction * std::min(1.0, avg_run_hit / dv);
      } else {
        per_probe_matches = hit_fraction * avg_run_hit;
        value_distinct = std::min(std::max(1.0, card * per_probe_matches),
                                  std::max(1.0, num_values));
      }
      // A key that outlives the previous step's value loop is searched
      // once per value it takes (the executor's key_reuse); each tuple
      // still pays its memo hit and run check.
      const bool reuse = !first && KeyOutlivesLoop(key, state.loop_var);
      const double searches = reuse ? std::min(card, kv.rebinds) : card;
      const double search_cost = kv.globally_sorted
                                     ? searches + num_keys
                                     : searches * Log2Clamped(num_keys);
      step_cost = search_cost + (reuse ? card : 0.0) + card * per_probe_matches;
      card *= per_probe_matches;
      // The key variable's surviving distinct values shrink by the hit
      // fraction.
      next.vars[key.var].distinct =
          std::max(1.0, next.vars[key.var].distinct * hit_fraction);
      MarkBound(&next, value, value_distinct, pat.predicate, ValueRole(kind),
                /*sorted=*/false);
    } else {
      // Unbound key: full key scan. For a non-first step this is a
      // cartesian continuation unless the value side is bound.
      std::pair<const TableReplica*, size_t> key_run{nullptr, 0};
      double scan_matches;
      double key_distinct = num_keys;
      double value_distinct = 1.0;
      if (value_const) {
        const size_t vpos = other.FindKey(value.constant);
        const double vrun =
            vpos == SIZE_MAX ? 0.0
                             : static_cast<double>(other.RunLength(vpos));
        scan_matches = vrun;
        key_distinct = std::max(1.0, vrun);
        if (vpos != SIZE_MAX) key_run = {&other, vpos};
      } else if (value_is_key_var) {
        scan_matches = num_pairs / std::max(1.0, num_values);  // ?x p ?x
      } else if (value_bound_var) {
        const double dv = std::max(1.0, state.vars[value.var].distinct);
        scan_matches = num_pairs *
                       std::min(1.0, dv / std::max(1.0, num_values)) /
                       std::max(1.0, dv);
        key_distinct = std::min(num_keys, std::max(1.0, card * scan_matches));
      } else {
        scan_matches = num_pairs;
        value_distinct = num_values;
      }
      step_cost = (num_keys + num_pairs) * std::max(1.0, card);
      const bool connected = value_bound_var;
      if (!first && !connected) step_cost *= kCartesianPenalty;
      card *= scan_matches;
      MarkBound(&next, key, key_distinct, pat.predicate, KeyRole(kind),
                /*sorted=*/first, key_run.first, key_run.second);
      MarkBound(&next, value, value_distinct, pat.predicate, ValueRole(kind),
                /*sorted=*/false);
    }

    // A variable this step binds takes a new value once per tuple it
    // emits; a first step's key variable once per key it visits.
    for (uint64_t fresh = next.bound_vars & ~state.bound_vars; fresh != 0;
         fresh &= fresh - 1) {
      next.vars[std::countr_zero(fresh)].rebinds = std::max(1.0, card);
    }
    if (first && key.is_variable()) {
      VarEstimate& kv = next.vars[key.var];
      kv.rebinds = std::min(kv.rebinds, std::max(1.0, kv.distinct));
    }

    out.feasible = true;
    out.step_cost = step_cost;
    out.new_card = card;
    next.cost = state.cost + step_cost;
    next.card = card;
    return out;
  }

  /// Builds the final Plan from a completed state.
  Plan FinalizePlan(const PlanState& state) const {
    Plan plan;
    plan.filters = query_.filters;
    plan.variable_count = query_.variable_count;
    plan.var_names = query_.var_names;
    plan.projection = query_.projection;
    plan.distinct = query_.distinct;
    plan.limit = query_.limit;
    plan.aggregate = query_.aggregate;
    plan.order_by = query_.order_by;
    plan.numeric_values = query_.numeric_values;
    plan.total_cost = state.cost;

    uint64_t bound = 0;
    for (const auto& [idx, kind] : state.order) {
      const EncodedPattern& pat = query_.patterns[idx];
      PlanStep step;
      step.pattern_index = idx;
      step.predicate = pat.predicate;
      step.replica = kind;
      step.key = pat.slot(KeyRole(kind));
      step.value = pat.slot(ValueRole(kind));
      step.key_bound = step.key.is_constant() ||
                       ((bound >> step.key.var) & 1);
      step.value_bound =
          step.value.is_constant() ||
          (step.value.is_variable() &&
           (((bound >> step.value.var) & 1) ||
            (step.key.is_variable() && step.value.var == step.key.var)));
      if (step.key.is_variable()) bound |= uint64_t{1} << step.key.var;
      if (step.value.is_variable()) bound |= uint64_t{1} << step.value.var;
      plan.steps.push_back(step);
    }
    // Re-derive per-step estimates for EXPLAIN by replaying the cost model.
    PlanState replay = MakeInitialState();
    for (size_t i = 0; i < state.order.size(); ++i) {
      StepOutcome o =
          EvaluateStep(replay, state.order[i].first, state.order[i].second);
      plan.steps[i].estimated_cost = o.step_cost;
      plan.steps[i].estimated_rows = o.new_card;
      replay = std::move(o.next);
    }
    return plan;
  }

  PlanState MakeInitialState() const {
    PlanState s;
    s.vars.assign(query_.variable_count, VarEstimate{});
    return s;
  }

 private:
  /// Records a newly bound variable. `run_replica` (optional) names the
  /// constant run, at `run_pos`, that holds exactly its values.
  void MarkBound(PlanState* state, const PatternTerm& term, double distinct,
                 PredicateId pred, Role role, bool sorted,
                 const TableReplica* run_replica = nullptr,
                 size_t run_pos = 0) const {
    if (!term.is_variable()) return;
    if (state->IsVarBound(term.var)) return;
    state->bound_vars |= uint64_t{1} << term.var;
    VarEstimate& v = state->vars[term.var];
    v.distinct = std::max(1.0, distinct);
    v.prov_pred = pred;
    v.prov_role = role;
    v.globally_sorted = sorted;
    v.run_replica = run_replica;
    v.run_pos = run_pos;
  }

  /// How a run's values meet a target key array: the fraction found, and
  /// the average run length of those found.
  struct RunSample {
    double hit_fraction = 0.0;
    double avg_run_hit = 0.0;
  };

  /// Probes up to 64 evenly spaced values of the run at `run_pos` in
  /// `run_replica` against the key array of `target`, through its ID
  /// index when it has one (`target_index`, else null). A run no longer
  /// than the sample is measured exactly. Memoized per (run, target) for
  /// the planner's lifetime, i.e. one Optimize call.
  RunSample SampleRun(const TableReplica& run_replica, size_t run_pos,
                      const TableReplica& target,
                      const index::IdPositionIndex* target_index) const {
    for (const RunSampleMemo& m : run_samples_) {
      if (m.run_replica == &run_replica && m.run_pos == run_pos &&
          m.target == &target) {
        return m.sample;
      }
    }
    constexpr size_t kRunSamples = 64;
    const std::span<const TermId> run = run_replica.Run(run_pos);
    const size_t samples = std::min(run.size(), kRunSamples);
    size_t hits = 0;
    double hit_pairs = 0.0;
    for (size_t i = 0; i < samples; ++i) {
      const TermId value = run[i * run.size() / samples];
      const size_t pos = target_index != nullptr ? target_index->Find(value)
                                                 : target.FindKey(value);
      if (pos == SIZE_MAX) continue;
      ++hits;
      hit_pairs += static_cast<double>(target.RunLength(pos));
    }
    RunSample sample;
    if (hits > 0) {
      sample.hit_fraction = static_cast<double>(hits) / samples;
      sample.avg_run_hit = hit_pairs / hits;
    } else if (samples < run.size()) {
      // No sampled value hit, but unsampled ones may: assume half a hit.
      sample.hit_fraction = 0.5 / samples;
      sample.avg_run_hit = target.AverageRunLength();
    }
    run_samples_.push_back({&run_replica, run_pos, &target, sample});
    return sample;
  }

  /// Estimates, for probing `replica` (the `role`-keyed replica of
  /// `pred`) with values of a variable described by `kv`:
  ///   hit_fraction  P(probe value occurs in the key array)
  ///   avg_run_hit   average run length over hits
  /// `key_index` is the replica's ID index, or null when it has none.
  void EstimateJoin(const VarEstimate& kv, PredicateId pred, Role role,
                    const TableReplica& replica,
                    const index::IdPositionIndex* key_index,
                    double* hit_fraction, double* avg_run_hit) const {
    const double num_keys = static_cast<double>(replica.key_count());
    const double avg_run = replica.AverageRunLength();
    if (kv.run_replica != nullptr) {
      const RunSample sample =
          SampleRun(*kv.run_replica, kv.run_pos, replica, key_index);
      *hit_fraction = sample.hit_fraction;
      *avg_run_hit = sample.avg_run_hit;
      return;
    }
    if (kv.prov_pred != kInvalidPredicateId) {
      auto stat = db_.GetPairStat(kv.prov_pred, kv.prov_role, pred, role);
      if (stat.has_value() && stat->intersection > 0) {
        const double prov_keys = static_cast<double>(
            db_.entry(kv.prov_pred)
                .table.replica(storage::ReplicaForKeyRole(kv.prov_role))
                .key_count());
        *hit_fraction = std::min(
            1.0, static_cast<double>(stat->intersection) /
                     std::max(1.0, prov_keys));
        *avg_run_hit = static_cast<double>(stat->pairs_right) /
                       static_cast<double>(stat->intersection);
        return;
      }
      if (stat.has_value()) {
        // Precisely known to be disjoint.
        *hit_fraction = 0.0;
        *avg_run_hit = 0.0;
        return;
      }
    }
    // Containment-style fallback.
    const double d = std::max(1.0, kv.distinct);
    *hit_fraction = std::min(1.0, 0.8 * std::min(d, num_keys) / d);
    *avg_run_hit = avg_run;
  }

  const EncodedQuery& query_;
  const Database& db_;
  const mut::DeltaView* delta_;
  struct RunSampleMemo {
    const TableReplica* run_replica;
    size_t run_pos;
    const TableReplica* target;
    RunSample sample;
  };
  mutable std::vector<RunSampleMemo> run_samples_;
};

Result<Plan> OptimizeForced(const PlannerContext& ctx,
                            const EncodedQuery& query,
                            const std::vector<int>& order) {
  if (order.size() != query.patterns.size()) {
    return Status::InvalidArgument("forced_order size mismatch");
  }
  PlanState state = ctx.MakeInitialState();
  for (int idx : order) {
    if (idx < 0 || idx >= static_cast<int>(query.patterns.size())) {
      return Status::InvalidArgument("forced_order index out of range");
    }
    if ((state.pattern_mask >> idx) & 1) {
      return Status::InvalidArgument("forced_order repeats a pattern");
    }
    StepOutcome best;
    best.step_cost = kInfCost;
    for (ReplicaKind kind :
         {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS}) {
      StepOutcome o = ctx.EvaluateStep(state, idx, kind);
      if (o.feasible && o.step_cost < best.step_cost) best = std::move(o);
    }
    if (!best.feasible) {
      return Status::Internal("no feasible replica for forced step");
    }
    state = std::move(best.next);
  }
  return ctx.FinalizePlan(state);
}

Result<Plan> OptimizeGreedy(const PlannerContext& ctx,
                            const EncodedQuery& query) {
  PlanState state = ctx.MakeInitialState();
  const size_t n = query.patterns.size();
  for (size_t step = 0; step < n; ++step) {
    double best_cost = kInfCost;
    StepOutcome best;
    for (size_t idx = 0; idx < n; ++idx) {
      if ((state.pattern_mask >> idx) & 1) continue;
      for (ReplicaKind kind :
           {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS}) {
        StepOutcome o = ctx.EvaluateStep(state, static_cast<int>(idx), kind);
        if (o.feasible && o.next.cost < best_cost) {
          best_cost = o.next.cost;
          best = std::move(o);
        }
      }
    }
    if (!best.feasible) {
      return Status::Internal("greedy planner found no feasible step");
    }
    state = std::move(best.next);
  }
  return ctx.FinalizePlan(state);
}

Result<Plan> OptimizeDp(const PlannerContext& ctx, const EncodedQuery& query) {
  const size_t n = query.patterns.size();
  std::unordered_map<uint32_t, PlanState> dp;
  dp.emplace(0u, ctx.MakeInitialState());

  // Process states in increasing subset size (left-deep Selinger DP).
  std::vector<std::vector<uint32_t>> by_size(n + 1);
  by_size[0].push_back(0);
  for (size_t size = 0; size < n; ++size) {
    for (uint32_t mask : by_size[size]) {
      auto it = dp.find(mask);
      if (it == dp.end()) continue;
      // Copy: EvaluateStep keeps a reference into dp while dp may rehash.
      PlanState state = it->second;
      for (size_t idx = 0; idx < n; ++idx) {
        if ((mask >> idx) & 1) continue;
        for (ReplicaKind kind :
             {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS}) {
          StepOutcome o = ctx.EvaluateStep(state, static_cast<int>(idx), kind);
          if (!o.feasible) continue;
          const uint32_t new_mask = mask | (1u << idx);
          auto [slot, inserted] = dp.try_emplace(new_mask);
          if (inserted) {
            by_size[size + 1].push_back(new_mask);
            slot->second = std::move(o.next);
          } else if (o.next.cost < slot->second.cost) {
            slot->second = std::move(o.next);
          }
        }
      }
    }
  }

  const uint32_t full = n == 32 ? 0xffffffffu : ((1u << n) - 1);
  auto it = dp.find(full);
  if (it == dp.end()) {
    return Status::Internal("DP planner failed to cover all patterns");
  }
  return ctx.FinalizePlan(it->second);
}

}  // namespace

Result<Plan> Optimize(const EncodedQuery& query, const Database& db,
                      const OptimizerOptions& options,
                      const mut::DeltaView* delta) {
  if (query.patterns.empty()) {
    return Status::InvalidArgument("cannot plan a query with no patterns");
  }
  if (query.patterns.size() > 32) {
    return Status::Unsupported("queries with more than 32 patterns");
  }
  if (query.variable_count > 64) {
    return Status::Unsupported("queries with more than 64 variables");
  }
  if (query.known_empty) {
    Plan plan;
    plan.known_empty = true;
    plan.variable_count = query.variable_count;
    plan.var_names = query.var_names;
    plan.projection = query.projection;
    plan.distinct = query.distinct;
    plan.limit = query.limit;
    plan.aggregate = query.aggregate;
    plan.order_by = query.order_by;
    plan.numeric_values = query.numeric_values;
    return plan;
  }
  PlannerContext ctx(query, db, delta);
  if (!options.forced_order.empty()) {
    return OptimizeForced(ctx, query, options.forced_order);
  }
  if (query.patterns.size() > options.dp_max_patterns) {
    return OptimizeGreedy(ctx, query);
  }
  return OptimizeDp(ctx, query);
}

}  // namespace parj::query
