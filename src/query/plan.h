#ifndef PARJ_QUERY_PLAN_H_
#define PARJ_QUERY_PLAN_H_

#include <string>
#include <vector>

#include "query/algebra.h"
#include "storage/database.h"

namespace parj::query {

/// One position in a left-deep join pipeline. Each step evaluates one
/// triple pattern against one replica of its property table; the replica's
/// key column is the access path (scanned for the first step, searched for
/// probe steps), the value column yields the partner run.
struct PlanStep {
  int pattern_index = -1;
  PredicateId predicate = kInvalidPredicateId;
  storage::ReplicaKind replica = storage::ReplicaKind::kSO;

  /// The pattern slot in the replica's key role (subject for S-O).
  PatternTerm key;
  /// The pattern slot in the replica's value role.
  PatternTerm value;

  /// Whether key/value are bound (by a constant or an earlier step) when
  /// this step runs. An unbound key means a full key scan (only sensible
  /// for the first step or a cartesian continuation).
  bool key_bound = false;
  bool value_bound = false;

  /// Optimizer estimates, kept for EXPLAIN output and tests.
  double estimated_rows = 0.0;
  double estimated_cost = 0.0;
};

/// The variable whose values a step's value loop enumerates: the value
/// variable, unless it is bound before the step (`value_bound`) or is the
/// key variable itself, when the step only checks membership. -1 when the
/// step has no value loop.
int LoopVariable(const PatternTerm& key, const PatternTerm& value,
                 bool value_bound);

/// Whether a probe step's bound `key` stays fixed while the step before it
/// runs its value loop over `prev_loop_var` (that step's LoopVariable).
/// The executor then searches the key once per key value, not once per
/// tuple (key_reuse), and the optimizer costs the step the same way.
bool KeyOutlivesLoop(const PatternTerm& key, int prev_loop_var);

/// A complete left-deep plan: the executor runs steps in order, sharding
/// the first step's key range (or value run) across threads.
struct Plan {
  std::vector<PlanStep> steps;
  /// FILTER constraints, evaluated by the executor as soon as all their
  /// variables are bound (pushed down to the earliest pipeline position).
  std::vector<EncodedFilter> filters;
  int variable_count = 0;
  std::vector<std::string> var_names;
  std::vector<int> projection;
  bool distinct = false;
  uint64_t limit = 0;
  /// Aggregation spec (GROUP BY / COUNT / SUM / MIN / MAX); when enabled,
  /// `projection` describes the executor-row feed, not the result columns
  /// (see AggregateSpec).
  AggregateSpec aggregate;
  /// ORDER BY keys over the result columns; empty = engine order.
  std::vector<OrderKey> order_by;
  /// TermId -> numeric value table for SUM/MIN/MAX, from EncodedQuery.
  /// Epoch-bound (overlay IDs can grow within a plan generation): plans
  /// carrying it must never enter the plan cache.
  std::shared_ptr<const std::vector<double>> numeric_values;
  /// Result is known empty (absent constant); steps may be empty.
  bool known_empty = false;
  /// Total optimizer cost estimate.
  double total_cost = 0.0;

  /// Human-readable EXPLAIN rendering.
  std::string ToString() const;
};

}  // namespace parj::query

#endif  // PARJ_QUERY_PLAN_H_
