#ifndef PARJ_QUERY_OPTIMIZER_H_
#define PARJ_QUERY_OPTIMIZER_H_

#include <vector>

#include "common/status.h"
#include "query/algebra.h"
#include "query/plan.h"
#include "storage/database.h"

namespace parj::mut {
class DeltaView;
}  // namespace parj::mut

namespace parj::query {

struct OptimizerOptions {
  /// Exact bottom-up DP is used up to this many patterns; beyond it the
  /// optimizer falls back to greedy extension.
  size_t dp_max_patterns = 14;
  /// When non-empty, bypass join ordering: patterns are planned in exactly
  /// this order (indices into EncodedQuery::patterns); replicas are still
  /// chosen per step. Used by tests and ablation benchmarks.
  std::vector<int> forced_order;
};

/// Produces a left-deep plan for `query` (paper §4.3): bottom-up dynamic
/// programming over left-deep orders, centralized cost model (parallelism
/// deliberately ignored — the paper assumes a fixed speedup factor for
/// every order), per-step replica selection, selectivity from per-replica
/// average run lengths plus pairwise join cardinalities (used whenever
/// `db.has_pair_stats()`). A join on a variable bound to one constant run
/// is estimated from up to 64 samples of that run instead; a probe whose key
/// outlives the previous step's value loop is charged a search per key
/// value, not per tuple, as the executor runs it (KeyOutlivesLoop).
///
/// `delta` (optional) is the pending-write view the executor will merge
/// with `db`: predicates absent from the base but present in the delta
/// plan against the delta's insert table (exact — a delta-only predicate
/// can have no deletes), instead of being costed as empty. Estimates for
/// predicates that exist in the base deliberately ignore their pending
/// writes; deltas are small next to the base by construction.
Result<Plan> Optimize(const EncodedQuery& query, const storage::Database& db,
                      const OptimizerOptions& options = {},
                      const mut::DeltaView* delta = nullptr);

}  // namespace parj::query

#endif  // PARJ_QUERY_OPTIMIZER_H_
