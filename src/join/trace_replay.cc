#include "join/trace_replay.h"

#include "sim/instrumented_memory.h"

namespace parj::join {

Result<ReplayStats> ReplaySearchTrace(const storage::Database& db,
                                      const query::Plan& plan,
                                      const ProbeTrace& trace,
                                      SearchStrategy strategy,
                                      const sim::CacheHierarchyConfig& config) {
  if (trace.step_values.size() != plan.steps.size()) {
    return Status::InvalidArgument(
        "trace step count does not match plan step count");
  }
  const bool needs_index = strategy == SearchStrategy::kIndex ||
                           strategy == SearchStrategy::kAdaptiveIndex;

  ReplayStats stats;
  sim::CacheHierarchy cache(config);
  sim::InstrumentedMemory mem{&cache};

  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const auto& values = trace.step_values[s];
    if (values.empty()) continue;
    const query::PlanStep& ps = plan.steps[s];
    const storage::PropertyEntry* entry = db.FindEntry(ps.predicate);
    if (entry == nullptr) {
      return Status::InvalidArgument("plan references unknown predicate");
    }
    const storage::TableReplica& replica = entry->table.replica(ps.replica);
    const storage::ReplicaMeta& meta = entry->meta(ps.replica);
    const index::IdPositionIndex* index = nullptr;
    if (needs_index) {
      if (!meta.has_index) {
        return Status::InvalidArgument(
            "replay strategy requires the ID-to-Position index");
      }
      index = &meta.id_index;
    }
    // Paper §5.2.2: the binary-search threshold is used for both replay
    // strategies so the adaptive decisions coincide.
    const int64_t threshold = meta.threshold_binary;
    const size_t gallop_cap = GallopCapForWindow(meta.window_binary);

    const std::span<const TermId> keys = replica.keys();
    size_t cursor = 0;
    for (TermId value : values) {
      AdaptiveSearchWith(keys, value, &cursor, threshold, strategy,
                         index, &stats.counters, mem, gallop_cap);
    }
  }
  stats.cache = cache.stats();
  return stats;
}

}  // namespace parj::join
