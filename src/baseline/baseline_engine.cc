#include "baseline/baseline_engine.h"

#include <algorithm>
#include <numeric>

namespace parj::baseline::internal {

using query::EncodedPattern;
using query::EncodedQuery;
using query::PatternTerm;
using storage::Database;
using storage::ReplicaKind;

std::vector<std::array<TermId, 2>> PatternPairs(const Database& db,
                                                const EncodedPattern& pattern) {
  std::vector<std::array<TermId, 2>> out;
  const storage::PropertyEntry* entry = db.FindEntry(pattern.predicate);
  if (entry == nullptr) return out;
  const storage::TableReplica& so = entry->table.so();
  const storage::TableReplica& os = entry->table.os();

  const bool s_const = pattern.subject.is_constant();
  const bool o_const = pattern.object.is_constant();

  if (s_const) {
    size_t pos = so.FindKey(pattern.subject.constant);
    if (pos == SIZE_MAX) return out;
    for (TermId o : so.Run(pos)) {
      if (o_const && o != pattern.object.constant) continue;
      out.push_back({pattern.subject.constant, o});
    }
    return out;
  }
  if (o_const) {
    size_t pos = os.FindKey(pattern.object.constant);
    if (pos == SIZE_MAX) return out;
    for (TermId s : os.Run(pos)) {
      out.push_back({s, pattern.object.constant});
    }
    return out;
  }
  out.reserve(so.pair_count());
  so.ForEachRun([&](size_t, TermId s, std::span<const TermId> run) {
    for (TermId o : run) out.push_back({s, o});
  });
  return out;
}

std::vector<int> GreedyPatternOrder(const Database& db,
                                    const EncodedQuery& query) {
  const size_t n = query.patterns.size();
  auto pattern_score = [&](const EncodedPattern& p) -> double {
    const storage::PropertyEntry* entry = db.FindEntry(p.predicate);
    if (entry == nullptr) return 0.0;
    const bool s_const = p.subject.is_constant();
    const bool o_const = p.object.is_constant();
    if (s_const) {
      size_t pos = entry->table.so().FindKey(p.subject.constant);
      double run = pos == SIZE_MAX
                       ? 0.0
                       : static_cast<double>(entry->table.so().RunLength(pos));
      return o_const ? std::min(run, 1.0) : run;
    }
    if (o_const) {
      size_t pos = entry->table.os().FindKey(p.object.constant);
      return pos == SIZE_MAX
                 ? 0.0
                 : static_cast<double>(entry->table.os().RunLength(pos));
    }
    return static_cast<double>(entry->table.triple_count());
  };

  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) scores[i] = pattern_score(query.patterns[i]);

  auto pattern_vars = [&](const EncodedPattern& p) {
    uint64_t mask = 0;
    if (p.subject.is_variable()) mask |= uint64_t{1} << p.subject.var;
    if (p.object.is_variable()) mask |= uint64_t{1} << p.object.var;
    return mask;
  };

  std::vector<int> order;
  std::vector<bool> used(n, false);
  uint64_t bound = 0;
  for (size_t step = 0; step < n; ++step) {
    int best = -1;
    bool best_connected = false;
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const bool connected =
          step == 0 || (pattern_vars(query.patterns[i]) & bound) != 0;
      if (best == -1 || (connected && !best_connected) ||
          (connected == best_connected && scores[i] < scores[best])) {
        best = static_cast<int>(i);
        best_connected = connected;
      }
    }
    used[best] = true;
    order.push_back(best);
    bound |= pattern_vars(query.patterns[best]);
  }
  return order;
}

BaselineResult FinalizeRows(const EncodedQuery& query,
                            const std::vector<TermId>& wide_rows,
                            uint64_t peak_intermediate) {
  BaselineResult result;
  result.peak_intermediate = peak_intermediate;
  const size_t wide = static_cast<size_t>(query.variable_count);
  const size_t width = query.projection.size();
  result.column_count = width;
  const size_t n = wide == 0 ? 0 : wide_rows.size() / wide;

  result.rows.reserve(n * width);
  size_t kept = 0;
  for (size_t r = 0; r < n; ++r) {
    bool passes = true;
    for (const query::EncodedFilter& filter : query.filters) {
      if (!query::EvaluateFilter(filter, wide_rows.data() + r * wide)) {
        passes = false;
        break;
      }
    }
    if (!passes) continue;
    ++kept;
    for (int var : query.projection) {
      result.rows.push_back(wide_rows[r * wide + var]);
    }
  }
  result.row_count = kept;

  if (query.distinct && width > 0 && kept > 0) {
    std::vector<size_t> order(kept);
    std::iota(order.begin(), order.end(), 0);
    auto& rows = result.rows;
    auto row_less = [&](size_t a, size_t b) {
      return std::lexicographical_compare(
          rows.begin() + a * width, rows.begin() + (a + 1) * width,
          rows.begin() + b * width, rows.begin() + (b + 1) * width);
    };
    auto row_eq = [&](size_t a, size_t b) {
      return std::equal(rows.begin() + a * width,
                        rows.begin() + (a + 1) * width,
                        rows.begin() + b * width);
    };
    std::sort(order.begin(), order.end(), row_less);
    order.erase(std::unique(order.begin(), order.end(), row_eq), order.end());
    std::vector<TermId> deduped;
    deduped.reserve(order.size() * width);
    for (size_t idx : order) {
      deduped.insert(deduped.end(), rows.begin() + idx * width,
                     rows.begin() + (idx + 1) * width);
    }
    result.rows = std::move(deduped);
    result.row_count = order.size();
  }
  if (query.limit != 0 && result.row_count > query.limit) {
    result.row_count = query.limit;
    result.rows.resize(query.limit * width);
  }
  return result;
}

}  // namespace parj::baseline::internal
