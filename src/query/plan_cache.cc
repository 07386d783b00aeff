#include "query/plan_cache.h"

#include <utility>

#include "mutable/delta_view.h"

namespace parj::query {

namespace {

uint64_t HashCombine(uint64_t seed, uint64_t value) {
  // splitmix64-style mixing; only needs to separate distinct option sets.
  value += 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  value = (value ^ (value >> 30)) * 0xbf58476d1ce4e5b9ull;
  value = (value ^ (value >> 27)) * 0x94d049bb133111ebull;
  return seed ^ (value ^ (value >> 31));
}

}  // namespace

uint64_t OptimizerFingerprint(const OptimizerOptions& options) {
  uint64_t fp = 0x50415253ull;  // arbitrary non-zero seed
  fp = HashCombine(fp, options.dp_max_patterns);
  fp = HashCombine(fp, options.forced_order.size());
  for (int idx : options.forced_order) {
    fp = HashCombine(fp, static_cast<uint64_t>(idx));
  }
  return fp;
}

Result<Plan> BindTemplate(const Plan& tmpl, const NormalizedQuery& query,
                          const storage::Database& db,
                          const mut::TermOverlay* overlay) {
  if (!query.eligible) {
    return Status::InvalidArgument("query shape is not cacheable");
  }
  Plan plan = tmpl;
  plan.var_names = query.var_names;
  plan.variable_count = static_cast<int>(query.var_names.size());
  plan.known_empty = false;

  const dict::Dictionary& dict = db.dictionary();
  // Base dictionary first, pending-write overlay second — the same
  // resolution order EncodeQuery uses.
  auto lookup_resource = [&](const rdf::Term& term) -> TermId {
    const TermId id = dict.LookupResource(term);
    if (id != kInvalidTermId || overlay == nullptr) return id;
    return overlay->LookupResource(term);
  };
  auto lookup_predicate = [&](const rdf::Term& term) -> PredicateId {
    const PredicateId id = dict.LookupPredicate(term);
    if (id != kInvalidPredicateId || overlay == nullptr) return id;
    return overlay->LookupPredicate(term);
  };

  for (PlanStep& step : plan.steps) {
    if (step.pattern_index < 0 ||
        static_cast<size_t>(step.pattern_index) >=
            query.pattern_params.size()) {
      return Status::InvalidArgument("plan template does not match shape");
    }
    const NormalizedQuery::PatternParams& pp =
        query.pattern_params[step.pattern_index];
    if (pp.predicate >= 0) {
      const PredicateId pid = lookup_predicate(query.params[pp.predicate]);
      if (pid == kInvalidPredicateId) plan.known_empty = true;
      step.predicate = pid;
    }
    // The replica decides which pattern slot plays the key role.
    const bool key_is_subject = step.replica == storage::ReplicaKind::kSO;
    const int key_param = key_is_subject ? pp.subject : pp.object;
    const int value_param = key_is_subject ? pp.object : pp.subject;
    if (key_param >= 0) {
      const TermId id = lookup_resource(query.params[key_param]);
      if (id == kInvalidTermId) plan.known_empty = true;
      step.key = PatternTerm::Constant(id);
    }
    if (value_param >= 0) {
      const TermId id = lookup_resource(query.params[value_param]);
      if (id == kInvalidTermId) plan.known_empty = true;
      step.value = PatternTerm::Constant(id);
    }
  }

  // Filters are rebuilt from the normalized spec rather than patched in
  // the template: a '!=' filter whose constant is absent must vanish, and
  // which filters vanish depends on this query's parameters.
  plan.filters.clear();
  for (const NormalizedQuery::FilterParam& f : query.filter_params) {
    EncodedFilter enc;
    enc.op = f.op;
    enc.lhs = PatternTerm::Variable(f.lhs_var);
    if (f.rhs_param < 0) {
      enc.rhs = PatternTerm::Variable(f.rhs_var);
    } else {
      const TermId id = lookup_resource(query.params[f.rhs_param]);
      if (id == kInvalidTermId) {
        // No binding can equal a term absent from the data: '=' can never
        // hold, '!=' always holds.
        if (f.op == FilterOp::kEq) plan.known_empty = true;
        continue;
      }
      enc.rhs = PatternTerm::Constant(id);
    }
    plan.filters.push_back(std::move(enc));
  }
  return plan;
}

PlanCache::PlanCache(size_t max_entries)
    : max_entries_(max_entries == 0 ? 1 : max_entries) {}

std::shared_ptr<const Plan> PlanCache::Lookup(Level* level,
                                              std::string_view key,
                                              uint64_t generation,
                                              uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = level->index.find(key);
  if (it == level->index.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second->generation != generation ||
      it->second->fingerprint != fingerprint) {
    // Stale statistics (or different optimizer settings): drop the entry
    // so the fresh plan takes its slot.
    level->order.erase(it->second);
    level->index.erase(it);
    ++stats_.misses;
    return nullptr;
  }
  level->order.splice(level->order.begin(), level->order, it->second);
  ++stats_.hits;
  return it->second->plan;
}

void PlanCache::Insert(Level* level, std::string_view key,
                       uint64_t generation, uint64_t fingerprint,
                       std::shared_ptr<const Plan> plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = level->index.find(key);
  if (it != level->index.end()) {
    it->second->generation = generation;
    it->second->fingerprint = fingerprint;
    it->second->plan = std::move(plan);
    level->order.splice(level->order.begin(), level->order, it->second);
    return;
  }
  level->order.push_front(Entry{std::string(key), generation, fingerprint,
                                std::move(plan)});
  level->index.emplace(level->order.front().key, level->order.begin());
  if (level->order.size() > max_entries_) {
    level->index.erase(level->order.back().key);
    level->order.pop_back();
    ++stats_.evictions;
  }
}

std::shared_ptr<const Plan> PlanCache::LookupBound(std::string_view sparql,
                                                   uint64_t generation,
                                                   uint64_t fingerprint) {
  return Lookup(&bound_, sparql, generation, fingerprint);
}

void PlanCache::InsertBound(std::string_view sparql, uint64_t generation,
                            uint64_t fingerprint,
                            std::shared_ptr<const Plan> plan) {
  Insert(&bound_, sparql, generation, fingerprint, std::move(plan));
}

std::shared_ptr<const Plan> PlanCache::LookupShape(
    const std::string& shape_key, uint64_t generation, uint64_t fingerprint) {
  return Lookup(&shape_, shape_key, generation, fingerprint);
}

void PlanCache::InsertShape(const std::string& shape_key, uint64_t generation,
                            uint64_t fingerprint,
                            std::shared_ptr<const Plan> plan) {
  Insert(&shape_, shape_key, generation, fingerprint, std::move(plan));
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bound_.order.size() + shape_.order.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  bound_.order.clear();
  bound_.index.clear();
  shape_.order.clear();
  shape_.index.clear();
  stats_ = PlanCacheStats{};
}

}  // namespace parj::query
