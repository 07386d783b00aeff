#include "query/plan.h"

#include <cstdio>
#include <sstream>

namespace parj::query {

namespace {

std::string TermToString(const PatternTerm& term,
                         const std::vector<std::string>& names) {
  if (term.is_variable()) {
    if (term.var >= 0 && term.var < static_cast<int>(names.size())) {
      return "?" + names[term.var];
    }
    return "?_" + std::to_string(term.var);
  }
  return "#" + std::to_string(term.constant);
}

}  // namespace

int LoopVariable(const PatternTerm& key, const PatternTerm& value,
                 bool value_bound) {
  if (!value.is_variable() || value_bound) return -1;
  if (key.is_variable() && key.var == value.var) return -1;
  return value.var;
}

bool KeyOutlivesLoop(const PatternTerm& key, int prev_loop_var) {
  return !key.is_variable() || key.var != prev_loop_var;
}

std::string Plan::ToString() const {
  std::ostringstream out;
  if (known_empty) {
    out << "Plan: known empty result\n";
    return out.str();
  }
  out << "Plan (" << steps.size() << " steps, est. cost ";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", total_cost);
  out << buf << "):\n";
  for (size_t i = 0; i < steps.size(); ++i) {
    const PlanStep& s = steps[i];
    out << "  " << (i == 0 ? "scan " : "probe") << " p" << s.predicate << "/"
        << storage::ReplicaKindName(s.replica) << "  key="
        << TermToString(s.key, var_names) << (s.key_bound ? "[bound]" : "")
        << " value=" << TermToString(s.value, var_names)
        << (s.value_bound ? "[bound]" : "");
    std::snprintf(buf, sizeof(buf), "%.3g", s.estimated_rows);
    out << "  est_rows=" << buf << "\n";
  }
  if (aggregate.enabled) {
    out << "  aggregate group_cols=" << aggregate.group_cols << " [";
    for (size_t i = 0; i < aggregate.aggs.size(); ++i) {
      if (i > 0) out << ", ";
      out << AggFuncName(aggregate.aggs[i].func);
      if (aggregate.aggs[i].input_col >= 0) {
        out << "(col" << aggregate.aggs[i].input_col << ")";
      }
    }
    out << "] -> ";
    for (size_t i = 0; i < aggregate.output_names.size(); ++i) {
      if (i > 0) out << " ";
      out << "?" << aggregate.output_names[i];
    }
    out << "\n";
  }
  if (!order_by.empty()) {
    out << "  order by";
    for (const OrderKey& key : order_by) {
      out << " col" << key.column << (key.descending ? " desc" : " asc");
    }
    if (limit != 0) out << " limit " << limit;
    out << "\n";
  }
  return out.str();
}

}  // namespace parj::query
