#include "query/algebra.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <unordered_map>

#include "dict/term_table.h"
#include "mutable/delta_view.h"

namespace parj::query {

const char* FilterOpName(FilterOp op) {
  switch (op) {
    case FilterOp::kEq:
      return "=";
    case FilterOp::kNe:
      return "!=";
    case FilterOp::kLt:
      return "<";
    case FilterOp::kLe:
      return "<=";
    case FilterOp::kGt:
      return ">";
    case FilterOp::kGe:
      return ">=";
  }
  return "?";
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

namespace {

/// TryNumericValue over a literal value's text. The byte after `text`
/// must end any number: a string's NUL, or the closing `"` that follows
/// a literal value inside a dictionary key. So strtod reads no further.
bool TryNumericText(std::string_view text, double* value) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double parsed = std::strtod(text.data(), &end);
  if (end != text.data() + text.size() || !std::isfinite(parsed)) {
    return false;
  }
  *value = parsed;
  return true;
}

/// TryNumericValue over a dictionary key, without building the term.
bool TryNumericKey(std::string_view key, double* value) {
  const dict::KeyParts parts = dict::SplitKey(key);
  if (parts.kind != rdf::TermKind::kLiteral) return false;
  std::string scratch;
  return TryNumericText(dict::UnescapedLexical(parts, &scratch), value);
}

/// The key of resource `id` in the base dictionary or, past it, the
/// overlay (empty when neither holds it).
std::string_view ResourceKeyOf(const dict::Dictionary& dict,
                               const mut::TermOverlay* overlay, TermId id) {
  return id <= dict.resource_count() ? dict.ResourceKey(id)
                                     : overlay->ResourceKey(id);
}

bool CompareDoubles(double lhs, FilterOp op, double rhs) {
  switch (op) {
    case FilterOp::kEq:
      return lhs == rhs;
    case FilterOp::kNe:
      return lhs != rhs;
    case FilterOp::kLt:
      return lhs < rhs;
    case FilterOp::kLe:
      return lhs <= rhs;
    case FilterOp::kGt:
      return lhs > rhs;
    case FilterOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

FilterOp FlipOp(FilterOp op) {
  switch (op) {
    case FilterOp::kLt:
      return FilterOp::kGt;
    case FilterOp::kLe:
      return FilterOp::kGe;
    case FilterOp::kGt:
      return FilterOp::kLt;
    case FilterOp::kGe:
      return FilterOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

}  // namespace

bool TryNumericValue(const rdf::Term& term, double* value) {
  return term.is_literal() && TryNumericText(term.lexical(), value);
}

Result<EncodedQuery> EncodeQuery(const SelectQueryAst& ast,
                                 const storage::Database& db,
                                 const mut::TermOverlay* overlay) {
  if (ast.patterns.empty()) {
    return Status::InvalidArgument("query has no triple patterns");
  }
  if (!ast.union_arms.empty()) {
    return Status::InvalidArgument(
        "UNION queries must be split into arms before encoding "
        "(ParjEngine::Execute handles this)");
  }
  EncodedQuery out;
  out.distinct = ast.distinct;
  out.limit = ast.limit;

  std::unordered_map<std::string, int> var_ids;
  auto intern_var = [&](const std::string& name) {
    auto it = var_ids.find(name);
    if (it != var_ids.end()) return it->second;
    int id = static_cast<int>(out.var_names.size());
    var_ids.emplace(name, id);
    out.var_names.push_back(name);
    return id;
  };

  const dict::Dictionary& dict = db.dictionary();
  // Base dictionary first, pending-write overlay second: IDs agree with
  // what the delta-merged executor binds.
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
  for (const TriplePatternAst& p : ast.patterns) {
    EncodedPattern enc;
    if (p.predicate.is_variable) {
      return Status::Unsupported(
          "variable predicates are not supported (pattern with ?" +
          p.predicate.var + ")");
    }
    enc.predicate = lookup_predicate(p.predicate.term);
    if (enc.predicate == kInvalidPredicateId) out.known_empty = true;

    auto encode_slot = [&](const TermOrVar& t) -> PatternTerm {
      if (t.is_variable) return PatternTerm::Variable(intern_var(t.var));
      TermId id = lookup_resource(t.term);
      if (id == kInvalidTermId) out.known_empty = true;
      return PatternTerm::Constant(id);
    };
    enc.subject = encode_slot(p.subject);
    enc.object = encode_slot(p.object);
    out.patterns.push_back(enc);
  }
  out.variable_count = static_cast<int>(out.var_names.size());

  // ---- FILTER constraints.
  for (const FilterAst& f : ast.filters) {
    FilterAst filter = f;
    // Normalize: a lone variable goes to the left.
    if (!filter.lhs.is_variable && filter.rhs.is_variable) {
      std::swap(filter.lhs, filter.rhs);
      filter.op = FlipOp(filter.op);
    }
    const bool ordering =
        filter.op != FilterOp::kEq && filter.op != FilterOp::kNe;

    if (!filter.lhs.is_variable && !filter.rhs.is_variable) {
      // Constant-constant: fold now.
      bool holds;
      double lv, rv;
      if (ordering) {
        if (!TryNumericValue(filter.lhs.term, &lv) ||
            !TryNumericValue(filter.rhs.term, &rv)) {
          return Status::Unsupported(
              "ordering FILTER requires numeric operands");
        }
        holds = CompareDoubles(lv, filter.op, rv);
      } else if (TryNumericValue(filter.lhs.term, &lv) &&
                 TryNumericValue(filter.rhs.term, &rv)) {
        holds = CompareDoubles(lv, filter.op, rv);
      } else {
        const bool equal = filter.lhs.term == filter.rhs.term;
        holds = filter.op == FilterOp::kEq ? equal : !equal;
      }
      if (!holds) out.known_empty = true;
      continue;  // a true constant filter is a no-op
    }

    auto require_var = [&](const TermOrVar& t) -> Result<int> {
      auto it = var_ids.find(t.var);
      if (it == var_ids.end()) {
        return Status::InvalidArgument("FILTER variable ?" + t.var +
                                       " does not occur in the BGP");
      }
      return it->second;
    };

    EncodedFilter enc;
    enc.op = filter.op;
    PARJ_ASSIGN_OR_RETURN(int lhs_var, require_var(filter.lhs));
    enc.lhs = PatternTerm::Variable(lhs_var);

    if (filter.rhs.is_variable) {
      PARJ_ASSIGN_OR_RETURN(int rhs_var, require_var(filter.rhs));
      if (ordering) {
        return Status::Unsupported(
            "ordering FILTER between two variables is not supported");
      }
      enc.rhs = PatternTerm::Variable(rhs_var);
      out.filters.push_back(std::move(enc));
      continue;
    }

    if (ordering) {
      // Precompile the passing bitmap over all dictionary IDs.
      double bound;
      if (!TryNumericValue(filter.rhs.term, &bound)) {
        return Status::Unsupported(
            "ordering FILTER requires a numeric constant");
      }
      // The bitmap spans base + overlay IDs: a dirty step can bind an
      // overlay ID, which must index `passing` in range.
      const TermId max_id = overlay != nullptr ? overlay->resource_count()
                                               : dict.resource_count();
      auto passing = std::make_shared<std::vector<bool>>(
          static_cast<size_t>(max_id) + 1, false);
      for (TermId id = 1; id <= max_id; ++id) {
        double value;
        if (TryNumericKey(ResourceKeyOf(dict, overlay, id), &value) &&
            CompareDoubles(value, filter.op, bound)) {
          (*passing)[id] = true;
        }
      }
      enc.rhs = PatternTerm::Constant(kInvalidTermId);
      enc.passing = std::move(passing);
      out.filters.push_back(std::move(enc));
      continue;
    }

    // Equality / inequality against a constant term.
    TermId rhs_id = lookup_resource(filter.rhs.term);
    if (rhs_id == kInvalidTermId) {
      // No term equals a value absent from the data: '=' can never hold,
      // '!=' always holds.
      if (filter.op == FilterOp::kEq) out.known_empty = true;
      continue;
    }
    enc.rhs = PatternTerm::Constant(rhs_id);
    out.filters.push_back(std::move(enc));
  }

  const bool aggregated = !ast.aggregates.empty() || !ast.group_by.empty();
  if (aggregated) {
    if (ast.select_all) {
      return Status::InvalidArgument(
          "SELECT * cannot be combined with GROUP BY / aggregates");
    }
    AggregateSpec& spec = out.aggregate;
    spec.enabled = true;
    // Executor-row layout: group variables first (in GROUP BY order), then
    // the distinct aggregate-argument variables. Aggregation consumes
    // these rows directly off the join pipeline.
    std::unordered_map<std::string, int> col_of;  // var name -> executor col
    auto require_var = [&](const std::string& name) -> Result<int> {
      auto it = var_ids.find(name);
      if (it == var_ids.end()) {
        return Status::InvalidArgument("variable ?" + name +
                                       " does not occur in the BGP");
      }
      return it->second;
    };
    for (const std::string& name : ast.group_by) {
      if (col_of.count(name) != 0) {
        return Status::InvalidArgument("duplicate GROUP BY variable ?" +
                                       name);
      }
      PARJ_ASSIGN_OR_RETURN(int var, require_var(name));
      col_of.emplace(name, static_cast<int>(out.projection.size()));
      out.projection.push_back(var);
    }
    spec.group_cols = static_cast<int>(out.projection.size());
    bool needs_numeric = false;
    for (const AggregateAst& agg : ast.aggregates) {
      EncodedAggregate enc;
      enc.func = agg.func;
      if (agg.func != AggFunc::kCountStar) {
        PARJ_ASSIGN_OR_RETURN(int var, require_var(agg.arg));
        auto [it, inserted] =
            col_of.emplace(agg.arg, static_cast<int>(out.projection.size()));
        if (inserted) out.projection.push_back(var);
        enc.input_col = it->second;
      }
      if (agg.func == AggFunc::kSum || agg.func == AggFunc::kMin ||
          agg.func == AggFunc::kMax) {
        needs_numeric = true;
      }
      spec.aggs.push_back(enc);
    }
    // Output columns: plain selected variables (each must be grouped) in
    // SELECT order, then the aggregates in SELECT order.
    for (const std::string& name : ast.projection) {
      auto it = col_of.find(name);
      if (it == col_of.end() || it->second >= spec.group_cols) {
        return Status::InvalidArgument("selected variable ?" + name +
                                       " must appear in GROUP BY");
      }
      spec.output.push_back(it->second);
      spec.output_names.push_back(name);
      spec.column_kinds.push_back(ColumnKind::kTerm);
    }
    for (size_t i = 0; i < ast.aggregates.size(); ++i) {
      const AggregateAst& agg = ast.aggregates[i];
      if (agg.alias.empty()) {
        return Status::InvalidArgument("aggregate requires an AS alias");
      }
      spec.output.push_back(~static_cast<int>(i));
      spec.output_names.push_back(agg.alias);
      spec.column_kinds.push_back(agg.func == AggFunc::kCount ||
                                          agg.func == AggFunc::kCountStar
                                      ? ColumnKind::kCount
                                      : ColumnKind::kNumber);
    }
    for (size_t i = 0; i < spec.output_names.size(); ++i) {
      for (size_t j = i + 1; j < spec.output_names.size(); ++j) {
        if (spec.output_names[i] == spec.output_names[j]) {
          return Status::InvalidArgument("duplicate result column ?" +
                                         spec.output_names[i]);
        }
      }
    }
    if (needs_numeric) {
      // TermId -> numeric value, spanning base + overlay IDs like the
      // filter bitmaps (an overlay binding must index it in range).
      const TermId max_id = overlay != nullptr ? overlay->resource_count()
                                               : dict.resource_count();
      auto table = std::make_shared<std::vector<double>>(
          static_cast<size_t>(max_id) + 1,
          std::numeric_limits<double>::quiet_NaN());
      for (TermId id = 1; id <= max_id; ++id) {
        double value;
        if (TryNumericKey(ResourceKeyOf(dict, overlay, id), &value)) {
          (*table)[id] = value;
        }
      }
      out.numeric_values = std::move(table);
    }
  } else if (ast.select_all) {
    for (int v = 0; v < out.variable_count; ++v) out.projection.push_back(v);
  } else {
    for (const std::string& name : ast.projection) {
      auto it = var_ids.find(name);
      if (it == var_ids.end()) {
        return Status::InvalidArgument("projected variable ?" + name +
                                       " does not occur in the BGP");
      }
      out.projection.push_back(it->second);
    }
  }
  if (out.projection.empty() && !aggregated) {
    return Status::InvalidArgument("empty projection");
  }

  if (!ast.order_by.empty()) {
    // ORDER BY keys name result columns: aggregate output columns, or the
    // projected variables of a plain query.
    std::vector<std::string> column_names;
    if (out.aggregate.enabled) {
      column_names = out.aggregate.output_names;
    } else {
      for (int v : out.projection) column_names.push_back(out.var_names[v]);
    }
    for (const OrderKeyAst& key : ast.order_by) {
      auto found =
          std::find(column_names.begin(), column_names.end(), key.var);
      if (found == column_names.end()) {
        return Status::InvalidArgument("ORDER BY variable ?" + key.var +
                                       " is not a result column");
      }
      out.order_by.push_back(OrderKey{
          static_cast<int>(found - column_names.begin()), key.descending});
    }
  }
  return out;
}

}  // namespace parj::query
