// Cardinality-estimation quality of the optimizer's final result-size
// estimate (paper §4.3: equi-depth histograms with pairwise corrective
// statistics). Reports, per query, the true row count, the estimate, the
// q-error max(est/true, true/est) and the chosen left-deep order, plus the
// geomean q-error per workload.

#include <cmath>

#include "bench_util.h"
#include "query/optimizer.h"
#include "query/parser.h"

namespace parj::bench {
namespace {

struct Estimate {
  double estimated = 0.0;
  uint64_t actual = 0;
  std::string order;
  double QError() const {
    const double est = std::max(1.0, estimated);
    const double act = std::max<double>(1.0, static_cast<double>(actual));
    return std::max(est / act, act / est);
  }
};

/// The plan's join order as "pattern_index:replica" steps, e.g. "2:OS 0:SO".
std::string PlanOrder(const query::Plan& plan) {
  std::string out;
  for (const query::PlanStep& step : plan.steps) {
    if (!out.empty()) out += ' ';
    out += std::to_string(step.pattern_index);
    out += step.replica == storage::ReplicaKind::kSO ? ":SO" : ":OS";
  }
  return out;
}

Estimate EstimateFor(const storage::Database& db, const std::string& sparql) {
  auto ast = query::ParseQuery(sparql);
  PARJ_CHECK(ast.ok());
  auto encoded = query::EncodeQuery(*ast, db);
  PARJ_CHECK(encoded.ok());
  auto plan = query::Optimize(*encoded, db);
  PARJ_CHECK(plan.ok());
  Estimate e;
  e.estimated = plan->steps.empty() ? 0.0 : plan->steps.back().estimated_rows;
  e.order = PlanOrder(*plan);
  join::Executor executor(&db);
  join::ExecOptions exec;
  exec.mode = join::ResultMode::kCount;
  auto r = executor.Execute(*plan, exec);
  PARJ_CHECK(r.ok());
  e.actual = r->row_count;
  return e;
}

int Run() {
  PrintHeader("Cardinality-estimation quality (paper §4.3)",
              "q-error = max(est/true, true/est); lower is better.\n"
              "LUBM scale: " + std::to_string(LubmUniversities()) +
              " | WatDiv scale: " + std::to_string(WatdivScale()));

  struct WorkloadSet {
    const char* name;
    workload::GeneratedData data;
    std::vector<workload::NamedQuery> queries;
  };
  std::vector<WorkloadSet> sets;
  sets.push_back({"LUBM",
                  workload::GenerateLubm(
                      {.universities = LubmUniversities(), .seed = 42}),
                  workload::LubmQueries()});
  sets.push_back({"WatDiv",
                  workload::GenerateWatdiv({.scale = WatdivScale(), .seed = 7}),
                  workload::WatdivBasicQueries()});

  for (WorkloadSet& set : sets) {
    auto db = storage::Database::Build(std::move(set.data.dict),
                                       std::move(set.data.triples));
    PARJ_CHECK(db.ok());
    std::printf("%s:\n", set.name);
    TablePrinter table({"Query", "true rows", "estimate", "q-err", "order"});
    std::vector<double> q_errors;
    for (const auto& q : set.queries) {
      const Estimate e = EstimateFor(*db, q.sparql);
      q_errors.push_back(e.QError());
      char est[32];
      std::snprintf(est, sizeof(est), "%.3g", e.estimated);
      table.AddRow({q.name, FormatCount(e.actual), est, Fixed(e.QError(), 2),
                    e.order});
    }
    table.Print();
    std::printf("geomean q-error: %.2f\n\n", Aggregates(q_errors).geomean);
  }
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Run(); }
