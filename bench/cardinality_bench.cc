// Cardinality-estimation quality and plan regret of the optimizer (paper
// §4.3; PARJ estimates from per-replica average run lengths, pairwise join
// statistics and up to 64 samples of a constant run, and picks a left-deep
// order by that cost model). For every LUBM and WatDiv
// basic template it reports:
//
//  * the chosen plan's final q-error max(est/true, true/est), and its
//    per-step q-errors (each step's estimated_rows against the executed
//    step_rows);
//  * the every-order oracle: each connected left-deep order is planned
//    with OptimizerOptions::forced_order (the planner still picks each
//    step's replica) and executed. Every order must return the chosen
//    plan's row count; any disagreement is printed and the bench exits 1.
//  * the timed regret: the chosen plan's execute time over the fastest
//    order's, each the minimum of PARJ_BENCH_REPEATS runs. An order whose
//    first run is more than twice the fastest minimum so far is not
//    repeated (it cannot be the fastest). The chosen plan and the fastest
//    order are then timed again, alternately, PARJ_BENCH_REPEATS times
//    each, so that machine noise between the two scans cannot make a plan
//    look slower than itself.
//
// Runs are single-threaded, silent (count) mode, adaptive index search on
// a calibrated store — the read path of perfbench's lubm-analytic.
// Timings are informational; only the row check decides the exit code.

#include <cmath>
#include <functional>
#include <limits>

#include "bench_util.h"
#include "query/optimizer.h"

namespace parj::bench {
namespace {

double QError(double estimated, double actual) {
  const double est = std::max(1.0, estimated);
  const double act = std::max(1.0, actual);
  return std::max(est / act, act / est);
}

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

/// Every left-deep order of the plan's patterns in which each pattern
/// after the first shares a variable with an earlier one. A pattern that
/// can join nothing placed so far is allowed only when no other can.
std::vector<std::vector<int>> ConnectedOrders(const query::Plan& plan) {
  const size_t n = plan.steps.size();
  std::vector<uint64_t> vars(n, 0);
  for (const query::PlanStep& step : plan.steps) {
    uint64_t& mask = vars[step.pattern_index];
    for (const query::PatternTerm* term : {&step.key, &step.value}) {
      if (term->is_variable()) mask |= uint64_t{1} << term->var;
    }
  }
  std::vector<std::vector<int>> orders;
  std::vector<int> order;
  std::function<void(uint32_t, uint64_t)> extend = [&](uint32_t placed,
                                                       uint64_t bound) {
    if (order.size() == n) {
      orders.push_back(order);
      return;
    }
    bool any_connected = false;
    for (size_t p = 0; p < n; ++p) {
      if (!((placed >> p) & 1) && (vars[p] & bound) != 0) any_connected = true;
    }
    for (size_t p = 0; p < n; ++p) {
      if ((placed >> p) & 1) continue;
      if (!order.empty() && any_connected && (vars[p] & bound) == 0) continue;
      order.push_back(static_cast<int>(p));
      extend(placed | (1u << p), bound | vars[p]);
      order.pop_back();
    }
  };
  extend(0, 0);
  return orders;
}

struct Timed {
  uint64_t rows = 0;
  double millis = std::numeric_limits<double>::infinity();
  std::vector<uint64_t> step_rows;
};

/// Executes `plan` once, then `repeats - 1` more times unless the first
/// run is slower than `repeat_below`; keeps the minimum execute time.
Timed RunPlan(const engine::ParjEngine& engine, const query::Plan& plan,
              const engine::QueryOptions& options, int repeats,
              double repeat_below) {
  Timed out;
  for (int i = 0; i < repeats; ++i) {
    auto r = engine.ExecutePlan(plan, options);
    PARJ_CHECK(r.ok()) << r.status().ToString();
    out.millis = std::min(out.millis, r->execute_millis);
    if (i == 0) {
      out.rows = r->row_count;
      out.step_rows = r->step_rows;
      if (out.millis > repeat_below) break;
    }
  }
  return out;
}

struct QueryReport {
  double final_qerror = 1.0;
  std::vector<double> step_qerrors;
  size_t orders = 0;
  size_t disagreements = 0;
  double chosen_ms = 0.0;
  double best_ms = 0.0;
  std::string chosen_order;
  std::string best_order;
  double Regret() const { return chosen_ms / std::max(1e-9, best_ms); }
};

QueryReport Examine(const engine::ParjEngine& engine,
                    const workload::NamedQuery& q, int repeats) {
  engine::QueryOptions options;
  options.num_threads = 1;
  options.strategy = join::SearchStrategy::kAdaptiveIndex;
  options.mode = join::ResultMode::kCount;

  auto chosen = engine.Explain(q.sparql);
  PARJ_CHECK(chosen.ok()) << q.name << ": " << chosen.status().ToString();
  QueryReport report;
  report.chosen_order = PlanOrder(*chosen);
  PARJ_CHECK(engine.ExecutePlan(*chosen, options).ok());  // warm-up
  const Timed base = RunPlan(engine, *chosen, options, repeats,
                             std::numeric_limits<double>::infinity());
  report.chosen_ms = base.millis;
  report.best_ms = base.millis;
  report.best_order = report.chosen_order;
  if (!chosen->steps.empty()) {
    report.final_qerror = QError(chosen->steps.back().estimated_rows,
                                 static_cast<double>(base.rows));
  }
  for (size_t i = 0; i < chosen->steps.size() && i < base.step_rows.size();
       ++i) {
    report.step_qerrors.push_back(
        QError(chosen->steps[i].estimated_rows,
               static_cast<double>(base.step_rows[i])));
  }
  if (chosen->known_empty) return report;

  query::Plan best_plan;
  for (const std::vector<int>& order : ConnectedOrders(*chosen)) {
    query::OptimizerOptions forced;
    forced.forced_order = order;
    auto plan = engine.Explain(q.sparql, forced);
    PARJ_CHECK(plan.ok()) << q.name << ": " << plan.status().ToString();
    ++report.orders;
    const Timed t =
        RunPlan(engine, *plan, options, repeats, 2.0 * report.best_ms);
    if (t.rows != base.rows) {
      ++report.disagreements;
      std::printf("ROW MISMATCH %s order %s: %llu rows, chosen plan %llu\n",
                  q.name.c_str(), PlanOrder(*plan).c_str(),
                  static_cast<unsigned long long>(t.rows),
                  static_cast<unsigned long long>(base.rows));
    }
    if (t.millis < report.best_ms) {
      report.best_ms = t.millis;
      report.best_order = PlanOrder(*plan);
      best_plan = std::move(plan).value();
    }
  }
  if (report.best_order != report.chosen_order) {
    for (int i = 0; i < repeats; ++i) {
      report.chosen_ms = std::min(
          report.chosen_ms, RunPlan(engine, *chosen, options, 1, 0.0).millis);
      report.best_ms = std::min(
          report.best_ms, RunPlan(engine, best_plan, options, 1, 0.0).millis);
    }
    if (report.chosen_ms <= report.best_ms) {
      report.best_ms = report.chosen_ms;
      report.best_order = report.chosen_order;
    }
  }
  return report;
}

std::string JoinQErrors(const std::vector<double>& q_errors) {
  std::string out;
  for (double q : q_errors) {
    if (!out.empty()) out += ' ';
    out += Fixed(q, q < 10 ? 2 : 0);
  }
  return out;
}

int Run() {
  const int repeats = std::max(1, BenchRepeats());
  PrintHeader("Cardinality estimates and plan regret (paper §4.3)",
              "q-error = max(est/true, true/est); regret = chosen plan's "
              "execute ms / fastest connected order's (min of " +
                  std::to_string(repeats) +
                  " runs, 1 thread).\nLUBM scale: " +
                  std::to_string(LubmUniversities()) +
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

  size_t disagreements = 0;
  for (WorkloadSet& set : sets) {
    const engine::ParjEngine engine = BuildEngine(std::move(set.data));
    std::printf("%s:\n", set.name);
    TablePrinter table({"Query", "q-err", "step q-err", "orders", "chosen ms",
                        "best ms", "regret", "chosen order", "best order"});
    std::vector<double> final_q;
    std::vector<double> step_q;
    std::vector<double> regrets;
    for (const auto& q : set.queries) {
      const QueryReport r = Examine(engine, q, repeats);
      disagreements += r.disagreements;
      final_q.push_back(r.final_qerror);
      step_q.insert(step_q.end(), r.step_qerrors.begin(),
                    r.step_qerrors.end());
      regrets.push_back(r.Regret());
      table.AddRow({q.name, Fixed(r.final_qerror, 2),
                    JoinQErrors(r.step_qerrors), std::to_string(r.orders),
                    Fixed(r.chosen_ms, 3), Fixed(r.best_ms, 3),
                    Fixed(r.Regret(), 2), r.chosen_order, r.best_order});
    }
    table.Print();
    std::printf(
        "geomean q-error: %.2f | per-step geomean q-error: %.2f | "
        "geomean regret: %.2f | max regret: %.2f\n\n",
        Aggregates(final_q).geomean, Aggregates(step_q).geomean,
        Aggregates(regrets).geomean,
        *std::max_element(regrets.begin(), regrets.end()));
  }
  if (disagreements > 0) {
    std::printf("FAIL: %zu orders disagree with the chosen plan's rows\n",
                disagreements);
    return 1;
  }
  std::printf("every order returned the chosen plan's rows\n");
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Run(); }
