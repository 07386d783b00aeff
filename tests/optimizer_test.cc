#include "query/optimizer.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

#include "join/executor.h"
#include "test_util.h"
#include "workload/lubm.h"
#include "workload/watdiv.h"

namespace parj::query {
namespace {

using storage::ReplicaKind;
using test::Encode;
using test::MakeDatabase;
using test::Spec;

/// A department-ish graph: one very selective property (headOf), one broad
/// one (memberOf).
Spec MakeSkewedSpec() {
  Spec spec;
  for (int i = 0; i < 200; ++i) {
    spec.push_back({"student" + std::to_string(i), "memberOf",
                    "dept" + std::to_string(i % 4)});
  }
  spec.push_back({"prof0", "headOf", "dept0"});
  spec.push_back({"prof1", "headOf", "dept1"});
  for (int i = 0; i < 200; ++i) {
    spec.push_back({"student" + std::to_string(i), "advisor",
                    "prof" + std::to_string(i % 2)});
  }
  return spec;
}

TEST(OptimizerTest, PlansAllPatterns) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode(
      "SELECT * WHERE { ?s <memberOf> ?d . ?p <headOf> ?d . ?s <advisor> ?p }",
      db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->steps.size(), 3u);
  // Every pattern appears exactly once.
  uint32_t mask = 0;
  for (const auto& step : plan->steps) {
    mask |= 1u << step.pattern_index;
  }
  EXPECT_EQ(mask, 0b111u);
}

TEST(OptimizerTest, FirstStepHasUnboundOrConstantKey) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT * WHERE { ?s <memberOf> ?d . ?s <advisor> ?p }", db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(!plan->steps[0].key_bound ||
              plan->steps[0].key.is_constant());
  // Probe steps after the first must have bound keys (connected order).
  for (size_t i = 1; i < plan->steps.size(); ++i) {
    EXPECT_TRUE(plan->steps[i].key_bound) << "step " << i;
  }
}

TEST(OptimizerTest, ConstantObjectPrefersOsReplica) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT ?s WHERE { ?s <memberOf> <dept0> }", db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 1u);
  EXPECT_EQ(plan->steps[0].replica, ReplicaKind::kOS);
  EXPECT_TRUE(plan->steps[0].key.is_constant());
}

TEST(OptimizerTest, ConstantSubjectPrefersSoReplica) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT ?d WHERE { <student5> <memberOf> ?d }", db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps[0].replica, ReplicaKind::kSO);
}

TEST(OptimizerTest, SelectivePatternPlannedFirst) {
  auto db = MakeDatabase(MakeSkewedSpec());
  // headOf has 2 triples; memberOf has 200.
  auto q = Encode("SELECT * WHERE { ?s <memberOf> ?d . ?p <headOf> ?d }", db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps[0].predicate,
            db.dictionary().LookupPredicate(rdf::Term::Iri("headOf")));
}

TEST(OptimizerTest, KnownEmptyShortCircuits) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT ?s WHERE { ?s <memberOf> <nonexistent> }", db);
  ASSERT_TRUE(q.known_empty);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->known_empty);
  EXPECT_TRUE(plan->steps.empty());
}

TEST(OptimizerTest, ForcedOrderRespected) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT * WHERE { ?s <memberOf> ?d . ?p <headOf> ?d }", db);
  OptimizerOptions opts;
  opts.forced_order = {0, 1};
  auto plan = Optimize(q, db, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps[0].pattern_index, 0);
  EXPECT_EQ(plan->steps[1].pattern_index, 1);
}

TEST(OptimizerTest, ForcedOrderValidation) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT * WHERE { ?s <memberOf> ?d . ?p <headOf> ?d }", db);
  OptimizerOptions opts;
  opts.forced_order = {0};
  EXPECT_FALSE(Optimize(q, db, opts).ok());
  opts.forced_order = {0, 0};
  EXPECT_FALSE(Optimize(q, db, opts).ok());
  opts.forced_order = {0, 5};
  EXPECT_FALSE(Optimize(q, db, opts).ok());
}

TEST(OptimizerTest, GreedyFallbackForManyPatterns) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT * WHERE { ?s <memberOf> ?d . ?s <advisor> ?p }", db);
  OptimizerOptions opts;
  opts.dp_max_patterns = 1;  // force the greedy path
  auto plan = Optimize(q, db, opts);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), 2u);
}

TEST(OptimizerTest, CartesianProductsArePlannedLast) {
  Spec spec = MakeSkewedSpec();
  spec.push_back({"island", "isolatedProp", "islandValue"});
  auto db = MakeDatabase(spec);
  auto q = Encode(
      "SELECT * WHERE { ?a <isolatedProp> ?b . ?s <memberOf> ?d . "
      "?p <headOf> ?d }",
      db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 3u);
  // Exactly one disconnected (cartesian) step: once the connected
  // component starts it is not interrupted — the island pattern pays the
  // cartesian penalty exactly once.
  int cartesian_steps = 0;
  for (size_t i = 1; i < plan->steps.size(); ++i) {
    if (!plan->steps[i].key_bound && !plan->steps[i].value_bound) {
      ++cartesian_steps;
    }
  }
  EXPECT_LE(cartesian_steps, 1);
  // All three patterns are covered.
  uint32_t mask = 0;
  for (const auto& step : plan->steps) mask |= 1u << step.pattern_index;
  EXPECT_EQ(mask, 0b111u);
}

TEST(OptimizerTest, EstimatesPopulated) {
  auto db = MakeDatabase(MakeSkewedSpec());
  auto q = Encode("SELECT * WHERE { ?s <memberOf> ?d . ?s <advisor> ?p }", db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->total_cost, 0.0);
  for (const auto& step : plan->steps) {
    EXPECT_GE(step.estimated_rows, 0.0);
    EXPECT_GE(step.estimated_cost, 0.0);
  }
  EXPECT_FALSE(plan->ToString().empty());
}

TEST(OptimizerTest, WithAndWithoutPairStatsBothPlan) {
  storage::DatabaseOptions no_stats;
  no_stats.pairwise_max_columns = 0;
  auto db = MakeDatabase(MakeSkewedSpec(), no_stats);
  EXPECT_FALSE(db.has_pair_stats());
  auto q = Encode(
      "SELECT * WHERE { ?s <memberOf> ?d . ?p <headOf> ?d . ?s <advisor> ?p }",
      db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->steps.size(), 3u);
}

TEST(OptimizerTest, SelfJoinVariable) {
  // ?x <p> ?x — key and value variables coincide.
  auto db = MakeDatabase({{"a", "p", "a"}, {"a", "p", "b"}, {"c", "p", "c"}});
  auto q = Encode("SELECT ?x WHERE { ?x <p> ?x }", db);
  auto plan = Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->steps.size(), 1u);
  EXPECT_TRUE(plan->steps[0].value_bound);
}

TEST(OptimizerTest, TooManyPatternsRejected) {
  auto db = MakeDatabase({{"a", "p", "b"}});
  EncodedQuery q;
  q.variable_count = 1;
  q.var_names = {"x"};
  q.projection = {0};
  for (int i = 0; i < 33; ++i) {
    EncodedPattern p;
    p.subject = PatternTerm::Variable(0);
    p.predicate = 1;
    p.object = PatternTerm::Variable(0);
    q.patterns.push_back(p);
  }
  EXPECT_FALSE(Optimize(q, db).ok());
}

/// A plan's join order as "pattern_index:replica" steps, e.g. "2:OS 0:SO".
std::string PlanOrder(const Plan& plan) {
  std::string out;
  for (const PlanStep& step : plan.steps) {
    if (!out.empty()) out += ' ';
    out += std::to_string(step.pattern_index);
    out += step.replica == ReplicaKind::kSO ? ":SO" : ":OS";
  }
  return out;
}

/// A plan's executed step_rows (count mode, one thread).
std::vector<uint64_t> StepRows(const storage::Database& db, const Plan& plan,
                               join::SearchCounters* counters = nullptr) {
  join::Executor executor(&db);
  join::ExecOptions exec;
  exec.mode = join::ResultMode::kCount;
  auto result = executor.Execute(plan, exec);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  if (counters != nullptr) *counters = result->counters;
  return result->step_rows;
}

// After `?y a ub:University` binds ?y to one constant run, a join on ?y is
// estimated by probing that run's values, not as a join with every
// subject of rdf:type.
TEST(OptimizerTest, ConstantRunJoinIsEstimatedFromTheRun) {
  auto data = workload::GenerateLubm({.universities = 1, .seed = 42});
  auto db = storage::Database::Build(std::move(data.dict),
                                     std::move(data.triples));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const workload::NamedQuery lubm1 = workload::LubmQueries()[0];
  ASSERT_EQ(lubm1.name, "LUBM1");
  const EncodedQuery q = Encode(lubm1.sparql, *db);
  // Pattern 1 is `?y a ub:University`; 5 is `?x ub:undergraduateDegreeFrom
  // ?y` and 4 is `?z ub:subOrganizationOf ?y`.
  for (const std::vector<int>& order :
       {std::vector<int>{1, 5, 0, 3, 2, 4}, std::vector<int>{1, 4, 2, 3, 5, 0}}) {
    OptimizerOptions options;
    options.forced_order = order;
    auto plan = Optimize(q, *db, options);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const std::vector<uint64_t> rows = StepRows(*db, *plan);
    ASSERT_EQ(rows.size(), plan->steps.size());
    const double actual = static_cast<double>(std::max<uint64_t>(1, rows[1]));
    const double estimate = std::max(1.0, plan->steps[1].estimated_rows);
    EXPECT_LE(estimate, 2.0 * actual) << PlanOrder(*plan);
    EXPECT_GE(estimate, actual / 2.0) << PlanOrder(*plan);
  }
}

// A triangle ?a p ?b . ?b q ?c . ?a r ?c. Both orders scan p's O-S
// replica first, so ?b takes 2 values and ?a 40. "p q r" probes q with
// ?b, which p's value loop over ?a never changes, then r with ?a, which
// q's loop over ?c never changes: the executor searches q once per ?b
// and r once per ?a. "p r q" searches r per tuple (?a is fresh on each)
// and q once per ?b. Both run the same searches, but "p r q" carries 8 r
// values per tuple where "p q r" carries 4 q values. r has 65,556 keys,
// so charging each of q's 160 output tuples a search of r would prefer
// "p r q"; costed per key, the order with fewer tuples wins.
TEST(OptimizerTest, ReusedKeyIsCostedOncePerKey) {
  Spec spec;
  for (int a = 0; a < 20; ++a) {
    const std::string sa = "a" + std::to_string(a);
    spec.push_back({sa, "p", "b0"});
    spec.push_back({sa, "p", "b1"});
    for (int j = 0; j < 8; ++j) {
      spec.push_back({sa, "r", "c" + std::to_string((a + j) % 8)});
    }
  }
  for (int c = 0; c < 8; ++c) {
    spec.push_back({"b" + std::to_string(c / 4), "q", "c" + std::to_string(c)});
  }
  for (int z = 0; z < 65536; ++z) {
    spec.push_back({"z" + std::to_string(z), "r", "d" + std::to_string(z)});
  }
  auto db = MakeDatabase(spec);
  const EncodedQuery q =
      Encode("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c . ?a <r> ?c }", db);
  auto forced = [&](std::vector<int> order) {
    OptimizerOptions options;
    options.forced_order = std::move(order);
    auto plan = Optimize(q, db, options);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return *plan;
  };
  const Plan narrow = forced({0, 1, 2});
  const Plan wide = forced({0, 2, 1});
  ASSERT_EQ(PlanOrder(narrow), "0:OS 1:SO 2:SO");
  ASSERT_EQ(PlanOrder(wide), "0:OS 2:SO 1:SO");
  EXPECT_LT(narrow.total_cost, wide.total_cost);

  // The executor agrees: the same searches, fewer tuples.
  join::SearchCounters narrow_counters;
  join::SearchCounters wide_counters;
  const std::vector<uint64_t> narrow_rows =
      StepRows(db, narrow, &narrow_counters);
  const std::vector<uint64_t> wide_rows = StepRows(db, wide, &wide_counters);
  ASSERT_EQ(narrow_rows.size(), 3u);
  ASSERT_EQ(wide_rows.size(), 3u);
  EXPECT_EQ(narrow_rows[2], wide_rows[2]);
  EXPECT_EQ(narrow_counters.total_searches(), wide_counters.total_searches());
  EXPECT_LT(narrow_rows[1], wide_rows[1]);

  auto chosen = Optimize(q, db);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  EXPECT_NE(PlanOrder(*chosen), PlanOrder(wide));
}

void ExpectPlansPinned(workload::GeneratedData data,
                       const std::vector<workload::NamedQuery>& queries,
                       const std::map<std::string, std::string>& expected) {
  auto db = storage::Database::Build(std::move(data.dict),
                                     std::move(data.triples));
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(queries.size(), expected.size());
  for (const workload::NamedQuery& q : queries) {
    auto plan = Optimize(Encode(q.sparql, *db), *db);
    ASSERT_TRUE(plan.ok()) << q.name << ": " << plan.status().ToString();
    auto it = expected.find(q.name);
    ASSERT_NE(it, expected.end()) << q.name;
    EXPECT_EQ(PlanOrder(*plan), it->second) << q.name;
  }
}

// Every benchmark template's chosen order and replicas with default
// options: a change to the cardinality model that moves any plan fails
// here.
TEST(OptimizerTest, TemplatePlansArePinned) {
  ExpectPlansPinned(workload::GenerateLubm({.universities = 1, .seed = 42}),
                    workload::LubmQueries(),
                    {
                        {"LUBM1", "1:OS 4:OS 2:OS 3:OS 0:OS 5:OS"},
                        {"LUBM2", "0:OS 1:SO"},
                        {"LUBM3", "1:OS 2:SO 3:SO 0:OS"},
                        {"LUBM4", "0:OS 2:SO 3:SO 1:OS 4:SO"},
                        {"LUBM5", "1:OS 0:OS"},
                        {"LUBM6", "1:OS 0:OS"},
                        {"LUBM7", "3:OS 2:OS 1:SO 0:OS"},
                        {"LUBM8", "1:SO 4:SO 0:OS 2:OS 3:OS"},
                        {"LUBM9", "1:SO 0:OS 2:OS"},
                        {"LUBM10", "2:OS 1:OS 3:OS 0:OS"},
                    });
  ExpectPlansPinned(workload::GenerateWatdiv({.scale = 1, .seed = 7}),
                    workload::WatdivBasicQueries(),
                    {
                        {"L1", "0:OS 1:SO"},
                        {"L2", "0:OS 1:SO"},
                        {"L3", "0:OS 1:SO"},
                        {"L4", "1:OS 0:OS"},
                        {"L5", "0:OS 1:OS"},
                        {"S1", "0:SO 1:SO 2:SO 7:SO 3:SO 4:SO 5:SO 6:SO"},
                        {"S2", "0:OS 1:SO 2:SO 3:OS"},
                        {"S3", "0:OS 2:SO 1:SO"},
                        {"S4", "0:OS 2:SO 1:SO"},
                        {"S5", "0:OS 1:SO 2:SO 3:OS"},
                        {"S6", "0:OS 1:SO 2:SO"},
                        {"S7", "0:OS 1:SO 2:SO"},
                        {"F1", "0:OS 4:SO 1:SO 2:SO 3:SO"},
                        {"F2", "0:SO 1:SO 4:SO 2:SO 3:SO"},
                        {"F3", "2:OS 1:OS 0:OS 3:SO"},
                        {"F4", "1:OS 0:OS 2:SO 3:SO"},
                        {"F5", "0:SO 1:SO 4:SO 2:SO 3:SO"},
                        {"C1", "3:OS 0:OS 1:SO 2:SO 4:OS"},
                        {"C2", "6:OS 5:OS 4:OS 3:OS 2:OS 1:OS 0:OS"},
                        {"C3", "3:OS 1:SO 2:SO 0:SO"},
                    });
}

}  // namespace
}  // namespace parj::query
