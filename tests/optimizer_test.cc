#include "query/optimizer.h"

#include <map>
#include <string>

#include <gtest/gtest.h>

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
                        {"LUBM1", "1:OS 5:OS 0:SO 3:SO 2:SO 4:SO"},
                        {"LUBM2", "0:OS 1:SO"},
                        {"LUBM3", "1:OS 2:SO 0:OS 3:SO"},
                        {"LUBM4", "1:OS 2:SO 3:SO 4:SO 0:OS"},
                        {"LUBM5", "1:OS 0:OS"},
                        {"LUBM6", "1:OS 0:OS"},
                        {"LUBM7", "3:OS 2:OS 1:SO 0:OS"},
                        {"LUBM8", "1:SO 4:SO 0:OS 2:OS 3:OS"},
                        {"LUBM9", "0:OS 2:SO 1:SO"},
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
                        {"S2", "0:OS 2:SO 1:SO 3:OS"},
                        {"S3", "0:OS 2:SO 1:SO"},
                        {"S4", "0:OS 2:SO 1:SO"},
                        {"S5", "0:OS 1:SO 2:SO 3:OS"},
                        {"S6", "0:OS 1:SO 2:SO"},
                        {"S7", "0:OS 1:SO 2:SO"},
                        {"F1", "0:OS 4:SO 1:SO 2:SO 3:SO"},
                        {"F2", "0:SO 1:SO 2:SO 4:SO 3:SO"},
                        {"F3", "2:OS 1:OS 0:OS 3:SO"},
                        {"F4", "1:OS 0:OS 2:SO 3:SO"},
                        {"F5", "0:SO 1:SO 4:SO 2:SO 3:SO"},
                        {"C1", "4:OS 2:OS 1:OS 0:SO 3:OS"},
                        {"C2", "6:OS 5:OS 4:OS 3:OS 2:OS 1:OS 0:OS"},
                        {"C3", "3:OS 1:SO 2:SO 0:SO"},
                    });
}

}  // namespace
}  // namespace parj::query
