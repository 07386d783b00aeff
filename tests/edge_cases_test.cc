// Cross-cutting edge cases that don't belong to a single module's suite:
// dictionary cloning, CRLF input, plan rendering, executor trace caps and
// mid-plan constant checks.

#include <gtest/gtest.h>

#include "query/optimizer.h"
#include "rdf/ntriples.h"
#include "test_util.h"

namespace parj {
namespace {

using test::Encode;
using test::MakeDatabase;
using test::Spec;

TEST(DictionaryCloneTest, CloneIsIndependentAndIdentical) {
  dict::Dictionary original;
  TermId a = original.EncodeResource(rdf::Term::Iri("a"));
  PredicateId p = original.EncodePredicate(rdf::Term::Iri("p"));

  dict::Dictionary copy = original.Clone();
  EXPECT_EQ(copy.LookupResource(rdf::Term::Iri("a")), a);
  EXPECT_EQ(copy.LookupPredicate(rdf::Term::Iri("p")), p);

  // Growing the clone does not affect the original.
  copy.EncodeResource(rdf::Term::Iri("b"));
  EXPECT_EQ(copy.resource_count(), 2u);
  EXPECT_EQ(original.resource_count(), 1u);
  EXPECT_EQ(original.LookupResource(rdf::Term::Iri("b")), kInvalidTermId);
}

TEST(NTriplesCrlfTest, WindowsLineEndingsParse) {
  rdf::NTriplesParser parser;
  auto triples = parser.ParseToVector("<a> <p> <b> .\r\n<b> <p> <c> .\r\n");
  ASSERT_TRUE(triples.ok()) << triples.status().ToString();
  EXPECT_EQ(triples->size(), 2u);
}

TEST(PlanToStringTest, RendersScanProbeAndBindings) {
  auto db = MakeDatabase({
      {"a", "p", "b"},
      {"b", "q", "c"},
  });
  auto q = Encode("SELECT ?x WHERE { ?x <p> ?y . ?y <q> <c> }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("probe"), std::string::npos);
  EXPECT_NE(text.find("?x"), std::string::npos);
  EXPECT_NE(text.find("[bound]"), std::string::npos);
  EXPECT_NE(text.find("est_rows"), std::string::npos);
}

TEST(PlanToStringTest, KnownEmptyPlan) {
  query::Plan plan;
  plan.known_empty = true;
  EXPECT_NE(plan.ToString().find("known empty"), std::string::npos);
}

TEST(ExecutorTraceCapTest, TraceRespectsEntryLimit) {
  Spec spec;
  for (int i = 0; i < 200; ++i) {
    spec.push_back({"s" + std::to_string(i), "p", "m" + std::to_string(i)});
    spec.push_back({"m" + std::to_string(i), "q", "t"});
  }
  auto db = MakeDatabase(spec);
  auto q = Encode("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }", db);
  query::OptimizerOptions oopts;
  oopts.forced_order = {0, 1};
  auto plan = query::Optimize(q, db, oopts);
  ASSERT_TRUE(plan.ok());
  join::Executor exec(&db);
  join::ExecOptions opts;
  opts.collect_probe_trace = true;
  opts.max_trace_entries = 10;
  auto r = exec.Execute(*plan, opts);
  ASSERT_TRUE(r.ok());
  size_t recorded = 0;
  for (const auto& step : r->trace.step_values) recorded += step.size();
  EXPECT_LE(recorded, 11u);  // cap plus the per-shard rounding slack
  EXPECT_EQ(r->row_count, 200u);  // results unaffected by the cap
}

TEST(ExecutorMidPlanConstantTest, ConstantObjectCheckedPerTuple) {
  // Plan order forces the constant-object pattern as a PROBE step (not a
  // first-step lookup): each intermediate tuple must membership-check the
  // constant in the run.
  auto db = MakeDatabase({
      {"a", "p", "m1"},
      {"b", "p", "m2"},
      {"m1", "q", "target"},
      {"m2", "q", "other"},
  });
  auto q = Encode("SELECT ?a WHERE { ?a <p> ?m . ?m <q> <target> }", db);
  query::OptimizerOptions oopts;
  oopts.forced_order = {0, 1};
  auto plan = query::Optimize(q, db, oopts);
  ASSERT_TRUE(plan.ok());
  join::Executor exec(&db);
  auto r = exec.Execute(*plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count, 1u);
  EXPECT_GT(r->counters.run_probes, 0u);
}

TEST(ReplicaSpanAccessorsTest, SpansMatchScalars) {
  storage::TableReplica r =
      storage::TableReplica::Build({{1, 5}, {1, 7}, {3, 2}});
  EXPECT_EQ(r.keys().size(), r.key_count());
  EXPECT_EQ(r.values().size(), r.pair_count());
  EXPECT_EQ(r.offsets().size(), r.key_count() + 1);
  EXPECT_EQ(r.min_key(), 1u);
  EXPECT_EQ(r.max_key(), 3u);
}

TEST(EngineUnionReasoningInterplayTest, UnionOverTypeAlternatives) {
  // A UNION over two class alternatives answers both branches.
  auto engine = test::MakeEngine({
      {"x", "type", "Full"},
      {"y", "type", "Assoc"},
      {"z", "type", "Other"},
  });
  auto r = engine.Execute(
      "SELECT ?s WHERE { { ?s <type> <Full> } UNION { ?s <type> <Assoc> } }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count, 2u);
}

}  // namespace
}  // namespace parj
