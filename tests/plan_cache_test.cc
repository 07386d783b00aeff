// Query normalization + plan cache: shape keys must identify exactly the
// queries that can share an optimized plan skeleton, and BindTemplate
// must produce plans row-identical to a fresh parse + optimize.

#include "query/plan_cache.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "engine/parj_engine.h"
#include "query/normalize.h"
#include "query/parser.h"

namespace parj::query {
namespace {

NormalizedQuery Normalize(const std::string& sparql) {
  auto ast = ParseQuery(sparql);
  PARJ_CHECK(ast.ok()) << ast.status().ToString();
  return NormalizeQuery(*ast);
}

engine::ParjEngine MakeEngine() {
  // Small, structured dataset: people work for departments, departments
  // belong to organizations, people know people.
  std::vector<rdf::Triple> triples;
  auto iri = [](const std::string& name) {
    return rdf::Term::Iri("http://x/" + name);
  };
  for (int p = 0; p < 20; ++p) {
    triples.push_back({iri("p" + std::to_string(p)), iri("worksFor"),
                       iri("d" + std::to_string(p % 4))});
    triples.push_back({iri("p" + std::to_string(p)), iri("knows"),
                       iri("p" + std::to_string((p + 1) % 20))});
  }
  for (int d = 0; d < 4; ++d) {
    triples.push_back({iri("d" + std::to_string(d)), iri("partOf"),
                       iri("o" + std::to_string(d % 2))});
  }
  auto engine = engine::ParjEngine::FromTriples(triples);
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

std::vector<std::vector<TermId>> SortedRows(const engine::QueryResult& r) {
  std::vector<std::vector<TermId>> rows;
  if (r.column_count == 0) return rows;
  rows.reserve(r.row_count);
  for (size_t i = 0; i < r.rows.size(); i += r.column_count) {
    rows.emplace_back(r.rows.begin() + i,
                      r.rows.begin() + i + r.column_count);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(NormalizeTest, SameShapeDifferentConstantsShareKey) {
  NormalizedQuery a = Normalize(
      "SELECT ?x WHERE { ?x <http://x/worksFor> <http://x/d0> }");
  NormalizedQuery b = Normalize(
      "SELECT ?x WHERE { ?x <http://x/worksFor> <http://x/d3> }");
  ASSERT_TRUE(a.eligible) << a.ineligible_reason;
  ASSERT_TRUE(b.eligible);
  EXPECT_EQ(a.shape_key, b.shape_key);
  ASSERT_EQ(a.params.size(), 2u);  // predicate + object
  EXPECT_NE(a.params[1].lexical(), b.params[1].lexical());
}

TEST(NormalizeTest, DifferentStructureDiffersInKey) {
  NormalizedQuery base = Normalize(
      "SELECT ?x WHERE { ?x <http://x/worksFor> <http://x/d0> }");
  // Constant in a different slot, different projection, added pattern,
  // DISTINCT, LIMIT: all must change the key.
  for (const char* other :
       {"SELECT ?x WHERE { <http://x/d0> <http://x/worksFor> ?x }",
        "SELECT * WHERE { ?x <http://x/worksFor> <http://x/d0> }",
        "SELECT ?x WHERE { ?x <http://x/worksFor> <http://x/d0> . "
        "?x <http://x/knows> ?y }",
        "SELECT DISTINCT ?x WHERE { ?x <http://x/worksFor> <http://x/d0> }",
        "SELECT ?x WHERE { ?x <http://x/worksFor> <http://x/d0> } LIMIT 5"}) {
    NormalizedQuery n = Normalize(other);
    ASSERT_TRUE(n.eligible) << other << ": " << n.ineligible_reason;
    EXPECT_NE(n.shape_key, base.shape_key) << other;
  }
}

TEST(NormalizeTest, SharedVariableStructureIsPartOfTheKey) {
  // ?y joining the two patterns vs. two independent variables.
  NormalizedQuery joined = Normalize(
      "SELECT ?x WHERE { ?x <http://x/worksFor> ?y . "
      "?y <http://x/partOf> ?z }");
  NormalizedQuery cross = Normalize(
      "SELECT ?x WHERE { ?x <http://x/worksFor> ?y . "
      "?w <http://x/partOf> ?z }");
  ASSERT_TRUE(joined.eligible);
  ASSERT_TRUE(cross.eligible);
  EXPECT_NE(joined.shape_key, cross.shape_key);
}

TEST(NormalizeTest, IneligibleShapes) {
  // Variable predicate.
  EXPECT_FALSE(
      Normalize("SELECT ?x WHERE { ?x ?p <http://x/d0> }").eligible);
  // Ordering filter (compiled to an epoch-specific bitmap).
  EXPECT_FALSE(
      Normalize("SELECT ?x WHERE { ?x <http://x/worksFor> ?y . "
                "FILTER(?y > 1) }")
          .eligible);
  // Constant-constant filter (folded by value at encode time).
  EXPECT_FALSE(
      Normalize("SELECT ?x WHERE { ?x <http://x/worksFor> ?y . "
                "FILTER(<http://x/d0> = <http://x/d0>) }")
          .eligible);
  // Equality filters between variables and constants stay eligible.
  EXPECT_TRUE(
      Normalize("SELECT ?x WHERE { ?x <http://x/worksFor> ?y . "
                "FILTER(?y != <http://x/d0>) }")
          .eligible);
}

TEST(PlanCacheTest, BindTemplateMatchesFreshOptimize) {
  engine::ParjEngine engine = MakeEngine();
  const std::string q_template =
      "SELECT ?x ?o WHERE { ?x <http://x/worksFor> ?d . "
      "?d <http://x/partOf> ?o . ?x <http://x/knows> <http://x/p1> }";
  const std::string q_bound =
      "SELECT ?x ?o WHERE { ?x <http://x/worksFor> ?d . "
      "?d <http://x/partOf> ?o . ?x <http://x/knows> <http://x/p7> }";
  NormalizedQuery norm_t = Normalize(q_template);
  NormalizedQuery norm_b = Normalize(q_bound);
  ASSERT_TRUE(norm_t.eligible);
  ASSERT_EQ(norm_t.shape_key, norm_b.shape_key);

  auto tmpl = engine.Explain(q_template);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  const mut::MvccSnapshot snap = engine.snapshot();
  auto bound =
      BindTemplate(*tmpl, norm_b, snap.base(), &snap.delta().overlay());
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  EXPECT_FALSE(bound->known_empty);

  engine::QueryOptions options;
  auto via_template = engine.ExecutePlan(*bound, options);
  auto via_fresh = engine.Execute(q_bound, options);
  ASSERT_TRUE(via_template.ok());
  ASSERT_TRUE(via_fresh.ok());
  EXPECT_EQ(via_template->row_count, via_fresh->row_count);
  EXPECT_EQ(SortedRows(*via_template), SortedRows(*via_fresh));
  EXPECT_EQ(via_template->var_names, via_fresh->var_names);
}

TEST(PlanCacheTest, BindTemplateAbsentTermMeansKnownEmpty) {
  engine::ParjEngine engine = MakeEngine();
  const std::string q_template =
      "SELECT ?x WHERE { ?x <http://x/worksFor> <http://x/d0> }";
  const std::string q_absent =
      "SELECT ?x WHERE { ?x <http://x/worksFor> <http://x/nowhere> }";
  auto tmpl = engine.Explain(q_template);
  ASSERT_TRUE(tmpl.ok());
  const mut::MvccSnapshot snap = engine.snapshot();
  auto bound = BindTemplate(*tmpl, Normalize(q_absent), snap.base(),
                            &snap.delta().overlay());
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->known_empty);
  auto result = engine.ExecutePlan(*bound, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count, 0u);
}

TEST(PlanCacheTest, BindTemplateDropsNeFilterOnAbsentTerm) {
  engine::ParjEngine engine = MakeEngine();
  const std::string q_template =
      "SELECT ?x WHERE { ?x <http://x/worksFor> ?y . "
      "FILTER(?y != <http://x/d0>) }";
  const std::string q_absent =
      "SELECT ?x WHERE { ?x <http://x/worksFor> ?y . "
      "FILTER(?y != <http://x/nowhere>) }";
  auto tmpl = engine.Explain(q_template);
  ASSERT_TRUE(tmpl.ok());
  const mut::MvccSnapshot snap = engine.snapshot();
  auto bound = BindTemplate(*tmpl, Normalize(q_absent), snap.base(),
                            &snap.delta().overlay());
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound->known_empty);
  // No binding can equal an absent term, so '!=' always holds and the
  // bound plan carries no filter at all — same as the encoder's folding.
  EXPECT_TRUE(bound->filters.empty());
  auto via_template = engine.ExecutePlan(*bound, {});
  auto via_fresh = engine.Execute(q_absent, {});
  ASSERT_TRUE(via_template.ok());
  ASSERT_TRUE(via_fresh.ok());
  EXPECT_EQ(SortedRows(*via_template), SortedRows(*via_fresh));
}

TEST(PlanCacheTest, GenerationMismatchIsAMissAndDropsTheEntry) {
  PlanCache cache(8);
  auto plan = std::make_shared<const Plan>();
  cache.InsertBound("q1", /*generation=*/1, /*fingerprint=*/7, plan);
  EXPECT_NE(cache.LookupBound("q1", 1, 7), nullptr);
  EXPECT_EQ(cache.LookupBound("q1", 2, 7), nullptr);  // stale: dropped
  EXPECT_EQ(cache.LookupBound("q1", 1, 7), nullptr);
  cache.InsertBound("q1", 2, 7, plan);
  EXPECT_EQ(cache.LookupBound("q1", 2, 9), nullptr);  // options changed
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(PlanCacheTest, LruEvictsOldestWithinBudget) {
  PlanCache cache(2);
  auto plan = std::make_shared<const Plan>();
  cache.InsertBound("a", 1, 0, plan);
  cache.InsertBound("b", 1, 0, plan);
  EXPECT_NE(cache.LookupBound("a", 1, 0), nullptr);  // a is now MRU
  cache.InsertBound("c", 1, 0, plan);                // evicts b
  EXPECT_NE(cache.LookupBound("a", 1, 0), nullptr);
  EXPECT_EQ(cache.LookupBound("b", 1, 0), nullptr);
  EXPECT_NE(cache.LookupBound("c", 1, 0), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Shape level has its own budget.
  cache.InsertShape("s1", 1, 0, plan);
  cache.InsertShape("s2", 1, 0, plan);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(PlanCacheTest, OptimizerFingerprintSeparatesOptionSets) {
  OptimizerOptions a;
  OptimizerOptions b;
  EXPECT_EQ(OptimizerFingerprint(a), OptimizerFingerprint(b));
  b.dp_max_patterns = a.dp_max_patterns + 1;
  EXPECT_NE(OptimizerFingerprint(a), OptimizerFingerprint(b));
  OptimizerOptions c;
  c.forced_order = {1, 0};
  EXPECT_NE(OptimizerFingerprint(a), OptimizerFingerprint(c));
}

}  // namespace
}  // namespace parj::query
