// Serving-cache behavior through the QueryServer front (DESIGN.md §15):
// plan-cache hits skip parse + optimize, result-cache hits skip execution
// entirely, shared-scan batching coalesces concurrent same-leading-scan
// queries — and every cached answer must be row-identical to the
// uncached path, across mutations and compaction.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "server/server.h"
#include "workload/lubm.h"

namespace parj::server {
namespace {

engine::ParjEngine MakeLubmEngine(int universities = 1) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = universities, .seed = 42});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

const char* kPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

std::string AdvisorQuery(int dept = 0) {
  return std::string(kPrefix) +
         "SELECT ?x ?y WHERE { ?x ub:advisor ?y . ?y ub:worksFor "
         "<http://www.Department" +
         std::to_string(dept) + ".University0.edu> }";
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

TEST(ServingCacheTest, RepeatQueryHitsResultCacheWithIdenticalRows) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  auto first = server.Execute(AdvisorQuery());
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->result_cached);
  auto second = server.Execute(AdvisorQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->result_cached);
  EXPECT_EQ(SortedRows(*first), SortedRows(*second));
  EXPECT_EQ(first->var_names, second->var_names);
  // The hit resolved on the submit thread: no second admission.
  EXPECT_EQ(server.metrics().queries_admitted.load(), 1u);
  EXPECT_GE(server.result_cache()->stats().hits, 1u);
}

TEST(ServingCacheTest, RepeatShapeHitsPlanCache) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  // Same text twice: second run binds the cached bound-level plan (the
  // result cache is off to keep the execution path exercised).
  SubmitOptions submit;
  submit.use_result_cache = false;
  auto first = server.Execute(AdvisorQuery(0), submit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cached);
  auto again = server.Execute(AdvisorQuery(0), submit);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cached);
  EXPECT_EQ(SortedRows(*first), SortedRows(*again));
  // Same shape, new constant: served via the shape level + BindTemplate.
  auto sibling = server.Execute(AdvisorQuery(5), submit);
  ASSERT_TRUE(sibling.ok());
  EXPECT_TRUE(sibling->plan_cached);
  auto uncached_sibling = engine.Execute(AdvisorQuery(5), {});
  ASSERT_TRUE(uncached_sibling.ok());
  EXPECT_EQ(SortedRows(*sibling), SortedRows(*uncached_sibling));
}

TEST(ServingCacheTest, MutationInvalidatesResultCache) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  const std::string query =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }";
  auto before = server.Execute(query);
  ASSERT_TRUE(before.ok());
  // Insert a new advisor edge; the cached answer is now stale.
  ASSERT_TRUE(engine
                  .Insert({rdf::Term::Iri("http://x/newstudent"),
                           rdf::Term::Iri(
                               "http://swat.cse.lehigh.edu/onto/"
                               "univ-bench.owl#advisor"),
                           rdf::Term::Iri("http://x/newprof")})
                  .ok());
  auto after = server.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->result_cached);
  EXPECT_EQ(after->row_count, before->row_count + 1);
  // And the fresh answer is cached at the new version.
  auto warm = server.Execute(query);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cached);
  EXPECT_EQ(warm->row_count, after->row_count);
}

TEST(ServingCacheTest, CompactionKeepsResultCacheEntriesValid) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  // Warm the cache with a delta-visible row in it.
  ASSERT_TRUE(engine
                  .Insert({rdf::Term::Iri("http://x/s"),
                           rdf::Term::Iri(
                               "http://swat.cse.lehigh.edu/onto/"
                               "univ-bench.owl#advisor"),
                           rdf::Term::Iri("http://x/o")})
                  .ok());
  const std::string query =
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }";
  auto warm = server.Execute(query);
  ASSERT_TRUE(warm.ok());
  // Compaction republishes identical content (data_version unchanged),
  // so the entry legitimately survives and stays row-identical.
  ASSERT_TRUE(engine.Compact().ok());
  auto after = server.Execute(query);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->result_cached);
  EXPECT_EQ(SortedRows(*warm), SortedRows(*after));
  auto fresh = engine.Execute(query, {});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(SortedRows(*after), SortedRows(*fresh));
}

TEST(ServingCacheTest, PreparedStatementsSkipParsing) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  auto stmt = server.Prepare(AdvisorQuery());
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE((*stmt)->normalized.eligible)
      << (*stmt)->normalized.ineligible_reason;
  SubmitOptions submit;
  submit.use_result_cache = false;
  SubmittedQuery q = server.SubmitPrepared(*stmt, submit);
  auto result = q.result.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto uncached = engine.Execute(AdvisorQuery(), {});
  ASSERT_TRUE(uncached.ok());
  EXPECT_EQ(SortedRows(*result), SortedRows(*uncached));
  // Parse errors surface at Prepare, not at submit.
  EXPECT_FALSE(server.Prepare("SELECT WHERE {").ok());
}

TEST(ServingCacheTest, EngineExecuteSharedMatchesSoloExecution) {
  engine::ParjEngine engine = MakeLubmEngine();
  // Three distinct residual pipelines over the identical leading
  // ?x ub:advisor ?y scan (forced order pins the leading pattern).
  query::OptimizerOptions forced_two;
  forced_two.forced_order = {0, 1};
  query::OptimizerOptions forced_one;
  forced_one.forced_order = {0};
  std::vector<query::Plan> plans;
  for (int dept = 0; dept < 2; ++dept) {
    auto plan = engine.Explain(AdvisorQuery(dept), forced_two);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    plans.push_back(std::move(*plan));
  }
  auto single = engine.Explain(
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }",
      forced_one);
  ASSERT_TRUE(single.ok());
  plans.push_back(std::move(*single));

  for (join::Scheduling scheduling :
       {join::Scheduling::kStatic, join::Scheduling::kMorsel}) {
    for (int threads : {1, 4}) {
      std::vector<const query::Plan*> plan_ptrs;
      std::vector<engine::QueryOptions> options(plans.size());
      for (size_t i = 0; i < plans.size(); ++i) {
        plan_ptrs.push_back(&plans[i]);
        options[i].num_threads = threads;
        options[i].scheduling = scheduling;
      }
      auto shared = engine.ExecuteShared(plan_ptrs, options);
      ASSERT_TRUE(shared.ok()) << shared.status().ToString();
      ASSERT_EQ(shared->size(), plans.size());
      for (size_t i = 0; i < plans.size(); ++i) {
        EXPECT_TRUE((*shared)[i].shared_scan);
        auto solo = engine.ExecutePlan(plans[i], options[i]);
        ASSERT_TRUE(solo.ok());
        EXPECT_EQ(SortedRows((*shared)[i]), SortedRows(*solo))
            << "member " << i << " at " << threads << " thread(s), "
            << join::SchedulingName(scheduling);
        EXPECT_EQ((*shared)[i].var_names, solo->var_names);
      }
    }
  }
}

TEST(ServingCacheTest, ServerCoalescesQueuedSameScanQueries) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.scheduler.max_in_flight = 1;  // force queueing behind a blocker
  options.scheduler.max_queue = 64;
  options.query_defaults.mode = join::ResultMode::kCount;
  QueryServer server(&engine, options);
  // Distinct texts, identical single-pattern leading scan — every plan
  // opens with the unbound ?x ub:advisor ?y table walk.
  const std::vector<std::string> queries = {
      std::string(kPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }",
      std::string(kPrefix) + "SELECT ?x WHERE { ?x ub:advisor ?y }",
      std::string(kPrefix) + "SELECT ?y WHERE { ?x ub:advisor ?y }",
      std::string(kPrefix) + "SELECT DISTINCT ?y WHERE { ?x ub:advisor ?y }",
  };
  SubmitOptions submit;
  submit.use_result_cache = false;
  std::vector<uint64_t> uncached_counts;
  for (const std::string& q : queries) {
    auto r = server.Execute(q, submit);  // also warms the plan cache
    ASSERT_TRUE(r.ok());
    uncached_counts.push_back(r->row_count);
  }
  // The blocker owns the only slot while the batch queues up; when it
  // finishes, the first queued job leads a shared pass over the rest.
  SubmittedQuery blocker = server.Submit(
      std::string(kPrefix) +
          "SELECT ?x ?y ?z WHERE { ?x a ub:UndergraduateStudent . "
          "?y a ub:UndergraduateStudent . ?z a ub:UndergraduateStudent . }",
      submit);
  std::vector<SubmittedQuery> in_flight;
  for (const std::string& q : queries) {
    in_flight.push_back(server.Submit(q, submit));
  }
  blocker.Cancel();
  (void)blocker.result.get();
  for (size_t i = 0; i < in_flight.size(); ++i) {
    auto r = in_flight[i].result.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->row_count, uncached_counts[i]) << queries[i];
    EXPECT_TRUE(r->plan_cached);
  }
  server.Drain();
  const MetricsRegistry& m = server.metrics();
  EXPECT_GE(m.shared_scan_groups.load(), 1u);
  EXPECT_GE(m.shared_scan_queries_coalesced.load(), 3u);
  EXPECT_EQ(m.queries_failed.load(), 0u);
}

TEST(ServingCacheTest, SubmitOptionsOptOutsBypassCaches) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  SubmitOptions opt_out;
  opt_out.use_result_cache = false;
  opt_out.use_plan_cache = false;
  auto r = server.Execute(AdvisorQuery(), opt_out);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->result_cached);
  EXPECT_FALSE(r->plan_cached);
}

TEST(ServingCacheTest, DisabledCachesServeUncached) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.enable_plan_cache = false;
  options.result_cache_bytes = 0;
  options.enable_shared_scan = false;
  QueryServer server(&engine, options);
  EXPECT_EQ(server.plan_cache(), nullptr);
  EXPECT_EQ(server.result_cache(), nullptr);
  auto first = server.Execute(AdvisorQuery());
  auto second = server.Execute(AdvisorQuery());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cached);
  EXPECT_FALSE(second->plan_cached);
  EXPECT_EQ(SortedRows(*first), SortedRows(*second));
}

TEST(ServingCacheTest, ClearCachesDropsEverything) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  EXPECT_GT(server.plan_cache()->size(), 0u);
  EXPECT_GT(server.result_cache()->stats().entries, 0u);
  server.ClearCaches();
  EXPECT_EQ(server.plan_cache()->size(), 0u);
  EXPECT_EQ(server.result_cache()->stats().entries, 0u);
  auto r = server.Execute(AdvisorQuery());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->result_cached);
}

TEST(ServingCacheTest, ResultCacheRespectsByteBudget) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  // A budget far below one answer's size: nothing must be cached, and
  // nothing must break.
  options.result_cache_bytes = 16;
  QueryServer server(&engine, options);
  auto first = server.Execute(AdvisorQuery());
  auto second = server.Execute(AdvisorQuery());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cached);
  EXPECT_EQ(server.result_cache()->stats().entries, 0u);
}

TEST(ServingCacheTest, CacheCountersFlowIntoMetricsDump) {
  engine::ParjEngine engine = MakeLubmEngine();
  QueryServer server(&engine, {});
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  ASSERT_TRUE(server.Execute(AdvisorQuery()).ok());
  server.RefreshMutationGauges();
  EXPECT_GE(server.metrics().result_cache_hits.load(), 1u);
  EXPECT_GE(server.metrics().result_cache_bytes.load(), 1u);
  EXPECT_GE(server.metrics().plan_cache_misses.load(), 1u);
  const std::string dump = server.metrics().Dump();
  EXPECT_NE(dump.find("plan_cache_hits"), std::string::npos);
  EXPECT_NE(dump.find("result_cache_hits"), std::string::npos);
  EXPECT_NE(dump.find("shared_scan_groups"), std::string::npos);
}

}  // namespace
}  // namespace parj::server
