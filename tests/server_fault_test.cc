// End-to-end fault injection through the serving stack: armed failpoints
// must surface as clean Status propagation — never a crash, never a hang,
// and never a poisoned thread pool.

#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/logging.h"
#include "server/server.h"
#include "workload/lubm.h"

namespace parj::server {
namespace {

engine::ParjEngine MakeLubmEngine() {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 42});
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

const char* kPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

std::string SimpleQuery() {
  return std::string(kPrefix) +
         "SELECT ?x WHERE { ?x a ub:UndergraduateStudent . }";
}

engine::QueryOptions CountMode(int threads = 1) {
  engine::QueryOptions options;
  options.mode = join::ResultMode::kCount;
  options.num_threads = threads;
  return options;
}

class ServerFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override { failpoint::DisarmAll(); }
};

TEST_F(ServerFaultTest, MorselWorkerThrowFailsQueryPoolSurvives) {
  engine::ParjEngine engine = MakeLubmEngine();
  const auto baseline = engine.Execute(SimpleQuery(), CountMode(4));
  ASSERT_TRUE(baseline.ok());

  // One worker's morsel throws bad_alloc mid-join; the query must fail
  // with a contained Status while the other workers stop cleanly.
  ASSERT_TRUE(failpoint::Arm("join.worker.morsel", "throw:1").ok());
  auto faulted = engine.Execute(SimpleQuery(), CountMode(4));
  ASSERT_FALSE(faulted.ok());
  EXPECT_TRUE(faulted.status().IsResourceExhausted())
      << faulted.status().ToString();

  // The pool survived: the very same engine and threads answer again.
  failpoint::DisarmAll();
  auto recovered = engine.Execute(SimpleQuery(), CountMode(4));
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->row_count, baseline->row_count);
}

TEST_F(ServerFaultTest, MorselWorkerInjectedErrorNamesFailpoint) {
  engine::ParjEngine engine = MakeLubmEngine();
  ASSERT_TRUE(failpoint::Arm("join.worker.morsel", "error:1").ok());
  auto faulted = engine.Execute(SimpleQuery(), CountMode(4));
  ASSERT_FALSE(faulted.ok());
  EXPECT_TRUE(faulted.status().IsInternal());
  EXPECT_NE(faulted.status().message().find("join.worker.morsel"),
            std::string::npos);
}

TEST_F(ServerFaultTest, StaticShardFaultContained) {
  engine::ParjEngine engine = MakeLubmEngine();
  for (int threads : {1, 4}) {
    ASSERT_TRUE(failpoint::Arm("join.worker.shard", "throw:1").ok());
    engine::QueryOptions options = CountMode(threads);
    options.scheduling = join::Scheduling::kStatic;
    auto faulted = engine.Execute(SimpleQuery(), options);
    ASSERT_FALSE(faulted.ok()) << "threads=" << threads;
    EXPECT_TRUE(faulted.status().IsResourceExhausted());
    failpoint::DisarmAll();
    EXPECT_TRUE(engine.Execute(SimpleQuery(), options).ok());
  }
}

TEST_F(ServerFaultTest, ServerContainsEngineBoundaryException) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  QueryServer server(&engine, options);

  ASSERT_TRUE(failpoint::Arm("server.execute", "throw:1").ok());
  SubmittedQuery q = server.Submit(SimpleQuery());
  Result<engine::QueryResult> result = q.result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(server.metrics().worker_faults.load(), 1u);

  // Serving continues: the next query on the same server succeeds.
  failpoint::DisarmAll();
  EXPECT_TRUE(server.Execute(SimpleQuery()).ok());
}

TEST_F(ServerFaultTest, PlanCacheInsertFaultDegradesToUncached) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  QueryServer server(&engine, options);

  // With every plan-cache insert failing, queries still run — they just
  // pay the full parse + optimize path each time, and the cache stays cold.
  ASSERT_TRUE(failpoint::Arm("plancache.insert", "error").ok());
  SubmitOptions submit;
  submit.use_result_cache = false;
  auto first = server.Execute(SimpleQuery(), submit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = server.Execute(SimpleQuery(), submit);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->plan_cached);
  EXPECT_EQ(second->row_count, first->row_count);
  ASSERT_NE(server.plan_cache(), nullptr);
  EXPECT_EQ(server.plan_cache()->size(), 0u);

  // Disarm: the very next repeat populates and then serves from the cache.
  failpoint::DisarmAll();
  ASSERT_TRUE(server.Execute(SimpleQuery(), submit).ok());
  auto warm = server.Execute(SimpleQuery(), submit);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cached);
  EXPECT_EQ(warm->row_count, first->row_count);
}

TEST_F(ServerFaultTest, ResultCacheInsertFaultDegradesToUncached) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  QueryServer server(&engine, options);

  ASSERT_TRUE(failpoint::Arm("resultcache.insert", "error").ok());
  auto first = server.Execute(SimpleQuery());
  ASSERT_TRUE(first.ok());
  auto second = server.Execute(SimpleQuery());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->result_cached);  // re-executed, not served stale
  EXPECT_EQ(second->row_count, first->row_count);
  ASSERT_NE(server.result_cache(), nullptr);
  EXPECT_EQ(server.result_cache()->stats().entries, 0u);

  failpoint::DisarmAll();
  ASSERT_TRUE(server.Execute(SimpleQuery()).ok());
  auto warm = server.Execute(SimpleQuery());
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->result_cached);
  EXPECT_EQ(warm->row_count, first->row_count);
}

TEST_F(ServerFaultTest, ExecuteRetriesTransientAdmissionFailure) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  QueryServer server(&engine, options);

  // The first two admissions fail transiently; the third succeeds.
  ASSERT_TRUE(failpoint::Arm("server.admit", "exhausted:2").ok());
  Result<engine::QueryResult> result = server.Execute(SimpleQuery());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(server.metrics().retries.load(), 2u);
  EXPECT_EQ(server.metrics().admission_rejected.load(), 2u);
}

TEST_F(ServerFaultTest, ExecuteGivesUpAfterMaxAttempts) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  QueryServer server(&engine, options);

  ASSERT_TRUE(failpoint::Arm("server.admit", "exhausted").ok());
  Result<engine::QueryResult> result = server.Execute(SimpleQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted());
  EXPECT_EQ(server.metrics().retries.load(),
            static_cast<uint64_t>(RetryPolicy::kMaxAttempts - 1));
  EXPECT_EQ(server.metrics().admission_rejected.load(),
            static_cast<uint64_t>(RetryPolicy::kMaxAttempts));
}

TEST_F(ServerFaultTest, ExecuteTimeoutSpansRetries) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  QueryServer server(&engine, options);

  // Two transient rejections cost at least 0.5 + 1 ms of backoff, which
  // already exceeds the 1 ms client budget: the last attempt must find
  // its deadline expired instead of starting a fresh timeout.
  ASSERT_TRUE(failpoint::Arm("server.admit", "exhausted:2").ok());
  SubmitOptions submit;
  submit.timeout_millis = 1.0;
  Result<engine::QueryResult> result = server.Execute(SimpleQuery(), submit);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(server.metrics().queries_admitted.load(), 0u);
  EXPECT_EQ(server.metrics().deadlines_expired.load(), 1u);
}

TEST_F(ServerFaultTest, ExecuteNeverRetriesPermanentFailures) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  QueryServer server(&engine, options);

  ASSERT_TRUE(failpoint::Arm("server.execute", "error:1").ok());
  Result<engine::QueryResult> result = server.Execute(SimpleQuery());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInternal());
  EXPECT_EQ(server.metrics().retries.load(), 0u);
}

TEST_F(ServerFaultTest, QueryCapExpiresOverrunningQuery) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  options.max_query_millis = 20.0;
  QueryServer server(&engine, options);

  // Deterministic overrun: the query stalls 200ms at the execution
  // boundary, far past the 20ms cap, so its deadline has always passed
  // by the time the engine checks it.
  ASSERT_TRUE(failpoint::Arm("server.execute", "sleep-200:1").ok());
  SubmittedQuery q = server.Submit(SimpleQuery());
  Result<engine::QueryResult> result = q.result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(server.metrics().deadlines_expired.load(), 1u);

  // Within-cap queries are untouched.
  EXPECT_TRUE(server.Execute(SimpleQuery()).ok());
  EXPECT_EQ(server.metrics().deadlines_expired.load(), 1u);
}

TEST_F(ServerFaultTest, QueryCapStartsAtJobStart) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  options.scheduler.max_in_flight = 1;
  options.max_query_millis = 20.0;
  QueryServer server(&engine, options);

  // A stalls 100ms in its only execution slot, so B waits in the queue
  // for far longer than the cap. The cap counts from each job's start:
  // A expires, B still gets its full 20ms and succeeds.
  ASSERT_TRUE(failpoint::Arm("server.execute", "sleep-100:1").ok());
  SubmittedQuery a = server.Submit(SimpleQuery());
  SubmittedQuery b = server.Submit(SimpleQuery());
  Result<engine::QueryResult> a_result = a.result.get();
  Result<engine::QueryResult> b_result = b.result.get();
  ASSERT_FALSE(a_result.ok());
  EXPECT_TRUE(a_result.status().IsDeadlineExceeded())
      << a_result.status().ToString();
  ASSERT_TRUE(b_result.ok()) << b_result.status().ToString();
  EXPECT_GE(server.metrics().queue_wait.max_millis(), 20.0);
  EXPECT_EQ(server.metrics().deadlines_expired.load(), 1u);
}

TEST_F(ServerFaultTest, ClientTimeoutTighterThanCapStillFires) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  options.max_query_millis = 60000.0;
  QueryServer server(&engine, options);

  // Applying the cap at job start must not loosen a tighter client
  // deadline: the 20ms timeout fires long before the one-minute cap.
  ASSERT_TRUE(failpoint::Arm("server.execute", "sleep-200:1").ok());
  SubmitOptions submit;
  submit.timeout_millis = 20.0;
  const auto start = std::chrono::steady_clock::now();
  Result<engine::QueryResult> result =
      server.Submit(SimpleQuery(), submit).result.get();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  EXPECT_EQ(server.metrics().deadlines_expired.load(), 1u);
}

TEST_F(ServerFaultTest, QueryCapOffByDefault) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode();
  EXPECT_EQ(options.max_query_millis, 0.0);
  QueryServer server(&engine, options);

  // Without a cap, a slow query runs to completion.
  ASSERT_TRUE(failpoint::Arm("server.execute", "sleep-50:1").ok());
  EXPECT_TRUE(server.Execute(SimpleQuery()).ok());
  EXPECT_EQ(server.metrics().deadlines_expired.load(), 0u);
}

TEST_F(ServerFaultTest, FaultedQueriesDoNotPoisonConcurrentOnes) {
  engine::ParjEngine engine = MakeLubmEngine();
  ServerOptions options;
  options.query_defaults = CountMode(2);
  options.scheduler.max_in_flight = 4;
  QueryServer server(&engine, options);
  const auto baseline = engine.Execute(SimpleQuery(), CountMode());
  ASSERT_TRUE(baseline.ok());

  // Three of the next joins fault; everything else must still be exact.
  ASSERT_TRUE(failpoint::Arm("join.worker.morsel", "error:3").ok());
  std::vector<SubmittedQuery> submitted;
  for (int i = 0; i < 12; ++i) submitted.push_back(server.Submit(SimpleQuery()));
  int failed = 0;
  for (auto& q : submitted) {
    Result<engine::QueryResult> result = q.result.get();
    if (result.ok()) {
      EXPECT_EQ(result->row_count, baseline->row_count);
    } else {
      EXPECT_TRUE(result.status().IsInternal());
      ++failed;
    }
  }
  EXPECT_GE(failed, 1);
  EXPECT_LE(failed, 3);
  EXPECT_EQ(server.metrics().queries_failed.load(),
            static_cast<uint64_t>(failed));
}

}  // namespace
}  // namespace parj::server
