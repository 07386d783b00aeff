#include "join/executor.h"

#include <functional>
#include <future>

#include <gtest/gtest.h>

#include "query/optimizer.h"
#include "server/thread_pool.h"
#include "test_util.h"

namespace parj::join {
namespace {

using test::Encode;
using test::MakeDatabase;
using test::Spec;
using test::ToSortedRows;

const Spec kPaperExample = {
    {"ProfessorA", "teaches", "Mathematics"},
    {"ProfessorB", "teaches", "Chemistry"},
    {"ProfessorC", "teaches", "Literature"},
    {"ProfessorA", "teaches", "Physics"},
    {"ProfessorA", "worksFor", "University1"},
    {"ProfessorB", "worksFor", "University2"},
    {"ProfessorC", "worksFor", "University2"},
};

ExecResult MustExecute(const storage::Database& db, const std::string& sparql,
                       ExecOptions opts = {}) {
  auto q = Encode(sparql, db);
  auto plan = query::Optimize(q, db);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  Executor exec(&db);
  auto result = exec.Execute(*plan, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TermId Id(const storage::Database& db, const std::string& name) {
  return db.dictionary().LookupResource(rdf::Term::Iri(name));
}

TEST(ExecutorTest, PaperExample31SubjectSubjectJoin) {
  auto db = MakeDatabase(kPaperExample);
  // ?x teaches ?z . ?x worksFor ?y  (paper Example 3.1): one row per
  // (course, employment) pair = 4 rows.
  auto r = MustExecute(db, "SELECT ?x ?y ?z WHERE "
                           "{ ?x <teaches> ?z . ?x <worksFor> ?y }");
  EXPECT_EQ(r.row_count, 4u);
  EXPECT_EQ(r.column_count, 3u);
}

TEST(ExecutorTest, PaperExample32ConstantFilter) {
  auto db = MakeDatabase(kPaperExample);
  // Example 3.2: ?x teaches ?z . ?x worksFor University1.
  auto r = MustExecute(
      db, "SELECT ?x ?z WHERE { ?x <teaches> ?z . ?x <worksFor> "
          "<University1> }");
  EXPECT_EQ(r.row_count, 2u);  // ProfessorA teaches Math & Physics
  auto rows = ToSortedRows(r.rows, 2);
  for (const auto& row : rows) {
    EXPECT_EQ(row[0], Id(db, "ProfessorA"));
  }
}

TEST(ExecutorTest, SingleFullyConstantPattern) {
  auto db = MakeDatabase(kPaperExample);
  auto r = MustExecute(db, "SELECT ?x WHERE { <ProfessorA> <teaches> "
                           "<Physics> . <ProfessorA> <worksFor> ?x }");
  EXPECT_EQ(r.row_count, 1u);
  EXPECT_EQ(r.rows[0], Id(db, "University1"));
}

TEST(ExecutorTest, AbsentConstantYieldsEmpty) {
  auto db = MakeDatabase(kPaperExample);
  auto r = MustExecute(db, "SELECT ?x WHERE { <ProfessorB> <teaches> "
                           "<Physics> . <ProfessorB> <worksFor> ?x }");
  EXPECT_EQ(r.row_count, 0u);
}

TEST(ExecutorTest, ObjectObjectJoin) {
  auto db = MakeDatabase({
      {"a", "p", "x"},
      {"b", "p", "y"},
      {"c", "q", "x"},
      {"d", "q", "z"},
  });
  auto r = MustExecute(db, "SELECT * WHERE { ?s1 <p> ?o . ?s2 <q> ?o }");
  EXPECT_EQ(r.row_count, 1u);  // only x is shared
}

TEST(ExecutorTest, ChainJoin) {
  auto db = MakeDatabase({
      {"a", "p", "b"},
      {"b", "q", "c"},
      {"c", "r", "d"},
      {"x", "p", "y"},
      {"y", "q", "z"},
  });
  auto r = MustExecute(
      db, "SELECT * WHERE { ?v0 <p> ?v1 . ?v1 <q> ?v2 . ?v2 <r> ?v3 }");
  EXPECT_EQ(r.row_count, 1u);
  auto rows = ToSortedRows(r.rows, 4);
  // Column order follows projection (= variable appearance order).
  EXPECT_EQ(rows[0][0], Id(db, "a"));
  EXPECT_EQ(rows[0][3], Id(db, "d"));
}

TEST(ExecutorTest, SelfJoinPattern) {
  auto db = MakeDatabase({{"a", "p", "a"}, {"a", "p", "b"}, {"c", "p", "c"}});
  auto r = MustExecute(db, "SELECT ?x WHERE { ?x <p> ?x }");
  EXPECT_EQ(r.row_count, 2u);
  auto rows = ToSortedRows(r.rows, 1);
  EXPECT_EQ(rows[0][0], Id(db, "a"));
  EXPECT_EQ(rows[1][0], Id(db, "c"));
}

TEST(ExecutorTest, CartesianProduct) {
  auto db = MakeDatabase({{"a", "p", "b"}, {"c", "p", "d"},
                          {"x", "q", "y"}, {"z", "q", "w"}});
  auto r = MustExecute(db, "SELECT * WHERE { ?a <p> ?b . ?c <q> ?d }");
  EXPECT_EQ(r.row_count, 4u);  // 2 x 2
}

TEST(ExecutorTest, CountModeMatchesMaterializeMode) {
  auto db = MakeDatabase(kPaperExample);
  ExecOptions count;
  count.mode = ResultMode::kCount;
  ExecOptions mat;
  mat.mode = ResultMode::kMaterialize;
  const std::string q =
      "SELECT ?x ?z WHERE { ?x <teaches> ?z . ?x <worksFor> ?y }";
  auto rc = MustExecute(db, q, count);
  auto rm = MustExecute(db, q, mat);
  EXPECT_EQ(rc.row_count, rm.row_count);
  EXPECT_TRUE(rc.rows.empty());
  EXPECT_EQ(rm.rows.size(), rm.row_count * rm.column_count);
}

TEST(ExecutorTest, AllStrategiesAgree) {
  auto db = MakeDatabase(kPaperExample);
  const std::string q =
      "SELECT ?x ?y ?z WHERE { ?x <teaches> ?z . ?x <worksFor> ?y }";
  std::vector<std::vector<std::vector<TermId>>> all;
  for (SearchStrategy s :
       {SearchStrategy::kBinary, SearchStrategy::kAdaptiveBinary,
        SearchStrategy::kIndex, SearchStrategy::kAdaptiveIndex}) {
    ExecOptions opts;
    opts.strategy = s;
    auto r = MustExecute(db, q, opts);
    all.push_back(ToSortedRows(r.rows, r.column_count));
  }
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_EQ(all[0], all[i]) << "strategy " << i;
  }
}

TEST(ExecutorTest, IndexStrategyRequiresIndexes) {
  storage::DatabaseOptions no_index;
  no_index.build_id_position_indexes = false;
  auto db = MakeDatabase(kPaperExample, no_index);
  auto q = Encode("SELECT ?x ?z WHERE { ?x <teaches> ?z . ?x <worksFor> ?y }",
                  db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  ExecOptions opts;
  opts.strategy = SearchStrategy::kIndex;
  auto result = exec.Execute(*plan, opts);
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, MultiThreadMatchesSingleThread) {
  Spec spec;
  for (int i = 0; i < 300; ++i) {
    spec.push_back({"s" + std::to_string(i), "p",
                    "m" + std::to_string(i % 50)});
    spec.push_back({"m" + std::to_string(i % 50), "q",
                    "t" + std::to_string(i % 7)});
  }
  auto db = MakeDatabase(spec);
  const std::string q = "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }";
  ExecOptions one;
  one.num_threads = 1;
  auto r1 = MustExecute(db, q, one);
  for (int threads : {2, 3, 8, 64}) {
    ExecOptions many;
    many.num_threads = threads;
    auto rn = MustExecute(db, q, many);
    EXPECT_EQ(rn.row_count, r1.row_count) << threads << " threads";
    EXPECT_EQ(ToSortedRows(rn.rows, rn.column_count),
              ToSortedRows(r1.rows, r1.column_count));
  }
}

TEST(ExecutorTest, EmulatedParallelMatchesRealThreads) {
  Spec spec;
  for (int i = 0; i < 200; ++i) {
    spec.push_back({"s" + std::to_string(i), "p", "o" + std::to_string(i % 9)});
  }
  auto db = MakeDatabase(spec);
  const std::string q = "SELECT * WHERE { ?a <p> ?b }";
  for (Scheduling scheduling : {Scheduling::kStatic, Scheduling::kMorsel}) {
    SCOPED_TRACE(SchedulingName(scheduling));
    ExecOptions emu;
    emu.num_threads = 4;
    emu.scheduling = scheduling;
    emu.emulate_parallel = true;
    auto r = MustExecute(db, q, emu);
    EXPECT_EQ(r.row_count, 200u);
    EXPECT_EQ(r.shard_millis.size(), 4u);
    EXPECT_GT(r.emulated_parallel_millis, 0.0);
    // max(shard) <= sum(shards) = wall model.
    double sum = 0;
    for (double ms : r.shard_millis) sum += ms;
    EXPECT_LE(r.emulated_parallel_millis, sum + 1e-9);

    ExecOptions real = emu;
    real.emulate_parallel = false;
    auto rr = MustExecute(db, q, real);
    EXPECT_EQ(rr.row_count, r.row_count);
    EXPECT_EQ(ToSortedRows(rr.rows, rr.column_count),
              ToSortedRows(r.rows, r.column_count));
    EXPECT_EQ(rr.step_rows, r.step_rows);
    EXPECT_TRUE(rr.shard_millis.empty());
  }
}

TEST(ExecutorTest, ConstantFirstKeyShardsItsRun) {
  // Paper Example 3.2: parallelism recovered by sharding the run of the
  // constant key.
  Spec spec;
  for (int i = 0; i < 100; ++i) {
    spec.push_back({"s" + std::to_string(i), "worksFor", "UniversityX"});
    spec.push_back({"s" + std::to_string(i), "teaches",
                    "c" + std::to_string(i)});
  }
  auto db = MakeDatabase(spec);
  const std::string q =
      "SELECT ?x ?z WHERE { ?x <worksFor> <UniversityX> . ?x <teaches> ?z }";
  ExecOptions opts;
  opts.num_threads = 4;
  opts.emulate_parallel = true;
  auto r = MustExecute(db, q, opts);
  EXPECT_EQ(r.row_count, 100u);
  EXPECT_EQ(r.shard_millis.size(), 4u);  // the run was sharded
}

TEST(ExecutorTest, PerShardLimitStopsEarly) {
  Spec spec;
  for (int i = 0; i < 100; ++i) {
    spec.push_back({"s" + std::to_string(i), "p", "o"});
  }
  auto db = MakeDatabase(spec);
  const std::string q = "SELECT ?x WHERE { ?x <p> <o> }";
  ExecOptions opts;
  opts.per_shard_limit = 5;
  auto r = MustExecute(db, q, opts);
  EXPECT_EQ(r.row_count, 5u);

  // Static shards are fixed: each of the 4 stops at its own limit, so
  // exactly 4 x 5 rows, emulated or real. The real runs use a saturated
  // pool, so the caller runs every worker itself — a static worker must
  // still run only its own shard.
  opts.num_threads = 4;
  opts.scheduling = Scheduling::kStatic;
  opts.emulate_parallel = true;
  EXPECT_EQ(MustExecute(db, q, opts).row_count, 20u);

  server::ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([gate] { gate.wait(); });
  opts.emulate_parallel = false;
  opts.pool = &pool;
  const uint64_t limited = MustExecute(db, q, opts).row_count;
  // Each shard holds 25 rows, under a limit of 30, so every row comes
  // back; a worker that stole a second shard would stop at 30.
  opts.per_shard_limit = 30;
  const uint64_t under_limit = MustExecute(db, q, opts).row_count;
  release.set_value();
  EXPECT_EQ(limited, 20u);
  EXPECT_EQ(under_limit, 100u);
}

TEST(ExecutorTest, CountersTallyProbes) {
  auto db = MakeDatabase(kPaperExample);
  auto r = MustExecute(db, "SELECT ?x ?y ?z WHERE "
                           "{ ?x <teaches> ?z . ?x <worksFor> ?y }");
  // Three distinct teaching professors probed into worksFor.
  EXPECT_EQ(r.counters.total_searches(), 3u);
}

TEST(ExecutorTest, ProbeTraceRecordsSearchedValues) {
  auto db = MakeDatabase(kPaperExample);
  ExecOptions opts;
  opts.collect_probe_trace = true;
  auto q = Encode(
      "SELECT ?x ?y ?z WHERE { ?x <teaches> ?z . ?x <worksFor> ?y }", db);
  query::OptimizerOptions oopts;
  oopts.forced_order = {0, 1};
  auto plan = query::Optimize(q, db, oopts);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  auto r = exec.Execute(*plan, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->trace.step_values.size(), 2u);
  EXPECT_TRUE(r->trace.step_values[0].empty());  // first step is a scan
  // One search per professor: ProfessorA teaches two courses, but the
  // second tuple keeps the same ?x and reuses the first search's position
  // -> 3 searches into worksFor (A, B, C), not one per tuple.
  ASSERT_EQ(r->trace.step_values[1].size(), 3u);
  EXPECT_EQ(r->counters.total_searches(), 3u);
}

TEST(ExecutorTest, EmptyPlanRejected) {
  auto db = MakeDatabase(kPaperExample);
  query::Plan plan;
  Executor exec(&db);
  EXPECT_FALSE(exec.Execute(plan).ok());
}

TEST(ExecutorTest, KnownEmptyPlanReturnsNoRows) {
  auto db = MakeDatabase(kPaperExample);
  query::Plan plan;
  plan.known_empty = true;
  plan.projection = {0};
  Executor exec(&db);
  auto r = exec.Execute(plan);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count, 0u);
}

TEST(ExecutorTest, InvalidThreadCountRejected) {
  auto db = MakeDatabase(kPaperExample);
  auto q = Encode("SELECT ?x WHERE { ?x <teaches> ?y }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  ExecOptions opts;
  opts.num_threads = 0;
  EXPECT_FALSE(exec.Execute(*plan, opts).ok());
}

TEST(ExecutorTest, StarJoinAllReplicaDirections) {
  auto db = MakeDatabase({
      {"p1", "name", "n1"},
      {"p1", "email", "e1"},
      {"p1", "phone", "t1"},
      {"p2", "name", "n2"},
      {"p2", "email", "e2"},
  });
  auto r = MustExecute(
      db,
      "SELECT * WHERE { ?x <name> ?n . ?x <email> ?e . ?x <phone> ?t }");
  EXPECT_EQ(r.row_count, 1u);
}


TEST(ExecutorTest, StepRowsTrackPipelineCardinalities) {
  auto db = MakeDatabase(kPaperExample);
  // Force the textual order: scan teaches (4 tuples), probe worksFor.
  auto q = Encode(
      "SELECT ?x ?y ?z WHERE { ?x <teaches> ?z . ?x <worksFor> ?y }", db);
  query::OptimizerOptions oopts;
  oopts.forced_order = {0, 1};
  auto plan = query::Optimize(q, db, oopts);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  auto r = exec.Execute(*plan);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->step_rows.size(), 2u);
  EXPECT_EQ(r->step_rows[0], 4u);  // four (professor, course) tuples
  EXPECT_EQ(r->step_rows[1], 4u);  // every professor works somewhere
  EXPECT_EQ(r->step_rows[1], r->row_count);
}

TEST(ExecutorTest, StepRowsSumAcrossShards) {
  Spec spec;
  for (int i = 0; i < 100; ++i) {
    spec.push_back({"s" + std::to_string(i), "p", "o" + std::to_string(i % 3)});
  }
  auto db = MakeDatabase(spec);
  auto q = Encode("SELECT * WHERE { ?a <p> ?b }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  ExecOptions opts;
  opts.num_threads = 4;
  auto r = exec.Execute(*plan, opts);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->step_rows.size(), 1u);
  EXPECT_EQ(r->step_rows[0], 100u);
}

TEST(ExecutorTest, ZeroLimitGateRejected) {
  auto db = MakeDatabase(kPaperExample);
  auto q = Encode("SELECT ?x WHERE { ?x <teaches> ?y }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  LimitGate gate;
  ExecOptions opts;
  opts.limit_gate = &gate;
  EXPECT_TRUE(exec.Execute(*plan, opts).status().IsInvalidArgument());
  gate.limit = 1;
  EXPECT_TRUE(exec.Execute(*plan, opts).ok());
}

/// ExecuteShared's argument checks. Each case runs a two-member shared
/// scan of `?x <teaches> ?y` after editing the second member's plan and
/// options; the unedited pair is the control that must succeed.
class SharedScanValidationTest : public ::testing::Test {
 protected:
  SharedScanValidationTest() : db_(MakeDatabase(kPaperExample)) {}

  query::Plan PlanFor(const std::string& sparql) {
    auto plan = query::Optimize(Encode(sparql, db_), db_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return std::move(plan).value();
  }

  Status RunPair(
      const std::function<void(query::Plan*, ExecOptions*)>& edit = {}) {
    const query::Plan lead = PlanFor("SELECT ?x ?y WHERE { ?x <teaches> ?y }");
    query::Plan member = lead;
    std::vector<ExecOptions> options(2);
    if (edit) edit(&member, &options[1]);
    const std::vector<const query::Plan*> plans = {&lead, &member};
    return Executor(&db_).ExecuteShared(plans, options).status();
  }

  storage::Database db_;
};

TEST_F(SharedScanValidationTest, UneditedPairRuns) {
  EXPECT_TRUE(RunPair().ok());
}

TEST_F(SharedScanValidationTest, EmptyOrMismatchedSpansRejected) {
  Executor exec(&db_);
  EXPECT_TRUE(exec.ExecuteShared({}, {}).status().IsInvalidArgument());
  const query::Plan plan = PlanFor("SELECT ?x ?y WHERE { ?x <teaches> ?y }");
  const std::vector<const query::Plan*> plans = {&plan, &plan};
  const std::vector<ExecOptions> one(1);
  EXPECT_TRUE(exec.ExecuteShared(plans, one).status().IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, KnownEmptyMemberRejected) {
  EXPECT_TRUE(RunPair([](query::Plan* plan, ExecOptions*) {
                plan->known_empty = true;
              }).IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, VisitMemberRejected) {
  EXPECT_TRUE(RunPair([](query::Plan*, ExecOptions* opts) {
                opts->mode = ResultMode::kVisit;
                opts->visitor = [](size_t, std::span<const TermId>) {};
              }).IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, EmulatedMemberRejected) {
  EXPECT_TRUE(RunPair([](query::Plan*, ExecOptions* opts) {
                opts->emulate_parallel = true;
              }).IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, ProbeTraceMemberRejected) {
  EXPECT_TRUE(RunPair([](query::Plan*, ExecOptions* opts) {
                opts->collect_probe_trace = true;
              }).IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, LimitGateMemberRejected) {
  LimitGate gate;
  gate.limit = 1;
  EXPECT_TRUE(RunPair([&gate](query::Plan*, ExecOptions* opts) {
                opts->limit_gate = &gate;
              }).IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, BoundFirstStepRejected) {
  const query::Plan constant_key =
      PlanFor("SELECT ?y WHERE { <ProfessorA> <teaches> ?y }");
  EXPECT_TRUE(RunPair([&](query::Plan* plan, ExecOptions*) {
                *plan = constant_key;
              }).IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, DifferentLeadingPredicateRejected) {
  const query::Plan works_for =
      PlanFor("SELECT ?x ?y WHERE { ?x <worksFor> ?y }");
  EXPECT_TRUE(RunPair([&](query::Plan* plan, ExecOptions*) {
                *plan = works_for;
              }).IsInvalidArgument());
}

TEST_F(SharedScanValidationTest, DifferentLeadingReplicaRejected) {
  EXPECT_TRUE(RunPair([](query::Plan* plan, ExecOptions*) {
                query::PlanStep& first = plan->steps[0];
                first.replica = first.replica == storage::ReplicaKind::kSO
                                    ? storage::ReplicaKind::kOS
                                    : storage::ReplicaKind::kSO;
                std::swap(first.key, first.value);
              }).IsInvalidArgument());
}

}  // namespace
}  // namespace parj::join
