#include "cluster/replicated_cluster.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "workload/lubm.h"

namespace parj::cluster {
namespace {

using test::MakeDatabase;
using test::Spec;
using test::ToSortedRows;

Spec ChainSpec(int n) {
  Spec spec;
  for (int i = 0; i < n; ++i) {
    spec.push_back({"s" + std::to_string(i), "p", "m" + std::to_string(i)});
    spec.push_back({"m" + std::to_string(i), "q", "t" + std::to_string(i % 7)});
  }
  return spec;
}

/// `nodes` nodes of `threads_per_node` shard threads, defaults otherwise.
ClusterOptions Nodes(int nodes, int threads_per_node = 1) {
  ClusterOptions options;
  options.nodes = nodes;
  options.threads_per_node = threads_per_node;
  return options;
}

TEST(ReplicatedClusterTest, SingleNodeEqualsPlainExecution) {
  auto db = MakeDatabase(ChainSpec(200));
  ReplicatedCluster cluster(&db, Nodes(1, 2));
  auto r = cluster.Execute("SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->row_count, 200u);
}

TEST(ReplicatedClusterTest, NodeCountsAgreeOnCounts) {
  auto db = MakeDatabase(ChainSpec(300));
  const std::string q = "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }";
  for (int nodes : {1, 2, 3, 5, 8}) {
    ReplicatedCluster cluster(&db, Nodes(nodes, 2));
    auto r = cluster.Execute(q);
    ASSERT_TRUE(r.ok()) << nodes << " nodes";
    EXPECT_EQ(r->row_count, 300u) << nodes << " nodes";
    EXPECT_EQ(r->node_rows.size(), static_cast<size_t>(nodes));
    uint64_t sum = 0;
    for (uint64_t n : r->node_rows) sum += n;
    EXPECT_EQ(sum, r->row_count);
    // The only communication is the gather.
    EXPECT_EQ(r->gathered_tuples, r->row_count);
  }
}

TEST(ReplicatedClusterTest, MaterializedRowsMatchSingleNode) {
  auto db = MakeDatabase(ChainSpec(150));
  const std::string q = "SELECT * WHERE { ?a <p> ?b . ?b <q> ?c }";
  ClusterOptions single;
  single.nodes = 1;
  single.mode = join::ResultMode::kMaterialize;
  ReplicatedCluster one(&db, single);
  auto expected = one.Execute(q);
  ASSERT_TRUE(expected.ok());

  ClusterOptions multi = single;
  multi.nodes = 4;
  ReplicatedCluster four(&db, multi);
  auto got = four.Execute(q);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToSortedRows(got->rows, got->column_count),
            ToSortedRows(expected->rows, expected->column_count));
}

TEST(ReplicatedClusterTest, ConstantKeyQueriesRouteToOneNode) {
  auto db = MakeDatabase({{"a", "p", "b"}, {"a", "q", "c"}});
  ReplicatedCluster cluster(&db, Nodes(3));
  auto r = cluster.Execute("SELECT ?x WHERE { <a> <p> <b> . <a> <q> ?x }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->row_count, 1u);
}

TEST(ReplicatedClusterTest, LubmQueriesAcrossNodeCounts) {
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = 1, .seed = 42});
  auto db = storage::Database::Build(std::move(data.dict),
                                     std::move(data.triples));
  ASSERT_TRUE(db.ok());
  for (const auto& q : workload::LubmQueries()) {
    ReplicatedCluster one(&*db, Nodes(1));
    auto expected = one.Execute(q.sparql);
    ASSERT_TRUE(expected.ok()) << q.name;
    ReplicatedCluster four(&*db, Nodes(4, 2));
    auto got = four.Execute(q.sparql);
    ASSERT_TRUE(got.ok()) << q.name;
    EXPECT_EQ(got->row_count, expected->row_count) << q.name;
  }
}

TEST(ExecutorWorkerSliceTest, InvalidSlicesRejected) {
  auto db = MakeDatabase(ChainSpec(10));
  auto q = test::Encode("SELECT * WHERE { ?a <p> ?b }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  join::Executor executor(&db);
  join::ExecOptions exec;
  exec.total_workers = 0;
  EXPECT_FALSE(executor.Execute(*plan, exec).ok());
  exec.total_workers = 2;
  exec.worker_index = 2;
  EXPECT_FALSE(executor.Execute(*plan, exec).ok());
  exec.worker_index = -1;
  EXPECT_FALSE(executor.Execute(*plan, exec).ok());
}

TEST(ExecutorWorkerSliceTest, SlicesPartitionTheWork) {
  auto db = MakeDatabase(ChainSpec(100));
  auto q = test::Encode("SELECT * WHERE { ?a <p> ?b }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  join::Executor executor(&db);
  uint64_t total = 0;
  for (int w = 0; w < 3; ++w) {
    join::ExecOptions exec;
    exec.total_workers = 3;
    exec.worker_index = w;
    exec.mode = join::ResultMode::kCount;
    auto r = executor.Execute(*plan, exec);
    ASSERT_TRUE(r.ok());
    total += r->row_count;
  }
  EXPECT_EQ(total, 100u);
}

}  // namespace
}  // namespace parj::cluster
