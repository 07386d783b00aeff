#include <atomic>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

#include "engine/parj_engine.h"
#include "query/optimizer.h"
#include "test_util.h"

namespace parj::join {
namespace {

using test::Encode;
using test::MakeDatabase;
using test::MakeEngine;
using test::Spec;
using test::ToSortedRows;

Spec FanSpec(int n) {
  Spec spec;
  for (int i = 0; i < n; ++i) {
    spec.push_back({"s" + std::to_string(i), "p", "o" + std::to_string(i % 5)});
  }
  return spec;
}

TEST(StreamingTest, VisitorSeesEveryRowExactlyOnce) {
  auto db = MakeDatabase(FanSpec(120));
  auto q = Encode("SELECT ?s ?o WHERE { ?s <p> ?o }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());

  std::vector<TermId> seen;
  Executor exec(&db);
  ExecOptions opts;
  opts.mode = ResultMode::kVisit;
  opts.visitor = [&](size_t /*shard*/, std::span<const TermId> row) {
    seen.insert(seen.end(), row.begin(), row.end());
  };
  auto r = exec.Execute(*plan, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->row_count, 120u);
  EXPECT_TRUE(r->rows.empty());  // nothing buffered

  // Streamed rows == materialized rows as multisets.
  ExecOptions mat;
  mat.mode = ResultMode::kMaterialize;
  auto rm = exec.Execute(*plan, mat);
  ASSERT_TRUE(rm.ok());
  EXPECT_EQ(ToSortedRows(seen, 2), ToSortedRows(rm->rows, 2));
}

TEST(StreamingTest, MissingVisitorRejected) {
  auto db = MakeDatabase(FanSpec(10));
  auto q = Encode("SELECT ?s WHERE { ?s <p> ?o }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());
  Executor exec(&db);
  ExecOptions opts;
  opts.mode = ResultMode::kVisit;
  EXPECT_FALSE(exec.Execute(*plan, opts).ok());
}

TEST(StreamingTest, ConcurrentShardsDeliverDisjointWork) {
  auto db = MakeDatabase(FanSpec(500));
  auto q = Encode("SELECT ?s WHERE { ?s <p> ?o }", db);
  auto plan = query::Optimize(q, db);
  ASSERT_TRUE(plan.ok());

  constexpr int kThreads = 4;
  std::vector<std::vector<TermId>> per_shard(kThreads);
  std::atomic<uint64_t> calls{0};
  Executor exec(&db);
  ExecOptions opts;
  opts.mode = ResultMode::kVisit;
  opts.num_threads = kThreads;
  opts.visitor = [&](size_t shard, std::span<const TermId> row) {
    ASSERT_LT(shard, per_shard.size());
    per_shard[shard].insert(per_shard[shard].end(), row.begin(), row.end());
    calls.fetch_add(1, std::memory_order_relaxed);
  };
  auto r = exec.Execute(*plan, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(calls.load(), 500u);
  size_t total = 0;
  for (const auto& rows : per_shard) total += rows.size();
  EXPECT_EQ(total, 500u);
}

TEST(StreamingTest, EngineStreamingApi) {
  auto engine = MakeEngine(FanSpec(50));
  uint64_t rows_seen = 0;
  engine::QueryOptions opts;
  auto r = engine.ExecuteStreaming(
      "SELECT ?s WHERE { ?s <p> ?o }", opts,
      [&](size_t, std::span<const TermId> row) {
        rows_seen += 1;
        EXPECT_EQ(row.size(), 1u);
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->row_count, 50u);
  EXPECT_EQ(rows_seen, 50u);
  EXPECT_TRUE(r->rows.empty());
}

// LIMIT caps the rows streamed across ALL shards, not per shard: with
// four workers each one must not stream its own 7 rows.
TEST(StreamingTest, EngineStreamingRespectsLimit) {
  auto engine = MakeEngine(FanSpec(5000));
  for (int threads : {1, 4}) {
    for (Scheduling scheduling : {Scheduling::kStatic, Scheduling::kMorsel}) {
      for (bool emulate : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << threads << " threads, " << SchedulingName(scheduling)
                     << (emulate ? ", emulated" : ", real"));
        std::atomic<uint64_t> rows_seen{0};
        engine::QueryOptions opts;
        opts.num_threads = threads;
        opts.scheduling = scheduling;
        opts.emulate_parallel = emulate;
        auto r = engine.ExecuteStreaming(
            "SELECT ?s WHERE { ?s <p> ?o } LIMIT 7", opts,
            [&](size_t, std::span<const TermId>) {
              rows_seen.fetch_add(1, std::memory_order_relaxed);
            });
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_EQ(rows_seen.load(), 7u);
        EXPECT_EQ(r->row_count, 7u);
      }
    }
  }
}

TEST(StreamingTest, EngineStreamingRejectsDistinct) {
  auto engine = MakeEngine(FanSpec(10));
  engine::QueryOptions opts;
  auto r = engine.ExecuteStreaming(
      "SELECT DISTINCT ?s WHERE { ?s <p> ?o }", opts,
      [&](size_t, std::span<const TermId>) {});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace parj::join
