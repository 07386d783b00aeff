#include "join/morsel.h"

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "join/executor.h"
#include "query/optimizer.h"
#include "server/cancellation.h"
#include "storage/property_table.h"
#include "test_util.h"

namespace parj::join {
namespace {

using test::Encode;
using test::MakeDatabase;
using test::Spec;
using test::ToSortedRows;

// ---------------------------------------------------------------------------
// MorselScheduler unit tests.
// ---------------------------------------------------------------------------

TEST(MorselSchedulerTest, SingleWorkerDrainsEverythingUnstolen) {
  MorselScheduler scheduler(MorselScheduler::EqualSplit(0, 70, 7),
                            /*num_workers=*/1);
  Morsel m;
  bool stolen = true;
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(scheduler.Next(0, &m, &stolen));
    EXPECT_FALSE(stolen);
  }
  EXPECT_FALSE(scheduler.Next(0, &m, &stolen));
}

TEST(MorselSchedulerTest, EveryMorselClaimedExactlyOnceUnderContention) {
  constexpr size_t kMorsels = 257;  // deliberately not a multiple of workers
  constexpr size_t kWorkers = 4;
  MorselScheduler scheduler(MorselScheduler::EqualSplit(0, kMorsels, kMorsels),
                            kWorkers);
  EXPECT_EQ(scheduler.morsel_count(), kMorsels);

  std::vector<std::atomic<int>> claims(kMorsels);
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      Morsel m;
      bool stolen = false;
      while (scheduler.Next(w, &m, &stolen)) {
        for (size_t i = m.begin; i < m.end; ++i) claims[i].fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < kMorsels; ++i) EXPECT_EQ(claims[i].load(), 1) << i;
}

TEST(MorselSchedulerTest, LoneActiveWorkerStealsNeighbourQueues) {
  // 2 workers, 8 morsels; only worker 0 ever pulls, so after draining its
  // own half it must steal worker 1's — flagged as stolen.
  MorselScheduler scheduler(MorselScheduler::EqualSplit(0, 8, 8), 2);
  Morsel m;
  bool stolen = false;
  int own = 0;
  int theft = 0;
  while (scheduler.Next(0, &m, &stolen)) (stolen ? theft : own)++;
  EXPECT_EQ(own, 4);
  EXPECT_EQ(theft, 4);

  // Stealing off (the static schedule): worker 0 drains its own half and
  // stops; worker 1's morsels stay for worker 1.
  MorselScheduler fixed(MorselScheduler::EqualSplit(0, 8, 8), 2,
                        /*steal=*/false);
  own = 0;
  theft = 0;
  while (fixed.Next(0, &m, &stolen)) (stolen ? theft : own)++;
  EXPECT_EQ(own, 4);
  EXPECT_EQ(theft, 0);
  ASSERT_TRUE(fixed.Next(1, &m, &stolen));
  EXPECT_FALSE(stolen);
  EXPECT_EQ(m.begin, 4u);
}

TEST(MorselSchedulerTest, EqualSplitCoversRangeContiguously) {
  auto morsels = MorselScheduler::EqualSplit(10, 110, 7);
  ASSERT_EQ(morsels.size(), 7u);
  EXPECT_EQ(morsels.front().begin, 10u);
  EXPECT_EQ(morsels.back().end, 110u);
  for (size_t i = 1; i < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].begin, morsels[i - 1].end);
  }
}

// ---------------------------------------------------------------------------
// Cost-balanced partitioning over CSR offsets.
// ---------------------------------------------------------------------------

TEST(CostBalancedSplitTest, BalancesSkewedRunsByCumulativeLength) {
  // Key 0 owns 96 of 102 pairs; equal-count key cuts would give one part
  // nearly everything. Cost cuts must isolate the hot key.
  std::vector<std::pair<TermId, TermId>> pairs;
  for (TermId v = 0; v < 96; ++v) pairs.push_back({0, 1000 + v});
  for (TermId k = 1; k <= 6; ++k) pairs.push_back({k, 2000 + k});
  storage::TableReplica r = storage::TableReplica::Build(std::move(pairs));
  ASSERT_EQ(r.key_count(), 7u);

  auto cuts = r.CostBalancedSplit(0, r.key_count(), 4);
  ASSERT_EQ(cuts.size(), 5u);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), r.key_count());
  uint64_t total = 0;
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    EXPECT_LE(cuts[k], cuts[k + 1]);  // monotone
    total += r.RangeCost(cuts[k], cuts[k + 1]);
  }
  EXPECT_EQ(total, r.pair_count());  // a partition, nothing dropped
  // The giant run cannot be split below key granularity, but every other
  // part must stay small: no part besides the hot one may exceed a quarter
  // of the total plus one run.
  size_t fat_parts = 0;
  for (size_t k = 0; k + 1 < cuts.size(); ++k) {
    if (r.RangeCost(cuts[k], cuts[k + 1]) > r.pair_count() / 4 + 1) {
      ++fat_parts;
    }
  }
  EXPECT_LE(fat_parts, 1u);
}

TEST(CostBalancedSplitTest, UniformRunsMatchEqualCountCuts) {
  std::vector<std::pair<TermId, TermId>> pairs;
  for (TermId k = 0; k < 40; ++k) {
    for (TermId v = 0; v < 3; ++v) pairs.push_back({k, 100 * k + v});
  }
  storage::TableReplica r = storage::TableReplica::Build(std::move(pairs));
  auto cuts = r.CostBalancedSplit(0, 40, 4);
  ASSERT_EQ(cuts.size(), 5u);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(r.RangeCost(cuts[k], cuts[k + 1]), 30u);
  }
}

// ---------------------------------------------------------------------------
// Scheduler equivalence on a Zipf-skewed join.
// ---------------------------------------------------------------------------

/// ~kKeys subjects with Zipf(1) run lengths over <p>, every object with
/// exactly one <q> partner — the miniature of bench/skew_bench.cc's graph.
Spec SkewSpec() {
  constexpr int kKeys = 60;
  constexpr int kMass = 600;
  Spec spec;
  double harmonic = 0.0;
  for (int i = 0; i < kKeys; ++i) harmonic += 1.0 / (i + 1);
  int max_run = 0;
  std::vector<int> run(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    run[i] = std::max(1, static_cast<int>(kMass / ((i + 1) * harmonic)));
    max_run = std::max(max_run, run[i]);
  }
  for (int i = 0; i < kKeys; ++i) {
    for (int j = 0; j < run[i]; ++j) {
      spec.push_back({"s" + std::to_string(i), "p",
                      "v" + std::to_string((i * 17 + j) % max_run)});
    }
  }
  for (int j = 0; j < max_run; ++j) {
    spec.push_back({"v" + std::to_string(j), "q",
                    "t" + std::to_string(j % 7)});
  }
  return spec;
}

ExecResult RunSkewJoin(const storage::Database& db, ExecOptions opts) {
  auto q = Encode("SELECT ?a ?b ?c WHERE { ?a <p> ?b . ?b <q> ?c }", db);
  query::OptimizerOptions oopts;
  oopts.forced_order = {0, 1};  // scan the skewed table first
  auto plan = query::Optimize(q, db, oopts);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  Executor exec(&db);
  auto result = exec.Execute(*plan, opts);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(MorselExecutionTest, MatchesStaticAcrossThreadsAndStrategies) {
  auto db = MakeDatabase(SkewSpec());

  // Reference: single-thread static execution.
  ExecOptions ref_opts;
  ref_opts.scheduling = Scheduling::kStatic;
  ExecResult ref = RunSkewJoin(db, ref_opts);
  ASSERT_GT(ref.row_count, 0u);
  auto ref_rows = ToSortedRows(ref.rows, ref.column_count);

  for (SearchStrategy strategy :
       {SearchStrategy::kBinary, SearchStrategy::kAdaptiveBinary,
        SearchStrategy::kIndex, SearchStrategy::kAdaptiveIndex}) {
    // Per-strategy reference for the search-dependent counters (binary vs
    // sequential tallies legitimately differ across strategies).
    ExecOptions sref_opts;
    sref_opts.strategy = strategy;
    sref_opts.scheduling = Scheduling::kStatic;
    ExecResult sref = RunSkewJoin(db, sref_opts);

    for (int threads : {1, 2, 8}) {
      for (Scheduling scheduling : {Scheduling::kStatic, Scheduling::kMorsel}) {
        ExecOptions opts;
        opts.strategy = strategy;
        opts.num_threads = threads;
        opts.scheduling = scheduling;
        ExecResult r = RunSkewJoin(db, opts);
        const std::string label = std::string(SearchStrategyName(strategy)) +
                                  "/" + SchedulingName(scheduling) + "/" +
                                  std::to_string(threads) + "t";
        EXPECT_EQ(r.row_count, ref.row_count) << label;
        EXPECT_EQ(r.step_rows, ref.step_rows) << label;
        // Run membership checks depend only on the data, not on how the
        // range was cut or which search located the run.
        EXPECT_EQ(r.counters.run_probes, sref.counters.run_probes) << label;
        EXPECT_EQ(ToSortedRows(r.rows, r.column_count), ref_rows) << label;
      }
    }
  }
}

TEST(MorselExecutionTest, WorkerStatsAccountForAllRows) {
  auto db = MakeDatabase(SkewSpec());
  ExecOptions opts;
  opts.num_threads = 8;
  opts.scheduling = Scheduling::kMorsel;
  ExecResult r = RunSkewJoin(db, opts);
  ASSERT_EQ(r.morsel_workers.size(), 8u);
  uint64_t rows = 0;
  uint64_t morsels = 0;
  for (const MorselWorkerStats& w : r.morsel_workers) {
    rows += w.rows;
    morsels += w.morsels;
    EXPECT_GE(w.morsels, w.stolen);
  }
  EXPECT_EQ(rows, r.row_count);
  EXPECT_GE(morsels, 8u);  // at least one morsel per worker's share
}

TEST(MorselExecutionTest, EmulatedParallelUsesVirtualClockDispatch) {
  auto db = MakeDatabase(SkewSpec());
  ExecOptions opts;
  opts.num_threads = 4;
  opts.scheduling = Scheduling::kMorsel;
  opts.emulate_parallel = true;
  ExecResult r = RunSkewJoin(db, opts);
  ASSERT_EQ(r.shard_millis.size(), 4u);
  double sum = 0.0;
  for (double ms : r.shard_millis) sum += ms;
  EXPECT_LE(*std::max_element(r.shard_millis.begin(), r.shard_millis.end()),
            sum + 1e-9);
}

TEST(MorselExecutionTest, PerShardLimitStopsEarly) {
  auto db = MakeDatabase(SkewSpec());
  ExecOptions opts;
  opts.num_threads = 4;
  opts.scheduling = Scheduling::kMorsel;
  opts.per_shard_limit = 5;
  ExecResult r = RunSkewJoin(db, opts);
  // Each of the four workers stops within its limit; stealing must not
  // resurrect a stopped worker.
  EXPECT_GE(r.row_count, 5u);
  EXPECT_LE(r.row_count, 20u);
}

TEST(MorselExecutionTest, CancellationMidMorselReturnsCancelled) {
  auto db = MakeDatabase(SkewSpec());
  auto q = Encode("SELECT ?a ?b ?c WHERE { ?a <p> ?b . ?b <q> ?c }", db);
  query::OptimizerOptions oopts;
  oopts.forced_order = {0, 1};
  auto plan = query::Optimize(q, db, oopts);
  ASSERT_TRUE(plan.ok());

  server::CancellationSource source;
  std::atomic<uint64_t> seen{0};
  ExecOptions opts;
  opts.num_threads = 4;
  opts.scheduling = Scheduling::kMorsel;
  opts.mode = ResultMode::kVisit;
  opts.cancel = source.token();
  opts.visitor = [&](size_t, std::span<const TermId>) {
    if (seen.fetch_add(1) + 1 == 16) source.Cancel();
  };
  Executor exec(&db);
  auto result = exec.Execute(*plan, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GE(seen.load(), 16u);
}

TEST(MorselExecutionTest, ProbeTraceSurvivesStealingIntact) {
  auto db = MakeDatabase(SkewSpec());

  ExecOptions ref_opts;
  ref_opts.collect_probe_trace = true;
  ref_opts.scheduling = Scheduling::kStatic;
  ExecResult ref = RunSkewJoin(db, ref_opts);

  ExecOptions opts;
  opts.collect_probe_trace = true;
  opts.num_threads = 8;
  opts.scheduling = Scheduling::kMorsel;
  ExecResult r = RunSkewJoin(db, opts);

  ASSERT_EQ(r.trace.step_values.size(), ref.trace.step_values.size());
  for (size_t step = 0; step < ref.trace.step_values.size(); ++step) {
    std::vector<TermId> expect = ref.trace.step_values[step];
    std::vector<TermId> got = r.trace.step_values[step];
    std::sort(expect.begin(), expect.end());
    std::sort(got.begin(), got.end());
    // Merged across stolen morsels: same multiset — nothing lost, nothing
    // duplicated.
    EXPECT_EQ(got, expect) << "step " << step;
  }
}

}  // namespace
}  // namespace parj::join
