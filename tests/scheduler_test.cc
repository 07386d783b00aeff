#include "server/scheduler.h"

#include <atomic>
#include <future>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "server/metrics.h"

namespace parj::server {
namespace {

TEST(QuerySchedulerTest, DispatchesUpToMaxInFlight) {
  ThreadPool pool(2);
  QueryScheduler scheduler(&pool, {.max_in_flight = 2, .max_queue = 8});
  std::atomic<int> ran{0};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler.Submit(0, [&] { ran.fetch_add(1); }).ok());
  }
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 6);
  EXPECT_EQ(scheduler.queued(), 0u);
  EXPECT_EQ(scheduler.in_flight(), 0);
}

TEST(QuerySchedulerTest, AdmissionOverflowRejects) {
  ThreadPool pool(2);
  QueryScheduler scheduler(&pool, {.max_in_flight = 1, .max_queue = 2});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<int> ran{0};

  // Occupies the single in-flight slot until the gate opens.
  ASSERT_TRUE(scheduler.Submit(0, [&, opened] {
    opened.wait();
    ran.fetch_add(1);
  }).ok());
  // Two queue slots.
  ASSERT_TRUE(scheduler.Submit(0, [&] { ran.fetch_add(1); }).ok());
  ASSERT_TRUE(scheduler.Submit(0, [&] { ran.fetch_add(1); }).ok());
  // Queue full: reject with ResourceExhausted, nothing blocks.
  Status rejected = scheduler.Submit(0, [&] { ran.fetch_add(1); });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);

  gate.set_value();
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 3);  // the rejected job never ran
}

TEST(QuerySchedulerTest, PriorityThenFifoOrder) {
  ThreadPool pool(2);
  QueryScheduler scheduler(&pool, {.max_in_flight = 1, .max_queue = 16});
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&, id] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(id);
    };
  };

  ASSERT_TRUE(scheduler.Submit(0, [opened] { opened.wait(); }).ok());
  // Queued while the blocker holds the slot: ids tagged priority.
  ASSERT_TRUE(scheduler.Submit(0, record(100)).ok());   // low, first
  ASSERT_TRUE(scheduler.Submit(5, record(501)).ok());   // high, first
  ASSERT_TRUE(scheduler.Submit(1, record(200)).ok());   // mid
  ASSERT_TRUE(scheduler.Submit(5, record(502)).ok());   // high, second
  gate.set_value();
  scheduler.Drain();

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 501);  // highest priority first
  EXPECT_EQ(order[1], 502);  // FIFO within a priority level
  EXPECT_EQ(order[2], 200);
  EXPECT_EQ(order[3], 100);
}

TEST(QuerySchedulerTest, ManyConcurrentSubmitters) {
  ThreadPool pool(4);
  QueryScheduler scheduler(&pool, {.max_in_flight = 4, .max_queue = 4096});
  std::atomic<int> ran{0};
  std::vector<std::thread> submitters;
  for (int s = 0; s < 4; ++s) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(scheduler.Submit(i % 3, [&] { ran.fetch_add(1); }).ok());
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  scheduler.Drain();
  EXPECT_EQ(ran.load(), 800);
}

TEST(LatencyHistogramTest, CountsMeanAndPercentiles) {
  LatencyHistogram hist;
  for (int i = 0; i < 90; ++i) hist.Record(1.0);
  for (int i = 0; i < 10; ++i) hist.Record(100.0);
  EXPECT_EQ(hist.count(), 100u);
  EXPECT_NEAR(hist.mean_millis(), (90.0 + 1000.0) / 100.0, 0.01);
  EXPECT_NEAR(hist.max_millis(), 100.0, 0.01);
  // Bucketed percentiles: upper bound of the containing power-of-two
  // bucket. p50 lands in 1ms's bucket, p99 in 100ms's bucket.
  EXPECT_LE(hist.PercentileMillis(0.5), 2.05);
  EXPECT_GE(hist.PercentileMillis(0.99), 100.0);
  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.PercentileMillis(0.5), 0.0);
}

TEST(LatencyHistogramTest, PercentileIsMonotoneInP) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(0.01 * i);
  double prev = 0.0;
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double v = hist.PercentileMillis(p);
    EXPECT_GE(v, prev) << p;
    prev = v;
  }
}

TEST(MetricsRegistryTest, DumpListsCountersAndHistograms) {
  MetricsRegistry metrics;
  metrics.queries_submitted.store(3);
  metrics.admission_rejected.store(1);
  metrics.rows_returned.store(42);
  metrics.execution.Record(5.0);
  const std::string dump = metrics.Dump();
  EXPECT_NE(dump.find("queries_submitted"), std::string::npos);
  EXPECT_NE(dump.find("admission_rejected"), std::string::npos);
  EXPECT_NE(dump.find("42"), std::string::npos);
  EXPECT_NE(dump.find("execution"), std::string::npos);
  metrics.Reset();
  EXPECT_EQ(metrics.queries_submitted.load(), 0u);
  EXPECT_EQ(metrics.execution.count(), 0u);
}

TEST(MetricsRegistryTest, ResetZeroesEveryDumpedCounter) {
  MetricsRegistry metrics;
  const std::span<const MetricsRegistry::Counter> counters =
      MetricsRegistry::Counters();
  // The table names each counter once (its length is pinned to the
  // struct's by a static_assert, so together: every counter exactly once).
  for (size_t i = 0; i < counters.size(); ++i) {
    for (size_t j = i + 1; j < counters.size(); ++j) {
      EXPECT_NE(counters[i].field, counters[j].field)
          << counters[i].name << " and " << counters[j].name;
    }
  }
  for (const MetricsRegistry::Counter& c : counters) {
    (metrics.*c.field).store(1000);
  }
  metrics.queue_wait.Record(1.0);
  metrics.execution.Record(2.0);
  metrics.total.Record(3.0);

  // Reads "name value" for every counter row and "count=N" for every
  // histogram row of a dump.
  auto values = [](const std::string& dump) {
    std::vector<std::pair<std::string, std::string>> out;
    std::istringstream in(dump);
    std::string line;
    std::getline(in, line);  // header
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string name, value;
      fields >> name >> value;
      out.emplace_back(name, value);
    }
    return out;
  };
  const auto before = values(metrics.Dump());
  ASSERT_EQ(before.size(), counters.size() + 3);
  for (size_t i = 0; i < counters.size(); ++i) {
    EXPECT_EQ(before[i].first, counters[i].name);
    EXPECT_TRUE(before[i].second == "1000" || before[i].second == "1.000")
        << before[i].first << " " << before[i].second;
  }
  for (size_t i = counters.size(); i < before.size(); ++i) {
    EXPECT_EQ(before[i].second, "count=1") << before[i].first;
  }

  metrics.Reset();
  const auto after = values(metrics.Dump());
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < counters.size(); ++i) {
    EXPECT_TRUE(after[i].second == "0" || after[i].second == "0.000")
        << after[i].first << " " << after[i].second;
  }
  for (size_t i = counters.size(); i < after.size(); ++i) {
    EXPECT_EQ(after[i].second, "count=0") << after[i].first;
  }
}

}  // namespace
}  // namespace parj::server
