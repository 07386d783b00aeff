// Self-tests of the benchmark's own measurement code: exact percentiles
// and the ">= 10 samples beyond" tail rule, geomean, q-error, the JSON
// writer/parser round trip, and span self time. Run by run.py before
// every benchmark run, or directly:
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "json.h"
#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                     \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__,   \
                   #cond);                                               \
      ++failures;                                                        \
    }                                                                    \
  } while (false)

using perfbench::Json;

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // descending: order must not matter
  return v;
}

void TestQuantile() {
  EXPECT(perfbench::Median({5, 1, 3, 2, 4}) == 3);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2);  // nearest rank ceil(0.5*4)=2
  EXPECT(perfbench::Quantile({5, 1, 3, 2, 4}, 1.0) == 5);
  EXPECT(perfbench::Quantile({5, 1, 3, 2, 4}, 0.2) == 1);
  EXPECT(perfbench::Quantile({5, 1, 3, 2, 4}, 0.21) == 2);
  EXPECT(perfbench::Quantile(Range(1000), 0.99) == 990);
  EXPECT(std::isnan(perfbench::Median({})));
}

void TestTail() {
  // n >= 1000: a true p99 with exactly ten samples above it.
  perfbench::Tail t = perfbench::TailQuantile(Range(1000));
  EXPECT(t.ok && t.value == 990 && t.beyond == 10 && t.percentile == 0.99);
  t = perfbench::TailQuantile(Range(2000));
  EXPECT(t.ok && t.value == 1980 && t.beyond == 20);
  // n = 500: p99 would leave five samples, so the tail slides to rank 490.
  t = perfbench::TailQuantile(Range(500));
  EXPECT(t.ok && t.value == 490 && t.beyond == 10 && t.percentile == 0.98);
  // n = 11 is the smallest sample with a tail at all.
  t = perfbench::TailQuantile(Range(11));
  EXPECT(t.ok && t.value == 1 && t.beyond == 10);
  EXPECT(!perfbench::TailQuantile(Range(10)).ok);
}

void TestGeomean() {
  EXPECT(std::abs(perfbench::Geomean({1, 4, 16}) - 4) < 1e-12);
  EXPECT(std::abs(perfbench::Geomean({2, 8}) - 4) < 1e-12);
  EXPECT(std::isnan(perfbench::Geomean({})));
  EXPECT(std::isnan(perfbench::Geomean({1, 0})));
  EXPECT(std::isnan(perfbench::Geomean({1, -2})));
}

void TestQError() {
  EXPECT(perfbench::QError(10, 10) == 1);
  EXPECT(perfbench::QError(100, 10) == 10);
  EXPECT(perfbench::QError(10, 100) == 10);
  EXPECT(perfbench::QError(0, 0) == 1);
  EXPECT(perfbench::QError(0.5, 4) == 4);
}

void TestJsonRoundTrip() {
  Json doc = Json::Object();
  doc.Set("name", "p99 \"tail\"\n\t\\ \x01 caf\xC3\xA9");
  doc.Set("pi", 3.141592653589793);
  doc.Set("tiny", 1e-300);
  doc.Set("big", 9007199254740993.0);
  doc.Set("negative_zero", -0.0);
  doc.Set("tenth", 0.1);
  doc.Set("ok", true);
  doc.Set("none", Json());
  Json list = Json::Array();
  for (int i = 0; i < 100; ++i) list.Push(Json::Number(i * 1.5));
  doc.Set("list", std::move(list));
  // A record far longer than any fixed buffer must come back whole.
  doc.Set("long", std::string(100000, 'x'));
  Json nested = Json::Object();
  nested.Set("inner", Json::Array());
  doc.Set("nested", std::move(nested));

  for (bool pretty : {false, true}) {
    parj::Result<std::string> text = perfbench::ToJson(doc, pretty);
    EXPECT(text.ok());
    if (!text.ok()) continue;
    parj::Result<Json> back = perfbench::ParseJson(*text);
    EXPECT(back.ok());
    if (!back.ok()) continue;
    EXPECT(*back == doc);
    parj::Result<std::string> again = perfbench::ToJson(*back, pretty);
    EXPECT(again.ok() && *again == *text);
  }
  parj::Result<Json> escaped = perfbench::ParseJson(R"(["é😀"])");
  EXPECT(escaped.ok() && escaped->items()[0].as_string() ==
                             "\xC3\xA9\xF0\x9F\x98\x80");
}

void TestJsonErrors() {
  EXPECT(!perfbench::ToJson(Json::Number(std::nan(""))).ok());
  EXPECT(!perfbench::ToJson(Json::Number(INFINITY)).ok());
  EXPECT(!perfbench::ParseJson("{\"a\": 1").ok());  // truncated object
  EXPECT(!perfbench::ParseJson("{\"a\": 1}}").ok());
  EXPECT(!perfbench::ParseJson("[1,]").ok());
  EXPECT(!perfbench::ParseJson("01").ok());
  EXPECT(!perfbench::ParseJson("{\"a\":1,\"a\":2}").ok());
  EXPECT(!perfbench::ParseJson("\"unterminated").ok());
  EXPECT(perfbench::ParseJson(" {\"a\": [1, 2.5e3, -0.5]} ").ok());
}

void TestSelfTime() {
  using perfbench::Span;
  // request [0,100] with children parse [10,30] and execute [40,90]; the
  // execute span has a child decode [50,60].
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},
      {"query.parse", 10, 30, 0, 1},
      {"join.execute", 40, 90, 0, 1},
      {"engine.decode", 50, 60, 2, 1},
  };
  const auto self = perfbench::SelfNanosByName(spans);
  EXPECT(self.at("request") == 30);
  EXPECT(self.at("query.parse") == 20);
  EXPECT(self.at("join.execute") == 40);
  EXPECT(self.at("engine.decode") == 10);
  const std::vector<double> d = perfbench::DurationsMillis(spans, "join.execute");
  EXPECT(d.size() == 1 && d[0] == 50e-6);
  EXPECT(perfbench::SpansToJson(spans).items().size() == 4);
}

}  // namespace

int main() {
  TestQuantile();
  TestTail();
  TestGeomean();
  TestQError();
  TestJsonRoundTrip();
  TestJsonErrors();
  TestSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench selftest: all checks passed\n");
  return 0;
}
