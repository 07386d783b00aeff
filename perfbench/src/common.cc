#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>

#include "common/timer.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "stats.h"

namespace perfbench {

using parj::Result;
using parj::Status;
using parj::engine::ParjEngine;
using parj::engine::QueryOptions;
using parj::engine::QueryResult;

namespace {

constexpr size_t kMaxListedFailures = 20;

Status WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

void PrintLine(const std::string& line) {
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fputc('\n', stdout);
}

}  // namespace

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, uint64_t samples,
                    bool emulated) {
  for (Entry& e : metrics_) {
    if (e.name == name) {
      e = Entry{name, value, unit, samples, emulated};
      return;
    }
  }
  metrics_.push_back(Entry{name, value, unit, samples, emulated});
}

void Report::Note(const std::string& key, Json value) {
  notes_.Set(key, std::move(value));
}

void Report::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < kMaxListedFailures) failures_.push_back(what);
}

void Report::Invalidate(const std::string& why) { invalid_.push_back(why); }

Status Report::Emit(const RunOptions& options,
                    const std::vector<std::string>& result_metrics,
                    const std::vector<Span>* spans) const {
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0");

  Json full = Json::Object();
  full.Set("bench", "perfbench");
  full.Set("workload", options.workload);
  full.Set("seed", static_cast<double>(options.seed));
  full.Set("seconds", static_cast<double>(options.seconds));
  full.Set("trace", options.trace);
  full.Set("threads", static_cast<double>(options.threads));
  full.Set("correct", correct());
  full.Set("attempted", static_cast<double>(attempted_));
  full.Set("failed", static_cast<double>(failed_));
  full.Set("failed_ratio",
           attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_));
  Json failures = Json::Array();
  for (const std::string& f : failures_) failures.Push(Json::Str(f));
  full.Set("failures", std::move(failures));
  Json invalid = Json::Array();
  for (const std::string& why : invalid_) invalid.Push(Json::Str(why));
  full.Set("invalid", std::move(invalid));
  Json metrics = Json::Object();
  for (const Entry& e : metrics_) {
    Json m = Json::Object();
    m.Set("value", e.value);
    m.Set("unit", e.unit);
    m.Set("samples", static_cast<double>(e.samples));
    m.Set("emulated", e.emulated);
    metrics.Set(e.name, std::move(m));
  }
  full.Set("metrics", std::move(metrics));
  full.Set("notes", notes_);

  Json result = Json::Object();
  result.Set("correct", correct());
  result.Set("attempted", static_cast<double>(attempted_));
  result.Set("failed", static_cast<double>(failed_));
  Json chosen = Json::Object();
  for (const std::string& name : result_metrics) {
    const Entry* entry = nullptr;
    for (const Entry& e : metrics_) {
      if (e.name == name) entry = &e;
    }
    if (entry == nullptr) {
      return Status::Internal("metric " + name + " was not measured");
    }
    Json m = Json::Object();
    m.Set("value", entry->value);
    m.Set("unit", entry->unit);
    chosen.Set(name, std::move(m));
  }
  result.Set("metrics", std::move(chosen));

  // Serialize, then read both documents back: what lands on disk and on
  // stdout must parse to exactly what was meant.
  PARJ_ASSIGN_OR_RETURN(std::string full_text, ToJson(full, /*pretty=*/true));
  PARJ_ASSIGN_OR_RETURN(std::string result_text, ToJson(result));
  PARJ_ASSIGN_OR_RETURN(Json full_back, ParseJson(full_text));
  PARJ_ASSIGN_OR_RETURN(Json result_back, ParseJson(result_text));
  if (!(full_back == full) || !(result_back == result)) {
    return Status::Internal("report did not survive a JSON round trip");
  }
  PARJ_RETURN_NOT_OK(WriteFile(stem + ".json", full_text + "\n"));
  if (spans != nullptr) {
    PARJ_ASSIGN_OR_RETURN(std::string span_text,
                          ToJson(SpansToJson(*spans)));
    PARJ_RETURN_NOT_OK(WriteFile(stem + ".spans.json", span_text + "\n"));
  }

  std::printf("perfbench %s seed=%llu seconds=%d trace=%d: %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, correct() ? "correct" : "NOT CORRECT");
  for (const Entry& e : metrics_) {
    std::printf("  %-34s %16.6f %-6s n=%llu%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), static_cast<unsigned long long>(e.samples),
                e.emulated ? " (emulated)" : "");
  }
  for (const std::string& f : failures_) std::printf("  FAILED: %s\n", f.c_str());
  for (const std::string& why : invalid_) {
    std::printf("  INVALID: %s\n", why.c_str());
  }
  std::printf("  report: %s.json\n", stem.c_str());
  PrintLine(result_text);
  std::fflush(stdout);
  return Status::OK();
}

void ReportPeakRss(Report* report) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      report->Metric("peak_rss_mb",
                     std::strtod(line.c_str() + 6, nullptr) / 1024.0, "MB", 1);
      return;
    }
  }
  report->Invalidate("no VmHWM line in /proc/self/status");
}

double BytesPerTriple(const ParjEngine& engine) {
  const parj::storage::Database& db = engine.database();
  const double bytes = static_cast<double>(db.TableMemoryUsage()) +
                       static_cast<double>(db.DictionaryMemoryUsage());
  return bytes / static_cast<double>(std::max<uint64_t>(1, db.total_triples()));
}

std::string ToNTriplesText(const parj::workload::GeneratedData& data) {
  std::string text;
  text.reserve(data.triples.size() * 180);
  for (const parj::EncodedTriple& t : data.triples) {
    data.dict.DecodeResource(t.subject).AppendNTriples(&text);
    text.push_back(' ');
    data.dict.DecodePredicate(t.predicate).AppendNTriples(&text);
    text.push_back(' ');
    data.dict.DecodeResource(t.object).AppendNTriples(&text);
    text.append(" .\n");
  }
  return text;
}

ShuffledOrder::ShuffledOrder(size_t n, uint64_t seed)
    : rng_(seed * 0x9E3779B97F4A7C15ull + 0x51), round_(n), pos_(n) {
  std::iota(round_.begin(), round_.end(), size_t{0});
}

size_t ShuffledOrder::Next() {
  if (pos_ == round_.size()) {
    Shuffle(&round_, &rng_);
    pos_ = 0;
  }
  return round_[pos_++];
}

void ReportLatency(const LatencySeries& series, Report* report) {
  const uint64_t n = series.all_ms.size();
  if (n == 0) {
    report->Invalidate("no read completed in the timed phase");
    return;
  }
  report->Metric("query_p50_ms", Median(series.all_ms), "ms", n);
  const Tail tail = TailQuantile(series.all_ms);
  if (!tail.ok) {
    report->Invalidate("fewer than 11 reads: no tail percentile");
  }
  report->Metric("query_p99_ms", tail.value, "ms", n);
  report->Note("query_tail_percentile", Json::Number(tail.percentile * 100));
  report->Note("query_tail_beyond", Json::Number(static_cast<double>(tail.beyond)));
  report->Metric("throughput_qps",
                 static_cast<double>(n) / std::max(series.seconds, 1e-9),
                 "1/s", n);
  std::vector<double> medians;
  Json per_template = Json::Array();
  for (const std::vector<double>& samples : series.per_template_ms) {
    if (samples.empty()) continue;
    medians.push_back(Median(samples));
    per_template.Push(Json::Number(medians.back()));
  }
  report->Note("template_median_ms", std::move(per_template));
  report->Metric("template_geomean_ms", Geomean(medians), "ms",
                 medians.size());
}

Result<QueryResult> TracedRead(const ParjEngine& engine,
                               const std::string& sparql,
                               const QueryOptions& options, bool decode,
                               SpanRecorder* spans, uint64_t request) {
  const int32_t root = spans->Begin("request", -1, request);
  // Closes the request span on every return path.
  struct CloseRoot {
    SpanRecorder* spans;
    int32_t root;
    ~CloseRoot() { spans->End(root); }
  } close_root{spans, root};

  int32_t span = spans->Begin("engine.snapshot", root, request);
  const parj::mut::MvccSnapshot snap = engine.snapshot();
  spans->End(span);

  span = spans->Begin("query.parse", root, request);
  Result<parj::query::SelectQueryAst> ast = parj::query::ParseQuery(sparql);
  spans->End(span);
  if (!ast.ok()) return ast.status();
  if (!ast->union_arms.empty()) {
    return Status::Unsupported("the traced path covers plain BGP reads only");
  }

  span = spans->Begin("query.encode", root, request);
  Result<parj::query::EncodedQuery> encoded = parj::query::EncodeQuery(
      *ast, snap.base(), &snap.delta().overlay());
  spans->End(span);
  if (!encoded.ok()) return encoded.status();

  span = spans->Begin("query.optimize", root, request);
  Result<parj::query::Plan> plan = parj::query::Optimize(
      *encoded, snap.base(), options.optimizer, &snap.delta());
  spans->End(span);
  if (!plan.ok()) return plan.status();
  if (plan->distinct || plan->limit != 0 || plan->aggregate.enabled ||
      !plan->order_by.empty()) {
    return Status::Unsupported("the traced path covers plain BGP reads only");
  }

  parj::join::ExecOptions exec;
  exec.num_threads = options.num_threads;
  exec.strategy = options.strategy;
  exec.scheduling = options.scheduling;
  exec.batch_probes = options.batch_probes;
  exec.mode = options.mode;
  span = spans->Begin("join.execute", root, request);
  const parj::join::Executor executor(&snap.base(), &snap.delta());
  Result<parj::join::ExecResult> raw = executor.Execute(*plan, exec);
  spans->End(span);
  if (!raw.ok()) return raw.status();

  QueryResult result;
  result.row_count = raw->row_count;
  result.column_count = raw->column_count;
  result.rows = std::move(raw->rows);
  result.step_rows = std::move(raw->step_rows);
  result.counters = raw->counters;
  result.execute_millis = raw->wall_millis;
  result.data_version = snap.data_version();
  result.plan = std::move(*plan);

  if (decode) {
    span = spans->Begin("engine.decode", root, request);
    size_t bytes = 0;
    for (size_t r = 0; r < result.row_count; ++r) {
      for (const std::string& term : engine.DecodeRow(result, r)) {
        bytes += term.size();
      }
    }
    spans->End(span);
    if (bytes == 0 && result.row_count != 0) {
      return Status::Internal("decoded rows came back empty");
    }
  }
  return result;
}

void ReportSpans(const std::vector<Span>& spans, double traced_p50_ms,
                 double untraced_p50_ms, Report* report) {
  const auto median_of = [&](const char* name, double scale) {
    const std::vector<double> d = DurationsMillis(spans, name);
    return std::make_pair(d.empty() ? 0.0 : Median(d) * scale, d.size());
  };
  const auto add = [&](const char* metric, const char* span, double scale,
                       const char* unit) {
    const auto [value, n] = median_of(span, scale);
    report->Metric(metric, value, unit, n);
  };
  add("query.parse_us", "query.parse", 1e3, "us");
  add("query.encode_us", "query.encode", 1e3, "us");
  add("query.optimize_us", "query.optimize", 1e3, "us");
  add("join.execute_ms", "join.execute", 1.0, "ms");
  add("engine.decode_us", "engine.decode", 1e3, "us");

  size_t requests = 0;
  for (const Span& s : spans) requests += s.parent < 0 ? 1 : 0;
  const std::map<std::string, int64_t> self = SelfNanosByName(spans);
  const auto self_us = [&](const std::string& prefix) {
    int64_t ns = 0;
    for (const auto& [name, value] : self) {
      if (name == prefix || name.rfind(prefix + ".", 0) == 0) ns += value;
    }
    return static_cast<double>(ns) / 1e3 /
           static_cast<double>(std::max<size_t>(1, requests));
  };
  report->Metric("trace.self_request_us", self_us("request"), "us", requests);
  report->Metric("trace.self_query_us", self_us("query"), "us", requests);
  report->Metric("trace.self_join_us", self_us("join"), "us", requests);
  report->Metric("trace.self_engine_us", self_us("engine"), "us", requests);
  report->Metric("trace.overhead_ms", traced_p50_ms - untraced_p50_ms, "ms",
                 requests);
  report->Note("trace_spans", Json::Number(static_cast<double>(spans.size())));
}

Status CounterPass(const ParjEngine& engine,
                   const std::vector<parj::workload::NamedQuery>& queries,
                   const QueryOptions& options, Report* report,
                   std::vector<uint64_t>* rows) {
  parj::join::SearchCounters counters;
  uint64_t step_rows = 0;
  uint64_t result_rows = 0;
  std::vector<double> qerrors;
  rows->clear();
  for (const parj::workload::NamedQuery& q : queries) {
    report->Attempt();
    Result<QueryResult> r = engine.Execute(q.sparql, options);
    if (!r.ok()) {
      return Status::Internal(q.name + ": " + r.status().ToString());
    }
    rows->push_back(r->row_count);
    counters.Add(r->counters);
    result_rows += r->row_count;
    const size_t steps = std::min(r->plan.steps.size(), r->step_rows.size());
    for (size_t i = 0; i < steps; ++i) {
      step_rows += r->step_rows[i];
      qerrors.push_back(QError(r->plan.steps[i].estimated_rows,
                               static_cast<double>(r->step_rows[i])));
    }
  }
  const uint64_t n = queries.size();
  report->Metric("join.sequential_searches",
                 static_cast<double>(counters.sequential_searches), "count", n);
  report->Metric("join.binary_searches",
                 static_cast<double>(counters.binary_searches), "count", n);
  report->Metric("join.index_lookups",
                 static_cast<double>(counters.index_lookups), "count", n);
  report->Metric("join.sequential_steps",
                 static_cast<double>(counters.sequential_steps), "count", n);
  report->Metric("join.run_probes", static_cast<double>(counters.run_probes),
                 "count", n);
  report->Metric("join.intermediate_per_row",
                 static_cast<double>(step_rows) /
                     static_cast<double>(std::max<uint64_t>(1, result_rows)),
                 "ratio", n);
  report->Metric("query.qerror_geomean",
                 qerrors.empty() ? 1.0 : Geomean(qerrors), "ratio",
                 qerrors.size());
  return Status::OK();
}

void Par8Phase(const ParjEngine& engine,
               const std::vector<parj::workload::NamedQuery>& queries,
               const std::vector<uint64_t>& expected_rows,
               QueryOptions options, int rounds, Report* report) {
  options.num_threads = 8;
  options.emulate_parallel = true;
  options.mode = parj::join::ResultMode::kCount;
  // Query by query, each repeated back to back after one untimed warm-up
  // run: interleaving heavy and point queries made the point queries'
  // parse and optimize times depend on what the previous query evicted,
  // and those sub-0.1 ms times weigh as much in the geomean as the heavy
  // queries. Each query's emulated time is its fastest repetition: the
  // modelled makespan is the largest of eight sequentially measured shard
  // clocks, so a pause in any one of them lengthens it, and the median of
  // twenty repetitions still moved 1.5x between runs of one seed.
  std::vector<double> fastest;
  std::vector<double> ratios;
  std::vector<double> stolen;
  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<double> millis;
    std::vector<double> imbalance;
    std::vector<double> query_stolen;
    for (int round = -1; round < rounds; ++round) {
      report->Attempt();
      Result<QueryResult> r = engine.Execute(queries[q].sparql, options);
      if (!r.ok()) {
        report->Fail("par8 " + queries[q].name + ": " + r.status().ToString());
        continue;
      }
      if (r->row_count != expected_rows[q]) {
        report->Fail("par8 " + queries[q].name + " returned " +
                     std::to_string(r->row_count) + " rows, expected " +
                     std::to_string(expected_rows[q]));
        continue;
      }
      if (round < 0) continue;  // the warm-up
      millis.push_back(r->emulated_total_millis());
      if (!r->shard_millis.empty()) {
        const double max =
            *std::max_element(r->shard_millis.begin(), r->shard_millis.end());
        const double mean =
            std::accumulate(r->shard_millis.begin(), r->shard_millis.end(),
                            0.0) /
            static_cast<double>(r->shard_millis.size());
        if (mean > 0.0) imbalance.push_back(max / mean);
      }
      uint64_t n = 0;
      for (const parj::join::MorselWorkerStats& w : r->morsel_workers) {
        n += w.stolen;
      }
      query_stolen.push_back(static_cast<double>(n));
    }
    if (!millis.empty()) {
      fastest.push_back(*std::min_element(millis.begin(), millis.end()));
    }
    if (!imbalance.empty()) ratios.push_back(Median(imbalance));
    if (!query_stolen.empty()) stolen.push_back(Median(query_stolen));
  }
  const uint64_t samples = static_cast<uint64_t>(rounds) * queries.size();
  Json per_query = Json::Array();
  for (double m : fastest) per_query.Push(Json::Number(m));
  report->Note("par8_emulated_fastest_ms", std::move(per_query));
  report->Metric("par8_emulated_geomean_ms", Geomean(fastest), "ms", samples,
                 /*emulated=*/true);
  report->Metric("join.shard_max_over_mean",
                 ratios.empty() ? 1.0 : Geomean(ratios), "ratio", samples,
                 /*emulated=*/true);
  report->Metric("join.morsels_stolen",
                 std::accumulate(stolen.begin(), stolen.end(), 0.0), "count",
                 samples, /*emulated=*/true);
}

void ReportNoServer(Report* report) {
  report->Metric("server.plan_cache_hit_ratio", 0.0, "ratio", 0);
  report->Metric("server.result_cache_hit_ratio", 0.0, "ratio", 0);
  report->Metric("server.coalesced_ratio", 0.0, "ratio", 0);
}

void ReportNoWrites(Report* report) {
  report->Metric("mutable.compactions", 0.0, "count", 0);
  report->Metric("mutable.delta_triples_mean", 0.0, "count", 0);
  report->Metric("mutable.wal_bytes_per_mutation", 0.0, "B", 0);
}

std::vector<parj::TermId> SortedRows(const std::vector<parj::TermId>& rows,
                                     size_t width) {
  if (width == 0) return {};
  const size_t n = rows.size() / width;
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::lexicographical_compare(
        rows.begin() + a * width, rows.begin() + (a + 1) * width,
        rows.begin() + b * width, rows.begin() + (b + 1) * width);
  });
  std::vector<parj::TermId> out;
  out.reserve(rows.size());
  for (size_t i : order) {
    out.insert(out.end(), rows.begin() + i * width,
               rows.begin() + (i + 1) * width);
  }
  return out;
}

}  // namespace perfbench
