#include <atomic>
#include <cctype>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "server/server.h"
#include "stats.h"
#include "storage/snapshot.h"
#include "workload/watdiv.h"
#include "workloads.h"

namespace perfbench {

namespace {

using parj::Rng;
using parj::Stopwatch;
using parj::engine::ParjEngine;
using parj::engine::QueryResult;

/// WatDiv scale (~400k triples).
constexpr int kScale = 10;
/// Timed snapshot loads per run; setup_s is their median.
constexpr int kLoads = 15;
/// Distinct constant bindings drawn per template (fewer when the template
/// has fewer possible bindings).
constexpr size_t kBindingsPerTemplate = 120;
/// Requests per cache epoch: the serving caches are cleared every this
/// many requests, so the hit ratios depend on the stream, not on how many
/// requests one run manages to send.
constexpr uint64_t kEpochRequests = 2000;
/// Closed-loop clients. With two, a request waited for the other client's
/// decode whenever the machine gave the process one core rather than two,
/// and the read p99 moved between 2.7 and 6.9 ms from run to run.
constexpr int kClients = 1;
/// Popularity rank of C3, whose 150k-row answer takes ~70 ms to decode:
/// rank 600 keeps it a handful of requests per run instead of letting a
/// seed put it at the head of the Zipf curve.
constexpr size_t kC3Rank = 600;
constexpr int kPar8Rounds = 200;

/// One member of the request population: a template with its constants
/// re-bound, plus its reference answer.
struct Member {
  size_t tmpl = 0;
  std::string sparql;
  uint64_t rows = 0;
  size_t width = 0;
  std::vector<parj::TermId> reference;  ///< rows in uncached 1-thread order
};

/// Replaces every entity constant (wsdbm:User12, wsdbm:Genre3, ...) with a
/// seeded pick of the same kind within the scale's id range. Class IRIs
/// such as wsdbm:User carry no digits and stay.
std::string Rebind(std::string_view sparql, Rng* rng, bool* rebound) {
  struct Kind {
    std::string_view name;
    uint64_t count;
  };
  const Kind kinds[] = {{"User", 1000ull * kScale},  {"Product", 250ull * kScale},
                        {"Retailer", 5ull * kScale}, {"Website", 50ull * kScale},
                        {"Country", 25},             {"Genre", 24}};
  constexpr std::string_view kPrefix = "wsdbm:";
  std::string out;
  size_t i = 0;
  while (i < sparql.size()) {
    const size_t hit = sparql.find(kPrefix, i);
    if (hit == std::string_view::npos) {
      out.append(sparql.substr(i));
      break;
    }
    out.append(sparql.substr(i, hit + kPrefix.size() - i));
    i = hit + kPrefix.size();
    for (const Kind& kind : kinds) {
      if (sparql.substr(i, kind.name.size()) != kind.name) continue;
      size_t end = i + kind.name.size();
      while (end < sparql.size() &&
             std::isdigit(static_cast<unsigned char>(sparql[end]))) {
        ++end;
      }
      if (end == i + kind.name.size()) break;  // a class IRI
      out.append(kind.name);
      out.append(std::to_string(rng->Uniform(kind.count)));
      i = end;
      *rebound = true;
      break;
    }
  }
  return out;
}

/// Population index of request `i`: a Zipf(1) draw that depends only on
/// the seed and the request number, whichever client sends it.
size_t Draw(uint64_t seed, uint64_t i, size_t n) {
  Rng rng(seed * 0xD1B54A32D192ED03ull + i * 0x9E3779B97F4A7C15ull);
  return rng.Zipf(n, 1.0);
}

bool SameRows(const QueryResult& result, const Member& m) {
  if (result.row_count != m.rows || result.column_count != m.width) {
    return false;
  }
  if (result.rows == m.reference) return true;
  return SortedRows(result.rows, result.column_count) ==
         SortedRows(m.reference, m.width);
}

/// What one client thread saw; merged into the Report after the join.
struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<size_t> tmpl;
  std::vector<double> submit_us;
  std::vector<double> decode_us;
  std::vector<double> queue_wait_ms;
  uint64_t attempted = 0;
  uint64_t result_hits = 0;
  uint64_t plan_hits = 0;
  std::vector<std::string> failures;
};

size_t DecodeAll(const ParjEngine& engine, const QueryResult& result) {
  size_t bytes = 0;
  for (size_t r = 0; r < result.row_count; ++r) {
    for (const std::string& term : engine.DecodeRow(result, r)) {
      bytes += term.size();
    }
  }
  return bytes;
}

}  // namespace

parj::Status RunWatdivServe(const RunOptions& options, Report* report,
                            std::vector<Span>* spans) {
  // Input preparation (untimed): the seeded dataset as a snapshot file.
  const std::string snapshot = options.work_dir + "/watdiv.parj";
  // Serial loads (the default load.threads): on a machine that gives the
  // process about one core, how far a parallel load got ahead depended on
  // what else the machine ran, and the 0.1 s set-up moved 30% between
  // runs.
  const parj::engine::EngineOptions load;
  {
    parj::workload::GeneratedData data =
        parj::workload::GenerateWatdiv({.scale = kScale, .seed = options.seed});
    PARJ_ASSIGN_OR_RETURN(ParjEngine built,
                          ParjEngine::FromEncoded(std::move(data.dict),
                                                  std::move(data.triples),
                                                  load));
    PARJ_RETURN_NOT_OK(parj::storage::SaveSnapshot(built.database(), snapshot));
  }
  report->Note("watdiv_scale", Json::Number(kScale));

  std::optional<ParjEngine> engine;
  std::vector<double> setup_ms, read_ms, decode_ms, build_ms;
  for (int k = 0; k < kLoads; ++k) {
    engine.reset();
    Stopwatch timer;
    parj::Result<ParjEngine> loaded = ParjEngine::FromSnapshotFile(snapshot, load);
    const double ms = timer.ElapsedMillis();
    if (!loaded.ok()) return loaded.status();
    engine.emplace(std::move(loaded).value());
    const parj::engine::LoadStats& stats = engine->load_stats();
    setup_ms.push_back(ms);
    read_ms.push_back(stats.read_millis);
    decode_ms.push_back(stats.parse_millis);  // snapshot decode
    build_ms.push_back(stats.build_millis);
  }
  report->Metric("setup_s", Median(setup_ms) / 1e3, "s", kLoads);
  report->Metric("storage.snapshot_load_ms", Median(setup_ms), "ms", kLoads);
  report->Metric("storage.snapshot_read_ms", Median(read_ms), "ms", kLoads);
  report->Metric("storage.snapshot_decode_ms", Median(decode_ms), "ms", kLoads);
  report->Metric("storage.build_ms", Median(build_ms), "ms", kLoads);
  report->Metric("bytes_per_triple", BytesPerTriple(*engine), "B", 1);

  // The request population: L/S/F templates and C3 with seeded constants.
  std::vector<parj::workload::NamedQuery> templates;
  for (parj::workload::NamedQuery& q : parj::workload::WatdivBasicQueries()) {
    const char c = q.name[0];
    if (c == 'L' || c == 'S' || c == 'F' || q.name == "C3") {
      templates.push_back(std::move(q));
    }
  }
  // Seeded bindings per template, each with its reference answer from an
  // uncached, 1-thread ParjEngine::Execute.
  const parj::engine::QueryOptions materialize;  // kMaterialize, 1 thread
  Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 0x3C3);
  std::vector<std::vector<Member>> by_template(templates.size());
  for (size_t t = 0; t < templates.size(); ++t) {
    std::set<std::string> seen;
    for (size_t attempt = 0;
         seen.size() < kBindingsPerTemplate && attempt < 4 * kBindingsPerTemplate;
         ++attempt) {
      bool rebound = false;
      std::string text = Rebind(templates[t].sparql, &rng, &rebound);
      if (seen.insert(text).second) {
        report->Attempt();
        PARJ_ASSIGN_OR_RETURN(QueryResult r, engine->Execute(text, materialize));
        by_template[t].push_back(Member{t, std::move(text), r.row_count,
                                        r.column_count, std::move(r.rows)});
      }
      if (!rebound) break;  // nothing to re-bind: one member
    }
  }

  // Popularity order. Answer sizes differ 100x between bindings of one
  // template, and the Zipf head carries about half the requests, so a
  // seed-shuffled order would make the head — and every latency figure —
  // depend on which bindings a seed happens to rank first. Instead each
  // template's bindings go out from its median answer size (median, then
  // its neighbours by size, alternating), and templates take turns rank
  // by rank. The seed still chooses the bindings.
  std::vector<Member> population;
  std::vector<parj::workload::NamedQuery> pass;  // one member per template
  std::optional<Member> c3;
  for (std::vector<Member>& members : by_template) {
    std::stable_sort(members.begin(), members.end(),
                     [](const Member& a, const Member& b) { return a.rows < b.rows; });
    std::vector<Member> ordered;
    const size_t mid = (members.size() - 1) / 2;
    for (size_t step = 0; ordered.size() < members.size(); ++step) {
      const size_t below = mid - (step + 1) / 2;
      const size_t above = mid + (step + 1) / 2;
      if (step % 2 == 0 && above < members.size()) {
        ordered.push_back(std::move(members[above]));
      } else if (step % 2 == 1 && (step + 1) / 2 <= mid) {
        ordered.push_back(std::move(members[below]));
      }
    }
    members = std::move(ordered);
    pass.push_back({templates[members.front().tmpl].name, members.front().sparql});
  }
  for (size_t turn = 0;; ++turn) {
    bool any = false;
    for (std::vector<Member>& members : by_template) {
      if (turn >= members.size()) continue;
      any = true;
      if (templates[members[turn].tmpl].name == "C3") {
        c3 = std::move(members[turn]);
      } else {
        population.push_back(std::move(members[turn]));
      }
    }
    if (!any) break;
  }
  if (c3.has_value()) {
    population.insert(
        population.begin() +
            static_cast<ptrdiff_t>(std::min(kC3Rank, population.size())),
        std::move(*c3));
  }
  report->Note("population", Json::Number(static_cast<double>(population.size())));

  std::vector<uint64_t> pass_rows;
  PARJ_RETURN_NOT_OK(
      CounterPass(*engine, pass, materialize, report, &pass_rows));
  Par8Phase(*engine, pass, pass_rows, materialize, kPar8Rounds, report);
  ReportNoWrites(report);

  // Serving phase: kClients closed-loop clients through the QueryServer.
  ClientLog served_total;
  uint64_t coalesced = 0;
  double served_seconds = 0.0;
  std::vector<ClientLog> logs(kClients);
  {
    parj::server::QueryServer server(&*engine, parj::server::ServerOptions{});
    std::atomic<uint64_t> next{0};
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(options.seconds);
    const auto client = [&](ClientLog* log) {
      while (std::chrono::steady_clock::now() < deadline) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i != 0 && i % kEpochRequests == 0) server.ClearCaches();
        const Member& m = population[Draw(options.seed, i, population.size())];
        ++log->attempted;
        Stopwatch timer;
        parj::server::SubmittedQuery submitted = server.Submit(m.sparql);
        const double submit_us = timer.ElapsedMicros();
        parj::Result<QueryResult> result = submitted.result.get();
        const double ready_ms = timer.ElapsedMillis();
        if (!result.ok()) {
          log->failures.push_back(templates[m.tmpl].name + ": " +
                                  result.status().ToString());
          continue;
        }
        Stopwatch decode_timer;
        const size_t bytes = DecodeAll(*engine, *result);
        const double decode_us = decode_timer.ElapsedMicros();
        const double latency_ms = timer.ElapsedMillis();
        if (!SameRows(*result, m) || (bytes == 0 && result->row_count != 0)) {
          log->failures.push_back(templates[m.tmpl].name + ": served rows " +
                                  "differ from the reference answer");
          continue;
        }
        log->latency_ms.push_back(latency_ms);
        log->tmpl.push_back(m.tmpl);
        log->submit_us.push_back(submit_us);
        log->decode_us.push_back(decode_us);
        log->queue_wait_ms.push_back(std::max(
            0.0, ready_ms - (result->parse_millis + result->optimize_millis +
                             result->execute_millis)));
        if (result->result_cached) {
          ++log->result_hits;
        } else if (result->plan_cached) {
          ++log->plan_hits;
        }
      }
    };
    Stopwatch phase;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client, &logs[c]);
    for (std::thread& t : threads) t.join();
    served_seconds = phase.ElapsedSeconds();
    coalesced = server.metrics().shared_scan_queries_coalesced.load();
  }

  LatencySeries series(templates.size());
  series.seconds = served_seconds;
  for (ClientLog& log : logs) {
    report->Attempt(log.attempted);
    for (const std::string& f : log.failures) report->Fail(f);
    for (size_t k = 0; k < log.latency_ms.size(); ++k) {
      series.Add(log.tmpl[k], log.latency_ms[k]);
    }
    const auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&served_total.submit_us, log.submit_us);
    append(&served_total.decode_us, log.decode_us);
    append(&served_total.queue_wait_ms, log.queue_wait_ms);
    served_total.result_hits += log.result_hits;
    served_total.plan_hits += log.plan_hits;
  }
  ReportLatency(series, report);
  ReportPeakRss(report);
  const uint64_t completed = series.all_ms.size();
  const double executed =
      static_cast<double>(completed - served_total.result_hits);
  report->Metric("server.result_cache_hit_ratio",
                 static_cast<double>(served_total.result_hits) /
                     static_cast<double>(std::max<uint64_t>(1, completed)),
                 "ratio", completed);
  report->Metric("server.plan_cache_hit_ratio",
                 static_cast<double>(served_total.plan_hits) /
                     std::max(1.0, executed),
                 "ratio", static_cast<uint64_t>(executed));
  report->Metric("server.coalesced_ratio",
                 static_cast<double>(coalesced) /
                     static_cast<double>(std::max<uint64_t>(1, completed)),
                 "ratio", completed);
  if (completed > 0) {
    report->Metric("server.submit_us", Median(served_total.submit_us), "us",
                   completed);
    report->Metric("server.queue_wait_ms", Median(served_total.queue_wait_ms),
                   "ms", completed);
    report->Metric("engine.decode_us", Median(served_total.decode_us), "us",
                   completed);
  }

  if (options.trace) {
    // The same request stream, each read sent through the layer calls
    // (no serving caches on this path).
    const auto origin = std::chrono::steady_clock::now();
    std::vector<SpanRecorder> recorders(kClients, SpanRecorder(origin));
    std::vector<ClientLog> traced_logs(kClients);
    std::atomic<uint64_t> next{0};
    const auto deadline = origin + std::chrono::seconds(options.seconds);
    const auto client = [&](SpanRecorder* recorder, ClientLog* log) {
      while (std::chrono::steady_clock::now() < deadline) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        const Member& m = population[Draw(options.seed, i, population.size())];
        ++log->attempted;
        Stopwatch timer;
        parj::Result<QueryResult> result = TracedRead(
            *engine, m.sparql, materialize, /*decode=*/true, recorder, i);
        const double latency_ms = timer.ElapsedMillis();
        if (!result.ok()) {
          log->failures.push_back(templates[m.tmpl].name + ": " +
                                  result.status().ToString());
          continue;
        }
        if (!SameRows(*result, m)) {
          log->failures.push_back(templates[m.tmpl].name +
                                  ": traced rows differ from the reference");
          continue;
        }
        log->latency_ms.push_back(latency_ms);
      }
    };
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(client, &recorders[c], &traced_logs[c]);
    }
    for (std::thread& t : threads) t.join();
    std::vector<double> traced_ms;
    std::vector<Span> merged;
    for (int c = 0; c < kClients; ++c) {
      report->Attempt(traced_logs[c].attempted);
      for (const std::string& f : traced_logs[c].failures) report->Fail(f);
      traced_ms.insert(traced_ms.end(), traced_logs[c].latency_ms.begin(),
                       traced_logs[c].latency_ms.end());
      const auto offset = static_cast<int32_t>(merged.size());
      for (Span s : recorders[c].spans()) {
        if (s.parent >= 0) s.parent += offset;
        merged.push_back(s);
      }
    }
    ReportSpans(merged, traced_ms.empty() ? 0.0 : Median(traced_ms),
                series.all_ms.empty() ? 0.0 : Median(series.all_ms), report);
    spans->insert(spans->end(), merged.begin(), merged.end());
  }
  return parj::Status::OK();
}

}  // namespace perfbench
