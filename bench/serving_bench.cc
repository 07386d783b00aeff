// Serving-layer throughput/latency harness (not a paper table — the paper
// measures single queries; this measures the concurrent serving subsystem
// added on top).
//
// Runs a LUBM query mix through the QueryServer at 1, 4 and 16 concurrent
// clients, reporting queries/sec and bucketed p50/p99 latency, and
// verifies that every concurrently-served query returns exactly the same
// row count as its serial execution. Ends with the metrics-registry dump
// of the 16-client run.
//
// A second section measures the serving caches: a Zipf(1)-skewed request
// stream over a population of parameterized shapes, run cold and warm
// against every on/off combination of the plan cache, result cache and
// shared-scan batching. Emits BENCH_qps.json and gates on (a) every
// response being row-identical to an uncached engine execution and (b)
// the fully-cached warm configuration clearing 10x the uncached warm QPS.
//
// Environment overrides (see bench_util.h): PARJ_LUBM_UNIV,
// PARJ_THREADS (per-query shards), PARJ_SERVE_ROUNDS (mix repetitions
// per concurrency level, default 4), PARJ_QPS_REQUESTS (Zipf stream
// length, default 512).

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "server/server.h"
#include "workload/lubm.h"

namespace parj::bench {
namespace {

int ServeRounds() { return EnvInt("PARJ_SERVE_ROUNDS", 4); }
int QpsRequests() { return EnvInt("PARJ_QPS_REQUESTS", 512); }

constexpr const char* kUbPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n";

std::string DeptIri(int university, int department) {
  return "<http://www.Department" + std::to_string(department) +
         ".University" + std::to_string(university) + ".edu>";
}

std::vector<std::vector<TermId>> SortedRows(const engine::QueryResult& r) {
  std::vector<std::vector<TermId>> rows;
  if (r.column_count == 0) return rows;
  rows.reserve(r.row_count);
  for (size_t i = 0; i < r.rows.size(); i += r.column_count) {
    rows.emplace_back(r.rows.begin() + i, r.rows.begin() + i + r.column_count);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Query population for the cache matrix: the hottest ranks are full
/// advisor-table scans (distinct texts, identical leading scan — the
/// shared-scan case) followed by department-parameterized join shapes
/// (distinct constants over a shared shape — the plan-template case).
std::vector<std::string> MatrixPopulation(int universities) {
  std::vector<std::string> population = {
      std::string(kUbPrefix) + "SELECT ?x ?y WHERE { ?x ub:advisor ?y }",
      std::string(kUbPrefix) + "SELECT ?x WHERE { ?x ub:advisor ?y }",
      std::string(kUbPrefix) + "SELECT ?y WHERE { ?x ub:advisor ?y }",
      std::string(kUbPrefix) +
          "SELECT DISTINCT ?y WHERE { ?x ub:advisor ?y }",
  };
  for (int i = 0; i < 16; ++i) {
    const std::string dept = DeptIri(i % universities, i % 8);
    population.push_back(std::string(kUbPrefix) +
                         "SELECT ?x ?y WHERE { ?x ub:advisor ?y . "
                         "?y ub:worksFor " +
                         dept + " }");
    population.push_back(std::string(kUbPrefix) +
                         "SELECT ?x WHERE { ?x ub:worksFor " + dept + " }");
  }
  return population;
}

struct MatrixConfig {
  const char* name;
  bool plan_cache;
  bool result_cache;
  bool shared_scan;
};

struct MatrixResult {
  const MatrixConfig* config = nullptr;
  double cold_qps = 0.0;
  double cold_p99 = 0.0;
  double warm_qps = 0.0;
  double warm_p50 = 0.0;
  double warm_p99 = 0.0;
  uint64_t plan_hits = 0;
  uint64_t result_hits = 0;
  uint64_t coalesced = 0;
};

struct LevelResult {
  int clients = 0;
  double wall_seconds = 0.0;
  uint64_t queries = 0;
  double qps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
};

int Main() {
  const int universities = LubmUniversities();
  const int threads = BenchThreads();
  const int rounds = ServeRounds();
  PrintHeader("Serving throughput (QueryServer, shared pool)",
              "LUBM " + std::to_string(universities) + " universities, " +
                  std::to_string(threads) + " shard thread(s)/query, " +
                  std::to_string(rounds) + " mix rounds per level");

  engine::ParjEngine engine = BuildEngine(
      workload::GenerateLubm({.universities = universities, .seed = 42}));
  const std::vector<workload::NamedQuery> mix = workload::LubmQueries();

  // Serial reference: every query once, straight through the engine.
  engine::QueryOptions query_options;
  query_options.mode = join::ResultMode::kCount;
  query_options.num_threads = threads;
  std::map<std::string, uint64_t> serial_rows;
  for (const auto& q : mix) {
    auto result = engine.Execute(q.sparql, query_options);
    PARJ_CHECK(result.ok()) << q.name << ": " << result.status().ToString();
    serial_rows[q.name] = result->row_count;
  }

  std::vector<LevelResult> levels;
  std::string final_dump;
  uint64_t deadlines_expired = 0;
  uint64_t retries = 0;
  uint64_t worker_faults = 0;
  for (int clients : {1, 4, 16}) {
    server::ServerOptions options;
    options.query_defaults = query_options;
    options.scheduler.max_in_flight = clients;
    options.scheduler.max_queue = 4096;
    // Realistic serving config: a generous query cap (no healthy query
    // comes near it) so the hardened path, not a bypass, is measured.
    options.max_query_millis = 60000.0;
    server::QueryServer server(&engine, options);

    Stopwatch wall;
    std::vector<std::pair<std::string, server::SubmittedQuery>> submitted;
    submitted.reserve(static_cast<size_t>(rounds) * mix.size());
    for (int round = 0; round < rounds; ++round) {
      for (const auto& q : mix) {
        submitted.emplace_back(q.name, server.Submit(q.sparql));
      }
    }
    for (auto& [name, q] : submitted) {
      auto result = q.result.get();
      PARJ_CHECK(result.ok()) << name << ": " << result.status().ToString();
      PARJ_CHECK(result->row_count == serial_rows[name])
          << name << ": concurrent row count " << result->row_count
          << " != serial " << serial_rows[name];
    }
    const double seconds = wall.ElapsedSeconds();

    LevelResult level;
    level.clients = clients;
    level.wall_seconds = seconds;
    level.queries = submitted.size();
    level.qps = seconds > 0 ? static_cast<double>(level.queries) / seconds : 0;
    level.p50 = server.metrics().total.PercentileMillis(0.5);
    level.p99 = server.metrics().total.PercentileMillis(0.99);
    level.mean = server.metrics().total.mean_millis();
    levels.push_back(level);
    if (clients == 16) {
      // Gauges are not refreshed per submission; pull them in once here.
      server.RefreshMutationGauges();
      final_dump = server.metrics().Dump();
      deadlines_expired = server.metrics().deadlines_expired.load();
      retries = server.metrics().retries.load();
      worker_faults = server.metrics().worker_faults.load();
    }
  }

  TablePrinter table({"clients", "queries", "wall s", "qps", "mean ms",
                      "p50<= ms", "p99<= ms"});
  char buf[128];
  for (const LevelResult& level : levels) {
    std::vector<std::string> row;
    row.push_back(std::to_string(level.clients));
    row.push_back(std::to_string(level.queries));
    std::snprintf(buf, sizeof(buf), "%.2f", level.wall_seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", level.qps);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", level.mean);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", level.p50);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", level.p99);
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  table.Print();

  std::printf("\nAll %d x %zu concurrent results matched serial row counts.\n",
              rounds, mix.size());
  std::printf("\n%s", final_dump.c_str());

  std::string json = "{\n  \"bench\": \"serving\",\n";
  json += "  \"universities\": " + std::to_string(universities) + ",\n";
  json += "  \"threads_per_query\": " + std::to_string(threads) + ",\n";
  json += "  \"levels\": [\n";
  for (size_t i = 0; i < levels.size(); ++i) {
    const LevelResult& level = levels[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"clients\": %d, \"queries\": %llu, \"qps\": %.2f, ",
                  level.clients,
                  static_cast<unsigned long long>(level.queries), level.qps);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"mean_millis\": %.3f, \"p50_millis\": %.3f, "
                  "\"p99_millis\": %.3f}",
                  level.mean, level.p50, level.p99);
    json += buf;
    json += (i + 1 < levels.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  // Robustness counters from the 16-client run; all zero in a healthy
  // run, and a regression here (spurious expiries/retries/faults) is as
  // much a failure as a slow qps.
  std::snprintf(buf, sizeof(buf),
                "  \"deadlines_expired\": %llu,\n  \"retries\": %llu,\n"
                "  \"worker_faults\": %llu\n",
                static_cast<unsigned long long>(deadlines_expired),
                static_cast<unsigned long long>(retries),
                static_cast<unsigned long long>(worker_faults));
  json += buf;
  json += "}\n";
  WriteBenchJson("BENCH_serving.json", json);

  // ---- Serving-cache matrix: Zipf(1) stream, cold/warm, layer on/off ----
  const int requests = QpsRequests();
  const std::vector<std::string> population = MatrixPopulation(universities);
  PrintHeader("Serving caches (plan / result / shared-scan matrix)",
              std::to_string(population.size()) + " distinct queries, " +
                  std::to_string(requests) +
                  " Zipf(1) requests per pass, 8 clients");

  engine::QueryOptions matrix_options;
  matrix_options.num_threads = 2;  // materialized rows; modest per-query fanout

  // Uncached reference rows for every distinct query.
  std::vector<std::vector<std::vector<TermId>>> reference_rows;
  std::vector<uint64_t> reference_counts;
  for (const std::string& sparql : population) {
    auto result = engine.Execute(sparql, matrix_options);
    PARJ_CHECK(result.ok()) << result.status().ToString();
    reference_rows.push_back(SortedRows(*result));
    reference_counts.push_back(result->row_count);
  }

  // The Zipf(1) request stream, fixed across configurations so every
  // column of the matrix serves the identical workload.
  Rng rng(7);
  std::vector<size_t> stream;
  stream.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    stream.push_back(rng.Zipf(population.size(), 1.0));
  }

  const MatrixConfig kConfigs[] = {
      {"none", false, false, false},
      {"plan", true, false, false},
      {"result", false, true, false},
      {"plan+shared", true, false, true},
      {"all", true, true, true},
  };
  std::vector<MatrixResult> matrix;
  for (const MatrixConfig& config : kConfigs) {
    server::ServerOptions options;
    options.query_defaults = matrix_options;
    options.scheduler.max_in_flight = 8;
    options.scheduler.max_queue = 8192;
    options.max_query_millis = 60000.0;
    options.enable_plan_cache = config.plan_cache;
    options.result_cache_bytes =
        config.result_cache ? (size_t{64} << 20) : 0;
    options.enable_shared_scan = config.shared_scan;
    server::QueryServer server(&engine, options);

    auto run_pass = [&](const std::vector<size_t>& queries) -> double {
      Stopwatch wall;
      std::vector<std::pair<size_t, server::SubmittedQuery>> in_flight;
      in_flight.reserve(queries.size());
      for (size_t q : queries) {
        in_flight.emplace_back(q, server.Submit(population[q]));
      }
      for (auto& [q, submitted] : in_flight) {
        auto result = submitted.result.get();
        PARJ_CHECK(result.ok())
            << config.name << ": " << result.status().ToString();
        PARJ_CHECK(result->row_count == reference_counts[q])
            << config.name << " query " << q << ": served "
            << result->row_count << " rows, uncached engine says "
            << reference_counts[q];
      }
      const double seconds = wall.ElapsedSeconds();
      return seconds > 0
                 ? static_cast<double>(queries.size()) / seconds
                 : 0.0;
    };

    // Cold: every distinct query exactly once (all caches empty).
    std::vector<size_t> cold_stream(population.size());
    for (size_t i = 0; i < cold_stream.size(); ++i) cold_stream[i] = i;
    MatrixResult row;
    row.config = &config;
    row.cold_qps = run_pass(cold_stream);
    row.cold_p99 = server.metrics().total.PercentileMillis(0.99);
    server.metrics().Reset();

    // Warm: the skewed stream against populated caches.
    row.warm_qps = run_pass(stream);
    row.warm_p50 = server.metrics().total.PercentileMillis(0.5);
    row.warm_p99 = server.metrics().total.PercentileMillis(0.99);
    if (server.plan_cache() != nullptr) {
      row.plan_hits = server.plan_cache()->stats().hits;
    }
    if (server.result_cache() != nullptr) {
      row.result_hits = server.result_cache()->stats().hits;
    }
    row.coalesced = server.metrics().shared_scan_queries_coalesced.load();

    // Row-level equivalence gate: after the warm pass, every distinct
    // query must still return exactly the uncached rows.
    for (size_t q = 0; q < population.size(); ++q) {
      auto served = server.Execute(population[q]);
      PARJ_CHECK(served.ok()) << served.status().ToString();
      PARJ_CHECK(SortedRows(*served) == reference_rows[q])
          << config.name << " query " << q
          << ": served rows differ from uncached execution";
    }
    matrix.push_back(row);
  }

  TablePrinter cache_table({"config", "cold qps", "cold p99 ms", "warm qps",
                            "warm p50 ms", "warm p99 ms", "plan hits",
                            "result hits", "coalesced"});
  for (const MatrixResult& row : matrix) {
    std::vector<std::string> cells;
    cells.push_back(row.config->name);
    std::snprintf(buf, sizeof(buf), "%.1f", row.cold_qps);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", row.cold_p99);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", row.warm_qps);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", row.warm_p50);
    cells.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", row.warm_p99);
    cells.push_back(buf);
    cells.push_back(std::to_string(row.plan_hits));
    cells.push_back(std::to_string(row.result_hits));
    cells.push_back(std::to_string(row.coalesced));
    cache_table.AddRow(std::move(cells));
  }
  cache_table.Print();

  const double warm_speedup =
      matrix.front().warm_qps > 0
          ? matrix.back().warm_qps / matrix.front().warm_qps
          : 0.0;
  std::printf("\nwarm speedup (all caches vs none): %.1fx\n", warm_speedup);
  PARJ_CHECK(warm_speedup >= 10.0)
      << "fully-cached warm QPS must clear 10x uncached, got "
      << warm_speedup << "x";

  std::string qps_json = "{\n  \"bench\": \"serving_qps\",\n";
  qps_json += "  \"universities\": " + std::to_string(universities) + ",\n";
  qps_json +=
      "  \"distinct_queries\": " + std::to_string(population.size()) + ",\n";
  qps_json += "  \"requests\": " + std::to_string(requests) + ",\n";
  qps_json += "  \"zipf_s\": 1.0,\n  \"configs\": [\n";
  for (size_t i = 0; i < matrix.size(); ++i) {
    const MatrixResult& row = matrix[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"plan_cache\": %s, "
                  "\"result_cache\": %s, \"shared_scan\": %s,\n",
                  row.config->name, row.config->plan_cache ? "true" : "false",
                  row.config->result_cache ? "true" : "false",
                  row.config->shared_scan ? "true" : "false");
    qps_json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"cold_qps\": %.2f, \"cold_p99_millis\": %.3f, "
                  "\"warm_qps\": %.2f,\n",
                  row.cold_qps, row.cold_p99, row.warm_qps);
    qps_json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"warm_p50_millis\": %.3f, \"warm_p99_millis\": "
                  "%.3f,\n",
                  row.warm_p50, row.warm_p99);
    qps_json += buf;
    std::snprintf(buf, sizeof(buf),
                  "     \"plan_cache_hits\": %llu, \"result_cache_hits\": "
                  "%llu, \"queries_coalesced\": %llu}",
                  static_cast<unsigned long long>(row.plan_hits),
                  static_cast<unsigned long long>(row.result_hits),
                  static_cast<unsigned long long>(row.coalesced));
    qps_json += buf;
    qps_json += (i + 1 < matrix.size()) ? ",\n" : "\n";
  }
  qps_json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"warm_speedup_all_vs_none\": %.2f,\n"
                "  \"rows_identical_to_uncached\": true\n",
                warm_speedup);
  qps_json += buf;
  qps_json += "}\n";
  WriteBenchJson("BENCH_qps.json", qps_json);
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Main(); }
