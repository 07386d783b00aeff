// Bulk-load pipeline bench (DESIGN.md §10): serial vs parallel load of the
// same N-Triples text, with a hard result-equivalence gate.
//
// The dataset is LUBM (PARJ_LUBM_UNIV universities) exported to N-Triples,
// so the bench exercises the full pipeline: chunked parse, sharded
// dictionary encode, grouped store build and metadata/statistics, plus a
// snapshot load (serial decode, store build on the same thread count).
// For every thread count the loaded store must be byte-identical to the
// serial one (same snapshot bytes — which pins dictionary IDs, triple
// order, and term spellings) and must return identical rows for the LUBM
// queries; any divergence aborts the bench.
//
// Speedups are wall-clock and therefore honest about the machine: on a
// single-core container every thread count reports ~1x. The JSON artifact
// records the measured numbers either way so multi-core CI runs can gate
// on them.
//
//   PARJ_LUBM_UNIV          dataset scale (default 10)
//   PARJ_LOAD_BENCH_THREADS max parallel thread count tried (default 16)

#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "storage/export.h"
#include "storage/snapshot.h"

namespace parj::bench {
namespace {

/// The snapshot bytes of a database: a canonical fingerprint of the
/// dictionary (IDs and spellings) plus every triple in table order.
std::string SnapshotBytes(const storage::Database& db) {
  std::ostringstream out;
  Status written = storage::WriteSnapshot(db, out);
  PARJ_CHECK(written.ok()) << written.ToString();
  return std::move(out).str();
}

/// Row-level results of the LUBM queries (single-threaded, deterministic
/// plan), used to prove query equivalence of two loads.
std::vector<std::string> QueryFingerprints(const engine::ParjEngine& engine) {
  std::vector<std::string> out;
  for (const workload::NamedQuery& query : workload::LubmQueries()) {
    engine::QueryOptions options;
    options.num_threads = 1;
    auto result = engine.Execute(query.sparql, options);
    PARJ_CHECK(result.ok()) << query.name << ": "
                            << result.status().ToString();
    std::string fp = query.name + ":" + std::to_string(result->row_count);
    for (TermId id : result->rows) fp += "," + std::to_string(id);
    out.push_back(std::move(fp));
  }
  return out;
}

struct LoadRun {
  int threads = 0;
  engine::LoadStats stats;
  double snapshot_decode_millis = 0.0;
  bool identical = false;
};

int Main() {
  const int universities = LubmUniversities();
  const int max_threads = EnvInt("PARJ_LOAD_BENCH_THREADS", 16);
  PrintHeader("Bulk-load pipeline: serial vs parallel",
              "LUBM " + std::to_string(universities) +
                  " universities, threads up to " +
                  std::to_string(max_threads) +
                  "; every run must load a byte-identical store");

  // Materialize the dataset as N-Triples text.
  workload::GeneratedData data =
      workload::GenerateLubm({.universities = universities, .seed = 42});
  std::string text;
  {
    auto seed = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples));
    PARJ_CHECK(seed.ok()) << seed.status().ToString();
    std::ostringstream nt;
    Status exported = storage::ExportNTriples(seed->database(), nt);
    PARJ_CHECK(exported.ok()) << exported.ToString();
    text = std::move(nt).str();
  }
  std::printf("dataset: %s bytes of N-Triples\n\n",
              FormatCount(text.size()).c_str());

  // Serial reference load.
  engine::EngineOptions serial_options;
  auto reference = engine::ParjEngine::FromNTriplesText(text, serial_options);
  PARJ_CHECK(reference.ok()) << reference.status().ToString();
  const std::string reference_snapshot = SnapshotBytes(reference->database());
  const std::vector<std::string> reference_queries =
      QueryFingerprints(*reference);
  const engine::LoadStats serial_stats = reference->load_stats();

  std::vector<int> thread_counts;
  for (int t : {1, 4, 8, 16}) {
    if (t <= max_threads) thread_counts.push_back(t);
  }

  std::vector<LoadRun> runs;
  for (int threads : thread_counts) {
    LoadRun run;
    run.threads = threads;
    engine::EngineOptions options;
    options.load.threads = threads;
    auto parallel = engine::ParjEngine::FromNTriplesText(text, options);
    PARJ_CHECK(parallel.ok()) << parallel.status().ToString();
    run.stats = parallel->load_stats();

    // Equivalence gate: snapshot bytes and query rows must both match.
    run.identical =
        SnapshotBytes(parallel->database()) == reference_snapshot &&
        QueryFingerprints(*parallel) == reference_queries;
    PARJ_CHECK(run.identical)
        << "parallel load with " << threads
        << " threads produced a different store than the serial load";

    // Snapshot load timing over the same data: the one streaming reader,
    // with the store build on `threads` workers.
    {
      std::istringstream in(reference_snapshot);
      storage::DatabaseOptions db_options;
      db_options.build_threads = threads;
      Stopwatch decode_timer;
      auto db = storage::ReadSnapshot(in, db_options);
      PARJ_CHECK(db.ok()) << db.status().ToString();
      run.snapshot_decode_millis = decode_timer.ElapsedMillis();
      PARJ_CHECK(SnapshotBytes(*db) == reference_snapshot)
          << "snapshot round-trip with " << threads
          << " threads changed the store";
    }
    runs.push_back(run);
  }

  TablePrinter table({"threads", "total ms", "parse", "encode", "build",
                      "index", "speedup", "snap load ms", "identical"});
  char buf[64];
  for (const LoadRun& run : runs) {
    const double speedup =
        run.stats.total_millis > 0.0
            ? serial_stats.total_millis / run.stats.total_millis
            : 0.0;
    std::vector<std::string> row;
    row.push_back(std::to_string(run.threads));
    std::snprintf(buf, sizeof(buf), "%.1f", run.stats.total_millis);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", run.stats.parse_millis);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", run.stats.encode_millis);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", run.stats.build_millis);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", run.stats.index_millis);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2fx", speedup);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", run.snapshot_decode_millis);
    row.push_back(buf);
    row.push_back(run.identical ? "yes" : "NO");
    table.AddRow(std::move(row));
  }
  table.Print();

  std::string json = "{\n  \"bench\": \"load\",\n";
  json += "  \"lubm_universities\": " + std::to_string(universities) + ",\n";
  json += "  \"ntriples_bytes\": " + std::to_string(text.size()) + ",\n";
  json += "  \"triples\": " + std::to_string(serial_stats.triples) + ",\n";
  std::snprintf(buf, sizeof(buf), "%.3f", serial_stats.total_millis);
  json += "  \"serial_total_ms\": " + std::string(buf) + ",\n";
  json += "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const LoadRun& run = runs[i];
    json += "    {\"threads\": " + std::to_string(run.threads);
    const auto field = [&](const char* name, double value) {
      std::snprintf(buf, sizeof(buf), ", \"%s\": %.3f", name, value);
      json += buf;
    };
    field("total_ms", run.stats.total_millis);
    field("parse_ms", run.stats.parse_millis);
    field("encode_ms", run.stats.encode_millis);
    field("build_ms", run.stats.build_millis);
    field("index_ms", run.stats.index_millis);
    field("speedup", run.stats.total_millis > 0.0
                         ? serial_stats.total_millis / run.stats.total_millis
                         : 0.0);
    field("snapshot_load_ms", run.snapshot_decode_millis);
    json += std::string(", \"identical\": ") +
            (run.identical ? "true" : "false") + "}";
    json += (i + 1 < runs.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  WriteBenchJson("BENCH_load.json", json);
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Main(); }
