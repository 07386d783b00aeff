// Bulk-load pipeline bench (DESIGN.md §10): the N-Triples text load at
// several thread counts, with its phase split, its peak memory and a hard
// result-equivalence gate.
//
// The dataset is LUBM (PARJ_LUBM_UNIV universities) exported to N-Triples,
// so the bench exercises the full pipeline: fused chunk scan-and-encode,
// chunk-order dictionary merge, grouped store build and metadata/
// statistics, plus a snapshot load (serial decode, store build on the
// same thread count).
//
// Gate: the reference store is the text parsed whole by NTriplesParser
// and loaded through FromTriples, a path that never touches the fused
// scanner. Every text load, at every thread count, must produce the
// reference's snapshot bytes (which pin dictionary IDs, triple order and
// term spellings) and its rows for the LUBM queries; any divergence
// aborts the bench.
//
// Memory: before each load the process's peak-RSS mark (VmHWM) is reset
// by writing 5 to /proc/self/clear_refs, and read back after the load,
// so peak_rss_mb is that load's own high-water mark. It includes what is
// resident across loads (the text, the reference snapshot); rss_before_mb
// says how much that is. On kernels without clear_refs both read 0.
// dict_bytes is the loaded dictionary's own footprint
// (Dictionary::MemoryUsage: the allocated capacity of its term tables).
//
// Speedups are wall-clock and therefore honest about the machine: on a
// single-core container every thread count reports ~1x.
//
//   PARJ_LUBM_UNIV          dataset scale (default 10)
//   PARJ_LOAD_BENCH_THREADS max parallel thread count tried (default 16)
//   PARJ_BENCH_REPEATS      loads per thread count (default 3)

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_util.h"
#include "common/timer.h"
#include "rdf/ntriples.h"
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

/// A `/proc/self/status` field in MB (e.g. "VmHWM:", "VmRSS:"); 0 when
/// the file or the field is missing.
double ProcStatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size(), field) == 0) {
      return std::stod(line.substr(field.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Hands freed heap back to the kernel and restarts the peak-RSS mark at
/// the current RSS, so the next VmHWM read is one load's own peak rather
/// than the process's all-time one (or one hidden by heap the allocator
/// kept from an earlier load).
void ResetPeakRss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

struct LoadRun {
  int threads = 0;
  Spread total_ms, parse_ms, encode_ms, build_ms, index_ms;
  Spread peak_rss_mb, rss_before_mb, snapshot_load_ms, dict_bytes;
  double speedup = 0.0;  ///< first run's median total / this median total
};

int Main() {
  const int universities = LubmUniversities();
  const int max_threads = EnvInt("PARJ_LOAD_BENCH_THREADS", 16);
  const int repeats = std::max(1, BenchRepeats());
  PrintHeader("Bulk-load pipeline: text load by thread count",
              "LUBM " + std::to_string(universities) +
                  " universities, threads up to " +
                  std::to_string(max_threads) + ", " +
                  std::to_string(repeats) +
                  " loads each; every load must match the parsed "
                  "reference byte for byte");

  // Materialize the dataset as N-Triples text.
  std::string text;
  {
    workload::GeneratedData data =
        workload::GenerateLubm({.universities = universities, .seed = 42});
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

  // Independent reference: whole-document parse, then the triple loader.
  std::string reference_snapshot;
  std::vector<std::string> reference_queries;
  uint64_t triples = 0;
  {
    auto parsed = rdf::NTriplesParser().ParseToVector(text);
    PARJ_CHECK(parsed.ok()) << parsed.status().ToString();
    auto reference = engine::ParjEngine::FromTriples(*parsed);
    PARJ_CHECK(reference.ok()) << reference.status().ToString();
    reference_snapshot = SnapshotBytes(reference->database());
    reference_queries = QueryFingerprints(*reference);
    triples = reference->load_stats().triples;
  }

  std::vector<int> thread_counts;
  for (int t : {1, 4, 8, 16}) {
    if (t <= max_threads) thread_counts.push_back(t);
  }

  std::vector<LoadRun> runs;
  for (int threads : thread_counts) {
    std::vector<double> total, parse, encode, build, index, peak, before,
        snapshot_load, dict_bytes;
    for (int r = 0; r < repeats; ++r) {
      engine::EngineOptions options;
      options.load.threads = threads;
      ResetPeakRss();
      before.push_back(ProcStatusMb("VmRSS:"));
      auto loaded = engine::ParjEngine::FromNTriplesText(text, options);
      peak.push_back(ProcStatusMb("VmHWM:"));
      PARJ_CHECK(loaded.ok()) << loaded.status().ToString();
      const engine::LoadStats& stats = loaded->load_stats();
      total.push_back(stats.total_millis);
      parse.push_back(stats.parse_millis);
      encode.push_back(stats.encode_millis);
      build.push_back(stats.build_millis);
      index.push_back(stats.index_millis);
      dict_bytes.push_back(
          static_cast<double>(loaded->database().DictionaryMemoryUsage()));

      // Equivalence gate: snapshot bytes and query rows must both match.
      PARJ_CHECK(SnapshotBytes(loaded->database()) == reference_snapshot &&
                 QueryFingerprints(*loaded) == reference_queries)
          << "text load with " << threads
          << " threads produced a different store than the parsed "
             "reference";
    }

    // Snapshot load timing over the same data: the one streaming reader,
    // with the store build on `threads` workers.
    for (int r = 0; r < repeats; ++r) {
      std::istringstream in(reference_snapshot);
      storage::DatabaseOptions db_options;
      db_options.build_threads = threads;
      Stopwatch decode_timer;
      auto db = storage::ReadSnapshot(in, db_options);
      PARJ_CHECK(db.ok()) << db.status().ToString();
      snapshot_load.push_back(decode_timer.ElapsedMillis());
      PARJ_CHECK(SnapshotBytes(*db) == reference_snapshot)
          << "snapshot round-trip with " << threads
          << " threads changed the store";
    }

    LoadRun run;
    run.threads = threads;
    run.total_ms = Summarize(total);
    run.parse_ms = Summarize(parse);
    run.encode_ms = Summarize(encode);
    run.build_ms = Summarize(build);
    run.index_ms = Summarize(index);
    run.peak_rss_mb = Summarize(peak);
    run.rss_before_mb = Summarize(before);
    run.snapshot_load_ms = Summarize(snapshot_load);
    run.dict_bytes = Summarize(dict_bytes);
    runs.push_back(run);
  }
  for (LoadRun& run : runs) {
    run.speedup = run.total_ms.median > 0.0
                      ? runs.front().total_ms.median / run.total_ms.median
                      : 0.0;
  }

  TablePrinter table({"threads", "total ms", "scan+encode", "merge", "build",
                      "index", "speedup", "peak RSS MB", "RSS before MB",
                      "dict MB", "snap load ms"});
  for (const LoadRun& run : runs) {
    table.AddRow({std::to_string(run.threads), Fixed(run.total_ms.median, 1),
                  Fixed(run.parse_ms.median, 1),
                  Fixed(run.encode_ms.median, 1),
                  Fixed(run.build_ms.median, 1),
                  Fixed(run.index_ms.median, 1), Fixed(run.speedup, 2) + "x",
                  Fixed(run.peak_rss_mb.median, 1),
                  Fixed(run.rss_before_mb.median, 1),
                  Fixed(run.dict_bytes.median / (1024.0 * 1024.0), 1),
                  Fixed(run.snapshot_load_ms.median, 1)});
  }
  table.Print();
  std::printf("(medians over %d loads; scan+encode = LoadStats::parse_millis,"
              " merge = LoadStats::encode_millis)\n",
              repeats);

  std::string json = "{\n  \"bench\": \"load\",\n";
  json += "  \"dataset\": \"lubm\",\n";
  json += "  \"scale\": " + std::to_string(universities) + ",\n";
  json += "  \"threads\": " + std::to_string(thread_counts.back()) + ",\n";
  json += "  \"emulated\": false,\n";
  json += "  \"repeats\": " + std::to_string(repeats) + ",\n";
  json += "  \"equivalence\": \"ok\",\n";
  json += "  \"reference\": \"NTriplesParser::ParseToVector + FromTriples\",\n";
  json += "  \"ntriples_bytes\": " + std::to_string(text.size()) + ",\n";
  json += "  \"triples\": " + std::to_string(triples) + ",\n";
  json += "  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    const LoadRun& run = runs[i];
    json += "    {\"threads\": " + std::to_string(run.threads) + ",\n";
    json += "     \"total_ms\": " + SpreadJson(run.total_ms) + ",\n";
    json += "     \"parse_ms\": " + SpreadJson(run.parse_ms) + ",\n";
    json += "     \"encode_ms\": " + SpreadJson(run.encode_ms) + ",\n";
    json += "     \"build_ms\": " + SpreadJson(run.build_ms) + ",\n";
    json += "     \"index_ms\": " + SpreadJson(run.index_ms) + ",\n";
    json += "     \"peak_rss_mb\": " + SpreadJson(run.peak_rss_mb) + ",\n";
    json += "     \"rss_before_mb\": " + SpreadJson(run.rss_before_mb) + ",\n";
    json += "     \"dict_bytes\": " + SpreadJson(run.dict_bytes) + ",\n";
    json += "     \"snapshot_load_ms\": " + SpreadJson(run.snapshot_load_ms) +
            ",\n";
    json += "     \"speedup\": " + Fixed(run.speedup, 3) + "}";
    json += (i + 1 < runs.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  WriteBenchJson("BENCH_load.json", json);
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Main(); }
