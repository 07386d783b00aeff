// Serving-under-ingest harness (DESIGN.md §12; not a paper table — the
// paper's store is read-only, this measures the live-mutability subsystem
// layered on top).
//
// Three phases over the same LUBM engine and query mix:
//
//   baseline        read-only serving (the paper's regime)
//   ingest          a background writer streams insert/remove batches
//   ingest+compact  the writer keeps streaming while the background
//                   Compactor folds the delta into rebuilt CSR replicas
//
// Each phase reports p50/p99 query latency and QPS. After every mutating
// phase the harness re-runs the whole mix, compacts, re-runs again, and
// ABORTS unless the row sets are identical — delta-merged cursors vs the
// rebuilt store is exactly the equivalence the MVCC design promises, so
// this smoke doubles as a correctness gate. Latency is reported in
// BENCH_ingest.json (p99_ratio vs baseline); set PARJ_INGEST_GATE_P99=1
// to also fail the run when the ingest+compact p99 exceeds 2x baseline
// (off by default: wall-clock ratios on shared CI runners are noisy).
//
// A fourth section measures crash durability (DESIGN.md §14): write-ack
// latency across the four durability modes — memory (no WAL), wal-none,
// wal-batch (group commit), wal-always — over identical batch streams,
// plus a recovery smoke that reopens the wal-batch log and ABORTS unless
// the recovered rows are TermId-identical to the live store's. Results
// land in BENCH_wal.json; set PARJ_WAL_GATE_P99=1 to fail the run when
// batch ack p99 exceeds 2x the in-memory baseline or wal-none exceeds
// 1.1x (off by default for the same runner-noise reason as above).
//
// Environment overrides (see bench_util.h): PARJ_LUBM_UNIV, PARJ_THREADS,
// PARJ_INGEST_ROUNDS (mix repetitions per phase, default 4),
// PARJ_WAL_BATCHES (write batches per durability mode, default 400).
//
// BENCH_ingest.json also records five compactions timed one by one, each
// folding a single inserted triple into the base
// (compaction_median_millis): the fixed cost of a rebuild at this scale.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "mutable/compactor.h"
#include "mutable/delta_store.h"
#include "mutable/wal.h"
#include "server/metrics.h"
#include "server/thread_pool.h"
#include "workload/lubm.h"

namespace parj::bench {
namespace {

int IngestRounds() { return EnvInt("PARJ_INGEST_ROUNDS", 4); }

/// The writer's own predicate: a growing chain of fresh terms, plus
/// removals of earlier links. Keeps the LUBM base untouched while still
/// forcing overlay allocation and delete-aware merged cursors.
constexpr const char* kIngestPredicate = "http://parj.bench/ingestEdge";

rdf::Triple ChainLink(int i) {
  return rdf::Triple{rdf::Term::Iri("http://parj.bench/w" + std::to_string(i)),
                     rdf::Term::Iri(kIngestPredicate),
                     rdf::Term::Iri("http://parj.bench/w" +
                                    std::to_string(i + 1))};
}

struct PhaseResult {
  std::string name;
  uint64_t queries = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

/// Runs `rounds` repetitions of the query mix, one timed Execute per
/// query, and folds latencies into a fresh histogram.
PhaseResult RunPhase(const engine::ParjEngine& engine,
                     const std::vector<workload::NamedQuery>& mix,
                     const std::string& name, int rounds, int threads) {
  engine::QueryOptions options;
  options.mode = join::ResultMode::kCount;
  options.num_threads = threads;
  server::LatencyHistogram latencies;
  Stopwatch wall;
  uint64_t queries = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const auto& q : mix) {
      Stopwatch timer;
      auto result = engine.Execute(q.sparql, options);
      PARJ_CHECK(result.ok()) << q.name << ": " << result.status().ToString();
      latencies.Record(timer.ElapsedMillis());
      ++queries;
    }
  }
  PhaseResult out;
  out.name = name;
  out.queries = queries;
  out.wall_seconds = wall.ElapsedSeconds();
  out.qps = out.wall_seconds > 0
                ? static_cast<double>(queries) / out.wall_seconds
                : 0.0;
  out.mean = latencies.mean_millis();
  out.p50 = latencies.PercentileMillis(0.5);
  out.p99 = latencies.PercentileMillis(0.99);
  return out;
}

/// Materializes and sorts every row of every mix query — the row-set
/// fingerprint the equivalence gate compares across a compaction.
std::vector<std::vector<std::vector<TermId>>> Fingerprint(
    const engine::ParjEngine& engine,
    const std::vector<workload::NamedQuery>& mix, int threads) {
  engine::QueryOptions options;
  options.num_threads = threads;
  std::vector<std::vector<std::vector<TermId>>> out;
  for (const auto& q : mix) {
    auto result = engine.Execute(q.sparql, options);
    PARJ_CHECK(result.ok()) << q.name << ": " << result.status().ToString();
    std::vector<std::vector<TermId>> rows;
    const size_t width = result->column_count;
    if (width > 0) {
      for (size_t i = 0; i + width <= result->rows.size(); i += width) {
        rows.emplace_back(result->rows.begin() + i,
                          result->rows.begin() + i + width);
      }
    }
    std::sort(rows.begin(), rows.end());
    out.push_back(std::move(rows));
  }
  return out;
}

/// The hard gate: queries over (base ∪ delta) must be row-identical to
/// the store after the delta is folded in. Aborts the bench on mismatch.
void GateRowEquivalence(engine::ParjEngine& engine,
                        const std::vector<workload::NamedQuery>& mix,
                        int threads, const std::string& phase) {
  const auto merged = Fingerprint(engine, mix, threads);
  Status compacted = engine.Compact();
  PARJ_CHECK(compacted.ok()) << phase << ": " << compacted.ToString();
  const auto rebuilt = Fingerprint(engine, mix, threads);
  for (size_t q = 0; q < mix.size(); ++q) {
    PARJ_CHECK(merged[q] == rebuilt[q])
        << "row-equivalence violation after phase '" << phase << "': query "
        << mix[q].name << " returned " << merged[q].size()
        << " rows over base+delta but " << rebuilt[q].size()
        << " after compaction";
  }
  std::printf("  equivalence gate [%s]: %zu queries row-identical across "
              "compaction\n",
              phase.c_str(), mix.size());
}

class Writer {
 public:
  explicit Writer(engine::ParjEngine* engine, mut::Compactor* compactor)
      : engine_(engine), compactor_(compactor) {
    thread_ = std::thread([this] { Run(); });
  }

  ~Writer() { Stop(); }

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }

 private:
  void Run() {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::vector<mut::Mutation> batch;
      batch.reserve(64);
      for (int i = 0; i < 48; ++i) {
        batch.push_back({ChainLink(next_++), false});
      }
      // Remove a slice of older links: keeps del-aware cursors hot and
      // the delta from growing without bound.
      for (int i = 0; i < 16 && removed_ + 8 < next_; ++i) {
        batch.push_back({ChainLink(removed_++), true});
      }
      const Status s = engine_->ApplyBatch(batch);
      PARJ_CHECK(s.ok()) << s.ToString();
      batches_.fetch_add(1, std::memory_order_relaxed);
      if (compactor_ != nullptr) compactor_->MaybeTrigger();
      std::this_thread::yield();
    }
  }

  engine::ParjEngine* engine_;
  mut::Compactor* compactor_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> batches_{0};
  int next_ = 0;
  int removed_ = 0;
};

/// Compactions timed one by one, each folding a single fresh link of the
/// writer's chain into the base: the fixed cost of a rebuild, and the
/// share of it spent on pairwise join statistics.
constexpr int kOneTripleCompactions = 5;

struct OneTripleCompactions {
  std::vector<double> millis;
  std::vector<double> pair_stats_millis;
};

OneTripleCompactions TimeOneTripleCompactions(engine::ParjEngine& engine) {
  OneTripleCompactions out;
  for (int i = 0; i < kOneTripleCompactions; ++i) {
    const Status inserted = engine.Insert(ChainLink(1'000'000'000 + 2 * i));
    PARJ_CHECK(inserted.ok()) << inserted.ToString();
    const uint64_t pair_micros =
        engine.mutation_stats().compaction_pair_stats_micros;
    Stopwatch timer;
    const Status compacted = engine.Compact();
    out.millis.push_back(timer.ElapsedMillis());
    PARJ_CHECK(compacted.ok()) << compacted.ToString();
    out.pair_stats_millis.push_back(
        static_cast<double>(
            engine.mutation_stats().compaction_pair_stats_micros -
            pair_micros) /
        1e3);
  }
  return out;
}

// ---- Crash-durability section (DESIGN.md §14) ------------------------

struct WalModeResult {
  std::string name;
  uint64_t batches = 0;
  double acks_per_sec = 0.0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  mut::WalStats wal;
};

/// Row fingerprint of the writer's chain predicate at the TermId level —
/// recovery is deterministic, so the recovered store must reproduce it
/// exactly, not merely set-equal after decoding.
std::vector<std::vector<TermId>> ChainFingerprint(
    const engine::ParjEngine& engine) {
  auto result = engine.Execute("SELECT ?a ?b WHERE { ?a <" +
                               std::string(kIngestPredicate) + "> ?b }");
  PARJ_CHECK(result.ok()) << result.status().ToString();
  std::vector<std::vector<TermId>> rows;
  const size_t width = result->column_count;
  for (size_t i = 0; i + width <= result->rows.size(); i += width) {
    rows.emplace_back(result->rows.begin() + i, result->rows.begin() + i + width);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

engine::ParjEngine SmallWriteEngine() {
  std::vector<rdf::Triple> seed;
  for (int i = 0; i < 8; ++i) seed.push_back(ChainLink(i));
  auto built = engine::ParjEngine::FromTriples(seed);
  PARJ_CHECK(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

/// One durability mode: `batches` timed ApplyBatch calls (each 16 inserts
/// + 4 removals) against a small store; sync == nullopt means no WAL at
/// all (the in-memory baseline). For wal-batch the log is recovered
/// afterwards and gated on TermId-identical rows.
WalModeResult RunWalMode(const std::string& name,
                         std::optional<mut::WalSync> sync, int batches,
                         const std::string& dir,
                         mut::RecoveryStats* recovery) {
  namespace fs = std::filesystem;
  engine::ParjEngine engine = SmallWriteEngine();
  if (sync.has_value()) {
    fs::remove_all(dir);
    mut::WalOptions wal;
    wal.dir = dir;
    wal.sync = *sync;
    const Status enabled = engine.EnableWal(wal);
    PARJ_CHECK(enabled.ok()) << enabled.ToString();
  }
  server::LatencyHistogram latencies;
  Stopwatch wall;
  int next = 8, removed = 0;
  for (int b = 0; b < batches; ++b) {
    std::vector<mut::Mutation> batch;
    for (int i = 0; i < 16; ++i) batch.push_back({ChainLink(next++), false});
    for (int i = 0; i < 4 && removed + 8 < next; ++i) {
      batch.push_back({ChainLink(removed++), true});
    }
    Stopwatch timer;
    const Status s = engine.ApplyBatch(batch);
    PARJ_CHECK(s.ok()) << name << ": " << s.ToString();
    latencies.Record(timer.ElapsedMillis());
  }
  WalModeResult out;
  out.name = name;
  out.batches = static_cast<uint64_t>(batches);
  const double wall_seconds = wall.ElapsedSeconds();
  out.acks_per_sec = wall_seconds > 0
                         ? static_cast<double>(batches) / wall_seconds
                         : 0.0;
  out.mean = latencies.mean_millis();
  out.p50 = latencies.PercentileMillis(0.5);
  out.p99 = latencies.PercentileMillis(0.99);
  out.wal = engine.wal_stats();

  if (recovery != nullptr && sync.has_value()) {
    // Recovery smoke: drop the engine, reopen the log, compare rows.
    const auto live = ChainFingerprint(engine);
    {
      engine::ParjEngine dropped = std::move(engine);
      (void)dropped;
    }
    mut::WalOptions wal;
    wal.dir = dir;
    auto recovered = engine::ParjEngine::RecoverFromWal(wal);
    PARJ_CHECK(recovered.ok()) << recovered.status().ToString();
    const auto replayed = ChainFingerprint(*recovered);
    PARJ_CHECK(live == replayed)
        << "recovery row-equivalence violation: " << live.size()
        << " live rows vs " << replayed.size() << " recovered";
    *recovery = recovered->recovery_stats();
    std::printf("  recovery gate [%s]: %zu rows TermId-identical after "
                "replaying %llu record(s)\n",
                name.c_str(), replayed.size(),
                static_cast<unsigned long long>(recovery->records_replayed));
  }
  if (sync.has_value()) fs::remove_all(dir);
  return out;
}

/// Runs the four durability modes, prints the table, writes
/// BENCH_wal.json, and applies the opt-in latency gates. Returns nonzero
/// on gate failure.
int RunWalSection() {
  namespace fs = std::filesystem;
  const int batches = EnvInt("PARJ_WAL_BATCHES", 400);
  std::printf("\n--- write durability (WAL ack latency, %d batches/mode) "
              "---\n", batches);
  const std::string root =
      (fs::temp_directory_path() / "parj_wal_bench").string();

  mut::RecoveryStats recovery;
  std::vector<WalModeResult> modes;
  modes.push_back(RunWalMode("memory", std::nullopt, batches, "", nullptr));
  modes.push_back(RunWalMode("wal-none", mut::WalSync::kNone, batches,
                             root + "_none", nullptr));
  modes.push_back(RunWalMode("wal-batch", mut::WalSync::kBatch, batches,
                             root + "_batch", &recovery));
  modes.push_back(RunWalMode("wal-always", mut::WalSync::kAlways, batches,
                             root + "_always", nullptr));

  TablePrinter table({"mode", "batches", "acks/s", "mean ms", "p50<= ms",
                      "p99<= ms", "fsyncs", "wal MB"});
  char buf[160];
  for (const WalModeResult& mode : modes) {
    std::vector<std::string> row;
    row.push_back(mode.name);
    row.push_back(std::to_string(mode.batches));
    std::snprintf(buf, sizeof(buf), "%.0f", mode.acks_per_sec);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", mode.mean);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", mode.p50);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.3f", mode.p99);
    row.push_back(buf);
    row.push_back(std::to_string(mode.wal.fsyncs));
    std::snprintf(buf, sizeof(buf), "%.2f",
                  static_cast<double>(mode.wal.bytes) / (1 << 20));
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  table.Print();

  const double memory_p99 = modes[0].p99;
  const double none_ratio =
      memory_p99 > 0 ? modes[1].p99 / memory_p99 : 0.0;
  const double batch_ratio =
      memory_p99 > 0 ? modes[2].p99 / memory_p99 : 0.0;
  const double always_ratio =
      memory_p99 > 0 ? modes[3].p99 / memory_p99 : 0.0;
  std::printf("ack p99 vs memory: wal-none %.2fx, wal-batch %.2fx, "
              "wal-always %.2fx\n", none_ratio, batch_ratio, always_ratio);

  std::string json = "{\n  \"bench\": \"wal\",\n";
  json += "  \"batches_per_mode\": " + std::to_string(batches) + ",\n";
  json += "  \"modes\": [\n";
  for (size_t i = 0; i < modes.size(); ++i) {
    const WalModeResult& mode = modes[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"name\": \"%s\", \"acks_per_sec\": %.1f, "
        "\"mean_millis\": %.4f, \"p50_millis\": %.4f, "
        "\"p99_millis\": %.4f, ",
        mode.name.c_str(), mode.acks_per_sec, mode.mean, mode.p50, mode.p99);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"wal_records\": %llu, \"wal_bytes\": %llu, "
                  "\"wal_fsyncs\": %llu, \"group_commit_ms\": %.3f}",
                  static_cast<unsigned long long>(mode.wal.records),
                  static_cast<unsigned long long>(mode.wal.bytes),
                  static_cast<unsigned long long>(mode.wal.fsyncs),
                  static_cast<double>(mode.wal.group_commit_micros) / 1e3);
    json += buf;
    json += (i + 1 < modes.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"p99_ratio_none_vs_memory\": %.3f,\n"
                "  \"p99_ratio_batch_vs_memory\": %.3f,\n"
                "  \"p99_ratio_always_vs_memory\": %.3f,\n",
                none_ratio, batch_ratio, always_ratio);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"recovery_replayed\": %llu,\n"
                "  \"recovery_millis\": %.3f,\n"
                "  \"recovery_row_equivalence\": \"ok\"\n",
                static_cast<unsigned long long>(recovery.records_replayed),
                recovery.snapshot_load_millis + recovery.replay_millis);
  json += buf;
  json += "}\n";
  WriteBenchJson("BENCH_wal.json", json);

  // Opt-in acceptance gates: group commit within 2x of memory-only acks,
  // no-sync logging within 10%.
  if (EnvInt("PARJ_WAL_GATE_P99", 0) != 0) {
    if (batch_ratio > 2.0) {
      std::fprintf(stderr,
                   "FAIL: wal-batch ack p99 %.3f ms is %.2fx the in-memory "
                   "baseline (gate: 2x)\n", modes[2].p99, batch_ratio);
      return 1;
    }
    if (none_ratio > 1.1) {
      std::fprintf(stderr,
                   "FAIL: wal-none ack p99 %.3f ms is %.2fx the in-memory "
                   "baseline (gate: 1.1x)\n", modes[1].p99, none_ratio);
      return 1;
    }
  }
  return 0;
}

int Main() {
  const int universities = LubmUniversities();
  const int threads = BenchThreads();
  const int rounds = IngestRounds();
  PrintHeader("Serving under live ingest (DeltaStore + MVCC + Compactor)",
              "LUBM " + std::to_string(universities) + " universities, " +
                  std::to_string(threads) + " shard thread(s)/query, " +
                  std::to_string(rounds) + " mix rounds per phase");

  engine::ParjEngine engine = BuildEngine(
      workload::GenerateLubm({.universities = universities, .seed = 42}));

  // The mix: the LUBM queries plus one query over the writer's own
  // predicate, so at least one query always runs the delta-merged path.
  std::vector<workload::NamedQuery> mix = workload::LubmQueries();
  mix.push_back({"ingest-chain",
                 "SELECT ?a ?b ?c WHERE { ?a <" +
                     std::string(kIngestPredicate) + "> ?b . ?b <" +
                     std::string(kIngestPredicate) + "> ?c }"});

  std::vector<PhaseResult> phases;

  // Phase 1: read-only baseline.
  phases.push_back(RunPhase(engine, mix, "baseline", rounds, threads));

  // Phase 2: background writer, no compaction.
  uint64_t ingest_batches = 0;
  {
    Writer writer(&engine, nullptr);
    phases.push_back(RunPhase(engine, mix, "ingest", rounds, threads));
    writer.Stop();
    ingest_batches = writer.batches();
  }
  GateRowEquivalence(engine, mix, threads, "ingest");

  // Phase 3: writer + background compactor on a shared pool.
  uint64_t compact_batches = 0;
  {
    server::ThreadPool pool(2);
    mut::CompactorOptions compactor_options;
    compactor_options.auto_compact_delta_triples = 2048;
    mut::Compactor compactor(engine.delta_store(), &pool, compactor_options);
    Writer writer(&engine, &compactor);
    phases.push_back(
        RunPhase(engine, mix, "ingest+compact", rounds, threads));
    writer.Stop();
    compactor.Wait();
    compact_batches = writer.batches();
    PARJ_CHECK(compactor.last_status().ok() || compactor.runs() == 0)
        << compactor.last_status().ToString();
  }
  GateRowEquivalence(engine, mix, threads, "ingest+compact");
  const OneTripleCompactions compactions = TimeOneTripleCompactions(engine);
  const Spread one_triple = Summarize(compactions.millis);
  const Spread one_triple_pairs = Summarize(compactions.pair_stats_millis);

  const mut::MutationStats stats = engine.mutation_stats();

  TablePrinter table({"phase", "queries", "wall s", "qps", "mean ms",
                      "p50<= ms", "p99<= ms"});
  char buf[160];
  for (const PhaseResult& phase : phases) {
    std::vector<std::string> row;
    row.push_back(phase.name);
    row.push_back(std::to_string(phase.queries));
    std::snprintf(buf, sizeof(buf), "%.2f", phase.wall_seconds);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", phase.qps);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", phase.mean);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", phase.p50);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.2f", phase.p99);
    row.push_back(buf);
    table.AddRow(std::move(row));
  }
  table.Print();

  const double p99_ratio =
      phases[0].p99 > 0 ? phases[2].p99 / phases[0].p99 : 0.0;
  std::printf("\nwriter batches: %llu (ingest), %llu (ingest+compact); "
              "compactions: %llu (%.1f ms total)\n",
              static_cast<unsigned long long>(ingest_batches),
              static_cast<unsigned long long>(compact_batches),
              static_cast<unsigned long long>(stats.compactions),
              static_cast<double>(stats.compaction_micros) / 1e3);
  std::printf("one-triple compaction (LUBM %d): median %.1f ms over %d "
              "(min %.1f, max %.1f); pair stats median %.2f ms\n",
              universities, one_triple.median, kOneTripleCompactions,
              one_triple.min, one_triple.max, one_triple_pairs.median);
  std::printf("p99 under ingest+compact / baseline p99: %.2fx\n", p99_ratio);

  std::string json = "{\n  \"bench\": \"ingest\",\n";
  json += "  \"universities\": " + std::to_string(universities) + ",\n";
  json += "  \"threads_per_query\": " + std::to_string(threads) + ",\n";
  json += "  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    const PhaseResult& phase = phases[i];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"queries\": %llu, \"qps\": %.2f, "
                  "\"mean_millis\": %.3f, \"p50_millis\": %.3f, "
                  "\"p99_millis\": %.3f}",
                  phase.name.c_str(),
                  static_cast<unsigned long long>(phase.queries), phase.qps,
                  phase.mean, phase.p50, phase.p99);
    json += buf;
    json += (i + 1 < phases.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"compactions\": %llu,\n  \"compaction_millis\": %.3f,\n"
                "  \"p99_ratio_vs_baseline\": %.3f,\n"
                "  \"row_equivalence\": \"ok\",\n",
                static_cast<unsigned long long>(stats.compactions),
                static_cast<double>(stats.compaction_micros) / 1e3, p99_ratio);
  json += buf;
  json += "  \"one_triple_compactions\": " +
          std::to_string(kOneTripleCompactions) +
          ",\n  \"compaction_median_millis\": " +
          Fixed(one_triple.median, 3) +
          ",\n  \"compaction_pair_stats_median_millis\": " +
          Fixed(one_triple_pairs.median, 3) + "\n";
  json += "}\n";
  WriteBenchJson("BENCH_ingest.json", json);

  // Optional hard latency gate (acceptance: p99 during compaction within
  // 2x of the read-only baseline). Opt-in because shared runners jitter.
  if (EnvInt("PARJ_INGEST_GATE_P99", 0) != 0 && p99_ratio > 2.0) {
    std::fprintf(stderr,
                 "FAIL: ingest+compact p99 %.3f ms is %.2fx baseline "
                 "(gate: 2x)\n",
                 phases[2].p99, p99_ratio);
    return 1;
  }
  return RunWalSection();
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Main(); }
