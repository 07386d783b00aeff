// parj_cli: interactive / scriptable shell for the PARJ store.
//
//   parj_cli [--load file.nt | --snapshot file.parj | --lubm N | --watdiv N]
//            [--load-threads N] [--chunk-mb N] [--simd LEVEL] [--no-batch]
//            [--compression {none,blocked}] [--failpoints name=spec,...]
//            [--wal-dir DIR] [--wal-sync {none,batch,always}]
//            [--plan-cache on|off] [--result-cache-mb N]
//            [--shared-scan on|off] [serve | --serve]
//   parj_cli verify-snapshot FILE
//   parj_cli verify-wal DIR
//
// `--load-threads N` runs the bulk-load pipeline (chunked parse, sharded
// dictionary encode, parallel store build) on N threads; the loaded store
// is identical at any thread count. `--chunk-mb` sets the parser chunk
// size. Every load prints a per-phase time breakdown
// (read/parse/encode/build/index/calibrate).
//
// `verify-snapshot FILE` walks FILE section by section, checking every
// CRC-32C record without building the store, and exits 0 (intact) or 1
// (corrupt/unreadable) — run it before trusting a snapshot. Fault
// injection can be armed via `--failpoints` or the PARJ_FAILPOINTS
// environment variable (same spec grammar, see common/failpoint.h).
//
// `--wal-dir DIR` makes the store crash-durable (DESIGN.md §14): if DIR
// already holds a log the store is recovered from it (checkpoint snapshot
// + replayed tail, replacing any --load/--lubm data), otherwise a fresh
// log is initialized over the loaded store. From then on every write is
// acknowledged only once durable per `--wal-sync` (none | batch | always,
// default batch = group commit). `verify-wal DIR` CRC-checks a WAL
// directory read-only — manifest, snapshot, and every segment frame —
// and exits 0 (intact) or 1 (corrupt), without replaying anything.
//
// With `serve` (or `--serve`), the shell enters concurrent serving mode
// after loading: queries stream through the admission-controlled
// QueryServer instead of executing one at a time, results are printed as
// they complete, and `.metrics` dumps the serving metrics registry. Serve
// commands: .metrics | .timeout MS | .priority N | .wait | .quit, plus the
// live-write commands .insert / .remove / .compact / .delta / .wal —
// writes land while queries are in flight; every query sees a consistent
// epoch. The serving caches (DESIGN.md §15) are on by default:
// `--plan-cache off` disables plan caching, `--result-cache-mb N` sizes
// the result cache (0 disables), `--shared-scan off` disables shared-scan
// batching. `.prepare NAME QUERY` parses + normalizes once and `.run
// NAME` submits the prepared query; `.cache` prints cache statistics and
// `.cache clear` drops every cached plan and result.
// `--inflight N` caps concurrently executing queries; `--threads N` sets
// shard threads per query.
//
// Otherwise, reads commands from stdin. Lines starting with '.' are
// commands; anything else accumulates as SPARQL until a line consisting
// of a single ';' (or EOF), then executes. GROUP BY / COUNT / SUM / MIN /
// MAX queries aggregate in parallel with no knob: thread-local group
// tables that re-bucket into radix partitions once a worker sees many
// groups (DESIGN.md §16). Commands:
//
//   .load FILE            load an N-Triples file (replaces the store)
//   .gen lubm N           generate LUBM data at N universities
//   .gen watdiv N         generate WatDiv data at scale N
//   .insert <s> <p> <o> . insert one triple into the live store
//   .remove <s> <p> <o> . remove one triple from the live store
//   .compact              fold the pending delta into a rebuilt base
//   .delta                print pending-delta / epoch statistics
//   .wal                  print write-ahead-log / recovery statistics
//   .save FILE            write a binary snapshot
//   .dump FILE            export the store as N-Triples
//   .restore FILE         load a binary snapshot
//   .verify FILE          CRC-check a snapshot without loading it
//   .threads N            set worker threads for queries
//   .load-threads N       set worker threads for loads/restores
//   .compression MODE     none | blocked (applies to subsequent loads)
//   .strategy NAME        Binary | AdBinary | Index | AdIndex
//   .simd LEVEL           scalar | sse2 | avx2 | auto (probe kernel tier)
//   .batch on|off         batched prefetched probing (default on)
//   .calibrate            run Algorithm 2 on all tables
//   .explain on|off       print plans before execution
//   .limit N              cap printed rows (default 20)
//   .stats                print store statistics
//   .help                 this text
//   .quit                 exit

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/simd.h"
#include "common/strings.h"
#include "common/timer.h"
#include "engine/parj_engine.h"
#include "rdf/ntriples.h"
#include "server/server.h"
#include "storage/export.h"
#include "storage/snapshot.h"
#include "workload/lubm.h"
#include "workload/watdiv.h"

namespace parj::tool {
namespace {

struct Shell {
  std::optional<engine::ParjEngine> engine;
  int threads = 1;
  int load_threads = 1;
  size_t chunk_mb = 16;
  join::SearchStrategy strategy = join::SearchStrategy::kAdaptiveIndex;
  join::Scheduling scheduling = join::Scheduling::kMorsel;
  storage::Compression compression = storage::Compression::kNone;
  bool batch_probes = true;
  bool explain = false;
  uint64_t print_limit = 20;

  engine::EngineOptions LoadEngineOptions() const {
    engine::EngineOptions options;
    options.load.threads = load_threads;
    options.load.chunk_bytes = chunk_mb << 20;
    options.database.compression = compression;
    return options;
  }

  void PrintLoadStats() const {
    const engine::LoadStats& ls = engine->load_stats();
    std::printf(
        "loaded %s triples in %s ms [%d load thread%s, %llu chunk(s)]\n"
        "  read %.1f + parse %.1f + encode %.1f + build %.1f + index %.1f "
        "+ calibrate %.1f ms\n",
        FormatCount(ls.triples).c_str(), FormatMillis(ls.total_millis).c_str(),
        ls.threads, ls.threads == 1 ? "" : "s",
        static_cast<unsigned long long>(ls.chunks), ls.read_millis,
        ls.parse_millis, ls.encode_millis, ls.build_millis, ls.index_millis,
        ls.calibrate_millis);
    if (ls.skipped_lines > 0) {
      std::printf("  skipped %llu malformed line(s)\n",
                  static_cast<unsigned long long>(ls.skipped_lines));
    }
  }

  void PrintStats() const {
    if (!engine.has_value()) {
      std::printf("no data loaded\n");
      return;
    }
    const storage::Database& db = engine->database();
    std::printf("triples:     %s\n", FormatCount(db.total_triples()).c_str());
    std::printf("properties:  %zu\n", db.predicate_count());
    std::printf("resources:   %s\n",
                FormatCount(db.dictionary().resource_count()).c_str());
    std::printf("compression: %s\n",
                storage::CompressionName(db.compression()));
    std::printf("table bytes: %s\n",
                FormatCount(db.TableMemoryUsage()).c_str());
    if (db.compression() != storage::Compression::kNone) {
      const size_t raw = db.TableRawBytes();
      size_t packed = 0;
      for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
        packed += db.entry(pid).table.MemoryUsage();
      }
      std::printf("replica bytes: %s packed vs %s raw (%.2fx)\n",
                  FormatCount(packed).c_str(), FormatCount(raw).c_str(),
                  packed > 0 ? static_cast<double>(raw) /
                                   static_cast<double>(packed)
                             : 0.0);
      for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
        const storage::PropertyTable& table = db.entry(pid).table;
        const size_t table_packed = table.MemoryUsage();
        const size_t table_raw = table.RawBytes();
        std::printf("  p%-4u %10s packed %10s raw (%.2fx)  %s\n",
                    pid, FormatCount(table_packed).c_str(),
                    FormatCount(table_raw).c_str(),
                    table_packed > 0 ? static_cast<double>(table_raw) /
                                           static_cast<double>(table_packed)
                                     : 0.0,
                    db.dictionary().DecodePredicate(pid).lexical().c_str());
      }
    }
    std::printf("dict bytes:  %s\n",
                FormatCount(db.DictionaryMemoryUsage()).c_str());
  }

  /// Shared by shell and serve mode: applies one `.insert`/`.remove` line.
  /// `rest` is everything after the command word, in N-Triples syntax (the
  /// terminating '.' may be omitted).
  void Mutate(std::string rest, bool remove) {
    if (!engine.has_value()) {
      std::printf("no data loaded — use .load/.gen/.restore first\n");
      return;
    }
    std::string trimmed(TrimWhitespace(rest));
    if (trimmed.empty()) {
      std::printf("usage: .%s <s> <p> <o> .\n", remove ? "remove" : "insert");
      return;
    }
    if (trimmed.back() != '.') trimmed += " .";
    auto triple = rdf::ParseStatementLine(trimmed);
    if (!triple.ok()) {
      std::printf("error: %s\n", triple.status().ToString().c_str());
      return;
    }
    const Status st = remove ? engine->Remove(*triple)
                             : engine->Insert(*triple);
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return;
    }
    const mut::MutationStats s = engine->mutation_stats();
    std::printf("%s; delta now %llu insert(s), %llu delete(s)\n",
                remove ? "removed" : "inserted",
                static_cast<unsigned long long>(s.delta_insert_triples),
                static_cast<unsigned long long>(s.delta_delete_triples));
  }

  void Compact() {
    if (!engine.has_value()) {
      std::printf("no data loaded\n");
      return;
    }
    Stopwatch timer;
    const Status st = engine->Compact();
    if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
      return;
    }
    const mut::MutationStats s = engine->mutation_stats();
    std::printf("compacted in %s ms (epoch %llu, %s triples in base)\n",
                FormatMillis(timer.ElapsedMillis()).c_str(),
                static_cast<unsigned long long>(s.epoch),
                FormatCount(engine->database().total_triples()).c_str());
  }

  void PrintWalStats() const {
    if (!engine.has_value() || !engine->wal_enabled()) {
      std::printf("wal: disabled (start with --wal-dir DIR to enable)\n");
      return;
    }
    const mut::WalStats w = engine->wal_stats();
    std::printf(
        "wal records:    %llu (%s bytes)\n"
        "fsyncs:         %llu (%llu group commit(s), %.3f ms total wait)\n"
        "segments:       %llu live, %llu rotation(s)\n"
        "checkpoints:    %llu (%llu failed)\n"
        "backlog:        %s bytes queued, %llu backpressure wait(s)\n",
        static_cast<unsigned long long>(w.records),
        FormatCount(w.bytes).c_str(),
        static_cast<unsigned long long>(w.fsyncs),
        static_cast<unsigned long long>(w.group_commits),
        static_cast<double>(w.group_commit_micros) / 1e3,
        static_cast<unsigned long long>(w.segments),
        static_cast<unsigned long long>(w.rotations),
        static_cast<unsigned long long>(w.checkpoints),
        static_cast<unsigned long long>(w.checkpoint_failures),
        FormatCount(w.backlog_bytes).c_str(),
        static_cast<unsigned long long>(w.backpressure_waits));
    if (engine->recovered()) {
      const mut::RecoveryStats& r = engine->recovery_stats();
      std::printf(
          "recovered:      epoch %llu snapshot + %llu record(s) "
          "(%llu mutation(s)) from %llu segment(s) in %.1f + %.1f ms"
          "%s\n",
          static_cast<unsigned long long>(r.snapshot_epoch),
          static_cast<unsigned long long>(r.records_replayed),
          static_cast<unsigned long long>(r.mutations_replayed),
          static_cast<unsigned long long>(r.segments_scanned),
          r.snapshot_load_millis, r.replay_millis,
          r.truncated_bytes > 0 ? " (torn tail truncated)" : "");
    }
  }

  void PrintDeltaStats() const {
    if (!engine.has_value()) {
      std::printf("no data loaded\n");
      return;
    }
    const mut::MutationStats s = engine->mutation_stats();
    std::printf(
        "epoch:         %llu\n"
        "delta inserts: %llu\n"
        "delta deletes: %llu\n"
        "delta bytes:   %s\n"
        "compactions:   %llu (%.3f ms total)\n"
        "active epochs: %llu\n",
        static_cast<unsigned long long>(s.epoch),
        static_cast<unsigned long long>(s.delta_insert_triples),
        static_cast<unsigned long long>(s.delta_delete_triples),
        FormatCount(s.delta_bytes).c_str(),
        static_cast<unsigned long long>(s.compactions),
        static_cast<double>(s.compaction_micros) / 1e3,
        static_cast<unsigned long long>(s.active_epochs));
  }

  void RunQuery(const std::string& sparql) {
    if (!engine.has_value()) {
      std::printf("no data loaded — use .load/.gen/.restore first\n");
      return;
    }
    if (explain) {
      auto plan = engine->Explain(sparql);
      if (plan.ok()) std::printf("%s", plan->ToString().c_str());
    }
    engine::QueryOptions opts;
    opts.num_threads = threads;
    opts.strategy = strategy;
    opts.scheduling = scheduling;
    opts.batch_probes = batch_probes;
    auto result = engine->Execute(sparql, opts);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    if (explain && !result->step_rows.empty()) {
      std::printf("actual rows per step:");
      for (uint64_t rows : result->step_rows) {
        std::printf(" %s", FormatCount(rows).c_str());
      }
      std::printf("\n");
    }
    // Header.
    for (const std::string& name : result->var_names) {
      std::printf("?%s\t", name.c_str());
    }
    std::printf("\n");
    const uint64_t shown = std::min<uint64_t>(result->row_count, print_limit);
    for (uint64_t row = 0; row < shown; ++row) {
      for (const std::string& cell : engine->DecodeRow(*result, row)) {
        std::printf("%s\t", cell.c_str());
      }
      std::printf("\n");
    }
    if (shown < result->row_count) {
      std::printf("... (%s more rows)\n",
                  FormatCount(result->row_count - shown).c_str());
    }
    std::printf("%s rows in %s ms (parse %.2f + optimize %.2f + execute "
                "%.2f) [%s, %d thread%s]\n",
                FormatCount(result->row_count).c_str(),
                FormatMillis(result->total_millis()).c_str(),
                result->parse_millis, result->optimize_millis,
                result->execute_millis,
                join::SearchStrategyName(strategy), threads,
                threads == 1 ? "" : "s");
  }

  bool HandleCommand(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command == ".quit" || command == ".exit") return false;
    if (command == ".help") {
      std::printf(
          ".load FILE | .gen lubm N | .gen watdiv N | .save FILE |\n"
          ".restore FILE | .verify FILE | .dump FILE | .threads N |\n"
          ".load-threads N | .compression none|blocked | .strategy NAME |\n"
          ".scheduling static|morsel |\n"
          ".simd scalar|sse2|avx2|auto | .batch on|off |\n"
          ".insert <s> <p> <o> . | .remove <s> <p> <o> . | .compact |\n"
          ".delta | .wal | .calibrate | .explain on|off | .limit N | "
          ".stats | .quit\n"
          "queries: SELECT [DISTINCT] vars / (COUNT|SUM|MIN|MAX)(...) AS\n"
          "  WHERE {...} [GROUP BY ...] [ORDER BY [DESC(...)] ...] "
          "[LIMIT N]\n");
    } else if (command == ".load") {
      std::string path;
      in >> path;
      auto loaded = engine::ParjEngine::FromNTriplesFile(path,
                                                         LoadEngineOptions());
      if (!loaded.ok()) {
        std::printf("error: %s\n", loaded.status().ToString().c_str());
      } else {
        engine = std::move(loaded).value();
        PrintLoadStats();
        PrintStats();
      }
    } else if (command == ".gen") {
      std::string kind;
      int scale = 1;
      in >> kind >> scale;
      workload::GeneratedData data;
      if (kind == "lubm") {
        data = workload::GenerateLubm({.universities = scale, .seed = 42});
      } else if (kind == "watdiv") {
        data = workload::GenerateWatdiv({.scale = scale, .seed = 7});
      } else {
        std::printf("unknown generator '%s' (lubm | watdiv)\n", kind.c_str());
        return true;
      }
      auto built = engine::ParjEngine::FromEncoded(
          std::move(data.dict), std::move(data.triples), LoadEngineOptions());
      if (!built.ok()) {
        std::printf("error: %s\n", built.status().ToString().c_str());
      } else {
        engine = std::move(built).value();
        PrintStats();
      }
    } else if (command == ".save") {
      std::string path;
      in >> path;
      if (!engine.has_value()) {
        std::printf("no data loaded\n");
      } else {
        Status st = storage::SaveSnapshot(engine->database(), path);
        std::printf("%s\n", st.ok() ? "saved" : st.ToString().c_str());
      }
    } else if (command == ".restore") {
      std::string path;
      in >> path;
      auto restored =
          engine::ParjEngine::FromSnapshotFile(path, LoadEngineOptions());
      if (!restored.ok()) {
        std::printf("error: %s\n", restored.status().ToString().c_str());
      } else {
        engine = std::move(restored).value();
        PrintLoadStats();
        PrintStats();
      }
    } else if (command == ".verify") {
      std::string path;
      in >> path;
      auto info = storage::VerifySnapshotFile(path);
      if (!info.ok()) {
        std::printf("error: %s\n", info.status().ToString().c_str());
      } else {
        std::printf(
            "snapshot OK: v%u, %u resources, %u predicates, %llu triples, "
            "%llu section(s) CRC-verified, %llu bytes\n",
            info->version, info->resource_count, info->predicate_count,
            static_cast<unsigned long long>(info->triple_count),
            static_cast<unsigned long long>(info->sections_verified),
            static_cast<unsigned long long>(info->bytes));
      }
    } else if (command == ".dump") {
      std::string path;
      in >> path;
      if (!engine.has_value()) {
        std::printf("no data loaded\n");
      } else {
        Status st = storage::ExportNTriplesFile(engine->database(), path);
        std::printf("%s\n", st.ok() ? "dumped" : st.ToString().c_str());
      }
    } else if (command == ".insert" || command == ".remove") {
      std::string rest;
      std::getline(in, rest);
      Mutate(std::move(rest), command == ".remove");
    } else if (command == ".compact") {
      Compact();
    } else if (command == ".delta") {
      PrintDeltaStats();
    } else if (command == ".wal") {
      PrintWalStats();
    } else if (command == ".threads") {
      in >> threads;
      if (threads < 1) threads = 1;
      std::printf("threads = %d\n", threads);
    } else if (command == ".load-threads") {
      in >> load_threads;
      if (load_threads < 1) load_threads = 1;
      std::printf("load threads = %d\n", load_threads);
    } else if (command == ".compression") {
      std::string name;
      in >> name;
      if (name == "none") {
        compression = storage::Compression::kNone;
      } else if (name == "blocked") {
        compression = storage::Compression::kBlocked;
      } else if (!name.empty()) {
        std::printf("unknown compression (none|blocked)\n");
        return true;
      }
      std::printf("compression = %s (applies to subsequent loads)\n",
                  storage::CompressionName(compression));
    } else if (command == ".scheduling") {
      std::string name;
      in >> name;
      if (name == "static") {
        scheduling = join::Scheduling::kStatic;
      } else if (name == "morsel") {
        scheduling = join::Scheduling::kMorsel;
      } else if (!name.empty()) {
        std::printf("unknown scheduling (static|morsel)\n");
        return true;
      }
      std::printf("scheduling = %s\n", join::SchedulingName(scheduling));
    } else if (command == ".simd") {
      std::string name;
      in >> name;
      simd::Level level;
      if (!name.empty() && simd::ParseLevel(name.c_str(), &level)) {
        simd::SetActiveLevel(level);
      } else if (!name.empty()) {
        std::printf("unknown simd level (scalar|sse2|avx2|auto)\n");
        return true;
      }
      std::printf("simd = %s (compiled %s, cpu supports %s)\n",
                  simd::LevelName(simd::ActiveLevel()),
                  simd::LevelName(simd::CompiledLevel()),
                  simd::LevelName(simd::SupportedLevel()));
    } else if (command == ".batch") {
      std::string name;
      in >> name;
      if (name == "on") {
        batch_probes = true;
      } else if (name == "off") {
        batch_probes = false;
      } else if (!name.empty()) {
        std::printf("usage: .batch on|off\n");
        return true;
      }
      std::printf("batch probes = %s\n", batch_probes ? "on" : "off");
    } else if (command == ".strategy") {
      std::string name;
      in >> name;
      if (name == "Binary") {
        strategy = join::SearchStrategy::kBinary;
      } else if (name == "AdBinary") {
        strategy = join::SearchStrategy::kAdaptiveBinary;
      } else if (name == "Index") {
        strategy = join::SearchStrategy::kIndex;
      } else if (name == "AdIndex") {
        strategy = join::SearchStrategy::kAdaptiveIndex;
      } else {
        std::printf("unknown strategy (Binary|AdBinary|Index|AdIndex)\n");
        return true;
      }
      std::printf("strategy = %s\n", join::SearchStrategyName(strategy));
    } else if (command == ".calibrate") {
      if (!engine.has_value()) {
        std::printf("no data loaded\n");
      } else {
        engine->Calibrate();
        std::printf("calibrated\n");
      }
    } else if (command == ".explain") {
      std::string mode;
      in >> mode;
      explain = mode == "on";
      std::printf("explain = %s\n", explain ? "on" : "off");
    } else if (command == ".limit") {
      in >> print_limit;
      std::printf("print limit = %llu\n",
                  static_cast<unsigned long long>(print_limit));
    } else if (command == ".stats") {
      PrintStats();
    } else {
      std::printf("unknown command %s (.help for help)\n", command.c_str());
    }
    return true;
  }

  // ---- Concurrent serving mode (`parj_cli serve`) ----------------------

  struct PendingQuery {
    uint64_t id = 0;
    server::SubmittedQuery submission;
  };

  /// Prints every already-finished pending query; with `block`, waits for
  /// and prints all of them.
  void HarvestPending(std::vector<PendingQuery>* pending, bool block) {
    for (auto it = pending->begin(); it != pending->end();) {
      std::future<Result<engine::QueryResult>>& f = it->submission.result;
      if (!block && f.wait_for(std::chrono::seconds(0)) !=
                        std::future_status::ready) {
        ++it;
        continue;
      }
      auto result = f.get();
      if (!result.ok()) {
        std::printf("[q%llu] error: %s\n",
                    static_cast<unsigned long long>(it->id),
                    result.status().ToString().c_str());
      } else {
        std::printf("[q%llu] %s rows in %s ms\n",
                    static_cast<unsigned long long>(it->id),
                    FormatCount(result->row_count).c_str(),
                    FormatMillis(result->total_millis()).c_str());
      }
      it = pending->erase(it);
    }
  }

  /// Batch/REPL serving loop: submits every query to the QueryServer
  /// without waiting, prints completions as they arrive, and dumps the
  /// metrics registry on exit.
  void RunServe() {
    if (!engine.has_value()) {
      std::printf("no data loaded — pass --load/--lubm/--snapshot first\n");
      return;
    }
    server::ServerOptions options;
    options.scheduler.max_in_flight = serve_inflight;
    options.query_defaults.num_threads = threads;
    options.query_defaults.scheduling = scheduling;
    options.query_defaults.batch_probes = batch_probes;
    options.query_defaults.strategy = strategy;
    options.query_defaults.mode = join::ResultMode::kCount;
    options.enable_plan_cache = serve_plan_cache;
    options.result_cache_bytes = serve_result_cache_mb << 20;
    options.enable_shared_scan = serve_shared_scan;
    server::QueryServer srv(&*engine, options);
    std::printf(
        "serve mode: %d in flight, %d thread(s)/query, plan cache %s, "
        "result cache %zu MB; queries end with ';', .metrics dumps "
        "counters, .wait drains, .quit exits\n",
        serve_inflight, threads, serve_plan_cache ? "on" : "off",
        serve_result_cache_mb);
    // Snapshot integrity counters live in a process-wide registry (loads
    // can happen before the server exists); mirror them into the serving
    // registry so one .metrics dump shows everything.
    auto dump_metrics = [&srv, this] {
      srv.metrics().snapshot_crc_verified.store(
          storage::GlobalSnapshotStats().crc_sections_verified.load(
              std::memory_order_relaxed),
          std::memory_order_relaxed);
      // Load-phase gauges come from the engine's LoadStats so the serving
      // registry reflects how start-up time was spent.
      const engine::LoadStats& ls = engine->load_stats();
      const auto micros = [](double millis) {
        return static_cast<uint64_t>(millis * 1e3);
      };
      srv.metrics().load_total_micros.store(micros(ls.total_millis),
                                            std::memory_order_relaxed);
      srv.metrics().load_parse_micros.store(micros(ls.parse_millis),
                                            std::memory_order_relaxed);
      srv.metrics().load_encode_micros.store(micros(ls.encode_millis),
                                             std::memory_order_relaxed);
      srv.metrics().load_build_micros.store(micros(ls.build_millis),
                                            std::memory_order_relaxed);
      srv.metrics().load_index_micros.store(micros(ls.index_millis),
                                            std::memory_order_relaxed);
      srv.metrics().load_calibrate_micros.store(micros(ls.calibrate_millis),
                                                std::memory_order_relaxed);
      srv.metrics().load_threads_used.store(
          static_cast<uint64_t>(ls.threads), std::memory_order_relaxed);
      // Live-mutability gauges refresh on each submission; refresh again
      // here so an idle server still dumps current delta/epoch state.
      srv.RefreshMutationGauges();
      std::printf("%s", srv.metrics().Dump().c_str());
    };

    std::vector<PendingQuery> pending;
    std::map<std::string, std::shared_ptr<const server::PreparedStatement>>
        prepared_queries;
    // .priority / .timeout changed mid-serve apply to new submissions.
    auto make_submit_options = [&] {
      server::SubmitOptions submit_options;
      submit_options.priority = serve_priority;
      submit_options.timeout_millis = serve_timeout_millis;
      return submit_options;
    };
    auto submit = [&](const std::string& sparql) {
      server::SubmitOptions submit_options = make_submit_options();
      server::SubmittedQuery q = srv.Submit(sparql, submit_options);
      std::printf("[q%llu] submitted (priority %d%s)\n",
                  static_cast<unsigned long long>(q.id), serve_priority,
                  serve_timeout_millis > 0 ? ", with timeout" : "");
      pending.push_back(PendingQuery{q.id, std::move(q)});
    };
    auto print_cache_stats = [&srv] {
      if (query::PlanCache* pc = srv.plan_cache()) {
        const query::PlanCacheStats s = pc->stats();
        std::printf(
            "plan cache:   %llu hits, %llu misses, %llu evictions, "
            "%zu entries\n",
            static_cast<unsigned long long>(s.hits),
            static_cast<unsigned long long>(s.misses),
            static_cast<unsigned long long>(s.evictions), pc->size());
      } else {
        std::printf("plan cache:   disabled\n");
      }
      if (server::ResultCache* rc = srv.result_cache()) {
        const server::ResultCacheStats s = rc->stats();
        std::printf(
            "result cache: %llu hits, %llu misses, %llu evictions, "
            "%llu entries, %llu / %zu bytes\n",
            static_cast<unsigned long long>(s.hits),
            static_cast<unsigned long long>(s.misses),
            static_cast<unsigned long long>(s.evictions),
            static_cast<unsigned long long>(s.entries),
            static_cast<unsigned long long>(s.bytes), rc->max_bytes());
      } else {
        std::printf("result cache: disabled\n");
      }
    };

    std::string line;
    std::string query;
    while (std::getline(std::cin, line)) {
      HarvestPending(&pending, false);
      if (!query.empty()) {
        if (line == ";") {
          submit(query);
          query.clear();
        } else {
          query += "\n" + line;
        }
        continue;
      }
      if (line.empty()) continue;
      if (line[0] == '.') {
        std::istringstream in(line);
        std::string command;
        in >> command;
        if (command == ".quit" || command == ".exit") break;
        if (command == ".metrics") {
          dump_metrics();
        } else if (command == ".insert" || command == ".remove") {
          // Live writes while queries are in flight: MVCC snapshots keep
          // every running query on its pinned epoch.
          std::string rest;
          std::getline(in, rest);
          Mutate(std::move(rest), command == ".remove");
        } else if (command == ".compact") {
          Compact();
        } else if (command == ".delta") {
          PrintDeltaStats();
        } else if (command == ".wal") {
          PrintWalStats();
        } else if (command == ".timeout") {
          in >> serve_timeout_millis;
          std::printf("timeout = %.1f ms\n", serve_timeout_millis);
        } else if (command == ".priority") {
          in >> serve_priority;
          std::printf("priority = %d\n", serve_priority);
        } else if (command == ".wait") {
          HarvestPending(&pending, true);
        } else if (command == ".prepare") {
          // .prepare NAME SELECT ... — parse + normalize once; submit
          // later with `.run NAME`.
          std::string name;
          in >> name;
          std::string rest;
          std::getline(in, rest);
          const size_t start = rest.find_first_not_of(" \t");
          if (name.empty() || start == std::string::npos) {
            std::printf("usage: .prepare NAME SELECT ...\n");
          } else {
            rest = rest.substr(start);
            if (rest.back() == ';') rest.pop_back();
            auto stmt = srv.Prepare(rest);
            if (!stmt.ok()) {
              std::printf("prepare error: %s\n",
                          stmt.status().ToString().c_str());
            } else {
              const bool eligible = (*stmt)->normalized.eligible;
              prepared_queries[name] = std::move(*stmt);
              std::printf("prepared %s (%s)\n", name.c_str(),
                          eligible ? "shape-cacheable"
                                   : "uncached path");
            }
          }
        } else if (command == ".run") {
          std::string name;
          in >> name;
          auto it = prepared_queries.find(name);
          if (it == prepared_queries.end()) {
            std::printf("no prepared query %s (.prepare first)\n",
                        name.c_str());
          } else {
            server::SubmitOptions submit_options = make_submit_options();
            server::SubmittedQuery q =
                srv.SubmitPrepared(it->second, submit_options);
            std::printf("[q%llu] submitted (prepared %s)\n",
                        static_cast<unsigned long long>(q.id), name.c_str());
            pending.push_back(PendingQuery{q.id, std::move(q)});
          }
        } else if (command == ".cache") {
          std::string arg;
          in >> arg;
          if (arg == "clear") {
            srv.ClearCaches();
            std::printf("caches cleared\n");
          } else {
            print_cache_stats();
          }
        } else if (command == ".help") {
          std::printf(
              ".metrics | .insert <s> <p> <o> . | .remove <s> <p> <o> . |\n"
              ".compact | .delta | .wal | .timeout MS | .priority N |\n"
              ".prepare NAME QUERY | .run NAME | .cache [clear] | "
              ".wait | .quit\n");
        } else {
          std::printf("unknown serve command %s (.help for help)\n",
                      command.c_str());
        }
        continue;
      }
      query = line;
      if (line.back() == ';') {
        query.pop_back();
        submit(query);
        query.clear();
      }
    }
    if (!query.empty()) submit(query);
    HarvestPending(&pending, true);
    srv.Drain();
    dump_metrics();
  }

  /// Applies --wal-dir after the data-loading pass: recover from an
  /// existing log (replacing whatever was loaded), or initialize a fresh
  /// one over the loaded store. Prints its own errors; false aborts main.
  bool SetupWal() {
    if (wal_dir.empty()) return true;
    mut::WalOptions wal;
    wal.dir = wal_dir;
    wal.sync = wal_sync;
    auto recovered =
        engine::ParjEngine::RecoverFromWal(wal, LoadEngineOptions());
    if (recovered.ok()) {
      if (engine.has_value()) {
        std::printf(
            "%s holds an existing log; recovered store replaces the "
            "loaded data\n", wal_dir.c_str());
      }
      engine = std::move(recovered).value();
      const mut::RecoveryStats& r = engine->recovery_stats();
      std::printf(
          "recovered from %s: epoch %llu snapshot + %llu record(s) "
          "(%llu mutation(s), %llu segment(s)) in %.1f + %.1f ms%s\n",
          wal_dir.c_str(),
          static_cast<unsigned long long>(r.snapshot_epoch),
          static_cast<unsigned long long>(r.records_replayed),
          static_cast<unsigned long long>(r.mutations_replayed),
          static_cast<unsigned long long>(r.segments_scanned),
          r.snapshot_load_millis, r.replay_millis,
          r.truncated_bytes > 0 ? " (torn tail truncated)" : "");
      PrintStats();
      return true;
    }
    if (!recovered.status().IsNotFound()) {
      std::fprintf(stderr, "error: %s\n",
                   recovered.status().ToString().c_str());
      return false;
    }
    if (!engine.has_value()) {
      std::fprintf(stderr,
                   "%s holds no log and no data was loaded — pass "
                   "--load/--lubm/--snapshot to seed it\n", wal_dir.c_str());
      return false;
    }
    Status st = engine->EnableWal(wal);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return false;
    }
    std::printf("wal: logging to %s (sync=%s)\n", wal_dir.c_str(),
                mut::WalSyncName(wal_sync));
    return true;
  }

  int serve_inflight = 4;
  int serve_priority = 0;
  double serve_timeout_millis = 0.0;
  bool serve_plan_cache = true;
  size_t serve_result_cache_mb = 64;  ///< 0 disables the result cache
  bool serve_shared_scan = true;
  std::string wal_dir;
  mut::WalSync wal_sync = mut::WalSync::kBatch;
};

}  // namespace
}  // namespace parj::tool

int main(int argc, char** argv) {
  parj::tool::Shell shell;
  bool serve = false;

  // Standalone integrity check: exit status is the verdict, so scripts
  // can gate a restore on `parj_cli verify-snapshot FILE`.
  if (argc >= 2 && std::strcmp(argv[1], "verify-snapshot") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: parj_cli verify-snapshot FILE\n");
      return 2;
    }
    auto info = parj::storage::VerifySnapshotFile(argv[2]);
    if (!info.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[2],
                   info.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%s: OK (v%u, %u resources, %u predicates, %llu triples, "
        "%llu section(s) CRC-verified, %llu bytes)\n",
        argv[2], info->version, info->resource_count, info->predicate_count,
        static_cast<unsigned long long>(info->triple_count),
        static_cast<unsigned long long>(info->sections_verified),
        static_cast<unsigned long long>(info->bytes));
    return 0;
  }

  // Standalone WAL integrity check, read-only (never repairs a torn
  // tail): exit 0 = replayable, 1 = corrupt/unreadable.
  if (argc >= 2 && std::strcmp(argv[1], "verify-wal") == 0) {
    if (argc != 3) {
      std::fprintf(stderr, "usage: parj_cli verify-wal DIR\n");
      return 2;
    }
    auto info = parj::mut::Wal::VerifyWal(argv[2]);
    if (!info.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[2],
                   info.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "%s: OK (snapshot %s @ epoch %llu, segments %llu..%llu, "
        "%llu record(s), %llu mutation(s), %llu bytes%s)\n",
        argv[2], info->snapshot_file.c_str(),
        static_cast<unsigned long long>(info->snapshot_epoch),
        static_cast<unsigned long long>(info->first_segment),
        static_cast<unsigned long long>(info->last_segment),
        static_cast<unsigned long long>(info->records),
        static_cast<unsigned long long>(info->mutations),
        static_cast<unsigned long long>(info->bytes),
        info->torn_tail_bytes > 0 ? ", torn tail present" : "");
    return 0;
  }

  // Two passes: settings first, then data-loading actions, so flag order
  // on the command line never matters (--load data.nt --load-threads 8
  // still loads with 8 threads).
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "serve") == 0 ||
        std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--failpoints") == 0 && i + 1 < argc) {
      parj::Status armed = parj::failpoint::ArmFromSpecList(argv[++i]);
      if (!armed.ok()) {
        std::fprintf(stderr, "%s\n", armed.ToString().c_str());
        return 1;
      }
    } else if (std::strcmp(argv[i], "--inflight") == 0 && i + 1 < argc) {
      shell.serve_inflight = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--plan-cache") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      shell.serve_plan_cache = std::strcmp(v, "off") != 0 &&
                               std::strcmp(v, "0") != 0 &&
                               std::strcmp(v, "false") != 0;
    } else if (std::strcmp(argv[i], "--result-cache-mb") == 0 &&
               i + 1 < argc) {
      shell.serve_result_cache_mb =
          static_cast<size_t>(std::max(0, std::atoi(argv[++i])));
    } else if (std::strcmp(argv[i], "--shared-scan") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      shell.serve_shared_scan = std::strcmp(v, "off") != 0 &&
                                std::strcmp(v, "0") != 0 &&
                                std::strcmp(v, "false") != 0;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".threads ") + argv[++i]);
    } else if (std::strcmp(argv[i], "--simd") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".simd ") + argv[++i]);
    } else if (std::strcmp(argv[i], "--no-batch") == 0) {
      shell.HandleCommand(".batch off");
    } else if (std::strcmp(argv[i], "--compression") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".compression ") + argv[++i]);
    } else if (std::strncmp(argv[i], "--compression=", 14) == 0) {
      shell.HandleCommand(std::string(".compression ") + (argv[i] + 14));
    } else if (std::strcmp(argv[i], "--load-threads") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".load-threads ") + argv[++i]);
    } else if (std::strcmp(argv[i], "--chunk-mb") == 0 && i + 1 < argc) {
      shell.chunk_mb = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--wal-dir") == 0 && i + 1 < argc) {
      shell.wal_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--wal-sync") == 0 && i + 1 < argc) {
      auto sync = parj::mut::ParseWalSync(argv[++i]);
      if (!sync.ok()) {
        std::fprintf(stderr, "%s\n", sync.status().ToString().c_str());
        return 1;
      }
      shell.wal_sync = *sync;
    } else if ((std::strcmp(argv[i], "--load") == 0 ||
                std::strcmp(argv[i], "--snapshot") == 0 ||
                std::strcmp(argv[i], "--lubm") == 0 ||
                std::strcmp(argv[i], "--watdiv") == 0) &&
               i + 1 < argc) {
      ++i;  // handled in the second pass
    } else {
      std::fprintf(stderr, "unknown argument %s\n", argv[i]);
      return 1;
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".load ") + argv[++i]);
    } else if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".restore ") + argv[++i]);
    } else if (std::strcmp(argv[i], "--lubm") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".gen lubm ") + argv[++i]);
    } else if (std::strcmp(argv[i], "--watdiv") == 0 && i + 1 < argc) {
      shell.HandleCommand(std::string(".gen watdiv ") + argv[++i]);
    } else if ((std::strcmp(argv[i], "--failpoints") == 0 ||
                std::strcmp(argv[i], "--inflight") == 0 ||
                std::strcmp(argv[i], "--plan-cache") == 0 ||
                std::strcmp(argv[i], "--result-cache-mb") == 0 ||
                std::strcmp(argv[i], "--shared-scan") == 0 ||
                std::strcmp(argv[i], "--threads") == 0 ||
                std::strcmp(argv[i], "--simd") == 0 ||
                std::strcmp(argv[i], "--compression") == 0 ||
                std::strcmp(argv[i], "--load-threads") == 0 ||
                std::strcmp(argv[i], "--chunk-mb") == 0 ||
                std::strcmp(argv[i], "--wal-dir") == 0 ||
                std::strcmp(argv[i], "--wal-sync") == 0) &&
               i + 1 < argc) {
      ++i;  // consumed in the first pass
    }
  }

  if (!shell.SetupWal()) return 1;

  if (serve) {
    shell.RunServe();
    return 0;
  }

  std::string line;
  std::string query;
  while (std::getline(std::cin, line)) {
    if (!query.empty()) {
      if (line == ";") {
        shell.RunQuery(query);
        query.clear();
      } else {
        query += "\n" + line;
      }
      continue;
    }
    if (line.empty()) continue;
    if (line[0] == '.') {
      if (!shell.HandleCommand(line)) break;
      continue;
    }
    query = line;
    // Single-line queries ending the statement immediately are common.
    if (line.back() == ';') {
      query.pop_back();
      shell.RunQuery(query);
      query.clear();
    }
  }
  if (!query.empty()) shell.RunQuery(query);
  return 0;
}
