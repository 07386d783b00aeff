#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/timer.h"
#include "mutable/compactor.h"
#include "server/thread_pool.h"
#include "stats.h"
#include "workload/lubm.h"
#include "workloads.h"

namespace perfbench {

namespace {

using parj::Rng;
using parj::Status;
using parj::Stopwatch;
using parj::TermId;
using parj::engine::ParjEngine;
using parj::engine::QueryResult;
using parj::mut::Mutation;

constexpr int kUniversities = 20;
/// Timed set-ups (FromEncoded + EnableWal) per run; setup_s is the median.
constexpr int kLoads = 3;
/// The writer cycles through kCycle batches: kHalfCycle growth batches
/// (insert new students, remove triples of existing ones) then the same
/// number of batches undoing them in order. After every full cycle the
/// store holds exactly the base triples again, so the answer to each
/// query is a function of (data version mod kCycle) — which is what lets
/// every read be checked against a precomputed answer.
constexpr size_t kHalfCycle = 20;
constexpr size_t kCycle = 2 * kHalfCycle;
constexpr int kNewStudentsPerBatch = 4;
constexpr int kExistingPerBatch = 4;
/// Open-loop write rate.
constexpr double kBatchesPerSecond = 20.0;
/// Background compaction: the writer asks the compactor (threshold
/// kCompactDeltaTriples pending triples) after every kCompactEvery-th
/// batch. The store after v batches depends only on v mod kCycle, and two
/// states kCompactEvery batches apart always differ by ten batches (~200
/// triples), so every ask finds the delta above the threshold and every
/// run compacts every 2.5 s, whatever the seed. Asking after every batch
/// kept a ~450 ms compaction running nearly all the time, and on a machine
/// that gives the process about one core the reader's share of the core
/// then decided its latency; asking at a fixed point of the cycle finds
/// the same state as the last compaction left, and never compacts again.
constexpr uint64_t kCompactDeltaTriples = 100;
constexpr uint64_t kCompactEvery = kCycle + kCycle / 4;
constexpr int kPar8Rounds = 30;
/// The writer counts as fallen behind when a batch is sent this late.
constexpr double kMaxLatenessMs = 1000.0;

constexpr char kUb[] = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#";
constexpr char kRdfType[] = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

parj::rdf::Term Iri(std::string iri) {
  return parj::rdf::Term::Iri(std::move(iri));
}
parj::rdf::Term Ub(const char* local) { return Iri(std::string(kUb) + local); }

std::string Department(uint64_t university, uint64_t department) {
  return "http://www.Department" + std::to_string(department) + ".University" +
         std::to_string(university) + ".edu";
}

/// The writer's seeded mutation cycle over rdf:type, ub:memberOf,
/// ub:takesCourse and ub:advisor, for new and for existing students.
/// Departments 0-14, courses 0-29, graduate courses 0-19 and professors
/// 0-6 exist in every generated department.
parj::Result<std::vector<std::vector<Mutation>>> BuildCycle(
    const parj::workload::GeneratedData& data, uint64_t seed) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x1D);
  const parj::dict::Dictionary& dict = data.dict;
  const parj::rdf::Term type = Iri(kRdfType);
  const parj::rdf::Term member_of = Ub("memberOf");
  const parj::rdf::Term takes = Ub("takesCourse");
  const parj::rdf::Term advisor = Ub("advisor");

  // Existing students, each touched by one growth batch only.
  const size_t wanted = kHalfCycle * kExistingPerBatch;
  std::unordered_set<TermId> chosen_set;
  std::vector<TermId> chosen;
  for (int attempt = 0; chosen.size() < wanted && attempt < 100000; ++attempt) {
    const bool grad = rng.Chance(0.5);
    const std::string iri =
        Department(rng.Uniform(kUniversities), rng.Uniform(15)) +
        (grad ? "/GraduateStudent" : "/UndergraduateStudent") +
        std::to_string(rng.Uniform(grad ? 80 : 200));
    const TermId id = dict.LookupResource(Iri(iri));
    if (id != parj::kInvalidTermId && chosen_set.insert(id).second) {
      chosen.push_back(id);
    }
  }
  if (chosen.size() < wanted) {
    return Status::Internal("the generated data has too few students");
  }
  const std::unordered_set<parj::PredicateId> read_predicates = {
      dict.LookupPredicate(type), dict.LookupPredicate(member_of),
      dict.LookupPredicate(takes), dict.LookupPredicate(advisor)};
  std::unordered_map<TermId, std::vector<parj::EncodedTriple>> owned;
  for (const parj::EncodedTriple& t : data.triples) {
    if (chosen_set.count(t.subject) != 0 &&
        read_predicates.count(t.predicate) != 0) {
      owned[t.subject].push_back(t);
    }
  }

  std::vector<std::vector<Mutation>> cycle(kCycle);
  size_t next_existing = 0;
  for (size_t g = 0; g < kHalfCycle; ++g) {
    std::vector<Mutation>& grow = cycle[g];
    std::vector<Mutation>& undo = cycle[kHalfCycle + g];
    for (int k = 0; k < kNewStudentsPerBatch; ++k) {
      const bool grad = k % 2 == 1;
      const std::string dept =
          Department(rng.Uniform(kUniversities), rng.Uniform(15));
      const parj::rdf::Term student =
          Iri("http://perfbench.example.org/ingest/Student" +
              std::to_string(g) + "_" + std::to_string(k));
      std::vector<parj::rdf::Triple> triples;
      triples.push_back(
          {student, type, Ub(grad ? "GraduateStudent" : "UndergraduateStudent")});
      triples.push_back({student, member_of, Iri(dept)});
      if (grad) {
        triples.push_back({student, takes,
                           Iri(dept + "/GraduateCourse" +
                               std::to_string(rng.Uniform(20)))});
        triples.push_back({student, advisor,
                           Iri(dept + "/FullProfessor" +
                               std::to_string(rng.Uniform(7)))});
      } else {
        for (int c = 0; c < 2; ++c) {
          triples.push_back(
              {student, takes,
               Iri(dept + "/Course" + std::to_string(rng.Uniform(30)))});
        }
      }
      for (const parj::rdf::Triple& t : triples) {
        grow.push_back({t, /*remove=*/false});
        undo.push_back({t, /*remove=*/true});
      }
    }
    for (int e = 0; e < kExistingPerBatch; ++e) {
      const std::vector<parj::EncodedTriple>& own = owned[chosen[next_existing++]];
      if (own.empty()) continue;
      const parj::rdf::Triple t = dict.Decode(own[rng.Uniform(own.size())]);
      grow.push_back({t, /*remove=*/true});
      undo.push_back({t, /*remove=*/false});
    }
  }
  return cycle;
}

/// Row counts of the ten queries at the current data version.
parj::Result<std::vector<uint64_t>> CountAll(
    const ParjEngine& engine,
    const std::vector<parj::workload::NamedQuery>& queries,
    const parj::engine::QueryOptions& read) {
  std::vector<uint64_t> rows;
  for (const parj::workload::NamedQuery& q : queries) {
    PARJ_ASSIGN_OR_RETURN(QueryResult r, engine.Execute(q.sparql, read));
    rows.push_back(r.row_count);
  }
  return rows;
}

/// Sorted TermId rows of every query: the equality the post-run checks
/// compare across compaction and recovery.
parj::Result<std::vector<std::vector<TermId>>> Fingerprint(
    const ParjEngine& engine,
    const std::vector<parj::workload::NamedQuery>& queries) {
  parj::engine::QueryOptions materialize;
  std::vector<std::vector<TermId>> out;
  for (const parj::workload::NamedQuery& q : queries) {
    PARJ_ASSIGN_OR_RETURN(QueryResult r, engine.Execute(q.sparql, materialize));
    out.push_back(SortedRows(r.rows, r.column_count));
  }
  return out;
}

/// Writer-side record of one timed phase.
struct WriterLog {
  std::vector<double> lateness_ms;  ///< send time minus scheduled time
  std::vector<double> ack_ms;       ///< ApplyBatch return minus scheduled time
  std::vector<double> apply_ms;     ///< ApplyBatch call duration
  uint64_t mutations = 0;
  std::vector<std::string> failures;
};

}  // namespace

parj::Status RunLubmIngest(const RunOptions& options, Report* report,
                           std::vector<Span>* spans) {
  namespace fs = std::filesystem;
  const std::vector<parj::workload::NamedQuery> queries =
      parj::workload::LubmQueries();

  // Input preparation (untimed): dataset and mutation cycle.
  parj::workload::GeneratedData data = parj::workload::GenerateLubm(
      {.universities = kUniversities, .seed = options.seed});
  PARJ_ASSIGN_OR_RETURN(std::vector<std::vector<Mutation>> cycle,
                        BuildCycle(data, options.seed));
  report->Note("universities", Json::Number(kUniversities));

  // Serial loads (the default load.threads), for the reason given in
  // watdiv_serve.cc.
  const parj::engine::EngineOptions load;
  parj::mut::WalOptions wal;
  wal.dir = options.work_dir + "/wal";
  wal.sync = parj::mut::WalSync::kBatch;

  std::optional<ParjEngine> engine;
  std::vector<double> setup_s, build, index, wal_init;
  for (int k = 0; k < kLoads; ++k) {
    engine.reset();  // closes the previous run's WAL
    fs::remove_all(wal.dir);
    const bool last = k + 1 == kLoads;
    parj::dict::Dictionary dict =
        last ? std::move(data.dict) : data.dict.Clone();
    std::vector<parj::EncodedTriple> triples =
        last ? std::move(data.triples) : data.triples;
    Stopwatch load_timer;
    parj::Result<ParjEngine> loaded =
        ParjEngine::FromEncoded(std::move(dict), std::move(triples), load);
    const double load_ms = load_timer.ElapsedMillis();
    if (!loaded.ok()) return loaded.status();
    engine.emplace(std::move(loaded).value());
    Stopwatch wal_timer;
    PARJ_RETURN_NOT_OK(engine->EnableWal(wal));
    const double wal_ms = wal_timer.ElapsedMillis();
    setup_s.push_back((load_ms + wal_ms) / 1e3);
    build.push_back(engine->load_stats().build_millis);
    index.push_back(engine->load_stats().index_millis);
    wal_init.push_back(wal_ms);
  }
  report->Metric("setup_s", Median(setup_s), "s", kLoads);
  report->Metric("storage.build_ms", Median(build), "ms", kLoads);
  report->Metric("storage.index_ms", Median(index), "ms", kLoads);
  report->Metric("mutable.wal_init_ms", Median(wal_init), "ms", kLoads);
  report->Metric("bytes_per_triple", BytesPerTriple(*engine), "B", 1);

  parj::engine::QueryOptions read;
  read.num_threads = 1;
  read.strategy = parj::join::SearchStrategy::kAdaptiveIndex;
  read.mode = parj::join::ResultMode::kCount;

  // expected[s][q]: row count of query q after s batches of a cycle.
  std::vector<std::vector<uint64_t>> expected(kCycle);
  PARJ_RETURN_NOT_OK(CounterPass(*engine, queries, read, report, &expected[0]));
  Par8Phase(*engine, queries, expected[0], read, kPar8Rounds, report);
  ReportNoServer(report);

  // One untimed cycle: apply every batch and record the answers.
  for (size_t v = 1; v <= kCycle; ++v) {
    report->Attempt();
    PARJ_RETURN_NOT_OK(engine->ApplyBatch(cycle[v - 1]));
    PARJ_ASSIGN_OR_RETURN(std::vector<uint64_t> rows,
                          CountAll(*engine, queries, read));
    if (v < kCycle) {
      expected[v] = std::move(rows);
    } else if (rows != expected[0]) {
      report->Fail("a full mutation cycle did not restore the base answers");
    }
  }

  // A timed phase: the open-loop writer and the background compactor run
  // next to one closed-loop reader (traced when `recorder` is set).
  const auto run_phase = [&](SpanRecorder* recorder, LatencySeries* series,
                             WriterLog* writer_log,
                             std::vector<double>* delta_samples) {
    parj::server::ThreadPool compaction_pool(1);
    parj::mut::CompactorOptions compactor_options;
    compactor_options.auto_compact_delta_triples = kCompactDeltaTriples;
    parj::mut::Compactor compactor(engine->delta_store(), &compaction_pool,
                                   compactor_options);
    const uint64_t first_version = engine->data_version();
    const auto start = std::chrono::steady_clock::now();
    const auto deadline = start + std::chrono::seconds(options.seconds);
    std::thread writer([&] {
      const std::chrono::duration<double> interval(1.0 / kBatchesPerSecond);
      for (uint64_t j = 0;; ++j) {
        const auto due =
            start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        interval * static_cast<double>(j));
        if (due >= deadline) break;
        std::this_thread::sleep_until(due);
        const auto sent = std::chrono::steady_clock::now();
        const std::vector<Mutation>& batch = cycle[(first_version + j) % kCycle];
        const Status s = engine->ApplyBatch(batch);
        const auto acked = std::chrono::steady_clock::now();
        if ((j + 1) % kCompactEvery == 0) compactor.MaybeTrigger();
        const auto ms = [](auto d) {
          return std::chrono::duration<double, std::milli>(d).count();
        };
        writer_log->lateness_ms.push_back(ms(sent - due));
        writer_log->ack_ms.push_back(ms(acked - due));
        writer_log->apply_ms.push_back(ms(acked - sent));
        writer_log->mutations += batch.size();
        if (!s.ok()) writer_log->failures.push_back("write: " + s.ToString());
      }
    });
    ShuffledOrder order(queries.size(), options.seed);
    Stopwatch phase;
    uint64_t request = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      const size_t q = order.Next();
      report->Attempt();
      Stopwatch timer;
      parj::Result<QueryResult> result =
          recorder == nullptr
              ? engine->Execute(queries[q].sparql, read)
              : TracedRead(*engine, queries[q].sparql, read,
                           /*decode=*/false, recorder, request);
      const double ms = timer.ElapsedMillis();
      ++request;
      const parj::mut::MutationStats stats = engine->mutation_stats();
      delta_samples->push_back(static_cast<double>(stats.delta_insert_triples +
                                                   stats.delta_delete_triples));
      if (!result.ok()) {
        report->Fail(queries[q].name + ": " + result.status().ToString());
        continue;
      }
      const uint64_t want = expected[result->data_version % kCycle][q];
      if (result->row_count != want) {
        report->Fail(queries[q].name + " at data version " +
                     std::to_string(result->data_version) + " returned " +
                     std::to_string(result->row_count) + " rows, expected " +
                     std::to_string(want));
        continue;
      }
      series->Add(q, ms);
    }
    series->seconds = phase.ElapsedSeconds();
    writer.join();
    compactor.Wait();
    if (!compactor.last_status().ok() && compactor.runs() > 0) {
      report->Fail("background compaction: " +
                   compactor.last_status().ToString());
    }
    report->Attempt(writer_log->ack_ms.size());
    for (const std::string& f : writer_log->failures) report->Fail(f);
  };

  const parj::mut::MutationStats stats_before = engine->mutation_stats();
  const parj::mut::WalStats wal_before = engine->wal_stats();
  LatencySeries untraced(queries.size());
  WriterLog writer_log;
  std::vector<double> delta_samples;
  run_phase(nullptr, &untraced, &writer_log, &delta_samples);
  const parj::mut::MutationStats stats_after = engine->mutation_stats();
  const parj::mut::WalStats wal_after = engine->wal_stats();
  ReportLatency(untraced, report);
  ReportPeakRss(report);

  const uint64_t batches = writer_log.ack_ms.size();
  const double compactions =
      static_cast<double>(stats_after.compactions - stats_before.compactions);
  report->Metric("mutable.compactions", compactions, "count", 1);
  report->Metric("mutable.compaction_ms",
                 static_cast<double>(stats_after.compaction_micros -
                                     stats_before.compaction_micros) /
                     1e3 / std::max(1.0, compactions),
                 "ms", static_cast<uint64_t>(compactions));
  double delta_sum = 0.0;
  for (double d : delta_samples) delta_sum += d;
  report->Metric("mutable.delta_triples_mean",
                 delta_sum / std::max<double>(1.0, delta_samples.size()),
                 "count", delta_samples.size());
  const uint64_t group_commits =
      wal_after.group_commits - wal_before.group_commits;
  report->Metric("mutable.wal_commit_ms",
                 static_cast<double>(wal_after.group_commit_micros -
                                     wal_before.group_commit_micros) /
                     1e3 / static_cast<double>(std::max<uint64_t>(1, group_commits)),
                 "ms", group_commits);
  report->Metric("mutable.wal_bytes_per_mutation",
                 static_cast<double>(wal_after.bytes - wal_before.bytes) /
                     static_cast<double>(std::max<uint64_t>(1, writer_log.mutations)),
                 "B", writer_log.mutations);
  if (batches > 0) {
    report->Metric("mutable.apply_ms", Median(writer_log.apply_ms), "ms",
                   batches);
    report->Metric("write_ack_p50_ms", Median(writer_log.ack_ms), "ms", batches);
    report->Metric("write_ack_p99_ms", TailQuantile(writer_log.ack_ms).value,
                   "ms", batches);
    const Tail late = TailQuantile(writer_log.lateness_ms);
    report->Metric("writer.lateness_p99_ms", late.value, "ms", batches);
    const double worst = *std::max_element(writer_log.lateness_ms.begin(),
                                           writer_log.lateness_ms.end());
    report->Metric("writer.lateness_max_ms", worst, "ms", batches);
    if (worst > kMaxLatenessMs) {
      report->Invalidate("the open-loop writer fell " + std::to_string(worst) +
                         " ms behind its schedule");
    }
  } else {
    report->Invalidate("the writer sent no batch");
  }
  report->Note("write_batches_per_second", Json::Number(kBatchesPerSecond));

  if (options.trace) {
    SpanRecorder recorder(std::chrono::steady_clock::now());
    LatencySeries traced(queries.size());
    WriterLog traced_writer;
    std::vector<double> traced_delta;
    run_phase(&recorder, &traced, &traced_writer, &traced_delta);
    ReportSpans(recorder.spans(),
                traced.all_ms.empty() ? 0.0 : Median(traced.all_ms),
                untraced.all_ms.empty() ? 0.0 : Median(untraced.all_ms),
                report);
    spans->insert(spans->end(), recorder.spans().begin(),
                  recorder.spans().end());
  }

  // After the timed phase: recover from the run's own WAL, require the
  // recovered rows to equal the live delta-merged rows, then compact and
  // require the same rows again.
  report->Attempt(3);
  PARJ_ASSIGN_OR_RETURN(std::vector<std::vector<TermId>> live,
                        Fingerprint(*engine, queries));
  engine.reset();  // flushes and closes the WAL
  Stopwatch recovery_timer;
  PARJ_ASSIGN_OR_RETURN(ParjEngine recovered,
                        ParjEngine::RecoverFromWal(wal, load));
  const double recovery_s = recovery_timer.ElapsedSeconds();
  const parj::mut::RecoveryStats& rs = recovered.recovery_stats();
  report->Metric("recovery_s", recovery_s, "s", 1);
  report->Metric("mutable.recovery_snapshot_ms", rs.snapshot_load_millis, "ms", 1);
  report->Metric("mutable.recovery_replay_ms", rs.replay_millis, "ms",
                 rs.records_replayed);
  PARJ_ASSIGN_OR_RETURN(std::vector<std::vector<TermId>> recovered_rows,
                        Fingerprint(recovered, queries));
  if (recovered_rows != live) {
    report->Fail("rows recovered from the WAL differ from the live rows");
  }
  const Status compacted = recovered.Compact();
  if (!compacted.ok()) report->Fail("compaction: " + compacted.ToString());
  PARJ_ASSIGN_OR_RETURN(std::vector<std::vector<TermId>> compacted_rows,
                        Fingerprint(recovered, queries));
  if (compacted_rows != live) {
    report->Fail("rows after compaction differ from the delta-merged rows");
  }
  return Status::OK();
}

}  // namespace perfbench
