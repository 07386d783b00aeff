// Reproduces Table 6: (a) the number of binary vs sequential searches the
// adaptive method chooses per LUBM query, and (b) the cycles and L1/L2/L3
// cache misses spent inside the lookup procedure, comparing binary search
// with the ID-to-Position index.
//
// The paper measured hardware counters; we replay the recorded per-query
// probe streams through a set-associative 3-level cache simulator
// (src/sim) with E5-4603-like geometry. Both replays share the
// binary-search threshold, exactly as §5.2.2 describes.

#include "bench_util.h"
#include "join/trace_replay.h"
#include "paper_reference.h"

namespace parj::bench {
namespace {

std::string Abbrev(uint64_t v) {
  char buf[32];
  if (v >= 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.2fB", static_cast<double>(v) / 1e9);
  } else if (v >= 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(v) / 1e6);
  } else if (v >= 10000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(v) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  }
  return buf;
}

/// "reproduced" when the claim holds in full, "weaker" when it holds in
/// direction only, "not reproduced" otherwise.
const char* Verdict(bool full, bool direction) {
  return full ? "reproduced" : direction ? "weaker" : "not reproduced";
}

int Run() {
  // Table 6 needs key arrays much larger than the (scaled) cache for the
  // binary-vs-index comparison to be in the paper's regime, so it defaults
  // to 4x the global LUBM scale.
  const int universities = EnvInt("PARJ_TABLE6_UNIV", 4 * LubmUniversities());

  // The paper measures on 22 GB of tables against a 10 MiB L3 — a
  // data:cache ratio of ~2000. At container scales the full store would
  // fit in a real L3 and every comparison would degenerate to compulsory
  // misses, so the simulated hierarchy is scaled down to preserve the
  // ratio (geometry overridable via PARJ_CACHE_KB = L3 size in KiB).
  const int l3_kb = EnvInt("PARJ_CACHE_KB", 64);
  sim::CacheHierarchyConfig cache;
  cache.l1 = {static_cast<size_t>(l3_kb) * 1024 / 64, 8, 64};
  cache.l2 = {static_cast<size_t>(l3_kb) * 1024 / 8, 8, 64};
  cache.l3 = {static_cast<size_t>(l3_kb) * 1024, 16, 64};

  PrintHeader("Table 6 reproduction: adaptive decisions + binary search vs "
              "ID-to-Position index (simulated cache)",
              "LUBM scale: " + std::to_string(universities) +
              " (paper: 10240) | scaled cache model: L1 " +
              std::to_string(l3_kb / 64) + "K, L2 " +
              std::to_string(l3_kb / 8) + "K, L3 " + std::to_string(l3_kb) +
              "K, 64B lines (data:L3 ratio preserved; see DESIGN.md)");

  workload::GeneratedData data =
      workload::GenerateLubm({.universities = universities, .seed = 42});
  engine::ParjEngine engine = BuildEngine(std::move(data));
  const storage::Database& db = engine.database();
  std::printf("table memory: %s bytes -> data:L3 ratio %.0fx (paper: ~2000x)\n",
              FormatCount(db.TableMemoryUsage()).c_str(),
              static_cast<double>(db.TableMemoryUsage()) /
                  (static_cast<double>(l3_kb) * 1024.0));

  TablePrinter table({"Query", "#Binary", "#Seq", "BinCycles", "BinL1",
                      "BinL2", "BinL3", "IdxCycles", "IdxL1", "IdxL2",
                      "IdxL3", "| paper:#Bin", "#Seq", "BinCyc", "IdxCyc"});

  const auto& reference = paper::Table6IndexCache();
  const auto queries = workload::LubmQueries();
  double cycle_reduction_sum = 0.0;
  int cycle_reduction_count = 0;
  uint64_t total_binary = 0;
  uint64_t total_sequential = 0;
  // Misses at L1, L2 and L3 over the fallback-heavy queries.
  uint64_t binary_misses[3] = {0, 0, 0};
  uint64_t index_misses[3] = {0, 0, 0};
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    engine::QueryOptions opts;
    opts.strategy = join::SearchStrategy::kAdaptiveBinary;
    opts.mode = join::ResultMode::kCount;
    opts.collect_probe_trace = true;
    auto run = engine.Execute(q.sparql, opts);
    PARJ_CHECK(run.ok()) << q.name << ": " << run.status().ToString();

    auto binary = join::ReplaySearchTrace(
        db, run->plan, run->trace, join::SearchStrategy::kAdaptiveBinary,
        cache);
    auto indexed = join::ReplaySearchTrace(
        db, run->plan, run->trace, join::SearchStrategy::kAdaptiveIndex,
        cache);
    PARJ_CHECK(binary.ok());
    PARJ_CHECK(indexed.ok());
    // The trace holds exactly the searches the live run performed, so a
    // replay must perform as many; anything else means a search went
    // untraced or a trace entry was never searched.
    PARJ_CHECK(binary->counters.total_searches() ==
               run->counters.total_searches())
        << q.name << ": replayed " << binary->counters.total_searches()
        << " searches, live run " << run->counters.total_searches();

    table.AddRow({q.name, Abbrev(run->counters.binary_searches),
                  Abbrev(run->counters.sequential_searches),
                  Abbrev(binary->cache.cycles), Abbrev(binary->cache.l1_misses),
                  Abbrev(binary->cache.l2_misses),
                  Abbrev(binary->cache.l3_misses),
                  Abbrev(indexed->cache.cycles),
                  Abbrev(indexed->cache.l1_misses),
                  Abbrev(indexed->cache.l2_misses),
                  Abbrev(indexed->cache.l3_misses),
                  std::string("| ") + reference[i].num_binary,
                  reference[i].num_sequential, reference[i].binary_cycles,
                  reference[i].index_cycles});

    // Track the cycle reduction over queries that actually use fallback
    // lookups (the paper excludes the nearly-all-sequential queries).
    total_binary += run->counters.binary_searches;
    total_sequential += run->counters.sequential_searches;
    if (run->counters.binary_searches > 1000) {
      cycle_reduction_sum += 1.0 - static_cast<double>(indexed->cache.cycles) /
                                       static_cast<double>(binary->cache.cycles);
      ++cycle_reduction_count;
      binary_misses[0] += binary->cache.l1_misses;
      binary_misses[1] += binary->cache.l2_misses;
      binary_misses[2] += binary->cache.l3_misses;
      index_misses[0] += indexed->cache.l1_misses;
      index_misses[1] += indexed->cache.l2_misses;
      index_misses[2] += indexed->cache.l3_misses;
    }
  }
  table.Print();

  std::printf("\nShape checks (paper §5.2.2), judged from the rows above:\n");
  const double per_binary =
      static_cast<double>(total_sequential) /
      static_cast<double>(std::max<uint64_t>(total_binary, 1));
  std::printf(
      " - Sequential searches heavily outnumber binary searches (>= %.0fx): "
      "%s vs %s, %.1fx -> %s\n",
      paper::kTable6MinSequentialPerBinary, Abbrev(total_sequential).c_str(),
      Abbrev(total_binary).c_str(), per_binary,
      Verdict(per_binary >= paper::kTable6MinSequentialPerBinary,
              total_sequential > total_binary));
  if (cycle_reduction_count == 0) {
    std::printf(
        " - The ID-to-Position index cuts lookup cycles and misses on "
        "fallback-heavy queries -> not measured (no query made more than "
        "1,000 binary searches)\n");
    return 0;
  }
  const double reduction = cycle_reduction_sum / cycle_reduction_count;
  std::printf(
      " - The ID-to-Position index cuts lookup cycles by >%.0f%% on "
      "fallback-heavy queries (%d with > 1,000 binary searches): %.1f%% -> "
      "%s\n",
      100.0 * paper::kTable6MinCycleReduction, cycle_reduction_count,
      100.0 * reduction,
      Verdict(reduction > paper::kTable6MinCycleReduction, reduction > 0.0));
  int levels_cut = 0;
  std::printf(" - ... and misses at every cache level (binary -> index):");
  for (int level = 0; level < 3; ++level) {
    levels_cut += index_misses[level] < binary_misses[level];
    std::printf(" L%d %s -> %s%s", level + 1,
                Abbrev(binary_misses[level]).c_str(),
                Abbrev(index_misses[level]).c_str(), level < 2 ? "," : "");
  }
  std::printf(" -> %s\n", Verdict(levels_cut == 3, levels_cut > 0));
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Run(); }
