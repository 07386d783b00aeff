// Reproduces the paper's silent vs full-result-handling comparison
// (§5.2): for most queries the difference is negligible, but for queries
// with millions of results (LUBM2; WatDiv C3 / IL-3) materialization adds
// a visible constant per tuple. The paper's example: LUBM2 goes from
// 151 ms (silent) to 610 ms (full) at scale 10240 with 32 threads.
//
// Times are medians over the repeats. The shape verdict is computed from
// the rows printed here against the thresholds in paper_reference.h.

#include "bench_util.h"
#include "paper_reference.h"

namespace parj::bench {
namespace {

struct Case {
  std::string name;
  std::string sparql;
};

/// One measured row: the query's result size and its silent/full ratio.
struct Measured {
  uint64_t rows = 0;
  double ratio = 0.0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

void RunCases(const engine::ParjEngine& engine, const std::vector<Case>& cases,
              int repeats, std::vector<Measured>* measured) {
  TablePrinter table(
      {"Query", "silent(ms)", "full(ms)", "ratio", "rows"});
  for (const Case& c : cases) {
    engine::QueryOptions silent;
    silent.strategy = join::SearchStrategy::kAdaptiveIndex;
    silent.mode = join::ResultMode::kCount;
    engine::QueryOptions full = silent;
    full.mode = join::ResultMode::kMaterialize;

    std::vector<double> silent_ms;
    std::vector<double> full_ms;
    uint64_t rows = 0;
    for (int i = 0; i < repeats; ++i) {
      auto rs = engine.Execute(c.sparql, silent);
      PARJ_CHECK(rs.ok());
      silent_ms.push_back(rs->total_millis());
      auto rf = engine.Execute(c.sparql, full);
      PARJ_CHECK(rf.ok());
      PARJ_CHECK(rf->row_count == rs->row_count)
          << c.name << ": silent and full row counts differ";
      full_ms.push_back(rf->total_millis());
      rows = rf->row_count;
    }
    const double s = Median(silent_ms);
    const double f = Median(full_ms);
    const double ratio = f / std::max(1e-6, s);
    measured->push_back({rows, ratio});
    char ratio_text[32];
    std::snprintf(ratio_text, sizeof(ratio_text), "%.2fx", ratio);
    table.AddRow({c.name, FormatMillis(s), FormatMillis(f), ratio_text,
                  FormatCount(rows)});
  }
  table.Print();
}

/// "reproduced" when every result-heavy query pays at least the minimum
/// ratio and every few-result one stays within the maximum; "weaker" when
/// the heavy queries' geomean ratio still exceeds the few-result ones'.
const char* ShapeVerdict(const std::vector<Measured>& measured) {
  std::vector<double> heavy;
  std::vector<double> light;
  for (const Measured& m : measured) {
    if (m.rows >= paper::kSilentFullHeavyRows) heavy.push_back(m.ratio);
    if (m.rows < paper::kSilentFullLightRows) light.push_back(m.ratio);
  }
  if (heavy.empty() || light.empty()) return "not reproduced";
  const bool full =
      *std::min_element(heavy.begin(), heavy.end()) >=
          paper::kSilentFullMinHeavyRatio &&
      *std::max_element(light.begin(), light.end()) <=
          paper::kSilentFullMaxLightRatio;
  if (full) return "reproduced";
  return Aggregates(heavy).geomean > Aggregates(light).geomean
             ? "weaker"
             : "not reproduced";
}

int Run() {
  const int repeats = BenchRepeats();
  PrintHeader("Silent vs full result handling (paper §5.2)",
              "LUBM scale: " + std::to_string(LubmUniversities()) +
              " | WatDiv scale: " + std::to_string(WatdivScale()));

  std::vector<Measured> measured;
  {
    workload::GeneratedData data = workload::GenerateLubm(
        {.universities = LubmUniversities(), .seed = 42});
    engine::ParjEngine engine = BuildEngine(std::move(data));
    std::vector<Case> cases;
    for (const auto& q : workload::LubmQueries()) {
      if (q.name == "LUBM2" || q.name == "LUBM4" || q.name == "LUBM7" ||
          q.name == "LUBM9") {
        cases.push_back({q.name, q.sparql});
      }
    }
    std::printf("LUBM:\n");
    RunCases(engine, cases, repeats, &measured);
  }
  {
    workload::GeneratedData data =
        workload::GenerateWatdiv({.scale = WatdivScale(), .seed = 7});
    engine::ParjEngine engine = BuildEngine(std::move(data));
    std::vector<Case> cases;
    for (const auto& q : workload::WatdivBasicQueries()) {
      if (q.name == "C3" || q.name == "S2") cases.push_back({q.name, q.sparql});
    }
    for (const auto& q : workload::WatdivIncrementalLinearQueries()) {
      if (q.name == "IL-3-5" || q.name == "IL-3-6") {
        cases.push_back({q.name, q.sparql});
      }
    }
    std::printf("\nWatDiv:\n");
    RunCases(engine, cases, repeats, &measured);
  }

  std::printf(
      "\nShape check: queries with >= %llu rows must be >= %.1fx slower "
      "materialized,\nthose with < %llu rows within %.1fx of silent "
      "(paper: LUBM2 151 -> 610 ms) -> %s\n",
      static_cast<unsigned long long>(paper::kSilentFullHeavyRows),
      paper::kSilentFullMinHeavyRatio,
      static_cast<unsigned long long>(paper::kSilentFullLightRows),
      paper::kSilentFullMaxLightRatio, ShapeVerdict(measured));
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Run(); }
