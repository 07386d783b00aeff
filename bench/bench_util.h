#ifndef PARJ_BENCH_BENCH_UTIL_H_
#define PARJ_BENCH_BENCH_UTIL_H_

// Shared helpers for the table/figure reproduction harnesses. Each bench
// binary regenerates one table or figure of the paper (see DESIGN.md's
// per-experiment index), printing our measured numbers next to the
// paper's published values. Scales default to container-friendly sizes
// and are overridable via environment variables:
//
//   PARJ_LUBM_UNIV      LUBM scale (universities), default 10
//   PARJ_WATDIV_SCALE   WatDiv scale units, default 1
//   PARJ_THREADS        parallel worker count, default 8 (emulated)
//   PARJ_BENCH_REPEATS  timed repetitions per query, default 3

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/strings.h"
#include "engine/parj_engine.h"
#include "workload/lubm.h"
#include "workload/watdiv.h"

namespace parj::bench {

inline int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

inline int LubmUniversities() { return EnvInt("PARJ_LUBM_UNIV", 10); }
inline int WatdivScale() { return EnvInt("PARJ_WATDIV_SCALE", 1); }
inline int BenchThreads() { return EnvInt("PARJ_THREADS", 8); }
inline int BenchRepeats() { return EnvInt("PARJ_BENCH_REPEATS", 3); }

/// Builds a PARJ engine from pre-generated data (indexes on) and runs
/// Algorithm 2 calibration, exactly as the paper does after loading.
inline engine::ParjEngine BuildEngine(workload::GeneratedData data) {
  engine::EngineOptions options;
  options.calibrate = true;
  auto engine = engine::ParjEngine::FromEncoded(std::move(data.dict),
                                                std::move(data.triples),
                                                options);
  PARJ_CHECK(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

/// Runs `sparql` `repeats` times and returns the average total time in ms
/// (parse + optimize + execute, like the paper's reported numbers).
/// For emulated-parallel runs, the max-shard model time is used.
struct TimedRun {
  double millis = 0.0;
  uint64_t rows = 0;
  join::SearchCounters counters;
};

inline TimedRun TimeQuery(const engine::ParjEngine& engine,
                          const std::string& sparql,
                          engine::QueryOptions options, int repeats) {
  TimedRun out;
  options.mode = join::ResultMode::kCount;  // the paper's silent mode
  for (int i = 0; i < repeats; ++i) {
    auto r = engine.Execute(sparql, options);
    PARJ_CHECK(r.ok()) << r.status().ToString();
    out.millis += options.emulate_parallel ? r->emulated_total_millis()
                                           : r->total_millis();
    out.rows = r->row_count;
    out.counters = r->counters;
  }
  out.millis /= repeats;
  return out;
}

/// Simple fixed-width table printer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t c = 0; c < widths.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]),
                    c < row.size() ? row[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    size_t total = headers_.size() * 2;
    for (size_t w : widths) total += w;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Average and geometric mean of a series (the paper reports both).
struct Aggregate {
  double avg = 0.0;
  double geomean = 0.0;
};

inline Aggregate Aggregates(const std::vector<double>& values) {
  Aggregate out;
  if (values.empty()) return out;
  double sum = 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    sum += v;
    log_sum += std::log(std::max(1e-6, v));
  }
  out.avg = sum / values.size();
  out.geomean = std::exp(log_sum / values.size());
  return out;
}

/// `value` printed with `digits` decimals, sized to fit whatever the
/// magnitude (no fixed buffer to truncate).
inline std::string Fixed(double value, int digits) {
  const int n = std::snprintf(nullptr, 0, "%.*f", digits, value);
  std::string out(static_cast<size_t>(n), '\0');
  std::snprintf(out.data(), out.size() + 1, "%.*f", digits, value);
  return out;
}

/// One measured cell over the repeats: the bench record's median/min/max.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline Spread Summarize(std::vector<double> values) {
  Spread out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  out.median = n % 2 == 1 ? values[n / 2]
                          : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  out.min = values.front();
  out.max = values.back();
  return out;
}

inline std::string SpreadJson(const Spread& s) {
  return "{\"median\": " + Fixed(s.median, 3) + ", \"min\": " +
         Fixed(s.min, 3) + ", \"max\": " + Fixed(s.max, 3) + "}";
}

/// Writes a machine-readable bench artifact (`BENCH_<name>.json`) into
/// PARJ_BENCH_JSON_DIR (default: the working directory). CI uploads these
/// so the perf trajectory of every bench is diffable across commits; the
/// payload is assembled by the caller with std::snprintf — the schemas are
/// flat enough that a JSON library would be dead weight.
inline void WriteBenchJson(const std::string& file_name,
                           const std::string& payload) {
  const char* dir = std::getenv("PARJ_BENCH_JSON_DIR");
  const std::string path =
      std::string(dir != nullptr && *dir != '\0' ? dir : ".") + "/" +
      file_name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(payload.data(), 1, payload.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

inline void PrintHeader(const char* title, const std::string& detail) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", title, detail.c_str());
  std::printf("================================================================\n\n");
}

}  // namespace parj::bench

#endif  // PARJ_BENCH_BENCH_UTIL_H_
