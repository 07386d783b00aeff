// The repository benchmark program. Usually started through run.py, which
// builds it first:
//
//   parj_perfbench --workload lubm-analytic|watdiv-serve|lubm-ingest
//                  --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints a summary and, as the last line of stdout, one JSON object with
// the keys correct, attempted, failed and metrics (the end-to-end metrics
// with --trace 0, the per-layer ones with --trace 1). Exits 1 when an
// answer was wrong or the run was invalid, 2 when it could not run.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// The metrics of the result line; BENCHMARK.json lists the same names.
const std::vector<std::string> kEndToEnd = {"setup_s", "query_p99_ms",
                                            "peak_rss_mb", "bytes_per_triple"};

/// The traced run's result line. It opens with the untraced read figures
/// that are recorded but not gated: across seeds their quartiles spread
/// wider than any bound (README.md, "Steadiness").
const std::vector<std::string> kPerLayer = {
    "query_p50_ms",
    "throughput_qps",
    "template_geomean_ms",
    "storage.build_ms",
    "query.parse_us",
    "query.encode_us",
    "query.optimize_us",
    "query.qerror_geomean",
    "join.execute_ms",
    "join.sequential_searches",
    "join.binary_searches",
    "join.index_lookups",
    "join.sequential_steps",
    "join.run_probes",
    "join.intermediate_per_row",
    "par8_emulated_geomean_ms",
    "join.shard_max_over_mean",
    "join.morsels_stolen",
    "server.plan_cache_hit_ratio",
    "server.result_cache_hit_ratio",
    "server.coalesced_ratio",
    "mutable.compactions",
    "mutable.delta_triples_mean",
    "mutable.wal_bytes_per_mutation",
    "trace.self_request_us",
    "trace.self_query_us",
    "trace.self_join_us",
    "trace.self_engine_us",
    "trace.overhead_ms"};

int Usage(const char* why) {
  std::fprintf(stderr,
               "parj_perfbench: %s\nusage: parj_perfbench --workload "
               "lubm-analytic|watdiv-serve|lubm-ingest --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || options.seconds < 1) return Usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  parj::Status (*run)(const RunOptions&, Report*, std::vector<Span>*) = nullptr;
  if (options.workload == "lubm-analytic") {
    run = RunLubmAnalytic;
  } else if (options.workload == "watdiv-serve") {
    run = RunWatdivServe;
  } else if (options.workload == "lubm-ingest") {
    run = RunLubmIngest;
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  options.threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  namespace fs = std::filesystem;
  options.work_dir = options.out_dir + "/work-" + options.workload + "-" +
                     std::to_string(options.seed) + "-" +
                     std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  fs::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create " + options.work_dir).c_str());

  Report report;
  std::vector<Span> spans;
  const parj::Status status = run(options, &report, &spans);
  fs::remove_all(options.work_dir, ec);
  if (!status.ok()) {
    std::fprintf(stderr, "parj_perfbench: %s\n", status.ToString().c_str());
    return 2;
  }
  const parj::Status emitted = report.Emit(
      options, options.trace ? kPerLayer : kEndToEnd,
      options.trace ? &spans : nullptr);
  if (!emitted.ok()) {
    std::fprintf(stderr, "parj_perfbench: %s\n", emitted.ToString().c_str());
    return 2;
  }
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
