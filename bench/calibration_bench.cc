// Reproduces the calibration behaviour of §4.1 / §5.2.1: Algorithm 2 run
// against real loaded property tables, reporting the window sizes at which
// sequential search breaks even with (a) binary search and (b) the
// ID-to-Position index. The paper's machine calibrated to ~200 positions
// for binary search and ~20 for the index (a ~10x ratio).
//
// Windows are calibrated with the kernels the executor actually runs
// (scalar sequential scan, branchless gallop+cmov binary, popcount-block
// rank lookup), so they are the windows production probes use.

#include "bench_util.h"
#include "join/calibration.h"

namespace parj::bench {
namespace {

int Run() {
  PrintHeader("Calibration reproduction (Algorithm 2)",
              "LUBM scale: " + std::to_string(LubmUniversities()) +
              " | windows in key-array positions");

  workload::GeneratedData data =
      workload::GenerateLubm({.universities = LubmUniversities(), .seed = 42});
  engine::ParjEngine engine = BuildEngine(std::move(data));
  const storage::Database& db = engine.database();

  join::CalibrationOptions opts;
  opts.searches_per_step = 4096;
  opts.max_iterations = 16;

  TablePrinter table(
      {"Property", "Replica", "Keys", "BinWin", "IdxWin", "Win ratio"});
  std::vector<double> ratios;
  for (PredicateId pid = 1; pid <= db.predicate_count(); ++pid) {
    const storage::PropertyEntry& entry = db.entry(pid);
    for (storage::ReplicaKind kind :
         {storage::ReplicaKind::kSO, storage::ReplicaKind::kOS}) {
      const storage::TableReplica& replica = entry.table.replica(kind);
      if (replica.key_count() < 4096) continue;  // need room to measure
      auto binary = join::CalibrateWindow(
          replica.keys(), join::CalibrationMode::kVersusBinarySearch, nullptr,
          opts);
      auto indexed = join::CalibrateWindow(
          replica.keys(), join::CalibrationMode::kVersusIndexLookup,
          &entry.meta(kind).id_index, opts);
      const double ratio =
          binary.window_positions / std::max(1.0, indexed.window_positions);
      ratios.push_back(ratio);
      char ratio_str[32];
      std::snprintf(ratio_str, sizeof(ratio_str), "%.1fx", ratio);
      char pname[32];
      std::snprintf(pname, sizeof(pname), "p%u", pid);
      char bwin[32], iwin[32];
      std::snprintf(bwin, sizeof(bwin), "%.0f", binary.window_positions);
      std::snprintf(iwin, sizeof(iwin), "%.0f", indexed.window_positions);
      table.AddRow({pname, storage::ReplicaKindName(kind),
                    FormatCount(replica.key_count()), bwin, iwin, ratio_str});
    }
  }
  table.Print();

  if (!ratios.empty()) {
    Aggregate a = Aggregates(ratios);
    std::printf(
        "\nGeomean binary/index window ratio: %.1fx (paper: ~10x — window\n"
        "~200 positions for binary search vs ~20 for the index).\n",
        a.geomean);
  }
  return 0;
}

}  // namespace
}  // namespace parj::bench

int main() { return parj::bench::Run(); }
