#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/parj_engine.h"
#include "json.h"
#include "trace.h"
#include "workload/data.h"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Scratch directory this run owns (snapshot files, the WAL); removed at
  /// exit.
  std::string work_dir;
  /// Load / build threads: the hardware thread count.
  int threads = 1;
};

/// Everything one run measured, plus its failures.
class Report {
 public:
  /// Records a metric; `samples` is how many measurements it summarizes.
  void Metric(const std::string& name, double value, const std::string& unit,
              uint64_t samples, bool emulated = false);
  /// Context for the report file that is not a metric.
  void Note(const std::string& key, Json value);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// One failed operation: an error Status, a rejected submission or a
  /// wrong answer.
  void Fail(const std::string& what);
  /// The run as a whole is not a valid measurement (for example the
  /// open-loop writer fell behind its schedule).
  void Invalidate(const std::string& why);

  /// Writes the full report (and `spans`, when given) under
  /// options.out_dir, prints a summary, and prints the result line — every
  /// metric in `result_metrics` with its value and unit — as the last line
  /// of stdout. Both documents are parsed back and compared with what was
  /// meant to be written before anything is printed.
  parj::Status Emit(const RunOptions& options,
                    const std::vector<std::string>& result_metrics,
                    const std::vector<Span>* spans) const;

  bool correct() const { return failed_ == 0 && invalid_.empty(); }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
    bool emulated = false;
  };
  std::vector<Entry> metrics_;
  Json notes_ = Json::Object();
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< the first few, verbatim
  std::vector<std::string> invalid_;
};

/// Records peak_rss_mb: the peak resident set size of this process so far
/// in MiB (VmHWM). Workloads call it right after their untraced timed
/// phase, so the answer checks after it (recovery, compaction) and the
/// traced phase do not count.
void ReportPeakRss(Report* report);

/// Base store tables plus dictionary, in bytes per stored triple.
double BytesPerTriple(const parj::engine::ParjEngine& engine);

/// The dataset as N-Triples text (input preparation, never timed).
std::string ToNTriplesText(const parj::workload::GeneratedData& data);

/// A closed-loop client's query order: back-to-back rounds, each a seeded
/// shuffle of [0, n), so every template runs equally often.
class ShuffledOrder {
 public:
  ShuffledOrder(size_t n, uint64_t seed);
  size_t Next();

 private:
  parj::Rng rng_;
  std::vector<size_t> round_;
  size_t pos_;
};

/// Fisher-Yates shuffle driven by the repository's seeded generator.
template <typename T>
void Shuffle(std::vector<T>* items, parj::Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Uniform(i)]);
  }
}

/// Read latencies of one timed phase.
struct LatencySeries {
  explicit LatencySeries(size_t templates) : per_template_ms(templates) {}
  void Add(size_t tmpl, double ms) {
    all_ms.push_back(ms);
    per_template_ms[tmpl].push_back(ms);
  }
  std::vector<double> all_ms;
  std::vector<std::vector<double>> per_template_ms;
  double seconds = 0.0;
};

/// query_p50_ms, query_p99_ms (the tail rule of stats.h), throughput_qps
/// and template_geomean_ms (geomean over templates of each template's
/// median latency).
void ReportLatency(const LatencySeries& series, Report* report);

/// Sends one read through the public layer calls — ParseQuery,
/// EncodeQuery, Optimize, join::Executor::Execute on a pinned
/// engine.snapshot(), and (when `decode`) ParjEngine::DecodeRow on every
/// row — with a span around each call. Plain BGP reads only: the mixes
/// hold no DISTINCT, LIMIT, ORDER BY or aggregate.
parj::Result<parj::engine::QueryResult> TracedRead(
    const parj::engine::ParjEngine& engine, const std::string& sparql,
    const parj::engine::QueryOptions& options, bool decode,
    SpanRecorder* spans, uint64_t request);

/// Per-layer times of the traced phase: medians per read of
/// query.parse_us / query.encode_us / query.optimize_us / join.execute_ms
/// / engine.decode_us, mean self time per read of each layer
/// (trace.self_*_us), and trace.overhead_ms = traced minus untraced read
/// p50.
void ReportSpans(const std::vector<Span>& spans, double traced_p50_ms,
                 double untraced_p50_ms, Report* report);

/// One exact pass over `queries` through ParjEngine::Execute: the
/// Algorithm-1 search counts, intermediate tuples per result row and the
/// optimizer's q-error. `rows` receives each query's row count.
parj::Status CounterPass(const parj::engine::ParjEngine& engine,
                         const std::vector<parj::workload::NamedQuery>& queries,
                         const parj::engine::QueryOptions& options,
                         Report* report, std::vector<uint64_t>* rows);

/// Each of `queries` `rounds` times at 8 threads under shard-sequential
/// emulation (default morsel scheduling), rows checked against
/// `expected_rows`: par8_emulated_geomean_ms (geomean of each query's
/// fastest emulated run), join.shard_max_over_mean and
/// join.morsels_stolen (per-query medians summed over the queries).
void Par8Phase(const parj::engine::ParjEngine& engine,
               const std::vector<parj::workload::NamedQuery>& queries,
               const std::vector<uint64_t>& expected_rows,
               parj::engine::QueryOptions options, int rounds,
               Report* report);

/// Reports the serving-layer ratios as zero for workloads that do not
/// serve through server::QueryServer.
void ReportNoServer(Report* report);
/// Reports the write-path counts as zero for workloads that never write.
void ReportNoWrites(Report* report);

/// Sorted row tuples of a materialized result (order-independent answer
/// comparison).
std::vector<parj::TermId> SortedRows(const std::vector<parj::TermId>& rows,
                                     size_t width);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
