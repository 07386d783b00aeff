// Ablation microbenchmarks for the search kernels.
//
// Part 1 — kernel matrix (runs first, emits BENCH_kernels.json): times the
// baseline kernels against the production kernels of DESIGN.md §11 across
// array sizes, probe patterns, and hit/miss mixes:
//   binary      branchy binary search  vs  branchless gallop+cmov kernel
//   index       legacy sample walk     vs  popcount-block rank lookup
//   run_member  cursor-less binary     vs  RunContains from a cursor
//   run_intersect  RunContains per probe  vs  IntersectRuns over the list
// Every pair computes identical results; only the time may differ. The
// acceptance bar, >= 1.3x on >= 1M-key arrays, covers binary and index;
// run_member and run_intersect are recorded only (the first measures what
// uncorrelated probes lose by starting from the previous probe's position,
// the second what a sorted probe list gains from one merge/gallop pass).
//
// Part 2 — google-benchmark stride benches: sequential vs binary vs
// ID-to-Position lookup as a function of the probe stride (the position
// distance between consecutive probes). This is the microscopic mechanism
// behind Algorithm 1's threshold: sequential search wins below the
// crossover stride, the index lookup wins above it, and the adaptive
// kernel should track the lower envelope.
//
// Pass --matrix-only to skip part 2 (CI bench smoke does this).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "index/id_position_index.h"
#include "join/search.h"

namespace parj::join {
namespace {

constexpr size_t kArraySize = 1 << 20;
constexpr TermId kGap = 9;  // average ID distance between adjacent keys

/// Sorted distinct keys with even IDs only, so `key + 1` is always absent
/// (a guaranteed miss for the hit/miss mixes below).
std::vector<TermId> MakeKeys(size_t count) {
  std::vector<TermId> keys;
  keys.reserve(count);
  Rng rng(42);
  TermId v = 2;
  for (size_t i = 0; i < count; ++i) {
    v += 2 * (1 + static_cast<TermId>(rng.Uniform(kGap - 1)));
    keys.push_back(v);
  }
  return keys;
}

const std::vector<TermId>& Keys() {
  static const std::vector<TermId>* keys =
      new std::vector<TermId>(MakeKeys(kArraySize));
  return *keys;
}

const index::IdPositionIndex& Index() {
  static const index::IdPositionIndex* idx = new index::IdPositionIndex(
      index::IdPositionIndex::Build(Keys(), Keys().back() + 1));
  return *idx;
}

// ---------------------------------------------------------------------------
// Part 1: kernel matrix.
// ---------------------------------------------------------------------------

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? std::atoi(v) : fallback;
}

/// Best-of-`repeats` nanoseconds per probe for `fn` (which runs the whole
/// probe loop once per call).
template <typename Fn>
double TimePerProbeNs(int repeats, size_t probes, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                  static_cast<double>(probes));
  }
  return best;
}

/// Probe values for one matrix cell: positions either uniformly random or
/// advancing by a fixed correlated stride; `key + 1` substituted for the
/// requested miss fraction.
std::vector<TermId> MakeProbes(const std::vector<TermId>& keys, size_t probes,
                               bool correlated, double hit_rate,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<TermId> values;
  values.reserve(probes);
  size_t pos = 0;
  for (size_t i = 0; i < probes; ++i) {
    pos = correlated ? (pos + 64) % keys.size() : rng.Uniform(keys.size());
    const bool hit = rng.Uniform(1000) < static_cast<uint64_t>(hit_rate * 1000);
    values.push_back(hit ? keys[pos] : keys[pos] + 1);
  }
  return values;
}

struct MatrixResult {
  std::string json;  // one JSON object per cell, appended by RunMatrix
  // Per-family speedups of the >= 1M-key cells; the acceptance bar is a
  // >= 1.3x geomean per family (single cells may legitimately sit near 1x).
  std::map<std::string, std::vector<double>> large_speedups;
};

/// Times baseline vs production kernel over the same probe sequence, prints one
/// table row, appends one JSON object. The two sides are warmed once and
/// then timed as INTERLEAVED base/vec pairs, and the reported speedup is
/// the MEDIAN of the per-pair ratios: each pair sees the same clock/noise
/// conditions (two separated best-of-N windows would absorb seconds of
/// drift into the ratio), and the median keeps one lucky repeat on either
/// side from swinging the ratio by itself.
template <typename BaseFn, typename NewFn>
void MatrixCell(const char* family, const char* pattern, size_t size,
                double hit_rate, size_t probes, int repeats,
                BaseFn&& base_fn, NewFn&& new_fn, MatrixResult* out,
                bool gated = true) {
  base_fn();
  new_fn();
  double base_ns = 1e300;
  double new_ns = 1e300;
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const double b = TimePerProbeNs(1, probes, base_fn);
    const double v = TimePerProbeNs(1, probes, new_fn);
    base_ns = std::min(base_ns, b);
    new_ns = std::min(new_ns, v);
    ratios.push_back(b / std::max(1e-9, v));
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  const double speedup = ratios.size() % 2 == 1
                             ? ratios[mid]
                             : 0.5 * (ratios[mid - 1] + ratios[mid]);
  std::printf("%-10s  %-10s  %9zu  %4.0f%%  %8.1f  %8.1f  %6.2fx\n", family,
              pattern, size, hit_rate * 100, base_ns, new_ns, speedup);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    {\"family\": \"%s\", \"pattern\": \"%s\", \"size\": %zu, "
                "\"hit_rate\": %.2f, \"baseline_ns\": %.2f, "
                "\"vectorized_ns\": %.2f, \"speedup\": %.3f}",
                family, pattern, size, hit_rate, base_ns, new_ns, speedup);
  if (!out->json.empty()) out->json += ",\n";
  out->json += buf;
  if (gated && size >= (1u << 20)) {
    out->large_speedups[family].push_back(speedup);
  }
}

void RunKernelMatrix() {
  const size_t probes = static_cast<size_t>(EnvInt("PARJ_KERNEL_PROBES", 200000));
  const int repeats = EnvInt("PARJ_BENCH_REPEATS", 3);
  std::printf(
      "\nKernel matrix: baseline vs production kernels (%zu probes, best of "
      "%d)\n\n",
      probes, repeats);
  std::printf("%-10s  %-10s  %9s  %5s  %8s  %8s  %7s\n", "family", "pattern",
              "keys", "hits", "base ns", "vec ns", "speedup");

  MatrixResult out;
  uint64_t sink = 0;

  // Binary search: branchy baseline vs branchless gallop+cmov kernel.
  for (size_t size : {size_t{1} << 14, size_t{1} << 17, size_t{1} << 20,
                      size_t{1} << 22}) {
    const std::vector<TermId> keys = MakeKeys(size);
    for (bool correlated : {false, true}) {
      for (double hit_rate : {1.0, 0.5}) {
        const std::vector<TermId> values =
            MakeProbes(keys, probes, correlated, hit_rate, 7);
        MatrixCell(
            "binary", correlated ? "stride64" : "random", size, hit_rate,
            probes, repeats,
            [&] {
              size_t cursor = 0;
              for (TermId v : values) {
                sink += BranchyBinarySearch(keys, v, &cursor) != kNotFound;
              }
            },
            [&] {
              size_t cursor = 0;
              for (TermId v : values) {
                sink += BinarySearch(keys, v, &cursor) != kNotFound;
              }
            },
            &out);
      }
    }
  }

  // ID-to-Position lookup: legacy per-word sample walk vs popcount-block
  // rank (3 loads + 1 popcount).
  for (size_t size : {size_t{1} << 17, size_t{1} << 20, size_t{1} << 22}) {
    const std::vector<TermId> keys = MakeKeys(size);
    const index::IdPositionIndex idx =
        index::IdPositionIndex::Build(keys, keys.back() + 1);
    for (double hit_rate : {1.0, 0.5}) {
      const std::vector<TermId> ids =
          MakeProbes(keys, probes, /*correlated=*/false, hit_rate, 11);
      DirectMemory mem;
      MatrixCell(
          "index", "random", size, hit_rate, probes, repeats,
          [&] {
            for (TermId id : ids) {
              sink += idx.FindWithWalk(id, mem) !=
                      index::IdPositionIndex::kNotFound;
            }
          },
          [&] {
            for (TermId id : ids) {
              sink +=
                  idx.FindWith(id, mem) != index::IdPositionIndex::kNotFound;
            }
          },
          &out);
    }
  }

  // Membership in one long sorted run, as the executor's bound-value check
  // does it: a cursor-less binary search per probe vs RunContains
  // galloping from the previous probe's position. "ascgap" probes ascend
  // with random gaps (a check after a key scan); "random" ones are
  // uncorrelated.
  for (size_t size : {size_t{256}, size_t{1} << 12, size_t{1} << 16,
                      size_t{1} << 20, size_t{1} << 22}) {
    const std::vector<TermId> run = MakeKeys(size);
    std::vector<TermId> values =
        MakeProbes(run, probes, /*correlated=*/false, 0.5, 13);
    for (const char* pattern : {"random", "ascgap"}) {
      if (std::strcmp(pattern, "ascgap") == 0) {
        std::sort(values.begin(), values.end());
      }
      MatrixCell(
          "run_member", pattern, size, 0.5, probes, repeats,
          [&] {
            for (TermId v : values) {
              sink += std::binary_search(run.begin(), run.end(), v);
            }
          },
          [&] {
            size_t cursor = 0;
            for (TermId v : values) sink += RunContains(run, v, &cursor);
          },
          &out, /*gated=*/false);
    }
  }

  // A value loop's run checked against one run whose key the loop never
  // changes, as the executor did it per tuple (RunContains from a cursor
  // over the ascending probe list) vs as it does it now (one
  // IntersectRuns pass). "ratioN" probe lists hold one run value in N,
  // interleaved with as many misses; ns are per probe.
  for (size_t size : {size_t{64}, size_t{1} << 12, size_t{1} << 16,
                      size_t{1} << 20}) {
    const std::vector<TermId> run = MakeKeys(size);
    for (size_t ratio : {size_t{1}, size_t{8}, size_t{64}}) {
      std::vector<TermId> list;
      for (size_t i = 0; i < run.size(); i += ratio) {
        list.push_back(run[i]);
        list.push_back(run[i] + 1);
      }
      char pattern[32];
      std::snprintf(pattern, sizeof(pattern), "ratio%zu", ratio);
      MatrixCell(
          "run_intersect", pattern, size, 0.5, list.size(), repeats,
          [&] {
            size_t cursor = 0;
            for (TermId v : list) sink += RunContains(run, v, &cursor);
          },
          [&] { sink += CountIntersection(list, run); }, &out,
          /*gated=*/false);
    }
  }

  benchmark::DoNotOptimize(sink);
  bool met_bar = true;
  std::string geomeans_json;
  std::printf("\nGeomean speedup on >= 1M-key arrays:");
  for (const auto& [family, speedups] : out.large_speedups) {
    const double g = bench::Aggregates(speedups).geomean;
    std::printf("  %s %.2fx", family.c_str(), g);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.3f", family.c_str(), g);
    if (!geomeans_json.empty()) geomeans_json += ", ";
    geomeans_json += buf;
    if (g < 1.3) met_bar = false;
  }
  std::printf("\nAcceptance (>= 1.3x geomean per family): %s\n",
              met_bar ? "MET" : "NOT MET");
  std::string payload = "{\n  \"bench\": \"kernels\",\n";
  payload += "  \"probes\": " + std::to_string(probes);
  payload += ",\n  \"acceptance_met\": ";
  payload += met_bar ? "true" : "false";
  payload += ",\n  \"geomeans_1m\": {" + geomeans_json + "}";
  payload += ",\n  \"cells\": [\n" + out.json + "\n  ]\n}\n";
  bench::WriteBenchJson("BENCH_kernels.json", payload);
}

// ---------------------------------------------------------------------------
// Part 2: stride benches (google-benchmark).
// ---------------------------------------------------------------------------

/// Probes the array at positions striding by `state.range(0)`, wrapping.
template <typename SearchFn>
void StrideProbe(benchmark::State& state, SearchFn&& search) {
  const auto& keys = Keys();
  const size_t stride = static_cast<size_t>(state.range(0));
  size_t cursor = 0;
  size_t target = 0;
  uint64_t found = 0;
  for (auto _ : state) {
    target += stride;
    if (target >= keys.size()) {
      target -= keys.size();
      cursor = 0;  // avoid charging the wrap to sequential search
    }
    size_t pos = search(keys, keys[target], &cursor);
    found += pos != kNotFound;
  }
  benchmark::DoNotOptimize(found);
  state.SetItemsProcessed(state.iterations());
}

void BM_SequentialSearch(benchmark::State& state) {
  StrideProbe(state, [](std::span<const TermId> a, TermId v, size_t* cursor) {
    return SequentialSearch(a, v, cursor);
  });
}

void BM_BinarySearch(benchmark::State& state) {
  StrideProbe(state, [](std::span<const TermId> a, TermId v, size_t* cursor) {
    return BinarySearch(a, v, cursor);
  });
}

void BM_BranchyBinarySearch(benchmark::State& state) {
  StrideProbe(state, [](std::span<const TermId> a, TermId v, size_t* cursor) {
    return BranchyBinarySearch(a, v, cursor);
  });
}

void BM_IndexLookup(benchmark::State& state) {
  const auto& index = Index();
  StrideProbe(state, [&index](std::span<const TermId> a, TermId v,
                              size_t* cursor) {
    DirectMemory mem;
    return IndexSearchWith(a, v, cursor, index, mem);
  });
}

void BM_AdaptiveBinary(benchmark::State& state) {
  const int64_t threshold = 200 * kGap;  // the paper's calibrated window
  StrideProbe(state, [threshold](std::span<const TermId> a, TermId v,
                                 size_t* cursor) {
    return AdaptiveSearch(a, v, cursor, threshold,
                          SearchStrategy::kAdaptiveBinary, nullptr, nullptr);
  });
}

void BM_AdaptiveIndex(benchmark::State& state) {
  const auto& index = Index();
  const int64_t threshold = 20 * kGap;
  StrideProbe(state, [&index, threshold](std::span<const TermId> a, TermId v,
                                         size_t* cursor) {
    return AdaptiveSearch(a, v, cursor, threshold,
                          SearchStrategy::kAdaptiveIndex, &index, nullptr);
  });
}

const int64_t kStrides[] = {1, 4, 16, 64, 256, 1024, 8192};

void RegisterAll() {
  for (int64_t stride : kStrides) {
    benchmark::RegisterBenchmark(
        ("BM_SequentialSearch/stride:" + std::to_string(stride)).c_str(),
        BM_SequentialSearch)
        ->Arg(stride);
    benchmark::RegisterBenchmark(
        ("BM_BinarySearch/stride:" + std::to_string(stride)).c_str(),
        BM_BinarySearch)
        ->Arg(stride);
    benchmark::RegisterBenchmark(
        ("BM_BranchyBinarySearch/stride:" + std::to_string(stride)).c_str(),
        BM_BranchyBinarySearch)
        ->Arg(stride);
    benchmark::RegisterBenchmark(
        ("BM_IndexLookup/stride:" + std::to_string(stride)).c_str(),
        BM_IndexLookup)
        ->Arg(stride);
    benchmark::RegisterBenchmark(
        ("BM_AdaptiveBinary/stride:" + std::to_string(stride)).c_str(),
        BM_AdaptiveBinary)
        ->Arg(stride);
    benchmark::RegisterBenchmark(
        ("BM_AdaptiveIndex/stride:" + std::to_string(stride)).c_str(),
        BM_AdaptiveIndex)
        ->Arg(stride);
  }
}

}  // namespace
}  // namespace parj::join

int main(int argc, char** argv) {
  parj::join::RunKernelMatrix();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--matrix-only") == 0) return 0;
  }
  parj::join::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
