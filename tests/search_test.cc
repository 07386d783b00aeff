#include "join/search.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace parj::join {
namespace {

std::vector<TermId> SortedDistinct(Rng* rng, size_t count, TermId universe) {
  std::set<TermId> s;
  while (s.size() < count) {
    s.insert(static_cast<TermId>(1 + rng->Uniform(universe)));
  }
  return {s.begin(), s.end()};
}

size_t ReferenceFind(const std::vector<TermId>& a, TermId v) {
  auto it = std::lower_bound(a.begin(), a.end(), v);
  if (it == a.end() || *it != v) return kNotFound;
  return static_cast<size_t>(it - a.begin());
}

TEST(BinarySearchTest, FindsAllElements) {
  std::vector<TermId> a = {2, 5, 9, 14, 21, 30};
  for (size_t i = 0; i < a.size(); ++i) {
    size_t cursor = 0;
    EXPECT_EQ(BinarySearch(a, a[i], &cursor), i);
    EXPECT_EQ(cursor, i);  // cursor lands on the hit
  }
}

TEST(BinarySearchTest, MissesReturnNotFound) {
  std::vector<TermId> a = {2, 5, 9};
  size_t cursor = 0;
  EXPECT_EQ(BinarySearch(a, 1, &cursor), kNotFound);
  EXPECT_EQ(BinarySearch(a, 4, &cursor), kNotFound);
  EXPECT_EQ(BinarySearch(a, 100, &cursor), kNotFound);
}

TEST(BinarySearchTest, EmptyArray) {
  std::vector<TermId> a;
  size_t cursor = 0;
  EXPECT_EQ(BinarySearch(a, 5, &cursor), kNotFound);
}

TEST(BinarySearchTest, CursorStaysInBoundsOnMiss) {
  std::vector<TermId> a = {10, 20, 30};
  size_t cursor = 0;
  BinarySearch(a, 25, &cursor);
  EXPECT_LT(cursor, a.size());
  BinarySearch(a, 5, &cursor);
  EXPECT_LT(cursor, a.size());
  BinarySearch(a, 99, &cursor);
  EXPECT_LT(cursor, a.size());
}

TEST(SequentialSearchTest, ForwardScan) {
  std::vector<TermId> a = {2, 5, 9, 14, 21};
  size_t cursor = 0;
  uint64_t steps = 0;
  EXPECT_EQ(SequentialSearch(a, 14, &cursor, &steps), 3u);
  EXPECT_EQ(cursor, 3u);
  EXPECT_EQ(steps, 3u);
}

TEST(SequentialSearchTest, BackwardScan) {
  std::vector<TermId> a = {2, 5, 9, 14, 21};
  size_t cursor = 4;
  EXPECT_EQ(SequentialSearch(a, 5, &cursor), 1u);
  EXPECT_EQ(cursor, 1u);
}

TEST(SequentialSearchTest, MissLandsBetween) {
  std::vector<TermId> a = {2, 5, 9, 14, 21};
  size_t cursor = 0;
  EXPECT_EQ(SequentialSearch(a, 10, &cursor), kNotFound);
  // Cursor stopped at the first element >= 10.
  EXPECT_EQ(cursor, 3u);
}

TEST(SequentialSearchTest, MissBeyondEnds) {
  std::vector<TermId> a = {10, 20};
  size_t cursor = 0;
  EXPECT_EQ(SequentialSearch(a, 100, &cursor), kNotFound);
  EXPECT_EQ(cursor, 1u);  // clamped at last element
  EXPECT_EQ(SequentialSearch(a, 1, &cursor), kNotFound);
  EXPECT_EQ(cursor, 0u);
}

TEST(SequentialSearchTest, CursorBeyondSizeIsClamped) {
  std::vector<TermId> a = {1, 2, 3};
  size_t cursor = 99;
  EXPECT_EQ(SequentialSearch(a, 2, &cursor), 1u);
}

TEST(SequentialSearchTest, StationaryHitCostsNoSteps) {
  std::vector<TermId> a = {7, 8, 9};
  size_t cursor = 1;
  uint64_t steps = 0;
  EXPECT_EQ(SequentialSearch(a, 8, &cursor, &steps), 1u);
  EXPECT_EQ(steps, 0u);
}

TEST(RunContainsTest, Basics) {
  std::vector<TermId> run = {3, 7, 11};
  EXPECT_TRUE(RunContains(run, 3));
  EXPECT_TRUE(RunContains(run, 7));
  EXPECT_TRUE(RunContains(run, 11));
  EXPECT_FALSE(RunContains(run, 5));
  EXPECT_FALSE(RunContains({}, 5));
}

TEST(AdaptiveSearchTest, SmallDistanceUsesSequential) {
  std::vector<TermId> a = {10, 12, 14, 16, 18, 20};
  size_t cursor = 0;
  SearchCounters counters;
  size_t pos = AdaptiveSearch(a, 14, &cursor, /*threshold=*/10,
                              SearchStrategy::kAdaptiveBinary, nullptr,
                              &counters);
  EXPECT_EQ(pos, 2u);
  EXPECT_EQ(counters.sequential_searches, 1u);
  EXPECT_EQ(counters.binary_searches, 0u);
}

TEST(AdaptiveSearchTest, LargeDistanceUsesBinary) {
  std::vector<TermId> a;
  for (TermId i = 0; i < 1000; ++i) a.push_back(i * 10);
  size_t cursor = 0;
  SearchCounters counters;
  size_t pos = AdaptiveSearch(a, 5000, &cursor, /*threshold=*/50,
                              SearchStrategy::kAdaptiveBinary, nullptr,
                              &counters);
  EXPECT_EQ(pos, 500u);
  EXPECT_EQ(counters.binary_searches, 1u);
  EXPECT_EQ(counters.sequential_searches, 0u);
}

TEST(AdaptiveSearchTest, ThresholdBoundaryIsInclusive) {
  std::vector<TermId> a = {100, 200};
  size_t cursor = 0;
  SearchCounters counters;
  // distance = a[0] - 150 = -50; |distance| == threshold -> sequential.
  AdaptiveSearch(a, 150, &cursor, 50, SearchStrategy::kAdaptiveBinary, nullptr,
                 &counters);
  EXPECT_EQ(counters.sequential_searches, 1u);
}

TEST(AdaptiveSearchTest, PureStrategiesIgnoreThreshold) {
  std::vector<TermId> a = {1, 2, 3};
  size_t cursor = 0;
  SearchCounters counters;
  AdaptiveSearch(a, 2, &cursor, 1 << 30, SearchStrategy::kBinary, nullptr,
                 &counters);
  EXPECT_EQ(counters.binary_searches, 1u);
  EXPECT_EQ(counters.sequential_searches, 0u);
}

TEST(AdaptiveSearchTest, IndexStrategyUsesIndex) {
  std::vector<TermId> a = {5, 9, 42};
  index::IdPositionIndex idx = index::IdPositionIndex::Build(a, 100);
  size_t cursor = 0;
  SearchCounters counters;
  size_t pos = AdaptiveSearch(a, 42, &cursor, 0, SearchStrategy::kIndex, &idx,
                              &counters);
  EXPECT_EQ(pos, 2u);
  EXPECT_EQ(cursor, 2u);
  EXPECT_EQ(counters.index_lookups, 1u);
  // Adaptive index falls back to the index beyond the threshold.
  cursor = 0;
  pos = AdaptiveSearch(a, 42, &cursor, 1, SearchStrategy::kAdaptiveIndex, &idx,
                       &counters);
  EXPECT_EQ(pos, 2u);
  EXPECT_EQ(counters.index_lookups, 2u);
}

TEST(SearchCountersTest, AddAccumulates) {
  SearchCounters a;
  a.binary_searches = 1;
  a.sequential_searches = 2;
  a.sequential_steps = 3;
  a.index_lookups = 4;
  a.run_probes = 5;
  SearchCounters b = a;
  b.Add(a);
  EXPECT_EQ(b.binary_searches, 2u);
  EXPECT_EQ(b.sequential_searches, 4u);
  EXPECT_EQ(b.sequential_steps, 6u);
  EXPECT_EQ(b.index_lookups, 8u);
  EXPECT_EQ(b.run_probes, 10u);
  EXPECT_EQ(a.total_searches(), 7u);
}

TEST(SearchStrategyTest, Names) {
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kBinary), "Binary");
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kAdaptiveBinary),
               "AdBinary");
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kIndex), "Index");
  EXPECT_STREQ(SearchStrategyName(SearchStrategy::kAdaptiveIndex), "AdIndex");
}

/// Property test: every strategy returns exactly the reference result for
/// arbitrary probe sequences, regardless of cursor history.
class StrategyEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<SearchStrategy, uint64_t>> {};

TEST_P(StrategyEquivalenceTest, MatchesReferenceOnRandomProbes) {
  auto [strategy, seed] = GetParam();
  Rng rng(seed);
  const size_t n = 100 + rng.Uniform(2000);
  std::vector<TermId> a = SortedDistinct(&rng, n, 50000);
  index::IdPositionIndex idx = index::IdPositionIndex::Build(a, 50000);
  SearchCounters counters;

  size_t cursor = 0;
  for (int probe = 0; probe < 3000; ++probe) {
    // Mix of present values, near misses and far misses.
    TermId v;
    const uint64_t kind = rng.Uniform(3);
    if (kind == 0) {
      v = a[rng.Uniform(a.size())];
    } else if (kind == 1) {
      v = a[rng.Uniform(a.size())] + 1;
    } else {
      v = static_cast<TermId>(rng.Uniform(60000));
    }
    const int64_t threshold = static_cast<int64_t>(rng.Uniform(500));
    size_t got = AdaptiveSearch(a, v, &cursor, threshold, strategy, &idx,
                                &counters);
    EXPECT_EQ(got, ReferenceFind(a, v)) << "value " << v;
    ASSERT_LT(cursor, a.size());
  }
  EXPECT_GT(counters.total_searches(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyEquivalenceTest,
    ::testing::Combine(::testing::Values(SearchStrategy::kBinary,
                                         SearchStrategy::kAdaptiveBinary,
                                         SearchStrategy::kIndex,
                                         SearchStrategy::kAdaptiveIndex),
                       ::testing::Values(101, 202, 303)));

/// A fuzzed sorted array: sizes are biased small (vector-prologue edge
/// cases), values may repeat, and extreme keys (0, UINT32_MAX) appear.
std::vector<TermId> FuzzArray(Rng* rng) {
  const uint64_t shape = rng->Uniform(100);
  size_t n;
  if (shape < 10) {
    n = rng->Uniform(3);  // empty / 1-element
  } else if (shape < 70) {
    n = 1 + rng->Uniform(64);
  } else {
    n = 1 + rng->Uniform(1024);
  }
  std::vector<TermId> a(n);
  if (shape % 7 == 0) {
    // All-equal array (duplicates everywhere).
    const TermId v = static_cast<TermId>(rng->Next());
    for (auto& x : a) x = v;
    return a;
  }
  for (auto& x : a) {
    const uint64_t kind = rng->Uniform(20);
    if (kind == 0) {
      x = 0;
    } else if (kind == 1) {
      x = UINT32_MAX;
    } else if (kind < 10) {
      x = static_cast<TermId>(rng->Uniform(256));  // dense duplicates
    } else {
      x = static_cast<TermId>(rng->Next());
    }
  }
  std::sort(a.begin(), a.end());
  return a;
}

TermId FuzzProbe(Rng* rng, const std::vector<TermId>& a) {
  const uint64_t kind = rng->Uniform(5);
  if (!a.empty() && kind == 0) return a[rng->Uniform(a.size())];
  if (!a.empty() && kind == 1) return a[rng->Uniform(a.size())] + 1;
  if (kind == 2) return rng->Uniform(2) ? 0 : UINT32_MAX;
  return static_cast<TermId>(rng->Next());
}

size_t ReferenceLowerBound(const std::vector<TermId>& a, TermId v) {
  auto it = std::lower_bound(a.begin(), a.end(), v);
  if (it == a.end() || *it != v) return kNotFound;
  return static_cast<size_t>(it - a.begin());
}

/// Satellite: 10k fuzzed arrays — the branchless two-phase binary kernel
/// must return exactly std::lower_bound's position (first occurrence on
/// duplicates) for every cursor and gallop cap, with the cursor always in
/// bounds afterwards, and must agree with the legacy branchy kernel on
/// hit/miss.
TEST(BinarySearchTest, DifferentialFuzzAgainstLowerBound) {
  Rng rng(20260807);
  for (int round = 0; round < 10000; ++round) {
    const std::vector<TermId> a = FuzzArray(&rng);
    const TermId v = FuzzProbe(&rng, a);
    size_t cursor = a.empty() ? 0 : rng.Uniform(a.size() + 2);
    const size_t gallop_cap = size_t{1} << rng.Uniform(17);
    const size_t got = BinarySearch(a, v, &cursor, gallop_cap);
    ASSERT_EQ(got, ReferenceLowerBound(a, v))
        << "round " << round << " n=" << a.size() << " v=" << v;
    if (!a.empty()) {
      ASSERT_LT(cursor, a.size()) << "round " << round;
      if (got != kNotFound) {
        ASSERT_EQ(cursor, got);
      }
    }
    size_t branchy_cursor = 0;
    const size_t branchy = BranchyBinarySearch(a, v, &branchy_cursor);
    ASSERT_EQ(branchy == kNotFound, got == kNotFound) << "round " << round;
  }
}

/// The sequential scan's contract, written out independently of the
/// kernel: from the clamped cursor, a forward scan stops on the first
/// element >= v (parking on the last element), a backward scan on the last
/// element <= v (parking on the first). Steps are |stop - start| and the
/// scan hits iff a[stop] == v.
size_t ReferenceSequentialStop(const std::vector<TermId>& a, size_t start,
                               TermId v) {
  if (a[start] < v) {
    for (size_t i = start; i < a.size(); ++i) {
      if (a[i] >= v) return i;
    }
    return a.size() - 1;
  }
  for (size_t i = start + 1; i > 0; --i) {
    if (a[i - 1] <= v) return i - 1;
  }
  return 0;
}

/// The sequential kernel must stop at exactly the reference's
/// position with exactly its step count, across fuzzed arrays/cursors —
/// including empty, 1-element, all-equal and UINT32_MAX-key arrays.
TEST(SequentialSearchTest, SimdMatchesScalarAtEveryLevel) {
  Rng rng(4242);
  for (int round = 0; round < 3000; ++round) {
    const std::vector<TermId> a = FuzzArray(&rng);
    const TermId v = FuzzProbe(&rng, a);
    const size_t start = a.empty() ? 0 : rng.Uniform(a.size() + 2);
    size_t cursor = start;
    uint64_t steps = 0;
    const size_t got = SequentialSearch(a, v, &cursor, &steps);
    if (a.empty()) {
      ASSERT_EQ(got, kNotFound) << "round " << round;
      ASSERT_EQ(cursor, start) << "round " << round;
      ASSERT_EQ(steps, 0u) << "round " << round;
      continue;
    }
    const size_t from = std::min(start, a.size() - 1);
    const size_t stop = ReferenceSequentialStop(a, from, v);
    ASSERT_EQ(got, a[stop] == v ? stop : kNotFound)
        << "round " << round << " n=" << a.size() << " v=" << v;
    ASSERT_EQ(cursor, stop) << "round " << round;
    ASSERT_EQ(steps, stop > from ? stop - from : from - stop)
        << "round " << round;
  }
}

/// sequential_steps counts ELEMENTS ADVANCED — a scan over k elements adds
/// exactly k.
TEST(SequentialSearchTest, StepsCountElementsNotVectorIterations) {
  std::vector<TermId> a(1000);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<TermId>(i * 2);
  size_t cursor = 0;
  uint64_t steps = 0;
  EXPECT_EQ(SequentialSearch(a, 666, &cursor, &steps), 333u);
  EXPECT_EQ(steps, 333u);
  steps = 0;
  EXPECT_EQ(SequentialSearch(a, 100, &cursor, &steps), 50u);
  EXPECT_EQ(steps, 283u);  // backward 333 -> 50
}

/// Regression gate: a fixed adaptive probe workload must produce exactly
/// these SearchCounters (the Table 5/6 accounting must not drift with a
/// kernel rewrite).
TEST(SearchCountersTest, PinnedAcrossKernelVariants) {
  Rng setup(9);
  std::vector<TermId> a = SortedDistinct(&setup, 4000, 200000);
  index::IdPositionIndex idx = index::IdPositionIndex::Build(a, 200000);

  auto run_workload = [&](SearchStrategy strategy) {
    SearchCounters counters;
    Rng rng(31);
    size_t cursor = 0;
    for (int probe = 0; probe < 20000; ++probe) {
      TermId v = rng.Uniform(4) == 0
                     ? static_cast<TermId>(rng.Uniform(210000))
                     : a[rng.Uniform(a.size())] + rng.Uniform(3);
      AdaptiveSearch(a, v, &cursor, /*threshold=*/400, strategy, &idx,
                     &counters, /*gallop_cap=*/512);
    }
    return counters;
  };

  const SearchCounters binary = run_workload(SearchStrategy::kAdaptiveBinary);
  EXPECT_EQ(binary.binary_searches, 19922u);
  EXPECT_EQ(binary.sequential_searches, 78u);
  EXPECT_EQ(binary.sequential_steps, 360u);
  EXPECT_EQ(binary.index_lookups, 0u);
  const SearchCounters index = run_workload(SearchStrategy::kAdaptiveIndex);
  EXPECT_EQ(index.binary_searches, 0u);
  EXPECT_EQ(index.sequential_searches, 93u);
  EXPECT_EQ(index.sequential_steps, 405u);
  EXPECT_EQ(index.index_lookups, 19907u);
}

/// RunContains must agree with std::binary_search on both sides of the
/// linear/binary crossover, with and without the extreme IDs 0 and
/// UINT32_MAX in the run.
TEST(RunContainsTest, DifferentialAcrossSizesAndLevels) {
  constexpr TermId kEdges[] = {0, 1, UINT32_MAX - 1, UINT32_MAX};
  Rng rng(55);
  for (size_t n : {0u, 1u, 3u, 8u, 9u, 16u, 63u, 64u, 65u, 200u}) {
    for (bool extremes : {false, true}) {
      std::set<TermId> s;
      if (extremes && n >= 2) s = {0, UINT32_MAX};
      while (s.size() < n) s.insert(static_cast<TermId>(rng.Next()));
      std::vector<TermId> run(s.begin(), s.end());
      for (int probe = 0; probe < 200; ++probe) {
        TermId v = probe % 2 == 0 && !run.empty()
                       ? run[rng.Uniform(run.size())]
                       : static_cast<TermId>(rng.Next());
        if (probe < 4) v = kEdges[probe];
        EXPECT_EQ(RunContains(run, v),
                  std::binary_search(run.begin(), run.end(), v))
            << "n=" << n << " v=" << v;
      }
    }
  }
}

TEST(GallopCapTest, TracksWindowWithinBounds) {
  EXPECT_EQ(GallopCapForWindow(0.0), 64u);
  EXPECT_EQ(GallopCapForWindow(200.0), 1024u);  // kDefaultGallopCap regime
  EXPECT_EQ(GallopCapForWindow(1e9), 65536u);
  for (double w : {1.0, 17.0, 200.0, 3000.0}) {
    const size_t cap = GallopCapForWindow(w);
    EXPECT_EQ(cap & (cap - 1), 0u) << w;  // power of two
    EXPECT_GE(cap, 64u);
    EXPECT_LE(cap, 65536u);
  }
}

/// Property test: sorted ascending probes drive the adaptive method to
/// sequential search almost always (the paper's merge-join behaviour).
TEST(AdaptiveSearchTest, SortedProbesMostlySequential) {
  Rng rng(77);
  std::vector<TermId> a = SortedDistinct(&rng, 5000, 100000);
  SearchCounters counters;
  size_t cursor = 0;
  const int64_t threshold = 200 * 20;  // window 200 x avg gap 20
  for (TermId v : a) {
    AdaptiveSearch(a, v, &cursor, threshold, SearchStrategy::kAdaptiveBinary,
                   nullptr, &counters);
  }
  EXPECT_GT(counters.sequential_searches, counters.binary_searches * 50);
}


/// A sorted, duplicate-free run of `size` IDs drawn from [1, universe].
std::vector<TermId> RandomRun(Rng* rng, size_t size, uint64_t universe) {
  std::set<TermId> ids;
  while (ids.size() < size) {
    ids.insert(static_cast<TermId>(1 + rng->Uniform(universe)));
  }
  return std::vector<TermId>(ids.begin(), ids.end());
}

TEST(RunIntersectKernelTest, MatchesSetIntersectionOnRandomRuns) {
  // Length pairs from empty to 40x apart, over dense and sparse universes,
  // in both argument orders.
  Rng rng(20261020);
  const size_t sizes[] = {0, 1, 2, 63, 64, 65, 300, 2500};
  for (size_t na : sizes) {
    for (size_t nb : sizes) {
      for (uint64_t universe : {uint64_t{3000}, uint64_t{1} << 31}) {
        const std::vector<TermId> a = RandomRun(&rng, na, universe);
        const std::vector<TermId> b = RandomRun(&rng, nb, universe);
        std::vector<TermId> want;
        std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(want));
        std::vector<TermId> got;
        IntersectRuns(a, b, [&got](TermId v) {
          got.push_back(v);
          return true;
        });
        EXPECT_EQ(got, want) << na << " x " << nb << " of " << universe;
        EXPECT_EQ(CountIntersection(b, a), want.size());
      }
    }
  }
}

TEST(RunIntersectKernelTest, StopsWhenTheCallbackSaysSo) {
  const std::vector<TermId> a = {2, 4, 6, 8, 10};
  const std::vector<TermId> b = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  std::vector<TermId> got;
  IntersectRuns(a, b, [&got](TermId v) {
    got.push_back(v);
    return got.size() < 3;
  });
  EXPECT_EQ(got, (std::vector<TermId>{2, 4, 6}));
}

TEST(RunIntersectKernelTest, ExtremeIds) {
  const std::vector<TermId> a = {1, 0x7fffffffu, 0xfffffffeu, 0xffffffffu};
  const std::vector<TermId> b = {0x7fffffffu, 0x80000000u, 0xffffffffu};
  EXPECT_EQ(CountIntersection(a, b), 2u);
  EXPECT_EQ(CountIntersection(b, a), 2u);
}

}  // namespace
}  // namespace parj::join
