#ifndef PARJ_JOIN_SEARCH_H_
#define PARJ_JOIN_SEARCH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "common/bits.h"
#include "common/memory_policy.h"
#include "common/types.h"
#include "index/id_position_index.h"

namespace parj::join {

/// Returned by all search kernels when the value is absent.
inline constexpr size_t kNotFound = SIZE_MAX;

/// Which lookup method the join uses for probe steps (Table 5's four
/// configurations).
enum class SearchStrategy : uint8_t {
  kBinary = 0,         ///< always binary search
  kAdaptiveBinary = 1, ///< Algorithm 1: sequential vs binary
  kIndex = 2,          ///< always ID-to-Position index lookup
  kAdaptiveIndex = 3,  ///< Algorithm 1 with index instead of binary search
};

const char* SearchStrategyName(SearchStrategy strategy);

/// Per-run tallies of the adaptive method's decisions (Table 6 columns
/// "#Binary" / "#Sequential") plus work metrics. `sequential_steps` counts
/// elements advanced by sequential scans.
struct SearchCounters {
  uint64_t binary_searches = 0;
  uint64_t sequential_searches = 0;
  uint64_t sequential_steps = 0;  ///< elements advanced during scans
  uint64_t index_lookups = 0;
  uint64_t run_probes = 0;        ///< membership checks inside value runs

  void Add(const SearchCounters& other) {
    binary_searches += other.binary_searches;
    sequential_searches += other.sequential_searches;
    sequential_steps += other.sequential_steps;
    index_lookups += other.index_lookups;
    run_probes += other.run_probes;
  }

  uint64_t total_searches() const {
    return binary_searches + sequential_searches + index_lookups;
  }
};

/// Default gallop cap (in key-array positions) for binary searches issued
/// without replica metadata: 4x the paper's default 200-position window,
/// rounded to a power of two.
inline constexpr size_t kDefaultGallopCap = 1024;

/// Bracket width (elements) below which the binary kernel's shrink loop
/// switches from branchy descent to conditional moves: 16 KiB of keys —
/// roughly the point where probes stop missing cache and mispredict cost
/// overtakes memory latency (see the BinarySearchWith Phase 2 comment).
inline constexpr size_t kCmovRange = 4096;

/// Converts a calibrated window size (positions) into the gallop cap used
/// by the two-phase binary kernel: the gallop phase abandons its bracket
/// and restarts on the whole array once the cursor-relative stride exceeds
/// ~4 windows. Beyond that distance the probe is cache-cold either way,
/// and a capped gallop wastes at most log2(cap) near-cursor (cache-hot)
/// probes.
inline size_t GallopCapForWindow(double window_positions) {
  double cap = window_positions * 4.0;
  if (cap < 64.0) cap = 64.0;
  if (cap > 65536.0) cap = 65536.0;
  return static_cast<size_t>(NextPowerOfTwo(static_cast<uint64_t>(cap)));
}

/// The pre-vectorization binary search (whole-array, branchy, early exit
/// on equality), kept as the micro-bench baseline and as the
/// reference for differential tests. `*cursor` is updated to the last
/// accessed position on both hit and miss.
template <typename MemoryPolicy>
size_t BranchyBinarySearchWith(std::span<const TermId> array, TermId value,
                               size_t* cursor, MemoryPolicy& mem) {
  size_t lo = 0;
  size_t hi = array.size();
  size_t last = *cursor;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    last = mid;
    TermId probe = mem.Load(&array[mid]);
    if (probe < value) {
      lo = mid + 1;
    } else if (probe > value) {
      hi = mid;
    } else {
      *cursor = mid;
      return mid;
    }
  }
  *cursor = last;
  return kNotFound;
}

/// The production binary kernel (DESIGN.md §11): a branchless two-phase
/// lower-bound search.
///
/// Phase 1 (bracket): one probe at the gallop-cap edge classifies the
/// probe. Near probes (value within the cap window of the cursor) gallop
/// from the cursor at strides 1, 2, 4, ... — correlated probe sequences,
/// the workload Algorithm 1 exists for, bracket within a few
/// cache-resident lines. Far probes skip the gallop entirely: the edge
/// probe alone discharges the window, so an uncorrelated probe costs one
/// extra load instead of log2(cap) dependent cache misses.
///
/// Phase 2 (shrink): a lower-bound halving loop over the bracket, run in
/// two regimes with an IDENTICAL midpoint sequence (mid is a pure function
/// of (lo, hi)). While the bracket spans more than kCmovRange elements the
/// probes are likely cache misses, and the descent stays BRANCHY — the
/// speculated path keeps issuing the next loads, overlapping misses in a
/// way a conditional-move data dependency would serialize. Once the
/// bracket is cache-resident the loop switches to conditional moves, where
/// mispredicted data-dependent branches (the dominant cost on resident
/// data) never flush the pipeline. Both regimes also prefetch the two
/// candidate next-next midpoints. Prefetches bypass the MemoryPolicy
/// (DirectMemory builds only), so instrumented cache-sim replay observes
/// the same Load sequence either way.
///
/// Returns the position of `value` (its first occurrence, matching
/// std::lower_bound) or kNotFound. `*cursor` lands on the hit position, or
/// on the last probed position on a miss — always in bounds. The kernel is
/// a pure function of (contents, value, incoming cursor, gallop_cap).
template <typename MemoryPolicy>
size_t BinarySearchWith(std::span<const TermId> array, TermId value,
                        size_t* cursor, MemoryPolicy& mem,
                        size_t gallop_cap = kDefaultGallopCap) {
  const size_t n = array.size();
  if (n == 0) return kNotFound;
  const size_t start = *cursor < n ? *cursor : n - 1;
  size_t last = start;
  size_t lo = 0;
  size_t hi = n;
  const TermId anchor = mem.Load(&array[start]);
  if (anchor == value) {
    // Distinct-key arrays hit exactly here; duplicate-key arrays fall
    // through to the shrink loop below for the std::lower_bound position.
    if (start == 0 || mem.Load(&array[start - 1]) != value) {
      *cursor = start;
      return start;
    }
  }
  if (gallop_cap < 1) gallop_cap = 1;
  if (anchor < value) {
    lo = start + 1;
    const size_t room = n - 1 - start;
    const size_t edge = start + (gallop_cap < room ? gallop_cap : room);
    if (edge > start) {
      last = edge;
      if (mem.Load(&array[edge]) < value) {
        lo = edge + 1;  // far probe: the whole window is below value
      } else {
        hi = edge;  // near probe: gallop brackets inside the window
        size_t stride = 1;
        while (start + stride < edge) {
          const size_t pos = start + stride;
          last = pos;
          if (mem.Load(&array[pos]) >= value) {
            hi = pos;
            break;
          }
          lo = pos + 1;
          stride <<= 1;
        }
      }
    }
  } else {
    hi = start;
    const size_t edge = start - (gallop_cap < start ? gallop_cap : start);
    if (edge < start) {
      last = edge;
      if (mem.Load(&array[edge]) >= value) {
        hi = edge;  // far probe: the lower bound is at or before the edge
      } else {
        lo = edge + 1;  // near probe: gallop brackets inside the window
        size_t stride = 1;
        while (stride < start - edge) {
          const size_t pos = start - stride;
          last = pos;
          if (mem.Load(&array[pos]) < value) {
            lo = pos + 1;
            break;
          }
          hi = pos;
          stride <<= 1;
        }
      }
    }
  }
  while (hi - lo > kCmovRange) {
    const size_t half = (hi - lo) / 2;
    const size_t mid = lo + half;
    if constexpr (std::is_same_v<MemoryPolicy, DirectMemory>) {
      __builtin_prefetch(&array[lo + half / 2]);
      __builtin_prefetch(&array[mid + half / 2]);
    }
    last = mid;
    if (mem.Load(&array[mid]) < value) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  while (lo < hi) {
    const size_t half = (hi - lo) / 2;
    const size_t mid = lo + half;
    if constexpr (std::is_same_v<MemoryPolicy, DirectMemory>) {
      if (half >= 32) {
        __builtin_prefetch(&array[lo + half / 2]);
        __builtin_prefetch(&array[mid + half / 2]);
      }
    }
    last = mid;
    const TermId probe = mem.Load(&array[mid]);
    const bool lt = probe < value;
    lo = lt ? mid + 1 : lo;
    hi = lt ? hi : mid;
  }
  if (lo < n && mem.Load(&array[lo]) == value) {
    *cursor = lo;
    return lo;
  }
  *cursor = last;
  return kNotFound;
}

/// Directional sequential search continuing from `*cursor` (merge-join-like
/// behaviour). Scans toward `value` in whichever direction it lies;
/// `*cursor` ends at the last accessed position on both hit and miss, and
/// `*steps_out` grows by the elements advanced (|stop - start|).
template <typename MemoryPolicy>
size_t SequentialSearchWith(std::span<const TermId> array, TermId value,
                            size_t* cursor, MemoryPolicy& mem,
                            uint64_t* steps_out) {
  if (array.empty()) return kNotFound;
  size_t pos = *cursor;
  if (pos >= array.size()) pos = array.size() - 1;
  uint64_t steps = 0;
  TermId current = mem.Load(&array[pos]);
  if (current < value) {
    while (current < value && pos + 1 < array.size()) {
      ++pos;
      ++steps;
      current = mem.Load(&array[pos]);
    }
  } else if (current > value) {
    while (current > value && pos > 0) {
      --pos;
      ++steps;
      current = mem.Load(&array[pos]);
    }
  }
  *cursor = pos;
  if (steps_out != nullptr) *steps_out += steps;
  return current == value ? pos : kNotFound;
}

/// ID-to-Position lookup. Updates `*cursor` on hit (the found position is
/// the natural continuation point for subsequent sequential scans).
template <typename MemoryPolicy>
size_t IndexSearchWith(std::span<const TermId> array, TermId value,
                       size_t* cursor, const index::IdPositionIndex& index,
                       MemoryPolicy& mem) {
  (void)array;
  size_t pos = index.FindWith(value, mem);
  if (pos != kNotFound) *cursor = pos;
  return pos;
}

/// Algorithm 1 (paper §4.1): chooses sequential search when the arithmetic
/// distance between the element under the cursor and the probe value is at
/// most `threshold` (a per-table value distance derived from the calibrated
/// window size), otherwise falls back to `fallback` (binary search or
/// ID-to-Position lookup). `gallop_cap` bounds the binary kernel's gallop
/// phase (GallopCapForWindow of the same calibrated window).
///
/// `index` may be null unless the strategy is kIndex / kAdaptiveIndex.
template <typename MemoryPolicy>
size_t AdaptiveSearchWith(std::span<const TermId> array, TermId value,
                          size_t* cursor, int64_t threshold,
                          SearchStrategy strategy,
                          const index::IdPositionIndex* index,
                          SearchCounters* counters, MemoryPolicy& mem,
                          size_t gallop_cap = kDefaultGallopCap) {
  if (array.empty()) return kNotFound;
  switch (strategy) {
    case SearchStrategy::kBinary:
      if (counters != nullptr) ++counters->binary_searches;
      return BinarySearchWith(array, value, cursor, mem, gallop_cap);
    case SearchStrategy::kIndex:
      if (counters != nullptr) ++counters->index_lookups;
      return IndexSearchWith(array, value, cursor, *index, mem);
    case SearchStrategy::kAdaptiveBinary:
    case SearchStrategy::kAdaptiveIndex: {
      size_t pos = *cursor;
      if (pos >= array.size()) pos = array.size() - 1;
      const int64_t distance = static_cast<int64_t>(mem.Load(&array[pos])) -
                               static_cast<int64_t>(value);
      if (distance <= threshold && distance >= -threshold) {
        if (counters != nullptr) ++counters->sequential_searches;
        return SequentialSearchWith(
            array, value, cursor, mem,
            counters != nullptr ? &counters->sequential_steps : nullptr);
      }
      if (strategy == SearchStrategy::kAdaptiveBinary) {
        if (counters != nullptr) ++counters->binary_searches;
        return BinarySearchWith(array, value, cursor, mem, gallop_cap);
      }
      if (counters != nullptr) ++counters->index_lookups;
      return IndexSearchWith(array, value, cursor, *index, mem);
    }
  }
  return kNotFound;
}

/// Convenience non-instrumented wrappers.
size_t BinarySearch(std::span<const TermId> array, TermId value,
                    size_t* cursor, size_t gallop_cap = kDefaultGallopCap);
size_t BranchyBinarySearch(std::span<const TermId> array, TermId value,
                           size_t* cursor);
size_t SequentialSearch(std::span<const TermId> array, TermId value,
                        size_t* cursor, uint64_t* steps_out = nullptr);
size_t AdaptiveSearch(std::span<const TermId> array, TermId value,
                      size_t* cursor, int64_t threshold,
                      SearchStrategy strategy,
                      const index::IdPositionIndex* index,
                      SearchCounters* counters,
                      size_t gallop_cap = kDefaultGallopCap);

/// Runs up to this many elements are checked by a vectorized equality
/// sweep: it beats any search up to several cache lines and needs no
/// cursor.
inline constexpr size_t kRunSweepLimit = 64;

/// Membership check inside a sorted value run. Runs of at most
/// kRunSweepLimit elements use the equality sweep and leave `*cursor`
/// alone; longer runs use the two-phase BinarySearch kernel from `*cursor`
/// and leave it on the probed position, so probes that arrive in order
/// gallop from the previous one. The boolean is the same either way, for
/// any incoming cursor.
bool RunContains(std::span<const TermId> run, TermId value, size_t* cursor);

/// One-off membership check: RunContains from a cursor at the run's start.
inline bool RunContains(std::span<const TermId> run, TermId value) {
  size_t cursor = 0;
  return RunContains(run, value, &cursor);
}

/// Calls `on_match(v)` for every value present in both sorted,
/// duplicate-free runs, in ascending order, until it returns false. Each
/// value of the shorter run gallops through the longer one from the
/// previous value's position. A branch-free linear merge was slower at
/// every length ratio tried, equal lengths included: its loads form one
/// dependency chain.
template <typename OnMatch>
void IntersectRuns(std::span<const TermId> a, std::span<const TermId> b,
                   OnMatch&& on_match) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t nb = b.size();
  size_t j = 0;
  for (const TermId x : a) {
    // Every b[< lo] is below x; the doubling stride stops at the first
    // b[hi] >= x, so x's lower bound lies in [lo, hi].
    size_t lo = j;
    size_t hi = j;
    size_t stride = 1;
    while (hi < nb && b[hi] < x) {
      lo = hi + 1;
      hi += stride;
      stride <<= 1;
    }
    if (hi > nb) hi = nb;
    j = static_cast<size_t>(
        std::lower_bound(b.begin() + lo, b.begin() + hi, x) - b.begin());
    if (j == nb) return;
    if (b[j] == x) {
      if (!on_match(x)) return;
      ++j;
    }
  }
}

/// |a ∩ b| for two sorted, duplicate-free runs (IntersectRuns' count).
size_t CountIntersection(std::span<const TermId> a,
                         std::span<const TermId> b);

}  // namespace parj::join

#endif  // PARJ_JOIN_SEARCH_H_
