#include "join/search.h"

#if !defined(PARJ_DISABLE_SIMD) && defined(__GNUC__) && defined(__SSE2__) && \
    (defined(__x86_64__) || defined(__i386__))
#define PARJ_RUN_SWEEP_SSE2 1
#include <emmintrin.h>
#endif

namespace parj::join {

namespace {

/// Equality sweep over a short run: 4 lanes per compare where SSE2 is
/// compiled in (part of the x86-64 baseline, so no dispatch), a plain
/// loop elsewhere and under -DPARJ_DISABLE_SIMD.
bool ContainsU32(const uint32_t* data, size_t count, uint32_t value) {
  size_t i = 0;
#if PARJ_RUN_SWEEP_SSE2
  const __m128i vv = _mm_set1_epi32(static_cast<int32_t>(value));
  for (; i + 4 <= count; i += 4) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    if (_mm_movemask_epi8(_mm_cmpeq_epi32(d, vv)) != 0) return true;
  }
#endif
  for (; i < count; ++i) {
    if (data[i] == value) return true;
  }
  return false;
}

}  // namespace

const char* SearchStrategyName(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::kBinary:
      return "Binary";
    case SearchStrategy::kAdaptiveBinary:
      return "AdBinary";
    case SearchStrategy::kIndex:
      return "Index";
    case SearchStrategy::kAdaptiveIndex:
      return "AdIndex";
  }
  return "?";
}

size_t BinarySearch(std::span<const TermId> array, TermId value,
                    size_t* cursor, size_t gallop_cap) {
  DirectMemory mem;
  return BinarySearchWith(array, value, cursor, mem, gallop_cap);
}

size_t BranchyBinarySearch(std::span<const TermId> array, TermId value,
                           size_t* cursor) {
  DirectMemory mem;
  return BranchyBinarySearchWith(array, value, cursor, mem);
}

size_t SequentialSearch(std::span<const TermId> array, TermId value,
                        size_t* cursor, uint64_t* steps_out) {
  DirectMemory mem;
  return SequentialSearchWith(array, value, cursor, mem, steps_out);
}

size_t AdaptiveSearch(std::span<const TermId> array, TermId value,
                      size_t* cursor, int64_t threshold,
                      SearchStrategy strategy,
                      const index::IdPositionIndex* index,
                      SearchCounters* counters, size_t gallop_cap) {
  DirectMemory mem;
  return AdaptiveSearchWith(array, value, cursor, threshold, strategy, index,
                            counters, mem, gallop_cap);
}

bool RunContains(std::span<const TermId> run, TermId value, size_t* cursor) {
  if (run.size() <= kRunSweepLimit) {
    return ContainsU32(run.data(), run.size(), value);
  }
  return BinarySearch(run, value, cursor) != kNotFound;
}

size_t CountIntersection(std::span<const TermId> a,
                         std::span<const TermId> b) {
  size_t matches = 0;
  IntersectRuns(a, b, [&matches](TermId) {
    ++matches;
    return true;
  });
  return matches;
}

}  // namespace parj::join
