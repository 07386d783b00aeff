#include "join/search.h"

namespace parj::join {

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

size_t SequentialSearchScalar(std::span<const TermId> array, TermId value,
                              size_t* cursor, uint64_t* steps_out) {
  DirectMemory mem;
  // Explicit template arguments force the generic (scalar) body instead of
  // the DirectMemory fast-path overload.
  return SequentialSearchWith<DirectMemory>(array, value, cursor, mem,
                                            steps_out);
}

namespace detail {

size_t SequentialVecForward(const TermId* data, size_t n, size_t start,
                            TermId value, size_t* cursor,
                            uint64_t* steps_out) {
  const size_t stop = simd::detail::ScanForwardStopBulk(
      data, start + kScanPrologue + 1, n, value);
  if (steps_out != nullptr) *steps_out += stop - start;
  *cursor = stop;
  return data[stop] == value ? stop : kNotFound;
}

size_t SequentialVecBackward(const TermId* data, size_t start, TermId value,
                             size_t* cursor, uint64_t* steps_out) {
  const size_t stop =
      simd::detail::ScanBackwardStopBulk(data, start - kScanPrologue, value);
  if (steps_out != nullptr) *steps_out += start - stop;
  *cursor = stop;
  return data[stop] == value ? stop : kNotFound;
}

}  // namespace detail

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
    return simd::ContainsU32(run.data(), run.size(), value);
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
