#include "join/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "join/search.h"

namespace parj::join {

namespace {

/// Runs `count` lookups striding `value_gap` through the array's value
/// domain (wrapping at the top, as the paper's ToFind += TotalGap walk
/// would run off the array on long calibrations), using `search`.
/// Returns elapsed nanoseconds. The accumulated `sink` defeats dead-code
/// elimination.
template <typename SearchFn>
int64_t TimeSearches(std::span<const TermId> array, double value_gap,
                     size_t count, SearchFn&& search) {
  const TermId lo = array.front();
  const TermId hi = array.back();
  const double span = std::max(1.0, static_cast<double>(hi) -
                                        static_cast<double>(lo));
  size_t cursor = 0;
  double to_find = static_cast<double>(lo);
  uint64_t sink = 0;
  Stopwatch timer;
  for (size_t i = 0; i < count; ++i) {
    TermId value = static_cast<TermId>(to_find);
    size_t pos = search(array, value, &cursor);
    sink += pos == kNotFound ? 1 : pos;
    to_find += value_gap;
    if (to_find > static_cast<double>(hi)) {
      to_find = static_cast<double>(lo) +
                std::fmod(to_find - static_cast<double>(lo), span);
      // A wrap teleports the cursor target; reset the cursor so sequential
      // search is not charged a full-array walk back.
      cursor = 0;
    }
  }
  int64_t nanos = timer.ElapsedNanos();
  // Fold `sink` into the result's low bit so the compiler cannot discard
  // the search results; the perturbation is below timer resolution.
  return nanos | static_cast<int64_t>(sink & 1);
}

}  // namespace

int64_t WindowToValueThreshold(double window_positions, double average_gap) {
  double threshold = std::ceil(window_positions * std::max(1e-9, average_gap));
  return std::max<int64_t>(1, static_cast<int64_t>(threshold));
}

CalibrationResult CalibrateWindow(std::span<const TermId> array,
                                  CalibrationMode mode,
                                  const index::IdPositionIndex* index,
                                  const CalibrationOptions& options) {
  CalibrationResult result;
  if (array.size() < 4) {
    result.window_positions = 1.0;
    result.threshold_value = 1;
    return result;
  }

  const double avg_gap =
      std::max(1.0, (static_cast<double>(array.back()) -
                     static_cast<double>(array.front())) /
                        static_cast<double>(array.size()));
  const double max_window = static_cast<double>(array.size()) / 2.0;

  double next_window = std::clamp(options.starting_window, 1.0, max_window);
  double window = next_window;

  auto sequential = [](std::span<const TermId> a, TermId v, size_t* cursor) {
    return SequentialSearch(a, v, cursor);
  };
  // The production binary kernel's gallop cap tracks the window under
  // calibration (&window), exactly as the executor derives it from the
  // calibrated window afterwards — so the timings being balanced are the
  // timings production probes will see.
  auto fallback = [mode, index, &window](std::span<const TermId> a, TermId v,
                                         size_t* cursor) {
    if (mode == CalibrationMode::kVersusIndexLookup) {
      DirectMemory mem;
      return IndexSearchWith(a, v, cursor, *index, mem);
    }
    return BinarySearch(a, v, cursor, GallopCapForWindow(window));
  };
  double fraction = 0.0;
  int iteration = 0;
  do {
    window = next_window;
    const double total_gap = avg_gap * window;
    const int64_t time_fallback =
        TimeSearches(array, total_gap, options.searches_per_step, fallback);
    const int64_t time_scan =
        TimeSearches(array, total_gap, options.searches_per_step, sequential);
    ++iteration;

    const double tf = std::max<double>(1.0, static_cast<double>(time_fallback));
    const double ts = std::max<double>(1.0, static_cast<double>(time_scan));
    if (tf > ts) {
      // Fallback slower: sequential still wins at this distance; widen.
      fraction = tf / ts;
      next_window = window * std::min(fraction, options.max_adjust_factor);
    } else {
      fraction = ts / tf;
      next_window = window / std::min(fraction, options.max_adjust_factor);
    }
    next_window = std::clamp(next_window, 1.0, max_window);
    if (iteration >= options.max_iterations) break;
    // Clamped into a wall: further iterations cannot move the window.
    if (next_window == window && fraction > options.stop_ratio) break;
  } while (fraction > options.stop_ratio);

  result.window_positions = window;
  result.threshold_value = WindowToValueThreshold(window, avg_gap);
  result.iterations = iteration;
  result.final_ratio = fraction;
  return result;
}

}  // namespace parj::join
