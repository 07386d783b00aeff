#ifndef PARJ_JOIN_CALIBRATION_H_
#define PARJ_JOIN_CALIBRATION_H_

#include <cstdint>
#include <span>

#include "common/types.h"
#include "index/id_position_index.h"

namespace parj::join {

/// Which point-lookup method sequential search is being calibrated against.
enum class CalibrationMode : uint8_t {
  kVersusBinarySearch = 0,
  kVersusIndexLookup = 1,
};

/// Parameters for Algorithm 2 (paper §4.1).
struct CalibrationOptions {
  /// NoOfSearches: timed lookups per calibration step.
  size_t searches_per_step = 4096;
  /// StartingWindowSize: initial window (in array positions).
  double starting_window = 64.0;
  /// Threshold: stop when max(t_a,t_b)/min(t_a,t_b) <= stop_ratio.
  double stop_ratio = 1.10;
  /// Safety bound on calibration iterations (the paper's loop has no bound;
  /// timing noise can make it oscillate).
  int max_iterations = 24;
  /// Per-step multiplicative adjustment is clamped to this factor to damp
  /// oscillation from noisy timings.
  double max_adjust_factor = 4.0;
  /// Worker threads for Database::Calibrate's per-replica loop (each
  /// replica's Algorithm-2 run is independent). <=1 calibrates serially.
  /// Concurrent calibration adds timing noise on busy machines, but the
  /// algorithm is self-damping (stop_ratio / max_adjust_factor), so the
  /// resulting windows stay in the same regime.
  int threads = 1;
};

/// Result of one calibration run.
struct CalibrationResult {
  /// Window size in array positions: probes whose expected position
  /// distance from the cursor is below this are cheaper sequentially.
  double window_positions = 0.0;
  /// The window converted to a value distance via the uniform-gap
  /// assumption (what Algorithm 1 compares against).
  int64_t threshold_value = 0;
  int iterations = 0;
  /// Final timing ratio at termination.
  double final_ratio = 0.0;
};

/// Implements Algorithm 2: measures, for increasing/decreasing window
/// sizes, the time of `searches_per_step` strided lookups using sequential
/// search versus the fallback method, and adjusts the window by the timing
/// ratio until the two are within `stop_ratio` of each other.
///
/// `index` is required for kVersusIndexLookup and ignored otherwise.
/// Degenerate arrays (fewer than 4 keys) yield a fixed small window.
CalibrationResult CalibrateWindow(std::span<const TermId> array,
                                  CalibrationMode mode,
                                  const index::IdPositionIndex* index,
                                  const CalibrationOptions& options = {});

/// Converts a window size in positions to the value-distance threshold used
/// by Algorithm 1: window * average key gap, rounded up, at least 1.
int64_t WindowToValueThreshold(double window_positions, double average_gap);

}  // namespace parj::join

#endif  // PARJ_JOIN_CALIBRATION_H_
