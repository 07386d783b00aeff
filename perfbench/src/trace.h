#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

/// One timed call into a layer, recorded by the benchmark around the call
/// (nothing inside the library is instrumented).
struct Span {
  const char* name = "";  ///< static string, "<layer>.<call>" or "request"
  int64_t start_ns = 0;   ///< since the recorder's origin
  int64_t end_ns = 0;
  int32_t parent = -1;    ///< index of the enclosing span, -1 for a root
  uint64_t request = 0;   ///< shared by every span of one read
};

/// Keeps spans in memory for the whole run; they are written out once, at
/// exit. Not thread-safe: give each client thread its own recorder over a
/// shared origin.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::chrono::steady_clock::time_point origin)
      : origin_(origin) {}

  /// Opens a span and returns its index.
  int32_t Begin(const char* name, int32_t parent, uint64_t request);
  void End(int32_t span);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Self time per span name in nanoseconds: each span's duration minus the
/// part of it its direct children cover, summed over all spans of a name.
/// Children of one span never overlap (the calls are sequential).
std::map<std::string, int64_t> SelfNanosByName(const std::vector<Span>& spans);

/// Durations in milliseconds of every span called `name`.
std::vector<double> DurationsMillis(const std::vector<Span>& spans,
                                    const std::string& name);

/// The spans as a JSON array of {name, start_us, end_us, parent, request}.
Json SpansToJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
