#include "trace.h"

namespace perfbench {

int32_t SpanRecorder::Begin(const char* name, int32_t parent,
                            uint64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  span.end_ns = span.start_ns;
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanRecorder::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count();
}

std::map<std::string, int64_t> SelfNanosByName(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::vector<double> DurationsMillis(const std::vector<Span>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e6);
    }
  }
  return out;
}

Json SpansToJson(const std::vector<Span>& spans) {
  Json out = Json::Array();
  for (const Span& span : spans) {
    Json s = Json::Object();
    s.Set("name", span.name);
    s.Set("start_us", static_cast<double>(span.start_ns) / 1e3);
    s.Set("end_us", static_cast<double>(span.end_ns) / 1e3);
    s.Set("parent", static_cast<double>(span.parent));
    s.Set("request", static_cast<double>(span.request));
    out.Push(std::move(s));
  }
  return out;
}

}  // namespace perfbench
