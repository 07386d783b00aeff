#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// A JSON value for the benchmark's own output. The writer builds text in
/// a growing std::string — no fixed-size buffer anywhere, so no record can
/// be cut short — and objects keep insertion order so reports diff cleanly
/// from run to run.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  static Json Bool(bool value);
  static Json Number(double value);
  static Json Str(std::string value);
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Object member assignment; replaces an existing key in place.
  Json& Set(std::string key, Json value);
  Json& Set(std::string key, double value) {
    return Set(std::move(key), Number(value));
  }
  Json& Set(std::string key, const char* value) {
    return Set(std::move(key), Str(value));
  }
  Json& Set(std::string key, std::string value) {
    return Set(std::move(key), Str(std::move(value)));
  }
  Json& Set(std::string key, bool value) {
    return Set(std::move(key), Bool(value));
  }
  /// Array append.
  Json& Push(Json value);

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  bool operator==(const Json& other) const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Serializes `value` on one line, or indented when `pretty`. Numbers are
/// written in the shortest form that reads back to the same double, so no
/// digit is lost; a NaN or infinity is an error, since JSON cannot carry
/// one.
parj::Result<std::string> ToJson(const Json& value, bool pretty = false);

/// Parses one JSON document (RFC 8259); trailing non-space text is an
/// error.
parj::Result<Json> ParseJson(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
