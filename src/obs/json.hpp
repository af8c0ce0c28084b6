#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace parastack::obs {

// The telemetry sinks build their JSON by appending to a std::string and
// hand finished text to a stream whole, never a character at a time.

/// Append `s` as a JSON string literal (quotes included), escaping the
/// control characters and the two mandatory specials; the runs between
/// escapes are copied whole. The simulator only produces ASCII
/// identifiers, so no UTF-8 handling is needed.
void json_string(std::string& out, std::string_view s);

/// Append a double as a JSON number, rendered byte for byte as "%.9g"
/// renders it: std::to_chars with chars_format::general and precision 9 is
/// defined as that printf conversion in the "C" locale. The output is
/// byte-stable for identical values (determinism requirement of the
/// journal). Non-finite values — which no telemetry source produces —
/// degrade to null to keep the document parseable.
void json_number(std::string& out, double value);

/// Append an integer in decimal, as the classic locale renders it.
template <typename Int>
void json_integer(std::string& out, Int value) {
  char buf[24];  // a sign and the 20 digits of the widest 64-bit value
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// Writer for one JSON object: handles the comma discipline so call sites
/// read as a flat list of fields. Close with done(); the destructor also
/// closes (idempotent) so early returns stay valid JSON.
class JsonObject {
 public:
  explicit JsonObject(std::string& out) : out_(out) { out_ += '{'; }
  ~JsonObject() { done(); }

  JsonObject(const JsonObject&) = delete;
  JsonObject& operator=(const JsonObject&) = delete;

  JsonObject& field(std::string_view key, std::string_view value);
  JsonObject& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonObject& field(std::string_view key, bool value);
  JsonObject& field(std::string_view key, int value);
  JsonObject& field(std::string_view key, std::int64_t value);
  JsonObject& field(std::string_view key, std::uint64_t value);
  JsonObject& field(std::string_view key, double value);
  /// A JSON array of integers.
  JsonObject& field(std::string_view key, const std::vector<int>& values);
  /// Write the next key and leave its value to the caller: a nested
  /// JsonObject, or text rendered with the json_* functions.
  JsonObject& key(std::string_view k);

  void done();

 private:
  std::string& out_;
  bool first_ = true;
  bool closed_ = false;
};

}  // namespace parastack::obs
