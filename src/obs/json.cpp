#include "obs/json.hpp"

#include <cmath>

namespace parastack::obs {

void json_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // first byte not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void json_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];  // "-d.dddddddde-308" needs 16
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value,
                                std::chars_format::general, 9)
                      .ptr);
}

JsonObject& JsonObject::key(std::string_view k) {
  if (!first_) out_ += ',';
  first_ = false;
  json_string(out_, k);
  out_ += ':';
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::string_view value) {
  key(k);
  json_string(out_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, int value) {
  key(k);
  json_integer(out_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::int64_t value) {
  key(k);
  json_integer(out_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, std::uint64_t value) {
  key(k);
  json_integer(out_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k, double value) {
  key(k);
  json_number(out_, value);
  return *this;
}

JsonObject& JsonObject::field(std::string_view k,
                              const std::vector<int>& values) {
  key(k);
  out_ += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_ += ',';
    json_integer(out_, values[i]);
  }
  out_ += ']';
  return *this;
}

void JsonObject::done() {
  if (closed_) return;
  closed_ = true;
  out_ += '}';
}

}  // namespace parastack::obs
