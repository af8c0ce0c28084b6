#pragma once

#include <charconv>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace parastack::util {

/// Minimal GNU-style argument parser for the CLI tools:
/// `--key value`, `--key=value`, bare `--flag`, and positionals.
/// No external dependencies; order-independent lookup.
class Args {
 public:
  Args(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// Value of `--name`; `fallback` when absent. A bare flag yields "".
  std::string get(const std::string& name,
                  const std::string& fallback = "") const;

  /// The numeric getter: the value of `--name` parsed whole as a T, or
  /// `fallback` when the option is absent. Throws std::invalid_argument,
  /// with a message that names the option, when the value is malformed,
  /// does not fit T, or lies outside [lo, hi] (NaN lies outside every
  /// range).
  template <typename T>
  T get_whole(const std::string& name, T fallback,
              T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max()) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    try {
      const T value = parse_whole<T>(it->second);
      if (value >= lo && value <= hi) return value;
    } catch (const std::invalid_argument&) {
    }
    std::string message = "bad --" + name + " value '" + it->second + "'";
    if constexpr (std::is_integral_v<T>) {
      message += " (expected an integer from " + std::to_string(lo) +
                 " to " + std::to_string(hi) + ")";
    } else {
      message += " (expected a number)";
    }
    throw std::invalid_argument(message);
  }

  /// Parse all of `text` as a T. Throws std::invalid_argument when the
  /// text is empty, has anything after the number (a sign an unsigned T
  /// cannot take included), or holds a value T cannot represent.
  template <typename T>
  static T parse_whole(const std::string& text) {
    T value{};
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    if (error != std::errc() || stop != end) {
      throw std::invalid_argument(text);
    }
    return value;
  }

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Keys that were passed but never queried — typo detection for tools.
  std::vector<std::string> unknown_keys(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace parastack::util
