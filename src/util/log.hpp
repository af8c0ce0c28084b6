#pragma once

#include <cstdio>
#include <optional>
#include <string_view>

namespace parastack::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-wide log threshold; defaults to kWarn so library users see
/// problems but campaigns stay quiet, overridable with the
/// PARASTACK_LOG_LEVEL environment variable (read once, on first use) or
/// explicitly via set_log_level (e.g. psim's --log-level flag, which wins
/// over the environment). The threshold is atomic: each simulated run is
/// single-threaded, but the campaign harness executes runs on concurrent
/// workers that all consult it.
void set_log_level(LogLevel level) noexcept;
LogLevel log_level() noexcept;

/// Parse "debug" / "info" / "warn" / "error" / "off" (case-sensitive);
/// nullopt on anything else.
std::optional<LogLevel> parse_log_level(std::string_view name) noexcept;

/// Emit one line to stderr if `level` passes the threshold.
void log(LogLevel level, std::string_view component, std::string_view message);

/// A printf-style debug line from the detector (component "parastack"),
/// wired to --log-level / PARASTACK_LOG_LEVEL. The guard keeps snprintf off
/// the common path.
template <typename... Args>
void debug_log(const char* format, Args... args) {
  if (log_level() > LogLevel::kDebug) return;
  char buf[256];
  std::snprintf(buf, sizeof buf, format, args...);
  log(LogLevel::kDebug, "parastack", buf);
}

}  // namespace parastack::util
