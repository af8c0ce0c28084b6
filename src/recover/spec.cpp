#include "recover/spec.hpp"

#include <cstdlib>
#include <string>
#include <vector>

namespace parastack::recover {

std::string_view recovery_policy_name(RecoveryPolicy policy) noexcept {
  switch (policy) {
    case RecoveryPolicy::kNone:
      return "none";
    case RecoveryPolicy::kCheckpointRestart:
      return "ckpt";
    case RecoveryPolicy::kSpareFailover:
      return "spare";
    case RecoveryPolicy::kTeamReplication:
      return "team";
  }
  return "?";
}

namespace {

/// Split "a,b,c" into trimmed-nothing pieces (the syntax has no spaces).
std::vector<std::string> split_args(std::string_view text) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t comma = text.find(',', begin);
    if (comma == std::string_view::npos) {
      out.emplace_back(text.substr(begin));
      break;
    }
    out.emplace_back(text.substr(begin, comma - begin));
    begin = comma + 1;
  }
  return out;
}

bool parse_seconds(const std::string& text, sim::Time* out) {
  char* end = nullptr;
  const double seconds = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || seconds <= 0.0) return false;
  *out = sim::from_seconds(seconds);
  return true;
}

bool parse_count(const std::string& text, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || value < 1) return false;
  *out = static_cast<int>(value);
  return true;
}

}  // namespace

std::optional<RecoverySpec> parse_recovery(std::string_view text) {
  RecoverySpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view name = text.substr(0, colon);
  const std::string_view rest = colon == std::string_view::npos
                                    ? std::string_view{}
                                    : text.substr(colon + 1);
  if (name == "none") {
    if (colon != std::string_view::npos) return std::nullopt;
    return spec;
  }
  if (name == "ckpt") {
    spec.policy = RecoveryPolicy::kCheckpointRestart;
    if (colon == std::string_view::npos) return spec;
    const auto args = split_args(rest);
    if (args.empty() || args.size() > 2) return std::nullopt;
    if (!parse_seconds(args[0], &spec.checkpoint_interval)) return std::nullopt;
    if (args.size() == 2 && !parse_seconds(args[1], &spec.checkpoint_cost)) {
      return std::nullopt;
    }
    return spec;
  }
  if (name == "spare") {
    spec.policy = RecoveryPolicy::kSpareFailover;
    if (colon == std::string_view::npos) return spec;
    const auto args = split_args(rest);
    if (args.size() != 1 || !parse_count(args[0], &spec.spare_count)) {
      return std::nullopt;
    }
    return spec;
  }
  if (name == "team") {
    spec.policy = RecoveryPolicy::kTeamReplication;
    if (colon == std::string_view::npos) return spec;
    const auto args = split_args(rest);
    if (args.size() != 1 || !parse_count(args[0], &spec.replicas)) {
      return std::nullopt;
    }
    if (spec.replicas < 2) return std::nullopt;  // one team is no replication
    return spec;
  }
  return std::nullopt;
}

}  // namespace parastack::recover
