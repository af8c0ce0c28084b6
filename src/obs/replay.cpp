#include "obs/replay.hpp"

#include <type_traits>

namespace parastack::obs {

std::string_view RecordingSink::intern(std::string_view view) {
  if (view.empty()) return {};
  arena_.emplace_back(view);
  return arena_.back();
}

void RecordingSink::on_event(const Event& event) {
  std::visit(
      [this](auto& e) {
        using E = std::decay_t<decltype(e)>;
        if constexpr (requires { e.detector; }) e.detector = intern(e.detector);
        if constexpr (std::is_same_v<E, StreakEvent>) {
          e.reason = intern(e.reason);
        } else if constexpr (std::is_same_v<E, SweepEvent>) {
          e.purpose = intern(e.purpose);
        } else if constexpr (std::is_same_v<E, DetectionEvent>) {
          e.kind = intern(e.kind);
        } else if constexpr (std::is_same_v<E, FaultEvent>) {
          e.type = intern(e.type);
        } else if constexpr (std::is_same_v<E, RunStartEvent>) {
          e.bench = intern(e.bench);
          e.input = intern(e.input);
          e.platform = intern(e.platform);
          e.fault_planned = intern(e.fault_planned);
        } else if constexpr (std::is_same_v<E, RecoveryEvent>) {
          e.policy = intern(e.policy);
          e.action = intern(e.action);
        } else if constexpr (std::is_same_v<E, DetectionSpanEvent>) {
          e.span = intern(e.span);
        } else if constexpr (std::is_same_v<E, RankSpanEvent>) {
          e.func = intern(e.func);
        }
      },
      events_.emplace_back(event));
}

void RecordingSink::replay(TelemetrySink& target) const {
  for (const Event& event : events_) target.on_event(event);
}

}  // namespace parastack::obs
