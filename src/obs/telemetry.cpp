#include "obs/telemetry.hpp"

#include <utility>

#include "util/check.hpp"

namespace parastack::obs {

MultiSink::MultiSink(std::vector<TelemetrySink*> sinks)
    : sinks_(std::move(sinks)) {
  for (const auto* sink : sinks_) PS_CHECK(sink != nullptr, "null sink");
}

void MultiSink::add(TelemetrySink* sink) {
  PS_CHECK(sink != nullptr, "null sink");
  sinks_.push_back(sink);
}

void MultiSink::on_event(const Event& event) {
  for (auto* s : sinks_) s->on_event(event);
}

bool MultiSink::wants_rank_spans() const {
  for (const auto* s : sinks_) {
    if (s->wants_rank_spans()) return true;
  }
  return false;
}

}  // namespace parastack::obs
