#include "obs/perf.hpp"

#include "obs/json.hpp"

namespace parastack::obs::perf {

void ProfileRegistry::write_json(std::ostream& out,
                                 bool include_timers) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string doc;
  JsonObject root(doc);
  root.key("counters");
  {
    JsonObject counters(doc);
    for (const auto& [name, c] : counters_) counters.field(name, c.value());
  }
  root.key("high_water");
  {
    JsonObject high_waters(doc);
    for (const auto& [name, g] : high_waters_) {
      high_waters.field(name, g.value());
    }
  }
  if (include_timers) {
    root.key("timers");
    JsonObject timers(doc);
    for (const auto& [name, t] : timers_) {
      timers.key(name);
      JsonObject timer(doc);
      timer.field("ns", t.nanos()).field("calls", t.calls());
    }
  }
  root.done();
  out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
}

}  // namespace parastack::obs::perf
