#include "sim/engine.hpp"

#include "obs/perf.hpp"

namespace parastack::sim {

void Engine::set_perf(obs::perf::ProfileRegistry* registry) {
  flush_perf();  // retire pending deltas into the outgoing registry
  perf_ = registry;
  if (registry != nullptr) {
    perf_scheduled_ = registry->counter("sim.events_scheduled");
    perf_fired_ = registry->counter("sim.events_fired");
    perf_queue_depth_ = registry->high_water("sim.queue_depth");
  } else {
    perf_scheduled_ = nullptr;
    perf_fired_ = nullptr;
    perf_queue_depth_ = nullptr;
  }
  // Count only post-attach activity for the new registry, matching the old
  // per-event emission (the harness attaches after world construction).
  flushed_scheduled_ = scheduled_;
  flushed_fired_ = fired_;
  queue_depth_hw_ = 0;
}

void Engine::flush_perf() {
  if (perf_ == nullptr) return;
  PS_PERF_ADD(perf_scheduled_, scheduled_ - flushed_scheduled_);
  PS_PERF_ADD(perf_fired_, fired_ - flushed_fired_);
  PS_PERF_OBSERVE(perf_queue_depth_, queue_depth_hw_);
  flushed_scheduled_ = scheduled_;
  flushed_fired_ = fired_;
}

void Engine::run_until(Time t) {
  while (fire_next(t)) {
  }
  if (now_ < t) now_ = t;
  flush_perf();
}

void Engine::run_until_idle() {
  while (fire_next(std::numeric_limits<Time>::max())) {
  }
  flush_perf();
}

}  // namespace parastack::sim
