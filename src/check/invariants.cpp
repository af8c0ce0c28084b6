#include "check/invariants.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "obs/journal.hpp"
#include "simmpi/comm_engine.hpp"

namespace parastack::check {

namespace {

std::string format(const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof buffer, fmt, args);
  va_end(args);
  return buffer;
}

}  // namespace

void InvariantSink::violation(std::string what) {
  if (violations_.size() >= kMaxViolations) {
    ++suppressed_;
    return;
  }
  violations_.push_back(std::move(what));
}

void InvariantSink::clock(sim::Time t, std::string_view what) {
  const int n = static_cast<int>(what.size());
  if (t < 0) {
    violation(format("%.*s carries negative time %lld", n, what.data(),
                     static_cast<long long>(t)));
    return;
  }
  if (t < last_time_) {
    violation(format("virtual time went backwards: %.*s at %lld after %lld",
                     n, what.data(), static_cast<long long>(t),
                     static_cast<long long>(last_time_)));
    return;
  }
  if (run_ended_) {
    violation(format("%.*s emitted after run_end", n, what.data()));
  }
  last_time_ = t;
}

void InvariantSink::on_event(const obs::Event& event) {
  std::visit(
      [&](const auto& e) {
        if constexpr (requires { e.time; }) {
          clock(e.time, obs::event_name(event));
        }
        check(e);
      },
      event);
}

InvariantSink::DetectorState& InvariantSink::detector(std::string_view label) {
  const auto it = detectors_.find(label);
  if (it != detectors_.end()) return it->second;
  return detectors_.emplace(std::string(label), DetectorState{}).first->second;
}

void InvariantSink::check(const obs::SampleEvent& e) {
  if (e.scrout < 0.0 || e.scrout > 1.0) {
    violation(format("S_crout %.6f outside [0, 1]", e.scrout));
  }
  if (e.coverage < 0.0 || e.coverage > 1.0) {
    violation(format("sample coverage %.6f outside [0, 1]", e.coverage));
  }
  if (e.interval <= 0) violation("sample with non-positive interval I");
  // Streak bookkeeping mirrored from the sample's own counters: a sample
  // can only grow the streak by one (zero-coverage samples keep it flat).
  DetectorState& det = detector(e.detector);
  if (e.streak > det.streak + 1) {
    violation(format("streak jumped %zu -> %zu in one sample", det.streak,
                     e.streak));
  }
  det.streak = e.streak;
  if (e.streak == 0) det.verified = false;
}

void InvariantSink::check(const obs::RunsTestEvent& e) {
  if (e.runs > e.sample_size) {
    violation(format("runs test reported %zu runs over %zu samples", e.runs,
                     e.sample_size));
  }
  if (e.n_pos + e.n_neg != e.sample_size) {
    violation("runs test pos/neg split does not sum to sample size");
  }
}

void InvariantSink::check(const obs::IntervalEvent& e) {
  if (!e.capped && e.new_interval != 2 * e.old_interval) {
    violation(format("interval step %lld -> %lld is not a doubling",
                     static_cast<long long>(e.old_interval),
                     static_cast<long long>(e.new_interval)));
  }
}

void InvariantSink::check(const obs::StreakEvent& e) {
  DetectorState& det = detector(e.detector);
  switch (e.kind) {
    case obs::StreakEvent::Kind::kAdvance:
      if (e.length != det.streak && e.length != det.streak + 1) {
        violation(format("streak advance to %zu from %zu", e.length,
                         det.streak));
      }
      det.streak = e.length;
      break;
    case obs::StreakEvent::Kind::kReset:
      det.streak = 0;
      det.verified = false;
      break;
    case obs::StreakEvent::Kind::kVerify:
      if (e.required != 0 && e.length < e.required) {
        violation(format("verification started at streak %zu < required %zu",
                         e.length, e.required));
      }
      det.verified = true;
      break;
  }
}

void InvariantSink::check(const obs::FilterEvent& e) {
  if (e.round < 0) violation("filter round went negative");
}

void InvariantSink::check(const obs::SweepEvent& e) {
  if (e.ranks <= 0) violation("sweep over a non-positive rank count");
}

void InvariantSink::check(const obs::HangEvent& e) {
  DetectorState& det = detector(e.detector);
  if (!det.verified) {
    violation("hang verdict without a completed verification streak");
  }
  ++det.hangs;
}

void InvariantSink::check(const obs::SlowdownEvent& e) {
  DetectorState& det = detector(e.detector);
  if (!det.verified) {
    violation("slowdown verdict without a completed verification streak");
  }
}

void InvariantSink::check(const obs::DetectionSpanEvent& e) {
  if (e.begin < 0) violation("detection span begins before t=0");
  if (e.end < e.begin) violation("detection span ends before it begins");
  if (e.end > e.time) {
    violation("detection span ends after its emission time");
  }
}

void InvariantSink::check(const obs::MonitorSampleEvent& e) {
  if (e.coverage < 0.0 || e.coverage > 1.0) {
    violation(format("monitor coverage %.6f outside [0, 1]", e.coverage));
  }
  if (e.partials_missing < 0 || e.partials_missing > e.active_monitors) {
    violation(format("%d partials missing from %d active monitors",
                     e.partials_missing, e.active_monitors));
  }
  if (e.active_monitors > e.monitor_count) {
    violation("more active monitors than monitors launched");
  }
  if (e.aggregation_latency < 0) violation("negative aggregation latency");
  if (e.degraded && e.coverage > 0.0) {
    violation("degraded (blind) sample claims positive coverage");
  }
}

void InvariantSink::check(const obs::MonitorCrashEvent& e) {
  if (monitors_alive_ >= 0 && e.alive != monitors_alive_ - 1) {
    violation(format("monitor population %d -> %d across one crash",
                     monitors_alive_, e.alive));
  }
  monitors_alive_ = e.alive;
  if (e.alive < 0) violation("negative monitor population");
}

void InvariantSink::check(const obs::LeadFailoverEvent& e) {
  if (e.to == e.from) violation("lead failover re-elected the dead lead");
}

void InvariantSink::check(const obs::SampleTimeoutEvent& e) {
  if (e.retries < 0) violation("negative retry count");
}

void InvariantSink::check(const obs::DegradedModeEvent& e) {
  DetectorState& det = detector(e.detector);
  if (e.entered == det.degraded) {
    violation(e.entered ? "degraded mode entered twice without an exit"
                        : "degraded mode exited while not degraded");
  }
  det.degraded = e.entered;
}

void InvariantSink::check(const obs::PhaseChangeEvent& e) {
  if (e.from_phase == e.to_phase) violation("phase change to the same phase");
}

void InvariantSink::check(const obs::FaultEvent&) {
  if (++faults_activated_ > fault_budget_) {
    violation("application fault activated more than once per attempt");
  }
}

void InvariantSink::check(const obs::RecoveryEvent& e) {
  if (e.attempt <= last_recovery_attempt_) {
    violation(format("recovery attempt %d after attempt %d", e.attempt,
                     last_recovery_attempt_));
  }
  last_recovery_attempt_ = e.attempt;
  if (e.overhead < 0) violation("negative recovery overhead");
  if (e.action == "restore") {
    if (e.resume_from > e.time) {
      violation("restore resumes from a snapshot taken after the kill");
    }
    if (e.next_start < e.time + e.overhead) {
      violation("restored attempt starts before kill time plus overhead");
    }
    // A restore launches a fresh world: the fault may re-arm, the fresh
    // detectors re-derive their own streak/degraded state, and the monitor
    // population is relaunched from scratch.
    ++fault_budget_;
    monitors_alive_ = -1;
    for (auto& [label, det] : detectors_) {
      det.streak = 0;
      det.verified = false;
      det.degraded = false;
    }
  } else if (e.action != "give-up") {
    violation(format("unknown recovery action '%.*s'",
                     static_cast<int>(e.action.size()), e.action.data()));
  }
}

void InvariantSink::check(const obs::RunStartEvent& e) {
  if (run_started_) violation("second run_start within one run");
  run_started_ = true;
  if (e.nranks < 2) violation("run_start with fewer than two ranks");
  if (e.walltime <= 0) violation("run_start with non-positive walltime");
}

void InvariantSink::check(const obs::RunEndEvent& e) {
  if (!run_started_) violation("run_end without run_start");
  if (run_ended_) violation("second run_end within one run");
  run_ended_ = true;
  if (e.completed && e.killed) violation("run both completed and killed");
  if (e.completed && e.finish_time < 0) {
    violation("completed run without a finish time");
  }
  // Cross-check the end-of-run summary against the verdicts we counted.
  std::size_t hangs = 0;
  for (const auto& [label, det] : detectors_) hangs += det.hangs;
  if (static_cast<std::size_t>(e.hangs) != hangs) {
    violation(format("run_end reports %d hangs; stream carried %zu", e.hangs,
                     hangs));
  }
}

void check_run_invariants(const simmpi::World& world,
                          const harness::RunResult& result,
                          std::vector<std::string>& out) {
  const sim::Engine& engine = world.engine();
  if (engine.last_event_time() > engine.now()) {
    out.push_back(format("engine fired an event at %lld beyond now()=%lld",
                         static_cast<long long>(engine.last_event_time()),
                         static_cast<long long>(engine.now())));
  }
  if (engine.events_fired() == 0) {
    out.push_back("run ended without firing a single event");
  }
  // Scheduling ledger conservation. Nothing is cancelled, so every
  // scheduled event has either fired or is still pending.
  if (engine.events_scheduled() !=
      engine.events_fired() + engine.events_pending()) {
    out.push_back(format(
        "engine ledger out of balance: scheduled %llu != fired %llu + "
        "pending %zu",
        static_cast<unsigned long long>(engine.events_scheduled()),
        static_cast<unsigned long long>(engine.events_fired()),
        engine.events_pending()));
  }

  const simmpi::CommEngine& comm = world.comm();
  const std::uint64_t posted_min =
      std::min(comm.sends_posted(), comm.recvs_posted());
  if (comm.matches() > posted_min) {
    out.push_back(format("comm matched %llu pairs from %llu/%llu posted ops",
                         static_cast<unsigned long long>(comm.matches()),
                         static_cast<unsigned long long>(comm.sends_posted()),
                         static_cast<unsigned long long>(comm.recvs_posted())));
  }
  if (comm.pending_sends() != comm.sends_posted() - comm.matches() ||
      comm.pending_recvs() != comm.recvs_posted() - comm.matches()) {
    out.push_back("comm conservation ledger out of balance: "
                  "pending != posted - matched");
  }

  const bool fault_free = result.fault.type == faults::FaultType::kNone ||
                          result.fault.type ==
                              faults::FaultType::kTransientSlowdown ||
                          !result.fault.activated();
  if (fault_free && comm.mismatch_count() != 0) {
    out.push_back(format("collective mismatch count %llu without a deadlock "
                         "fault",
                         static_cast<unsigned long long>(
                             comm.mismatch_count())));
  }
  if (result.completed && fault_free) {
    if (comm.pending_sends() != 0 || comm.pending_recvs() != 0) {
      out.push_back(format(
          "completed fault-free run left %llu sends / %llu recvs unmatched",
          static_cast<unsigned long long>(comm.pending_sends()),
          static_cast<unsigned long long>(comm.pending_recvs())));
    }
    if (comm.open_collectives() != 0) {
      out.push_back(format("completed fault-free run left %zu collective "
                           "instances open",
                           comm.open_collectives()));
    }
  }
  if (result.completed && result.finish_time &&
      *result.finish_time > result.end_time) {
    out.push_back("finish_time after end_time");
  }
}

}  // namespace parastack::check
