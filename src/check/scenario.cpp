#include "check/scenario.hpp"

#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "sim/platform.hpp"
#include "util/rng.hpp"

namespace parastack::check {

namespace {

constexpr int kNranksChoices[] = {4, 8, 12, 16, 24, 32, 48, 64};

std::optional<faults::FaultType> fault_from_name(std::string_view name) {
  for (const auto type :
       {faults::FaultType::kNone, faults::FaultType::kComputeHang,
        faults::FaultType::kCommDeadlock, faults::FaultType::kTransientSlowdown,
        faults::FaultType::kNodeFreeze}) {
    if (faults::fault_type_name(type) == name) return type;
  }
  return std::nullopt;
}

std::optional<int> platform_from_name(std::string_view name) {
  for (int i = 0; i < 3; ++i) {
    if (platform_name(i) == name) return i;
  }
  return std::nullopt;
}

}  // namespace

const char* default_fuzz_input(workloads::Bench bench) noexcept {
  switch (bench) {
    case workloads::Bench::kHPL:
      return "40000";
    case workloads::Bench::kHPCG:
      return "64";
    default:
      return "C";  // NPB class C: the test-speed input the suite uses
  }
}

const char* platform_name(int platform) noexcept {
  switch (platform) {
    case 1:
      return "Tianhe-2";
    case 2:
      return "Stampede";
    default:
      return "Tardis";
  }
}

Scenario generate_scenario(std::uint64_t fuzz_seed) {
  // Decorrelate the generator's stream from the run seeds it hands out:
  // scenario shape and simulation randomness must never share draws.
  std::uint64_t state = fuzz_seed ^ 0x5ca1ab1e0ddba11ULL;
  util::Rng rng(util::splitmix64(state));

  Scenario s;
  s.fuzz_seed = fuzz_seed;
  s.run_seed = rng.next() | 1;  // nonzero, odd: never the "derive me" 0

  s.bench = workloads::kAllBenches[rng.uniform_int(
      std::uint64_t{std::size(workloads::kAllBenches)})];
  s.input = default_fuzz_input(s.bench);
  s.nranks =
      kNranksChoices[rng.uniform_int(std::uint64_t{std::size(kNranksChoices)})];
  s.platform = static_cast<int>(rng.uniform_int(std::uint64_t{3}));
  s.horizon = static_cast<sim::Time>(rng.uniform_int(60, 240)) * sim::kSecond;

  const double fault_draw = rng.uniform();
  if (fault_draw < 0.40) {
    s.fault = faults::FaultType::kNone;
  } else if (fault_draw < 0.60) {
    s.fault = faults::FaultType::kComputeHang;
  } else if (fault_draw < 0.75) {
    s.fault = faults::FaultType::kCommDeadlock;
  } else if (fault_draw < 0.90) {
    s.fault = faults::FaultType::kTransientSlowdown;
  } else {
    s.fault = faults::FaultType::kNodeFreeze;
  }

  s.background_slowdowns = rng.bernoulli(0.7);
  s.use_monitor_network = rng.bernoulli(0.85);
  s.with_timeout_detector = rng.bernoulli(0.3);
  s.with_io_watchdog = rng.bernoulli(0.2);

  if (s.use_monitor_network) {
    if (rng.bernoulli(0.3)) s.tool_loss = rng.uniform(0.02, 0.30);
    if (rng.bernoulli(0.2)) {
      s.tool_delay_mean = sim::from_millis(rng.uniform_int(1, 20));
    }
    if (rng.bernoulli(0.2)) {
      s.tool_monitor_crashes = static_cast<int>(rng.uniform_int(1, 2));
    }
    s.tool_lead_crash = rng.bernoulli(0.1);
  }

  s.campaign_runs = static_cast<int>(rng.uniform_int(2, 3));

  // Tree dimension drawn last: every earlier field keeps the value the same
  // fuzz seed produced before this dimension existed.
  if (s.use_monitor_network && rng.bernoulli(0.35)) {
    constexpr int kFanouts[] = {2, 3, 4, 8};
    s.tree_fanout =
        kFanouts[rng.uniform_int(std::uint64_t{std::size(kFanouts)})];
  }

  // Recovery dimension, drawn after the tree for the same reason: a fuzz
  // seed's pre-recovery scenario shape never changes under this addition.
  if (rng.bernoulli(0.35)) {
    const double pick = rng.uniform();
    if (pick < 0.40) {
      s.recovery_policy = 1;  // ckpt
      constexpr int kIntervals[] = {15, 30, 60};
      s.recovery_param =
          kIntervals[rng.uniform_int(std::uint64_t{std::size(kIntervals)})];
    } else if (pick < 0.70) {
      s.recovery_policy = 2;  // spare
      s.recovery_param = static_cast<int>(rng.uniform_int(1, 2));
    } else {
      s.recovery_policy = 3;  // team
      s.recovery_param = static_cast<int>(rng.uniform_int(2, 3));
    }
    if (rng.bernoulli(0.25)) s.recovery_refault = 1;
  }

  // Fleet dimension, drawn last (same stability contract as the tree and
  // recovery dimensions above): most seeds stay single-job — the fleet
  // oracles are the sweep's most expensive, one simulation per tenant.
  if (rng.bernoulli(0.20)) {
    s.fleet_jobs = static_cast<int>(rng.uniform_int(2, 3));
    s.fleet_arrival = rng.bernoulli(0.4) ? 1 : 0;
  }
  return s;
}

recover::RecoverySpec Scenario::recovery_spec() const {
  recover::RecoverySpec spec;
  switch (recovery_policy) {
    case 1:
      spec.policy = recover::RecoveryPolicy::kCheckpointRestart;
      spec.checkpoint_interval = recovery_param * sim::kSecond;
      break;
    case 2:
      spec.policy = recover::RecoveryPolicy::kSpareFailover;
      spec.spare_count = recovery_param;
      break;
    case 3:
      spec.policy = recover::RecoveryPolicy::kTeamReplication;
      spec.replicas = recovery_param;
      break;
    default:
      break;
  }
  spec.refault_attempts = recovery_refault;
  return spec;
}

harness::RunConfig to_run_config(const Scenario& scenario) {
  harness::RunConfig config;
  config.bench = scenario.bench;
  config.input = scenario.input;
  config.nranks = scenario.nranks;
  config.platform = *sim::platform_by_name(platform_name(scenario.platform));
  config.seed = scenario.run_seed;
  config.background_slowdowns = scenario.background_slowdowns;
  config.use_monitor_network = scenario.use_monitor_network;
  config.walltime_override = scenario.horizon;

  config.fault = scenario.fault;
  if (scenario.fault != faults::FaultType::kNone) {
    // Absolute window: late enough for the model to be built, early enough
    // that verification fits inside the horizon.
    config.fault_trigger_lo =
        static_cast<sim::Time>(0.30 * static_cast<double>(scenario.horizon));
    config.fault_trigger_hi =
        static_cast<sim::Time>(0.60 * static_cast<double>(scenario.horizon));
  }

  if (scenario.with_timeout_detector) {
    config.spec(core::DetectorKind::kTimeout);
  }
  if (scenario.with_io_watchdog) {
    // Halve the watchdog's 1-hour default so its detection path is actually
    // reachable inside the fuzz horizon (it observes; only the primary
    // ParaStack spec kills).
    auto& watchdog = config.io_watchdog_config();
    watchdog.timeout = scenario.horizon / 2;
    watchdog.poll_interval = 5 * sim::kSecond;
  }

  if (scenario.tool_faults_armed()) {
    faults::ToolFaultPlan plan;
    plan.loss_probability = scenario.tool_loss;
    plan.delay_mean = scenario.tool_delay_mean;
    for (int k = 0; k < scenario.tool_monitor_crashes; ++k) {
      faults::MonitorCrash crash;
      crash.monitor = -1;  // random non-lead victim, drawn from the plan seed
      crash.at = static_cast<sim::Time>(
          static_cast<double>(scenario.horizon) *
          (0.30 + 0.40 * static_cast<double>(k + 1) /
                      static_cast<double>(scenario.tool_monitor_crashes + 1)));
      plan.monitor_crashes.push_back(crash);
    }
    if (scenario.tool_lead_crash) plan.lead_crash_at = scenario.horizon / 2;
    config.tool_faults = plan;
  }
  if (scenario.use_monitor_network && scenario.tree_fanout > 0) {
    config.monitor_tree.fanout = scenario.tree_fanout;
  }
  if (scenario.recovery_policy != 0) {
    config.recovery = scenario.recovery_spec();
  }
  return config;
}

std::string to_repro(const Scenario& s) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof buffer,
      "v1,fseed=%llu,rseed=%llu,bench=%s,input=%s,ranks=%d,platform=%s,"
      "horizon-ms=%lld,fault=%s,bg=%d,net=%d,timeout=%d,iow=%d,loss=%.17g,"
      "delay-us=%lld,crashes=%d,lead=%d,runs=%d,tree=%d",
      static_cast<unsigned long long>(s.fuzz_seed),
      static_cast<unsigned long long>(s.run_seed),
      std::string(workloads::bench_name(s.bench)).c_str(), s.input.c_str(),
      s.nranks, platform_name(s.platform),
      static_cast<long long>(s.horizon / sim::kMillisecond),
      std::string(faults::fault_type_name(s.fault)).c_str(),
      s.background_slowdowns ? 1 : 0, s.use_monitor_network ? 1 : 0,
      s.with_timeout_detector ? 1 : 0, s.with_io_watchdog ? 1 : 0, s.tool_loss,
      static_cast<long long>(s.tool_delay_mean / sim::kMicrosecond),
      s.tool_monitor_crashes, s.tool_lead_crash ? 1 : 0, s.campaign_runs,
      s.tree_fanout);
  std::string out = buffer;
  // Recovery keys only when armed: repro strings for recovery-free
  // scenarios stay byte-identical to the pre-recovery format.
  if (s.recovery_policy != 0) {
    std::snprintf(
        buffer, sizeof buffer, ",recovery=%s,rparam=%d,refault=%d",
        recover::recovery_policy_name(s.recovery_spec().policy).data(),
        s.recovery_param, s.recovery_refault);
    out += buffer;
  }
  // Fleet keys only for multi-tenant scenarios, same stability contract.
  if (s.fleet_jobs > 1) {
    std::snprintf(buffer, sizeof buffer, ",fleet=%d,arrival=%s", s.fleet_jobs,
                  s.fleet_arrival == 1 ? "trace" : "poisson");
    out += buffer;
  }
  return out;
}

std::optional<Scenario> parse_repro(const std::string& repro) {
  std::vector<std::string_view> tokens;
  std::string_view rest = repro;
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    tokens.push_back(rest.substr(0, comma));
    if (comma == std::string_view::npos) break;
    rest.remove_prefix(comma + 1);
  }
  if (tokens.empty() || tokens.front() != "v1") return std::nullopt;

  Scenario s;
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const auto eq = tokens[i].find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = tokens[i].substr(0, eq);
    const std::string value(tokens[i].substr(eq + 1));
    if (key == "fseed") {
      s.fuzz_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "rseed") {
      s.run_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "bench") {
      const auto bench = workloads::bench_by_name(value);
      if (!bench) return std::nullopt;
      s.bench = *bench;
    } else if (key == "input") {
      s.input = value;
    } else if (key == "ranks") {
      s.nranks = std::atoi(value.c_str());
      if (s.nranks < 2) return std::nullopt;
    } else if (key == "platform") {
      const auto platform = platform_from_name(value);
      if (!platform) return std::nullopt;
      s.platform = *platform;
    } else if (key == "horizon-ms") {
      s.horizon = std::strtoll(value.c_str(), nullptr, 10) * sim::kMillisecond;
      if (s.horizon <= 0) return std::nullopt;
    } else if (key == "fault") {
      const auto fault = fault_from_name(value);
      if (!fault) return std::nullopt;
      s.fault = *fault;
    } else if (key == "bg") {
      s.background_slowdowns = value == "1";
    } else if (key == "net") {
      s.use_monitor_network = value == "1";
    } else if (key == "timeout") {
      s.with_timeout_detector = value == "1";
    } else if (key == "iow") {
      s.with_io_watchdog = value == "1";
    } else if (key == "loss") {
      s.tool_loss = std::strtod(value.c_str(), nullptr);
      if (s.tool_loss < 0.0 || s.tool_loss > 1.0) return std::nullopt;
    } else if (key == "delay-us") {
      s.tool_delay_mean =
          std::strtoll(value.c_str(), nullptr, 10) * sim::kMicrosecond;
    } else if (key == "crashes") {
      s.tool_monitor_crashes = std::atoi(value.c_str());
    } else if (key == "lead") {
      s.tool_lead_crash = value == "1";
    } else if (key == "runs") {
      s.campaign_runs = std::atoi(value.c_str());
      if (s.campaign_runs < 1) return std::nullopt;
    } else if (key == "tree") {
      s.tree_fanout = std::atoi(value.c_str());
      if (s.tree_fanout < 0) return std::nullopt;
    } else if (key == "recovery") {
      if (value == "none") {
        s.recovery_policy = 0;
      } else if (value == "ckpt") {
        s.recovery_policy = 1;
      } else if (value == "spare") {
        s.recovery_policy = 2;
      } else if (value == "team") {
        s.recovery_policy = 3;
      } else {
        return std::nullopt;
      }
    } else if (key == "rparam") {
      s.recovery_param = std::atoi(value.c_str());
      if (s.recovery_param < 0) return std::nullopt;
    } else if (key == "refault") {
      s.recovery_refault = std::atoi(value.c_str());
      if (s.recovery_refault < 0) return std::nullopt;
    } else if (key == "fleet") {
      s.fleet_jobs = std::atoi(value.c_str());
      if (s.fleet_jobs < 1) return std::nullopt;
    } else if (key == "arrival") {
      if (value == "poisson") {
        s.fleet_arrival = 0;
      } else if (value == "trace") {
        s.fleet_arrival = 1;
      } else {
        return std::nullopt;
      }
    } else {
      return std::nullopt;  // unknown key: refuse to half-reproduce
    }
  }
  // Checked once every key is read: the rule depends on the bench.
  if (!workloads::valid_input(s.bench, s.input)) return std::nullopt;
  return s;
}

}  // namespace parastack::check
