// psim — the ParaStack simulation CLI.
//
//   psim run      --bench LU --input D --ranks 256 --platform Tardis
//                 [--fault compute-hang|comm-deadlock|slowdown|freeze]
//                 [--seed N] [--detectors parastack,timeout,io-watchdog]
//                 [--alpha A]
//                 [--recovery none|ckpt[:INTERVAL,COST]|spare[:N]|team[:R]]
//                 [--tool-faults loss=P,crash=NODE@SEC,lead-crash=SEC,...]
//                 [--journal FILE] [--metrics-out FILE] [--chrome-trace FILE]
//                 [--trace-ranks N] [--log-level LEVEL]
//                 [--fleet JOBS[,ARRIVAL,POOL]]
//   psim campaign --bench LU --runs 20 --fault compute-hang [--jobs N]
//                 [...run options]
//   psim submit   --bench HPL --ranks 256 --platform Tardis [--system slurm]
//   psim list     (available benchmarks, platforms, fault types)
//
// Everything is deterministic under --seed: rerunning with the same seed
// produces byte-identical journals and metrics files. Each subcommand
// rejects options it does not read (exit 2), so a mistyped flag never
// silently runs the default.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "harness/campaign.hpp"
#include "harness/runner.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "recover/spec.hpp"
#include "sched/scheduler.hpp"
#include "util/args.hpp"
#include "util/log.hpp"

using namespace parastack;
using util::Args;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: psim <run|campaign|submit|list> [options]\n"
               "  common: --bench NAME --input SIZE --ranks N --platform "
               "Tardis|Tianhe-2|Stampede --seed N\n"
               "  run:      --fault TYPE --detectors LIST (comma-separated "
               "parastack|timeout|io-watchdog;\n"
               "            first entry is the primary that kills the job) "
               "--alpha A\n"
               "  campaign: --runs N --fault TYPE --jobs N (0 = all "
               "hardware threads; results and\n"
               "            telemetry are byte-identical for any --jobs)\n"
               "  submit:   --system slurm|torque --walltime-min M\n"
               "  topology (run/campaign): --tree FANOUT routes monitor "
               "aggregation through a k-ary\n"
               "            tree (FANOUT 'inf' or 0 = the flat star "
               "default)\n"
               "  recovery (run/campaign): --recovery "
               "none|ckpt[:INTERVAL,COST]|spare[:COUNT]|team[:REPLICAS]\n"
               "            closes the detection loop — a detector kill "
               "restores the job instead of just\n"
               "            charging the loss (durations in seconds)\n"
               "  tool faults (run/campaign): --tool-faults "
               "key=value[,key=value...] with keys\n"
               "            loss|delay-ms|crash(NODE@SEC or rand@SEC)|"
               "lead-crash|seed|fallback\n"
               "  fleet (run): --fleet JOBS[,ARRIVAL,POOL] runs JOBS tenants "
               "through the shared detector\n"
               "            service (ARRIVAL poisson|trace, default poisson; "
               "POOL bounds the monitor pool,\n"
               "            0 = unbounded; --jobs N parallelizes the tenant "
               "simulations). --fleet=1\n"
               "            writes the plain run's artifacts plus one "
               "fleet_admit journal line and\n"
               "            three perf.fleet.* metrics\n"
               "  telemetry (run/campaign): --journal FILE --metrics-out FILE "
               "--chrome-trace FILE\n"
               "            --trace-ranks N --journal-spans "
               "--log-level debug|info|warn|error|off\n"
               "            (FILE may be '-' for stdout, for one of them at "
               "most)\n");
  return 2;
}

/// The telemetry sinks requested on the command line, owned for the whole
/// run/campaign. sink() is null when nothing was requested, so the hot path
/// stays free.
struct Telemetry {
  std::string journal_path;
  std::ofstream journal_file;
  std::unique_ptr<obs::JsonlJournal> journal;
  obs::MetricsRegistry registry;
  obs::perf::ProfileRegistry perf;
  std::unique_ptr<obs::MetricsSink> metrics;
  std::string metrics_path;
  std::unique_ptr<obs::ChromeTraceWriter> trace;
  std::string trace_path;
  obs::MultiSink multi;
  bool stdout_taken = false;

  /// Human-oriented narration goes to stdout normally, but moves to stderr
  /// when a telemetry stream claimed stdout ('-') so the JSON stays clean.
  std::FILE* human() const noexcept { return stdout_taken ? stderr : stdout; }

  bool init(const util::Args& args) {
    // Parsed first, and even without --chrome-trace, so a bad value fails
    // before any file is opened and is never silently ignored.
    const int trace_ranks = args.get_whole<int>("trace-ranks", 8, 0);
    if (const std::string level = args.get("log-level", ""); !level.empty()) {
      const auto parsed = util::parse_log_level(level);
      if (!parsed) {
        std::fprintf(stderr,
                     "unknown log level '%s' "
                     "(expected debug|info|warn|error|off)\n",
                     level.c_str());
        return false;
      }
      util::set_log_level(*parsed);
    }
    journal_path = args.get("journal", "");
    metrics_path = args.get("metrics-out", "");
    trace_path = args.get("chrome-trace", "");
    // Each artifact is a JSON document (the journal one per line), so two
    // of them on stdout would interleave into text no parser reads.
    std::vector<const char*> on_stdout;
    if (journal_path == "-") on_stdout.push_back("--journal");
    if (metrics_path == "-") on_stdout.push_back("--metrics-out");
    if (trace_path == "-") on_stdout.push_back("--chrome-trace");
    if (on_stdout.size() > 1) {
      std::string flags = on_stdout.front();
      for (std::size_t i = 1; i < on_stdout.size(); ++i) {
        flags += i + 1 == on_stdout.size() ? " and " : ", ";
        flags += on_stdout[i];
      }
      std::fprintf(stderr,
                   "at most one telemetry artifact may go to stdout ('-'), "
                   "but %s do\n",
                   flags.c_str());
      return false;
    }
    stdout_taken = !on_stdout.empty();
    if (!journal_path.empty()) {
      obs::JsonlJournal::Options options;
      options.record_rank_spans = args.has("journal-spans");
      if (journal_path == "-") {
        journal = std::make_unique<obs::JsonlJournal>(std::cout, options);
      } else {
        journal_file.open(journal_path);
        if (!journal_file) {
          std::fprintf(stderr, "cannot open journal file '%s'\n",
                       journal_path.c_str());
          return false;
        }
        journal = std::make_unique<obs::JsonlJournal>(journal_file, options);
      }
      multi.add(journal.get());
    }
    if (!metrics_path.empty()) {
      metrics = std::make_unique<obs::MetricsSink>(registry);
      multi.add(metrics.get());
    }
    if (!trace_path.empty()) {
      obs::ChromeTraceWriter::Options options;
      options.max_ranks = trace_ranks;
      trace = std::make_unique<obs::ChromeTraceWriter>(options);
      multi.add(trace.get());
    }
    return true;
  }

  obs::TelemetrySink* sink() noexcept {
    return multi.empty() ? nullptr : &multi;
  }

  /// Perf-counter registry to attach to the run(s), or null when no metrics
  /// dump was requested (perf accounting off, near-zero cost).
  obs::perf::ProfileRegistry* perf_registry() noexcept {
    return metrics ? &perf : nullptr;
  }

  /// Write the buffered documents (metrics, chrome trace; the journal
  /// streamed as it went) and flush every stream. False when a file could
  /// not be opened or written: the artifact is lost, so the command fails.
  bool finish() {
    bool ok = true;
    const auto flush = [&ok](std::ostream& out, const std::string& path) {
      if (!out.flush()) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        ok = false;
      }
    };
    const auto write_doc = [&](const std::string& path, const auto& emit) {
      if (path == "-") {
        emit(std::cout);
        flush(std::cout, path);
        return;
      }
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
        ok = false;
        return;
      }
      emit(out);
      flush(out, path);
    };
    if (journal) {
      flush(journal_path == "-" ? std::cout : journal_file, journal_path);
    }
    if (metrics) {
      // Fold the deterministic perf counters into the metrics document
      // (high-waters keep their ".hw" suffix; wall-clock timers excluded).
      for (const auto& [name, value] : perf.counter_snapshot()) {
        registry.counter("perf." + name) += value;
      }
      write_doc(metrics_path,
                [this](std::ostream& out) { registry.write_json(out); });
    }
    if (trace) {
      write_doc(trace_path, [this](std::ostream& out) { trace->write(out); });
    }
    return ok;
  }
};

/// Largest --ranks psim accepts: far beyond the paper's 16k-rank runs, and
/// small enough that the node count of a submit ticket cannot overflow.
constexpr int kMaxRanks = 1 << 20;

/// Options every simulating subcommand reads through build_config().
const std::vector<std::string> kConfigKeys = {
    "bench",     "ranks", "input", "platform", "seed",       "fault",
    "detectors", "alpha", "tree",  "recovery", "tool-faults"};
/// Options Telemetry::init() reads.
const std::vector<std::string> kTelemetryKeys = {
    "log-level",   "journal",      "journal-spans",
    "metrics-out", "chrome-trace", "trace-ranks"};

/// True when every option on the command line is one `command` reads;
/// otherwise names each stray option on stderr.
bool known_options_only(const util::Args& args, const char* command,
                        std::vector<std::string> known,
                        const std::vector<std::string>& more = {}) {
  known.insert(known.end(), more.begin(), more.end());
  const auto unknown = args.unknown_keys(known);
  for (const auto& key : unknown) {
    std::fprintf(stderr, "psim %s: unknown option --%s\n", command,
                 key.c_str());
  }
  return unknown.empty();
}

faults::FaultType parse_fault(const std::string& name, bool& ok) {
  ok = true;
  if (name.empty() || name == "none") return faults::FaultType::kNone;
  if (name == "compute-hang") return faults::FaultType::kComputeHang;
  if (name == "comm-deadlock") return faults::FaultType::kCommDeadlock;
  if (name == "slowdown") return faults::FaultType::kTransientSlowdown;
  if (name == "freeze") return faults::FaultType::kNodeFreeze;
  ok = false;
  return faults::FaultType::kNone;
}

/// Parse the --tool-faults spec: comma-separated key=value entries, e.g.
///   --tool-faults=loss=0.05,crash=rand@120,lead-crash=200,fallback
/// Keys map onto faults::ToolFaultPlan (plus the harness fallback switch).
/// Unknown keys and malformed or out-of-range values are rejected loudly —
/// a typo must not silently run a faults-off campaign.
bool parse_tool_faults(const std::string& spec, harness::RunConfig& config) {
  constexpr const char* kKeys = "loss|delay-ms|crash|lead-crash|seed|fallback";
  faults::ToolFaultPlan& plan = config.tool_faults;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string entry = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t eq = entry.find('=');
    const std::string key = entry.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : entry.substr(eq + 1);
    // Every number must lie in its range; the caps keep each duration and
    // instant inside sim::Time.
    const auto number = [&key](const std::string& text, double hi,
                               const char* range) {
      const double x = Args::parse_whole<double>(text);
      if (x >= 0.0 && x <= hi) return x;
      throw std::invalid_argument(key + " takes " + range + ", not " + text);
    };
    const auto millis = [&](const std::string& text) {
      return sim::from_millis(number(text, 1e12, "0 to 1e12 ms"));
    };
    const auto seconds = [&](const std::string& text) {
      return sim::from_seconds(number(text, 1e9, "0 to 1e9 s"));
    };
    const auto node_id = [&](const std::string& text) {
      const int n = Args::parse_whole<int>(text);
      if (n >= 0) return n;
      throw std::invalid_argument(key + " takes 0 or more, not " + text);
    };
    if (key == "loss") {
      plan.loss_probability = number(value, 1.0, "0 to 1");
    } else if (key == "delay-ms") {
      plan.delay_mean = millis(value);
    } else if (key == "crash") {
      // NODE@SEC, or rand@SEC for a seed-chosen non-lead monitor.
      const std::size_t at = value.find('@');
      if (at == std::string::npos) {
        std::fprintf(stderr,
                     "bad tool-fault crash '%s' (expected NODE@SEC or "
                     "rand@SEC)\n",
                     value.c_str());
        return false;
      }
      faults::MonitorCrash crash;
      const std::string node = value.substr(0, at);
      crash.monitor = node == "rand" ? -1 : node_id(node);
      crash.at = seconds(value.substr(at + 1));
      plan.monitor_crashes.push_back(crash);
    } else if (key == "lead-crash") {
      plan.lead_crash_at = seconds(value);
    } else if (key == "seed") {
      plan.seed = Args::parse_whole<std::uint64_t>(value);
    } else if (key == "fallback") {
      config.degraded_fallback_timeout = true;
    } else {
      std::fprintf(stderr, "unknown tool-fault key '%s' (expected %s)\n",
                   key.c_str(), kKeys);
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

harness::RunConfig build_config(const util::Args& args, bool& ok) {
  harness::RunConfig config;
  const std::string bench = args.get("bench", "LU");
  const auto parsed_bench = workloads::bench_by_name(bench);
  if (!parsed_bench) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
    ok = false;
    return config;
  }
  config.bench = *parsed_bench;
  config.nranks = args.get_whole<int>("ranks", 256, 1, kMaxRanks);
  // --input is an NPB class, or a positive whole size for HPL and HPCG:
  // anything else would abort the profile build or run a nonsense size.
  config.input = args.get("input", "");
  if (args.has("input") &&
      !workloads::valid_input(config.bench, config.input)) {
    const bool sized = config.bench == workloads::Bench::kHPL ||
                       config.bench == workloads::Bench::kHPCG;
    throw std::invalid_argument(
        "bad --input value '" + config.input + "' (expected " +
        (sized ? "an integer from 1 to " +
                     std::to_string(std::numeric_limits<std::uint64_t>::max())
               : std::string("C, D or E")) +
        ")");
  }
  const std::string platform = args.get("platform", "Tianhe-2");
  const auto preset = sim::platform_by_name(platform);
  if (!preset) {
    std::fprintf(stderr,
                 "unknown platform '%s' (expected Tardis|Tianhe-2|Stampede)\n",
                 platform.c_str());
    ok = false;
    return config;
  }
  config.platform = *preset;
  config.seed = args.get_whole<std::uint64_t>("seed", 1);
  config.fault = parse_fault(args.get("fault", "none"), ok);
  if (!ok) {
    std::fprintf(stderr, "unknown fault type '%s'\n",
                 args.get("fault").c_str());
    return config;
  }
  if (const std::string list = args.get("detectors", ""); !list.empty()) {
    // Explicit bank: attachment order is the listed order, first = primary.
    config.detectors.clear();
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string name = list.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      if (name == "parastack") {
        config.detectors.push_back(harness::DetectorSpec::make_parastack());
      } else if (name == "timeout") {
        config.detectors.push_back(harness::DetectorSpec::make_timeout());
      } else if (name == "io-watchdog") {
        config.detectors.push_back(harness::DetectorSpec::make_io_watchdog());
      } else {
        std::fprintf(stderr,
                     "unknown detector '%s' "
                     "(expected parastack|timeout|io-watchdog)\n",
                     name.c_str());
        ok = false;
        return config;
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  // Read even when no ParaStack detector is attached, so a bad value is
  // never silently ignored.
  const double alpha = args.get_whole<double>("alpha", 0.001);
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("bad --alpha value '" + args.get("alpha") +
                                "' (expected 0 < A < 1)");
  }
  if (auto* parastack = config.find(core::DetectorKind::kParastack)) {
    parastack->parastack.alpha = alpha;
  }
  if (const std::string spec = args.get("tree", ""); !spec.empty()) {
    // FANOUT; 'inf' (or 0) keeps the flat star for A/B sweeps that drive
    // both shapes through one script.
    try {
      config.monitor_tree.fanout =
          spec == "inf" || spec == "star" ? 0 : Args::parse_whole<int>(spec);
      if (config.monitor_tree.fanout < 0) {
        throw std::invalid_argument("negative");
      }
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "bad --tree value '%s' (expected FANOUT >= 0 or 'inf')\n",
                   spec.c_str());
      ok = false;
      return config;
    }
  }
  if (const std::string spec = args.get("recovery", ""); !spec.empty()) {
    const auto parsed = recover::parse_recovery(spec);
    if (!parsed) {
      std::fprintf(stderr,
                   "bad --recovery value '%s' (expected none|"
                   "ckpt[:INTERVAL,COST]|spare[:COUNT]|team[:REPLICAS], "
                   "durations in seconds)\n",
                   spec.c_str());
      ok = false;
      return config;
    }
    config.recovery = *parsed;
  }
  if (const std::string spec = args.get("tool-faults", ""); !spec.empty()) {
    try {
      if (!parse_tool_faults(spec, config)) {
        ok = false;
        return config;
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "bad --tool-faults value in '%s': %s\n",
                   spec.c_str(), error.what());
      ok = false;
      return config;
    }
  }
  return config;
}

/// Parse the --fleet spec: JOBS[,ARRIVAL,POOL]. JOBS is the tenant count
/// (>= 1), ARRIVAL the arrival model (poisson|trace), POOL the shared
/// monitor-pool bound (0 = unbounded). Throws on malformed numbers; the
/// caller turns both paths into one diagnostic.
bool parse_fleet(const std::string& spec, fleet::FleetConfig& config) {
  std::size_t pos = 0;
  int field = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string value = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    switch (field) {
      case 0:
        config.arrivals.jobs = Args::parse_whole<int>(value);
        if (config.arrivals.jobs < 1) return false;
        break;
      case 1:
        if (value == "poisson") {
          config.arrivals.model = fleet::ArrivalModel::kPoisson;
        } else if (value == "trace") {
          config.arrivals.model = fleet::ArrivalModel::kTrace;
        } else {
          return false;
        }
        break;
      case 2:
        config.monitor_pool = Args::parse_whole<int>(value);
        if (config.monitor_pool < 0) return false;
        break;
      default:
        return false;  // trailing fields
    }
    ++field;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return field >= 1;
}

int cmd_run_fleet(const util::Args& args, const std::string& spec) {
  bool ok = true;
  fleet::FleetConfig fc;
  fc.base = build_config(args, ok);
  if (!ok) return 2;
  try {
    ok = parse_fleet(spec, fc);
  } catch (const std::exception&) {
    ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "bad --fleet value '%s' (expected JOBS[,poisson|trace,POOL], "
                 "JOBS >= 1, POOL >= 0)\n",
                 spec.c_str());
    return 2;
  }
  fc.jobs = args.get_whole<int>("jobs", 0, 0);
  Telemetry telemetry;
  if (!telemetry.init(args)) return 2;
  fc.telemetry = telemetry.sink();
  fc.perf = telemetry.perf_registry();
  std::fprintf(
      telemetry.human(),
      "fleet: %d tenant%s, %s arrivals, pool %s — base %s(%s) on "
      "%d ranks (%s), seed %llu...\n",
      fc.arrivals.jobs, fc.arrivals.jobs == 1 ? "" : "s",
      std::string(fleet::arrival_model_name(fc.arrivals.model)).c_str(),
      fc.monitor_pool > 0 ? std::to_string(fc.monitor_pool).c_str()
                          : "unbounded",
      workloads::bench_name(fc.base.bench).data(),
      fc.base.input.empty()
          ? workloads::default_input(fc.base.bench, fc.base.nranks).c_str()
          : fc.base.input.c_str(),
      fc.base.nranks, fc.base.platform.name.c_str(),
      static_cast<unsigned long long>(fc.base.seed));
  const auto result = fleet::run_fleet(fc);
  const auto& bill = result.bill;
  std::fprintf(telemetry.human(),
               "admission: %d admitted, %d refused (pool high-water %d)\n",
               bill.jobs, bill.refused, result.pool_high_water);
  std::fprintf(telemetry.human(),
               "outcomes: %d completed, %d killed on detection, %d expired, "
               "%d gave up\n",
               bill.completed, bill.killed, bill.expired, bill.gave_up);
  std::fprintf(telemetry.human(),
               "bill: %.1f SUs charged, %.1f SUs saved "
               "(%.2f machine-hours at %d cores/node), makespan %.1fs\n",
               bill.su_billed, bill.su_saved,
               bill.machine_hours_saved(fc.base.platform.cores_per_node),
               fc.base.platform.cores_per_node,
               sim::to_seconds(result.makespan));
  return telemetry.finish() ? 0 : 1;
}

int cmd_run(const util::Args& args) {
  std::vector<std::string> known = kTelemetryKeys;
  known.push_back("fleet");
  // --jobs parallelizes the tenants of a fleet; a single run has none.
  if (args.has("fleet")) known.push_back("jobs");
  if (!known_options_only(args, "run", kConfigKeys, known)) return 2;
  if (const std::string spec = args.get("fleet", ""); !spec.empty()) {
    return cmd_run_fleet(args, spec);
  }
  bool ok = true;
  auto config = build_config(args, ok);
  if (!ok) return 2;
  Telemetry telemetry;
  if (!telemetry.init(args)) return 2;
  config.telemetry = telemetry.sink();
  config.perf = telemetry.perf_registry();
  std::fprintf(
      telemetry.human(), "running %s(%s) on %d ranks (%s), seed %llu...\n",
      workloads::bench_name(config.bench).data(),
      config.input.empty()
          ? workloads::default_input(config.bench, config.nranks).c_str()
          : config.input.c_str(),
      config.nranks, config.platform.name.c_str(),
      static_cast<unsigned long long>(config.seed));
  const auto result = harness::run_one(config);
  if (result.fault.type != faults::FaultType::kNone) {
    std::fprintf(
        telemetry.human(), "fault: %s on rank %d, active from t=%.1fs\n",
        faults::fault_type_name(result.fault.type).data(), result.fault.victim,
        sim::to_seconds(result.fault.activated_at));
  }
  if (result.completed) {
    std::fprintf(telemetry.human(), "job completed at t=%.1fs",
                 sim::to_seconds(*result.finish_time));
    if (result.gflops > 0.0)
      std::fprintf(telemetry.human(), " (%.1f GFLOPS)", result.gflops);
    std::fprintf(telemetry.human(), "\n");
  }
  for (const auto& report : result.hangs()) {
    std::fprintf(telemetry.human(), "ParaStack: %s\n",
                 report.to_string().c_str());
  }
  for (const auto& report : result.slowdowns()) {
    std::fprintf(telemetry.human(), "ParaStack: %s\n",
                 report.to_string().c_str());
  }
  if (!result.timeout_reports().empty()) {
    std::fprintf(telemetry.human(), "timeout baseline fired at t=%.1fs\n",
                 sim::to_seconds(result.timeout_reports().front().detected_at));
  }
  if (const auto* watchdog = result.detector(core::DetectorKind::kIoWatchdog);
      watchdog != nullptr && watchdog->detected()) {
    std::fprintf(telemetry.human(),
                 "io-watchdog fired at t=%.1fs (%.0fs of output silence)\n",
                 sim::to_seconds(watchdog->detections.front().detected_at),
                 sim::to_seconds(watchdog->detections.front().silence));
  }
  const bool any_detection = std::any_of(
      result.detectors.begin(), result.detectors.end(),
      [](const harness::DetectorRunResult& entry) { return entry.detected(); });
  if (!result.completed && !any_detection) {
    std::fprintf(telemetry.human(),
                 "job did not complete; walltime expired at t=%.1fs\n",
                 sim::to_seconds(result.end_time));
  }
  std::fprintf(telemetry.human(),
               "monitoring: %llu stack traces, final I=%.0fms, %zu model "
               "samples\n",
               static_cast<unsigned long long>(result.traces),
               sim::to_millis(result.final_interval), result.model_samples);
  if (config.tool_faults.active()) {
    std::fprintf(telemetry.human(),
                 "tool faults: %llu monitor crashes, %llu lead failovers, "
                 "%llu partials lost, %llu retries, %zu degraded entries\n",
                 static_cast<unsigned long long>(result.monitor_crashes),
                 static_cast<unsigned long long>(result.lead_failovers),
                 static_cast<unsigned long long>(result.partials_lost),
                 static_cast<unsigned long long>(result.sample_retries),
                 result.degraded_entries);
  }
  if (config.monitor_tree.tree()) {
    std::fprintf(telemetry.human(),
                 "tree: fan-out %d, %llu root messages, %llu hops, "
                 "max fan-in %d, %llu subtree failovers\n",
                 config.monitor_tree.fanout,
                 static_cast<unsigned long long>(result.root_messages),
                 static_cast<unsigned long long>(result.tree_hops),
                 result.max_monitor_fan_in,
                 static_cast<unsigned long long>(result.subtree_failovers));
  }
  if (config.recovery.active()) {
    const auto& rec = result.recovery;
    std::fprintf(telemetry.human(),
                 "recovery (%s): %d attempt%s, %s, %.1fs overhead, "
                 "%llu checkpoints, SU x%.1f\n",
                 recover::recovery_policy_name(rec.policy).data(),
                 rec.attempts_used, rec.attempts_used == 1 ? "" : "s",
                 rec.gave_up        ? "gave up"
                 : rec.recovered    ? "recovered"
                 : result.completed ? "no recovery needed"
                                    : "not recovered",
                 sim::to_seconds(rec.overhead_total),
                 static_cast<unsigned long long>(rec.checkpoints_taken),
                 rec.su_multiplier);
  }
  return telemetry.finish() ? 0 : 1;
}

int cmd_campaign(const util::Args& args) {
  std::vector<std::string> known = kTelemetryKeys;
  known.insert(known.end(), {"runs", "jobs"});
  if (!known_options_only(args, "campaign", kConfigKeys, known)) return 2;
  bool ok = true;
  harness::CampaignConfig campaign;
  campaign.base = build_config(args, ok);
  if (!ok) return 2;
  campaign.jobs = args.get_whole<int>("jobs", 0, 0);
  campaign.runs = args.get_whole<int>("runs", 10, 0);
  Telemetry telemetry;
  if (!telemetry.init(args)) return 2;
  campaign.base.telemetry = telemetry.sink();
  campaign.base.perf = telemetry.perf_registry();
  campaign.seed0 = campaign.base.seed * 1000 + 7;
  if (campaign.base.fault == faults::FaultType::kNone) {
    const auto result = harness::run_clean_campaign(campaign);
    std::fprintf(telemetry.human(),
                 "%d clean runs: %d false positives, mean runtime %.1fs "
                 "(stddev %.1f), %.2f simulated hours\n",
                 result.runs, result.false_positives,
                 result.runtime_seconds.mean(), result.runtime_seconds.stddev(),
                 result.total_hours);
    return telemetry.finish() ? 0 : 1;
  }
  const auto result = harness::run_erroneous_campaign(campaign);
  std::fprintf(telemetry.human(), "%d erroneous runs (%s):\n", result.runs,
               faults::fault_type_name(campaign.base.fault).data());
  std::fprintf(telemetry.human(),
               "  accuracy AC=%.2f (missed %d), false positives %d\n",
               result.accuracy(), result.missed, result.false_positives);
  if (result.delay_seconds.empty()) {
    // No detections: there is no delay to average.
    std::fprintf(telemetry.human(), "  response delay n/a\n");
  } else {
    std::fprintf(telemetry.human(),
                 "  response delay %.1fs mean (min %.1f, max %.1f)\n",
                 result.delay_seconds.mean(), result.delay_seconds.min(),
                 result.delay_seconds.max());
  }
  if (campaign.base.fault == faults::FaultType::kComputeHang) {
    std::fprintf(telemetry.human(),
                 "  faulty-process identification ACf=%.2f PRf=%.2f\n",
                 result.acf(), result.prf());
  }
  if (campaign.base.tool_faults.active()) {
    std::fprintf(telemetry.human(),
                 "  tool faults: %llu monitor crashes, %llu lead failovers, "
                 "%llu partials lost, %llu retries, %zu degraded entries\n",
                 static_cast<unsigned long long>(result.monitor_crashes),
                 static_cast<unsigned long long>(result.lead_failovers),
                 static_cast<unsigned long long>(result.partials_lost),
                 static_cast<unsigned long long>(result.sample_retries),
                 result.degraded_entries);
  }
  return telemetry.finish() ? 0 : 1;
}

int cmd_submit(const util::Args& args) {
  if (!known_options_only(args, "submit", kConfigKeys,
                          {"system", "walltime-min"})) {
    return 2;
  }
  bool ok = true;
  const auto config = build_config(args, ok);
  if (!ok) return 2;
  sched::JobTicket ticket;
  ticket.cores_per_node = config.platform.cores_per_node;
  ticket.nodes =
      (config.nranks + ticket.cores_per_node - 1) / ticket.cores_per_node;
  ticket.walltime =
      sim::kMinute * args.get_whole<sim::Time>(
                         "walltime-min", 60, 1,
                         std::numeric_limits<sim::Time>::max() / sim::kMinute);
  ticket.job_name = std::string(workloads::bench_name(config.bench));
  const std::string system_name = args.get("system", "slurm");
  if (system_name != "slurm" && system_name != "torque") {
    std::fprintf(stderr, "unknown batch system '%s' (expected slurm|torque)\n",
                 system_name.c_str());
    return 2;
  }
  const auto system = system_name == "torque" ? sched::BatchSystem::kTorque
                                              : sched::BatchSystem::kSlurm;
  std::printf("%s\n", sched::submission_command(system, ticket,
                                                "./" + ticket.job_name + ".exe")
                          .c_str());
  return 0;
}

int cmd_list(const util::Args& args) {
  if (!known_options_only(args, "list", {})) return 2;
  std::printf("benchmarks:");
  for (const auto bench : workloads::kAllBenches) {
    std::printf(" %s", workloads::bench_name(bench).data());
  }
  std::printf("\nplatforms: Tardis Tianhe-2 Stampede\n");
  std::printf("faults: compute-hang comm-deadlock slowdown freeze none\n");
  std::printf("default inputs at 256 ranks:");
  for (const auto bench : workloads::kAllBenches) {
    std::printf(" %s=%s", workloads::bench_name(bench).data(),
                workloads::default_input(bench, 256).c_str());
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const util::Args args(argc - 1, argv + 1);
  try {
    if (command == "run") return cmd_run(args);
    if (command == "campaign") return cmd_campaign(args);
    if (command == "submit") return cmd_submit(args);
    if (command == "list") return cmd_list(args);
  } catch (const std::invalid_argument& error) {
    // A malformed or out-of-range numeric option (Args::get_whole).
    std::fprintf(stderr, "psim %s: %s\n", command.c_str(), error.what());
    return 2;
  }
  return usage();
}
