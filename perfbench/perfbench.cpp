// The repository benchmark's measuring program. run.py builds it and drives
// it; README.md in this directory explains the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trials N] [--setup-only]
//
// Untraced (--trace 0): repeats the workload's fixed trial set on one thread
// through the public entry points (harness::run_one, fleet::run_fleet) for
// S seconds and prints the end-to-end metrics but set-up time, which
// --setup-only prints for one process. Traced (--trace 1): runs each
// trial both ways, untraced and rebuilt from public pieces with timing
// wrappers (assembled.cpp), and prints the per-layer metrics. Every trial's
// verdict digest must repeat exactly; any divergence exits with code 3
// before a result is printed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "assembled.hpp"
#include "fleet/fleet.hpp"
#include "harness/runner.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/replay.hpp"
#include "obs/telemetry.hpp"
#include "recover/spec.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

namespace ps = parastack;
using Clock = std::chrono::steady_clock;
using Snapshot = std::map<std::string, std::uint64_t>;

const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

[[noreturn]] void diverged(const std::string& what) {
  std::fprintf(stderr, "perfbench: verdict divergence: %s\n", what.c_str());
  std::exit(3);
}

// --- Workloads -------------------------------------------------------------

enum class Kind {
  kTrial,   ///< one run_one per trial
  kPaired,  ///< run_one plus its unmonitored twin (same seed, no detectors)
  kFleet,   ///< one run_fleet call per trial, journal + metrics in memory
};

struct Workload {
  const char* name;
  Kind kind;
  int trials;  ///< size of the fixed trial set
  /// The trial's job (fleet: each tenant's template; see fleet_config).
  ps::harness::RunConfig (*make)(std::uint64_t seed);
};

// Faulty workloads strike in a narrow band of the estimated runtime: trial
// cost grows with the fault instant, and a wide band would let the seed, not
// the code, move the wall-clock metrics.
void narrow_fault_window(ps::harness::RunConfig& c) {
  c.fault_window_lo = 0.45;
  c.fault_window_hi = 0.55;
}

ps::harness::RunConfig lu_hang_256(std::uint64_t seed) {
  ps::harness::RunConfig c;
  c.bench = ps::workloads::Bench::kLU;
  c.nranks = 256;
  c.platform = ps::sim::Platform::tardis();
  c.fault = ps::faults::FaultType::kComputeHang;
  narrow_fault_window(c);
  c.seed = seed;
  return c;
}

ps::harness::RunConfig cg_clean_10ms(std::uint64_t seed) {
  ps::harness::RunConfig c;
  c.bench = ps::workloads::Bench::kCG;
  c.nranks = 256;
  c.platform = ps::sim::Platform::stampede();
  c.seed = seed;
  c.parastack_config().initial_interval = ps::sim::from_millis(10);
  c.parastack_config().enable_interval_tuning = false;
  return c;
}

// 256 ranks on 8 nodes under a binary tree (three levels): 1024-rank trials
// take 1-2.5 s each, too long to repeat a large enough set within a run.
ps::harness::RunConfig lu_tree_256_faults(std::uint64_t seed) {
  ps::harness::RunConfig c;
  c.bench = ps::workloads::Bench::kLU;
  c.nranks = 256;
  c.platform = ps::sim::Platform::tardis();
  c.fault = ps::faults::FaultType::kComputeHang;
  narrow_fault_window(c);
  c.seed = seed;
  c.monitor_tree.fanout = 2;
  c.tool_faults.loss_probability = 0.02;
  c.tool_faults.monitor_crashes.push_back({-1, ps::sim::from_seconds(60)});
  c.recovery = *ps::recover::parse_recovery("ckpt:30");
  return c;
}

ps::harness::RunConfig lu_64_tenant(std::uint64_t seed) {
  ps::harness::RunConfig c;
  c.bench = ps::workloads::Bench::kLU;
  c.nranks = 64;
  c.platform = ps::sim::Platform::tardis();
  c.fault = ps::faults::FaultType::kComputeHang;
  narrow_fault_window(c);
  c.seed = seed;
  return c;
}

// Small fleets, many of them: the host gauge on either side of a short
// timed unit describes the host during it, and a large set of fleets hardly
// moves with the workload seed.
ps::fleet::FleetConfig fleet_config(std::uint64_t seed) {
  ps::fleet::FleetConfig fc;
  fc.base = lu_64_tenant(seed);
  fc.arrivals.jobs = 8;
  fc.arrivals.model = ps::fleet::ArrivalModel::kPoisson;
  fc.monitor_pool = 8;  // 4 monitors per tenant: some tenants are refused
  fc.jobs = 1;
  return fc;
}

// Trial-set sizes: trial cost varies with the trial seed (by ~25% for one
// LU trial), so each set is large enough that its sum and median hardly
// move with the workload seed, and small enough for several passes a run.
const Workload kWorkloads[] = {
    {"lu-hang-256", Kind::kTrial, 40, lu_hang_256},
    {"cg-clean-10ms", Kind::kPaired, 3, cg_clean_10ms},
    {"lu-tree-256-faults", Kind::kTrial, 20, lu_tree_256_faults},
    {"fleet-journal", Kind::kFleet, 16, lu_64_tenant},
};

std::vector<std::uint64_t> trial_seeds(std::uint64_t seed, int n) {
  std::uint64_t state = seed;
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < n; ++i) seeds.push_back(ps::util::splitmix64(state));
  return seeds;
}

// The warm-up trial's seed is fixed, so set-up time does not vary with the
// workload seed.
constexpr std::uint64_t kWarmupSeed = 0x5e7a9ULL;

// --- Verdicts --------------------------------------------------------------

/// Verdict-level facts of a trial. Virtual-time and count values are pure
/// functions of the seed, so they must repeat exactly.
struct Outcome {
  std::string digest;
  int runs = 0;    ///< detector verdicts judged (fleet: admitted tenants)
  int failed = 0;  ///< missed hang, pre-fault alarm, victim not named, or
                   ///< any detection on a clean run
  std::vector<double> fault_to_kill_s;
  std::uint64_t hangs = 0;
  double monitored_s = 0.0;  ///< virtual end time (paired workloads)
  double twin_s = 0.0;       ///< the unmonitored twin's end time
  // Fleet only.
  int tenants = 0;
  int admitted = 0;
  std::size_t events = 0;
  std::size_t journal_bytes = 0;
};

void judge(const ps::harness::RunResult& r, bool faulty, Outcome& out) {
  char buf[160];
  const ps::core::HangReport* hang = r.first_hang_after_fault();
  std::snprintf(buf, sizeof buf, "f=%lld d=%lld e=%lld a=%zu c=%d ranks=",
                static_cast<long long>(r.fault.activated_at),
                static_cast<long long>(r.first_parastack_detection().value_or(-1)),
                static_cast<long long>(r.end_time), r.attempts.size(),
                r.completed ? 1 : 0);
  out.digest += buf;
  if (hang != nullptr) {
    for (const auto rank : hang->faulty_ranks) {
      out.digest += std::to_string(rank) + ",";
    }
  }
  out.digest += ";";
  ++out.runs;
  out.hangs += r.hangs().size();
  bool failed = false;
  if (!faulty) {
    failed = !r.hangs().empty();
  } else {
    failed = hang == nullptr ||
             std::find(hang->faulty_ranks.begin(), hang->faulty_ranks.end(),
                       r.fault.victim) == hang->faulty_ranks.end();
    for (const auto& report : r.hangs()) {
      if (r.detection_before_fault(report.detected_at)) failed = true;
    }
    if (hang != nullptr) {
      out.fault_to_kill_s.push_back(
          ps::sim::to_seconds(hang->detected_at - r.fault.activated_at));
    }
  }
  if (failed) ++out.failed;
}

// --- Statistics ------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- Host speed gauge ------------------------------------------------------

/// A fixed piece of work that shares no code with the library: 60k
/// allocations of 16-1039 bytes cycled through 16k live slots (~8 MiB).
/// On a shared host, other tenants slow the simulator through the caches
/// and the allocator, by up to 2.7x for seconds at a time, and this gauge
/// slows with it (correlation 0.97 over 120-150 passes of 8 LU trials,
/// against 0.2-0.7 for a multiply chain and pointer chases). Wall-clock
/// metrics are scaled by kNominalS over the gauge's time around each
/// measurement, so they read as if the host ran at the gauge's nominal
/// speed. The gauge does not touch the library, so a change to the library
/// moves the scaled times as much as the raw ones.
class HostGauge {
 public:
  /// About the gauge's fastest time on a 4-vCPU 2.0 GHz Intel Xeon VM.
  static constexpr double kNominalS = 0.0032;

  double run_s() {
    const auto begin = Clock::now();
    std::vector<std::unique_ptr<char[]>> slots(kSlots);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 60000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::size_t bytes = 16 + ((x >> 20) & 1023);
      auto& slot = slots[(x >> 33) & (kSlots - 1)];
      slot.reset(new char[bytes]);
      slot[bytes - 1] = static_cast<char>(x);
    }
    return seconds_since(begin);
  }

  /// Host speed right now, for a measurement taken once: nominal over the
  /// median of a few runs.
  double speed_now() {
    std::vector<double> times;
    for (int i = 0; i < 7; ++i) times.push_back(run_s());
    return kNominalS / median(times);
  }

 private:
  static constexpr std::size_t kSlots = 16384;
};

// --- Trials ----------------------------------------------------------------

/// Wall and thread-CPU time of a trial's timed part.
struct Timing {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <typename F>
auto timed(Timing& timing, F&& body) {
  const double cpu = thread_cpu_s();
  const auto begin = Clock::now();
  auto value = body();
  timing.wall_s = seconds_since(begin);
  timing.cpu_s = thread_cpu_s() - cpu;
  return value;
}

/// Journal destination: counts the bytes and hashes them (FNV-1a) as they
/// are written, instead of keeping them. A kept journal grows by doubling,
/// which would make the peak resident set jump with the seed.
class HashingBuf final : public std::streambuf {
 public:
  std::uint64_t hash() const noexcept { return hash_; }
  std::uint64_t bytes() const noexcept { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) {
      return traits_type::not_eof(c);
    }
    add(traits_type::to_char_type(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) add(s[i]);
    return n;
  }

 private:
  void add(char c) noexcept {
    hash_ = (hash_ ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    ++bytes_;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
  std::uint64_t bytes_ = 0;
};

/// One fleet trial: run_fleet writing its combined stream into a journal
/// and a metrics sink in memory. With `replay_s` set (the traced run), the
/// stream is recorded first and the benchmark times RecordingSink::replay
/// into the two sinks itself.
Outcome fleet_trial(std::uint64_t seed, ps::obs::perf::ProfileRegistry* perf,
                    double* replay_s) {
  HashingBuf journal_buf;
  std::ostream journal_stream(&journal_buf);
  ps::obs::JsonlJournal journal(journal_stream);
  ps::obs::MetricsRegistry metrics;
  ps::obs::MetricsSink metrics_sink(metrics);
  ps::obs::MultiSink sinks({&journal, &metrics_sink});
  ps::obs::RecordingSink recording;

  ps::fleet::FleetConfig fc = fleet_config(seed);
  fc.telemetry = replay_s != nullptr ? static_cast<ps::obs::TelemetrySink*>(&recording)
                                     : &sinks;
  fc.perf = perf;
  const ps::fleet::FleetResult result = ps::fleet::run_fleet(fc);
  if (replay_s != nullptr) {
    const auto begin = Clock::now();
    recording.replay(sinks);
    *replay_s = seconds_since(begin);
  }

  Outcome out;
  out.tenants = static_cast<int>(result.tenants.size());
  for (const auto& tenant : result.tenants) {
    out.digest += tenant.admitted ? "A:" : "R;";
    if (!tenant.admitted) continue;
    ++out.admitted;
    judge(tenant.run, true, out);
  }
  out.events = recording.size();
  out.journal_bytes = journal_buf.bytes();
  out.digest += "journal=" + std::to_string(journal_buf.bytes()) + ":" +
                std::to_string(journal_buf.hash());
  return out;
}

ps::harness::RunConfig twin_of(ps::harness::RunConfig config) {
  config.detectors.clear();
  return config;
}

/// One untraced trial; `timing` covers the monitored run_one or the whole
/// run_fleet call. A paired trial runs its twin, untimed, when `with_twin`:
/// the twin's virtual end time is all the paper-side metrics need of it.
Outcome run_trial(const Workload& w, std::uint64_t seed, Timing& timing,
                  bool with_twin) {
  if (w.kind == Kind::kFleet) {
    return timed(timing, [&] { return fleet_trial(seed, nullptr, nullptr); });
  }
  const ps::harness::RunConfig config = w.make(seed);
  const ps::harness::RunResult r =
      timed(timing, [&] { return ps::harness::run_one(config); });
  Outcome out;
  judge(r, config.fault != ps::faults::FaultType::kNone, out);
  if (w.kind == Kind::kPaired && with_twin) {
    const ps::harness::RunResult twin = ps::harness::run_one(twin_of(config));
    out.monitored_s = ps::sim::to_seconds(r.end_time);
    out.twin_s = ps::sim::to_seconds(twin.end_time);
    out.digest += "twin=" + std::to_string(twin.end_time);
  }
  return out;
}

// --- Output ----------------------------------------------------------------

double rss_peak_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void note(const std::string& line) { std::printf("# %s\n", line.c_str()); }

  void print_json(long attempted, long failed) const {
    std::printf("{\"correct\": true, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

/// Paper-side metrics of one pass over the trial set: pure functions of the
/// seed, so they print identically in traced and untraced runs.
struct PaperSide {
  std::vector<double> fault_to_kill_s;
  double monitored_s = 0.0;
  double twin_s = 0.0;
  long runs = 0;
  long failed = 0;

  void add(const Outcome& o) {
    fault_to_kill_s.insert(fault_to_kill_s.end(), o.fault_to_kill_s.begin(),
                           o.fault_to_kill_s.end());
    monitored_s += o.monitored_s;
    twin_s += o.twin_s;
    runs += o.runs;
    failed += o.failed;
  }
  double overhead_pct() const {
    return twin_s > 0.0 ? 100.0 * (monitored_s / twin_s - 1.0) : 0.0;
  }
  void print(Report& report, bool as_metrics) const {
    const std::vector<Metric> values = {
        {"fault_to_kill_p50_s", quantile(fault_to_kill_s, 0.5), "s"},
        {"fault_to_kill_p90_s", quantile(fault_to_kill_s, 0.9), "s"},
        {"trace_overhead_pct", overhead_pct(), "%"},
        {"failed_trial_share",
         runs > 0 ? static_cast<double>(failed) / static_cast<double>(runs)
                  : 0.0,
         "ratio"}};
    for (const auto& m : values) {
      if (as_metrics) {
        report.add(m.name, m.value, m.unit);
      } else {
        std::printf("%-34s %16.6f %s (virtual, per trial set)\n",
                    m.name.c_str(), m.value, m.unit.c_str());
      }
    }
    std::printf("# paper-side: %zu detected faults, %ld/%ld runs failed\n",
                fault_to_kill_s.size(), failed, runs);
  }
};

// --- Untraced run ----------------------------------------------------------

int run_untraced(const Workload& w, const std::vector<std::uint64_t>& seeds,
                 double budget_s) {
  // The host is shared: other tenants slow every trial, for bursts and for
  // whole stretches of a run. So the gauge runs between timed trials, each
  // trial is divided by the mean of the gauge times on either side of it,
  // and counts at the median over its repeats of that time in gauge units,
  // scaled by the gauge's nominal time. The first pass records the digests
  // and the peak resident set, before the gauge has allocated anything,
  // runs the paired workload's twins, and is not timed.
  const std::size_t n = seeds.size();
  std::vector<std::string> first;
  int passes = 0;
  std::vector<double> samples;
  std::vector<std::vector<double>> wall(n), cpu(n), as_timed(n);
  HostGauge gauge;
  double rss_mb = 0.0;
  PaperSide paper;
  long attempted = 0;
  long failed = 0;
  const auto begin = Clock::now();
  double pass_s = 0.0;
  while (passes < 2 || seconds_since(begin) + pass_s <= budget_s) {
    const auto pass_begin = Clock::now();
    std::vector<Timing> timings(n);
    std::vector<double> gauge_s(n + 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (passes > 0) gauge_s[i] = gauge.run_s();
      const Outcome o = run_trial(w, seeds[i], timings[i], passes == 0);
      attempted += o.runs;
      failed += o.failed;
      if (passes == 0) {
        first.push_back(o.digest);
        paper.add(o);
      } else if (o.digest != first[i].substr(0, first[i].find("twin="))) {
        diverged("trial " + std::to_string(i) + " repeat " +
                 std::to_string(passes) + ": '" + o.digest + "' vs '" +
                 first[i] + "'");
      }
    }
    if (passes == 0) {
      rss_mb = rss_peak_mb();
    } else {
      gauge_s[n] = gauge.run_s();
      for (std::size_t i = 0; i < n; ++i) {
        const Timing& t = timings[i];
        const double scale =
            2.0 * HostGauge::kNominalS / (gauge_s[i] + gauge_s[i + 1]);
        samples.push_back(t.wall_s);
        as_timed[i].push_back(t.wall_s);
        wall[i].push_back(t.wall_s * scale);
        cpu[i].push_back(t.cpu_s * scale);
      }
    }
    ++passes;
    pass_s = seconds_since(pass_begin);
  }
  std::vector<double> trial_wall, trial_cpu;
  double campaign_s = 0.0;
  double campaign_as_timed_s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    trial_wall.push_back(median(wall[i]));
    trial_cpu.push_back(median(cpu[i]));
    campaign_s += trial_wall.back();
    campaign_as_timed_s += median(as_timed[i]);
  }

  Report report;
  report.note(std::string(w.name) + ": " + std::to_string(passes - 1) +
              " timed passes over " + std::to_string(n) + " trials, " +
              std::to_string(samples.size()) + " trial samples");
  report.note("as timed, before scaling by the host gauge: campaign_s " +
              std::to_string(campaign_as_timed_s) + ", trial_s_p50 " +
              std::to_string(median(samples)));
  report.add("campaign_s", campaign_s, "s");
  report.add("trial_s_p50", median(trial_wall), "s");
  report.add("trial_cpu_s_p50", median(trial_cpu), "s");
  report.add("rss_peak_mb", rss_mb, "MiB");
  // A tail needs ten samples beyond it to mean anything.
  if (samples.size() >= 100) {
    std::printf("%-34s %16.6f s (all %zu samples, not in the JSON)\n",
                "trial_s_p90", quantile(samples, 0.9), samples.size());
  } else {
    std::printf("%-34s %16s s (%zu samples < 100)\n", "trial_s_p90", "n/a",
                samples.size());
  }
  paper.print(report, false);
  report.print_json(attempted, failed);
  return 0;
}

// --- Traced run ------------------------------------------------------------

/// Dispatch cost computed for `events` firings at a standing queue depth of
/// `depth`, through a bare engine whose callbacks only reschedule themselves.
double computed_dispatch_s(std::uint64_t events, std::uint64_t depth) {
  if (events == 0) return 0.0;
  ps::sim::Engine engine;
  ps::util::Rng rng(0xd15ba7c4ULL);
  std::uint64_t left = events;
  struct Tick {
    ps::sim::Engine* engine;
    ps::util::Rng* rng;
    std::uint64_t* left;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      engine->schedule_after(
          static_cast<ps::sim::Time>(rng->exponential(1e6)) + 1, *this);
    }
  };
  const Tick tick{&engine, &rng, &left};
  const std::uint64_t prefill = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(depth, events));
  for (std::uint64_t i = 0; i < prefill; ++i) {
    --left;
    engine.schedule_after(static_cast<ps::sim::Time>(rng.exponential(1e6)) + 1,
                          tick);
  }
  const auto begin = Clock::now();
  while (engine.step()) {
  }
  return seconds_since(begin);
}

void add_snapshot(Snapshot& into, const Snapshot& from) {
  for (const auto& [name, value] : from) {
    const bool hw = name.size() > 3 && name.compare(name.size() - 3, 3, ".hw") == 0;
    into[name] = hw ? std::max(into[name], value) : into[name] + value;
  }
}

std::uint64_t count(const Snapshot& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0 : it->second;
}

const char* const kStages[] = {"sampler", "tuner", "judge", "filter",
                               "identifier"};

/// Self-time sums in seconds over the traced trials.
struct SelfTimes {
  double wall = 0.0;
  double workloads = 0.0;
  double trace = 0.0;
  double harness_setup = 0.0;
  double sink = 0.0;
  double stage[5] = {};
  int samples = 0;
};

int run_traced(const Workload& w, const std::vector<std::uint64_t>& seeds,
               double budget_s) {
  const std::size_t n = seeds.size();
  std::vector<std::string> ref_digest(n);
  std::vector<Snapshot> ref_snapshot(n);
  std::vector<perfbench::CommCounts> ref_comm(n);
  Snapshot totals;
  perfbench::CommCounts comm_total;
  std::uint64_t actions_total = 0;
  std::uint64_t traces_total = 0;
  double trace_virtual_s = 0.0;
  std::size_t events_total = 0;
  std::size_t journal_bytes_total = 0;
  int tenants_total = 0;
  int admitted_total = 0;
  std::uint64_t hangs_total = 0;
  PaperSide paper;
  double dispatch_s = 0.0;

  // Reference pass: run_one with a counter registry and the post-run probe.
  // These runs are not timed, but they count against the budget.
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    ps::obs::perf::ProfileRegistry registry;
    Outcome o;
    if (w.kind == Kind::kFleet) {
      double replay_s = 0.0;
      o = fleet_trial(seeds[i], &registry, &replay_s);
      events_total += o.events;
      journal_bytes_total += o.journal_bytes;
      tenants_total += o.tenants;
      admitted_total += o.admitted;
    } else {
      ps::harness::RunConfig config = w.make(seeds[i]);
      config.perf = &registry;
      config.post_run_probe = [&](const ps::simmpi::World& world,
                                  const ps::harness::RunResult&) {
        ref_comm[i].matches += world.comm().matches();
        ref_comm[i].sends_posted += world.comm().sends_posted();
        ref_comm[i].collectives += world.comm().collectives_entered();
      };
      const ps::harness::RunResult r = ps::harness::run_one(config);
      judge(r, config.fault != ps::faults::FaultType::kNone, o);
      traces_total += r.traces;
      trace_virtual_s += ps::sim::to_seconds(r.trace_cost);
      if (w.kind == Kind::kPaired) {
        const ps::harness::RunResult twin =
            ps::harness::run_one(twin_of(w.make(seeds[i])));
        o.monitored_s = ps::sim::to_seconds(r.end_time);
        o.twin_s = ps::sim::to_seconds(twin.end_time);
        o.digest += "twin=" + std::to_string(twin.end_time);
      }
    }
    ref_digest[i] = o.digest;
    ref_snapshot[i] = registry.counter_snapshot();
    add_snapshot(totals, ref_snapshot[i]);
    comm_total.matches += ref_comm[i].matches;
    comm_total.sends_posted += ref_comm[i].sends_posted;
    comm_total.collectives += ref_comm[i].collectives;
    hangs_total += o.hangs;
    paper.add(o);
    dispatch_s += computed_dispatch_s(count(ref_snapshot[i], "sim.events_fired"),
                                      count(ref_snapshot[i], "sim.queue_depth.hw"));
  }

  // Timed passes: each trial runs untraced and traced back to back, the
  // order alternating so neither side always runs on a warmer cache.
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  SelfTimes self;
  bool first_pass = true;
  double pass_s = 0.0;
  while (first_pass || seconds_since(begin) + pass_s <= budget_s) {
    const auto pass_begin = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      // Paired trials time the monitored run only; its twin ran above.
      const std::string expected =
          w.kind == Kind::kPaired
              ? ref_digest[i].substr(0, ref_digest[i].find("twin="))
              : ref_digest[i];
      const auto untraced = [&] {
        Timing timing;
        Outcome o;
        if (w.kind == Kind::kFleet) {
          o = timed(timing, [&] { return fleet_trial(seeds[i], nullptr, nullptr); });
        } else {
          const ps::harness::RunConfig config = w.make(seeds[i]);
          const ps::harness::RunResult r =
              timed(timing, [&] { return ps::harness::run_one(config); });
          judge(r, config.fault != ps::faults::FaultType::kNone, o);
        }
        if (o.digest != expected) {
          diverged("untraced trial " + std::to_string(i) + ": '" + o.digest +
                   "' vs '" + expected + "'");
        }
        untraced_s.push_back(timing.wall_s);
      };
      const auto traced = [&] {
        ps::obs::perf::ProfileRegistry registry;
        Timing timing;
        Outcome o;
        if (w.kind == Kind::kFleet) {
          double replay_s = 0.0;
          o = timed(timing, [&] { return fleet_trial(seeds[i], &registry, &replay_s); });
          self.sink += replay_s;
        } else {
          ps::harness::RunConfig config = w.make(seeds[i]);
          config.perf = &registry;
          perfbench::LayerTimes layers;
          perfbench::CommCounts comm;
          const ps::harness::RunResult r = timed(timing, [&] {
            return perfbench::run_assembled(config, layers, comm);
          });
          judge(r, config.fault != ps::faults::FaultType::kNone, o);
          if (comm != ref_comm[i]) {
            diverged("assembled trial " + std::to_string(i) +
                     ": CommEngine ledger differs from run_one's");
          }
          self.workloads += 1e-9 * static_cast<double>(layers.workloads_ns);
          self.trace += 1e-9 * static_cast<double>(layers.trace_ns);
          self.harness_setup += 1e-9 * static_cast<double>(layers.harness_setup_ns);
          if (first_pass) actions_total += layers.actions;
        }
        if (o.digest != expected) {
          diverged("traced trial " + std::to_string(i) + ": '" + o.digest +
                   "' vs '" + expected + "'");
        }
        if (registry.counter_snapshot() != ref_snapshot[i]) {
          diverged("traced trial " + std::to_string(i) +
                   ": counter snapshot differs from run_one's");
        }
        for (int s = 0; s < 5; ++s) {
          self.stage[s] +=
              1e-9 * static_cast<double>(
                         registry.timer(std::string("stage.") + kStages[s])->nanos());
        }
        self.wall += timing.wall_s;
        ++self.samples;
        traced_s.push_back(timing.wall_s);
      };
      if (i % 2 == 0) {
        untraced();
        traced();
      } else {
        traced();
        untraced();
      }
    }
    first_pass = false;
    pass_s = seconds_since(pass_begin);
  }

  const double k = 1.0 / static_cast<double>(self.samples);
  const double wall = self.wall * k;
  const double per_trial_dispatch = dispatch_s / static_cast<double>(n);
  const double trace_self = self.trace * k;
  double stage_self[5];
  for (int s = 0; s < 5; ++s) stage_self[s] = self.stage[s] * k;
  stage_self[0] -= trace_self;  // the sampler's timer encloses the traces
  const double workloads_self = self.workloads * k;
  const double harness_self = self.harness_setup * k;
  const double sink_self = self.sink * k;
  double others = per_trial_dispatch + workloads_self + trace_self +
                  harness_self + sink_self;
  for (const double s : stage_self) others += s;
  const double simmpi_self = wall - others;
  const auto share = [&](double s) { return wall > 0.0 ? 100.0 * s / wall : 0.0; };

  Report report;
  report.note(std::string(w.name) + ": " + std::to_string(self.samples) +
              " traced trials, " + std::to_string(n) +
              "-trial set; counts are per trial set, times per trial");
  report.add("traced.trial_s", wall, "s");
  report.add("sim.events_fired", static_cast<double>(count(totals, "sim.events_fired")), "count");
  report.add("sim.events_cancelled", static_cast<double>(count(totals, "sim.events_cancelled")), "count");
  report.add("sim.queue_depth_hw", static_cast<double>(count(totals, "sim.queue_depth.hw")), "count");
  report.add("sim.dispatch_s", per_trial_dispatch, "s");
  report.note("sim.dispatch_s is computed: the trial's event count fired "
              "through a bare engine at its queue-depth high-water");
  report.add("sim.share_pct", share(per_trial_dispatch), "%");
  report.add("simmpi.matches", static_cast<double>(comm_total.matches), "count");
  report.add("simmpi.sends_posted", static_cast<double>(comm_total.sends_posted), "count");
  report.add("simmpi.collectives", static_cast<double>(comm_total.collectives), "count");
  report.add("simmpi.self_s", simmpi_self, "s");
  report.add("simmpi.share_pct", share(simmpi_self), "%");
  report.add("workloads.actions", static_cast<double>(actions_total), "count");
  report.add("workloads.self_s", workloads_self, "s");
  report.add("workloads.share_pct", share(workloads_self), "%");
  report.add("trace.traces", static_cast<double>(traces_total), "count");
  report.add("trace.virtual_cost_s", trace_virtual_s, "s");
  report.add("trace.self_s", trace_self, "s");
  report.add("trace.share_pct", share(trace_self), "%");
  for (int s = 0; s < 5; ++s) {
    const std::string stage = std::string("core.") + kStages[s];
    report.add(stage + ".calls",
               static_cast<double>(count(totals, std::string("stage.") + kStages[s] + ".calls")),
               "count");
    report.add(stage + ".self_s", stage_self[s], "s");
    report.add(stage + ".share_pct", share(stage_self[s]), "%");
  }
  for (const char* name : {"messages", "retries", "partials_lost", "tree_hops",
                           "root_messages", "subtree_failovers"}) {
    report.add(std::string("core.monitor.") + name,
               static_cast<double>(count(totals, std::string("monitor.") + name)),
               "count");
  }
  const std::uint64_t filter_calls = count(totals, "stage.filter.calls");
  report.add("core.confirm_ratio",
             filter_calls > 0 ? static_cast<double>(hangs_total) /
                                    static_cast<double>(filter_calls)
                              : 0.0,
             "ratio");
  report.add("obs.events", static_cast<double>(events_total), "count");
  report.add("obs.journal_bytes", static_cast<double>(journal_bytes_total), "bytes");
  report.add("obs.sink_s", sink_self, "s");
  report.add("obs.share_pct", share(sink_self), "%");
  report.add("obs.tracing_overhead_pct",
             100.0 * (median(traced_s) / median(untraced_s) - 1.0), "%");
  report.add("harness.setup_s", harness_self, "s");
  report.add("harness.share_pct", share(harness_self), "%");
  for (const char* name : {"attempts", "restores", "checkpoints", "give_ups"}) {
    report.add(std::string("recover.") + name,
               static_cast<double>(count(totals, std::string("recover.") + name)),
               "count");
  }
  report.add("fleet.admitted", static_cast<double>(count(totals, "fleet.admitted")), "count");
  report.add("fleet.refused", static_cast<double>(count(totals, "fleet.refused")), "count");
  report.add("fleet.ingest.samples", static_cast<double>(count(totals, "fleet.ingest.samples")), "count");
  report.add("fleet.ingest.batches", static_cast<double>(count(totals, "fleet.ingest.batches")), "count");
  report.add("fleet.ingest.backpressure", static_cast<double>(count(totals, "fleet.ingest.backpressure")), "count");
  report.add("fleet.ingest.queue_depth_hw", static_cast<double>(count(totals, "fleet.ingest.queue_depth.hw")), "count");
  report.add("fleet.useful_sim_ratio",
             tenants_total > 0 ? static_cast<double>(admitted_total) /
                                     static_cast<double>(tenants_total)
                               : 0.0,
             "ratio");
  paper.print(report, true);
  report.print_json(paper.runs, paper.failed);
  return 0;
}

// --- Entry point -----------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trials N] [--setup-only]\n  workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  int trials = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      setup_only = true;
    } else if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--trials" && has_value) {
      trials = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr || seconds <= 0.0 || trials < 0) return usage();

  // Set-up: one untimed warm-up run fills the lazy memos (lognormal
  // parameters, optimal suspicion points, the request arena). A paired
  // workload's twin would add nothing to them, so it is skipped here.
  if (workload->kind == Kind::kFleet) {
    fleet_trial(kWarmupSeed, nullptr, nullptr);
  } else {
    ps::harness::run_one(workload->make(kWarmupSeed));
  }
  // setup_s comes from --setup-only processes (run.py takes their median),
  // so the measuring process's peak resident set never includes the gauge.
  if (setup_only) {
    const double setup_s = seconds_since(kProcessStart);
    std::printf("setup_s %.9f (as timed %.9f)\n",
                setup_s * HostGauge().speed_now(), setup_s);
    return 0;
  }
  const std::vector<std::uint64_t> seeds =
      trial_seeds(seed, trials > 0 ? trials : workload->trials);
  return trace ? run_traced(*workload, seeds, seconds)
               : run_untraced(*workload, seeds, seconds);
}
