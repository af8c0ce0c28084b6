#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sim/time.hpp"

namespace parastack::obs {

// ---------------------------------------------------------------------------
// Typed telemetry events. One struct per observable fact; every field is a
// deterministic function of the seed (virtual times, statistics, decisions —
// never wall-clock), so any sink that serializes faithfully is reproducible.
// Ranks are plain ints here: the obs layer sits below simmpi and must not
// depend on it.
// ---------------------------------------------------------------------------

/// One S_crout sample and everything the detector decided with it (§3).
struct SampleEvent {
  sim::Time time = 0;
  std::string_view detector;  ///< emitting detector's telemetry label
  int phase = 0;            ///< §6 phase the model belongs to
  int active_set = 0;       ///< which of the two disjoint monitor sets
  std::size_t observation = 0;  ///< 1-based sample index
  double scrout = 0.0;
  sim::Time interval = 0;   ///< current mean sampling interval I
  bool model_ready = false;       ///< sample-size ladder justified
  bool randomness_confirmed = false;  ///< runs test accepted the sampling
  bool model_frozen = false;      ///< pollution guard withheld this sample
  double threshold = 0.0;   ///< t: suspicion iff scrout <= t
  double q = 0.0;           ///< suspicion-probability upper bound
  std::size_t required_streak = 0;  ///< k = ceil(log_q alpha)
  bool suspicious = false;  ///< counted toward the streak
  std::size_t streak = 0;   ///< streak length after this sample
  /// Tool-health qualifiers (tool-fault model); defaults on healthy
  /// samples, and the journal omits them then.
  double coverage = 1.0;    ///< monitor coverage behind this sample
  bool degraded = false;    ///< detector was in degraded mode
};

/// Wald–Wolfowitz verdict on the accumulated samples (§3.1).
struct RunsTestEvent {
  sim::Time time = 0;
  std::string_view detector;
  std::size_t sample_size = 0;
  std::size_t runs = 0;
  std::size_t n_pos = 0;
  std::size_t n_neg = 0;
  bool random = false;
};

/// Interval auto-tuning step: I doubled (or hit its safety cap).
struct IntervalEvent {
  sim::Time time = 0;
  std::string_view detector;
  sim::Time old_interval = 0;
  sim::Time new_interval = 0;
  std::size_t doublings = 0;
  bool capped = false;  ///< cap reached; randomness declared by fiat
};

/// Suspicion-streak transition.
struct StreakEvent {
  sim::Time time = 0;
  std::string_view detector;
  enum class Kind { kAdvance, kReset, kVerify } kind = Kind::kAdvance;
  /// kAdvance/kVerify: the streak length reached. kReset: the length the
  /// ended streak had (what the streak-length histogram wants).
  std::size_t length = 0;
  std::size_t required = 0;  ///< current k
  /// Why: "suspicious-sample", "healthy-sample", "set-switch",
  /// "phase-change", "slowdown-verdict".
  std::string_view reason;
};

/// Transient-slowdown filter progress (§3.3).
struct FilterEvent {
  sim::Time time = 0;
  std::string_view detector;
  enum class Stage {
    kEnter,          ///< streak reached k; first full sweep taken
    kRetry,          ///< no movement yet; re-checking after a longer gap
    kSlowdown,       ///< movement seen: transient slowdown, resume sampling
    kHangConfirmed,  ///< all rounds static: proceed to faulty-process id
  } stage = Stage::kEnter;
  int round = 0;
  /// For kSlowdown: which rank moved and how (from the filter's evidence).
  std::string evidence;
};

/// One full-job stack-trace sweep (filter round or faulty-id round).
struct SweepEvent {
  sim::Time time = 0;
  std::string_view detector;
  int ranks = 0;
  std::string_view purpose;  ///< "slowdown-filter" | "faulty-id"
  int round = 0;
};

/// Verified hang (flattened HangReport; obs cannot depend on core).
struct HangEvent {
  sim::Time time = 0;
  std::string_view detector;
  bool computation_error = false;
  std::vector<int> faulty_ranks;
  std::size_t streak = 0;
  double q = 0.0;
  std::size_t required_streak = 0;
  sim::Time interval = 0;
};

/// The filter absorbed a suspicion streak as a transient slowdown.
struct SlowdownEvent {
  sim::Time time = 0;
  std::string_view detector;
  int rounds = 0;          ///< filter rounds taken to see movement
  std::string evidence;
};

/// One verdict in the unified detection stream — emitted by every detector
/// kind (ParaStack alongside its richer `hang` event, the fixed-timeout
/// baseline, IO-Watchdog), so a journal consumer can compare detectors on
/// one run without knowing their internals.
struct DetectionEvent {
  sim::Time time = 0;
  std::string_view detector;  ///< emitting detector's telemetry label
  std::string_view kind;      ///< "parastack" | "timeout" | "io-watchdog"
  sim::Time silence = 0;      ///< IO-Watchdog: observed output silence
};

/// One S_crout sample routed through the per-node monitor topology (§5).
struct MonitorSampleEvent {
  sim::Time time = 0;
  int ranks_traced = 0;
  int active_monitors = 0;
  int monitor_count = 0;           ///< monitors launched (one per node)
  std::uint64_t messages = 0;      ///< tool messages this sample
  std::uint64_t bytes = 0;         ///< tool bytes this sample
  sim::Time aggregation_latency = 0;
  int levels = 0;        ///< gather levels (the star: 1, or 0 when local)
  int root_fan_in = 0;   ///< partials received directly by the root
  // Tool-fault bookkeeping; all stay at their defaults on a healthy sample
  // (and the journal omits them, keeping faults-off output byte-identical).
  int partials_missing = 0;  ///< partial counts that never reached the lead
  int retries = 0;           ///< partial-count retransmissions this sample
  double coverage = 1.0;     ///< fraction of the monitored set counted
  bool degraded = false;     ///< no partial arrived: sample carries no signal
};

/// One gather step of an aggregation: the monitors at `level` forwarded
/// their accumulated partials to their parents. Emitted per sample for
/// every level, deepest first (the star has one level).
struct MonitorLevelEvent {
  sim::Time time = 0;
  int level = 0;        ///< depth of the senders (root's children = 1)
  int senders = 0;      ///< carrier monitors forwarding at this level
  int max_fan_in = 0;   ///< widest receiver fan-in of this step
  sim::Time latency = 0;  ///< gather latency contributed by this step
};

/// A per-node monitor process died (tool-side fault model).
struct MonitorCrashEvent {
  sim::Time time = 0;
  int monitor = -1;      ///< node id of the dead monitor
  bool was_lead = false;
  int alive = 0;         ///< monitors still alive afterwards
};

/// The lead monitor died; aggregation re-rooted at the lowest survivor.
struct LeadFailoverEvent {
  sim::Time time = 0;
  int from = -1;
  int to = -1;           ///< -1: no survivor, the tool is blind
  sim::Time reregistration_latency = 0;
};

/// An interior monitor of the aggregation tree died: its lowest surviving
/// child was promoted into the vacated position and the rest of the
/// subtree re-parented under it (the tree-mode generalization of lead
/// failover; root deaths still emit LeadFailoverEvent).
struct TreeFailoverEvent {
  sim::Time time = 0;
  int failed = -1;    ///< the dead interior monitor
  int promoted = -1;  ///< child promoted into its position
  int parent = -1;    ///< the promotee's new parent (-1: became the root)
  int adopted = 0;    ///< siblings re-parented under the promotee
  sim::Time reregistration_latency = 0;
};

/// A partial count missed the lead's gather deadline and was re-requested.
struct SampleTimeoutEvent {
  sim::Time time = 0;
  int monitor = -1;      ///< sender whose partial went missing
  int retries = 0;       ///< retransmissions attempted
  bool recovered = false;  ///< a retry eventually delivered the count
};

/// The detector entered or left degraded mode (sample coverage stayed
/// below the quorum for the configured number of consecutive samples).
struct DegradedModeEvent {
  sim::Time time = 0;
  std::string_view detector;
  bool entered = false;        ///< false = coverage recovered
  double coverage = 0.0;       ///< coverage of the sample that flipped it
  std::size_t consecutive_low = 0;  ///< below-quorum run length at the flip
};

/// §6 multi-phase application announced a phase switch.
struct PhaseChangeEvent {
  sim::Time time = 0;
  std::string_view detector;
  int from_phase = 0;
  int to_phase = 0;
  bool resumed = false;  ///< the incoming phase had a stashed model
  bool aborted_verification = false;
};

/// A planned fault actually activated in the victim.
struct FaultEvent {
  sim::Time time = 0;
  std::string_view type;  ///< faults::fault_type_name
  int victim = -1;
};

/// One simulated job begins.
struct RunStartEvent {
  std::string_view bench;
  std::string_view input;
  int nranks = 0;
  int nnodes = 0;
  std::string_view platform;
  std::uint64_t seed = 0;
  int run_index = 0;  ///< position within a campaign; 0 for single runs
  sim::Time estimated_clean = 0;
  sim::Time walltime = 0;
  std::string_view fault_planned;  ///< "none" when clean
};

/// One simulated job ended (completion, kill, or walltime expiry).
struct RunEndEvent {
  sim::Time time = 0;
  int run_index = 0;
  bool completed = false;
  bool killed = false;
  sim::Time finish_time = -1;
  sim::Time end_time = 0;
  std::uint64_t traces = 0;
  sim::Time trace_cost = 0;
  int hangs = 0;
  int slowdowns = 0;
  std::size_t model_samples = 0;
  sim::Time final_interval = 0;
};

/// One recovery action of the detect -> recover loop: the harness killed an
/// attempt on a detection verdict and a recovery policy arbitrated what
/// happens next (restore, failover, replica promotion — or give-up).
/// Emitted between a failed attempt's last event and the next attempt's
/// first, so journal time order holds across the whole multi-attempt run.
struct RecoveryEvent {
  sim::Time time = 0;          ///< the kill instant being recovered from
  std::string_view policy;     ///< "ckpt" | "spare" | "team"
  std::string_view action;     ///< "restore" | "give-up"
  int attempt = 0;             ///< 0-based index of the killed attempt
  bool degraded = false;       ///< the verdict was second-hand (tool faults)
  sim::Time resume_from = 0;   ///< progress instant the job resumes from
  sim::Time overhead = 0;      ///< restore/failover/arbitration cost
  sim::Time next_start = 0;    ///< absolute start of the next attempt
  int run_index = 0;
  std::string detail;          ///< policy-specific note
};

/// Fleet admission decision for one tenant: the arrival hit the bounded
/// monitor pool and was either granted its per-node monitors or turned away
/// (refusal-without-burn). Emitted by the fleet driver for every tenant, on
/// the fleet timeline, ahead of the tenant's replayed job stream.
struct FleetAdmitEvent {
  sim::Time time = 0;       ///< arrival instant on the fleet timeline
  int tenant = 0;           ///< tenant index (doubles as the run_index tag)
  bool admitted = false;
  int monitors = 0;         ///< per-node monitor slots requested
  int pool_in_use = 0;      ///< pool occupancy after the decision
  int pool_capacity = 0;    ///< 0 = unbounded
};

/// One leg of the detection-latency breakdown for a verified hang: how long
/// the run spent between two milestones of the detection path. The harness
/// emits the full set at end of run (fault-to-suspicion, suspicion-to-
/// confirm, confirm-to-kill, plus the fault-to-kill total), each as one
/// span; metric sinks fold them into p50/p95/p99 digests across a campaign.
struct DetectionSpanEvent {
  sim::Time time = 0;         ///< emission instant (end of run)
  std::string_view detector;
  std::string_view span;      ///< e.g. "fault-to-suspicion"
  sim::Time begin = 0;        ///< milestone opening the span
  sim::Time end = 0;          ///< milestone closing it (end >= begin)
  int run_index = 0;
};

/// A contiguous span of one rank's life: a compute segment, a blocking MPI
/// call, a whole busy-wait (Test loop), or an I/O burst. Producers emit
/// these only when a sink declares interest (wants_rank_spans()), because
/// they fire on every simulated action.
struct RankSpanEvent {
  sim::Time begin = 0;
  sim::Time end = 0;
  int rank = -1;
  enum class Kind { kCompute, kBlockingMpi, kBusyWait, kIo } kind = Kind::kCompute;
  std::string_view func;  ///< user function or MPI function name
};

/// Every telemetry fact, one alternative per kind. Adding a kind means
/// adding its struct above and its alternative here, emitting it from its
/// producer, and giving it a name and a line in the journal (which fails
/// to compile until it can render it); RecordingSink must also intern any
/// string view it holds other than `detector`.
using Event =
    std::variant<SampleEvent, RunsTestEvent, IntervalEvent, StreakEvent,
                 FilterEvent, SweepEvent, HangEvent, SlowdownEvent,
                 DetectionEvent, MonitorSampleEvent, MonitorLevelEvent,
                 MonitorCrashEvent, LeadFailoverEvent, TreeFailoverEvent,
                 SampleTimeoutEvent, DegradedModeEvent, PhaseChangeEvent,
                 FaultEvent, RunStartEvent, RunEndEvent, RecoveryEvent,
                 FleetAdmitEvent, DetectionSpanEvent, RankSpanEvent>;

// ---------------------------------------------------------------------------
// Sink interface.
// ---------------------------------------------------------------------------

/// Observer for the telemetry stream. A sink visits the kinds it consumes
/// and ignores the rest; with no sink attached the producers skip event
/// construction entirely (one null-pointer test on the hot path —
/// telemetry is pay-for-what-you-use).
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;

  virtual void on_event(const Event& event) = 0;

  /// Rank spans fire per simulated action; producers consult this before
  /// building one so an attached journal does not drag the simulator
  /// through span bookkeeping it will not record.
  virtual bool wants_rank_spans() const { return false; }
};

/// Fans every event out to several sinks in attachment order (e.g. journal
/// + metrics + trace from one run).
class MultiSink final : public TelemetrySink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<TelemetrySink*> sinks);

  void add(TelemetrySink* sink);
  bool empty() const noexcept { return sinks_.empty(); }

  void on_event(const Event& event) override;
  bool wants_rank_spans() const override;

 private:
  std::vector<TelemetrySink*> sinks_;
};

}  // namespace parastack::obs
