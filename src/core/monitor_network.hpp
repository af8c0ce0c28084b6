#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/monitor_substrate.hpp"
#include "core/monitor_topology.hpp"
#include "faults/fault.hpp"
#include "simmpi/types.hpp"
#include "simmpi/world.hpp"
#include "trace/inspector.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace parastack::obs::perf {
class Counter;
class HighWater;
}  // namespace parastack::obs::perf

namespace parastack::core {

/// The distributed tool topology of paper §3.3/§5: ParaStack launches one
/// monitor per node. At any moment only the monitors hosting currently
/// monitored ranks are ACTIVE — they ptrace their local targets and send
/// one partial count toward the root monitor, which aggregates S_crout.
/// All other monitors idle in a sleep + nonblocking-probe loop. This is
/// what makes the tool's cost O(C), independent of the job size:
///   - at most C processes are traced per sample,
///   - at most C monitor messages cross the network per sample,
///   - idle monitors consume (simulated) nothing.
///
/// Partial counts climb a MonitorTopology, level by level. The default is
/// the paper's flat star — the one-level tree with monitor 0 at the root
/// and every other monitor its child. set_topology can arm a k-ary tree
/// instead, bounding every monitor's fan-in by O(fanout) so the root never
/// becomes the hot spot at extreme scale. Both shapes run the same path.
///
/// The network also carries a faults::ToolFaultPlan (set_tool_faults):
/// partial-count messages may be lost or delayed per hop and monitors may
/// crash on a schedule. A dead monitor leaves the topology: its lowest
/// surviving child takes its place and adopts the siblings, so a dead root
/// fails over to its lowest surviving child (in the star, the lowest
/// surviving monitor id). Without set_tool_faults the plan is the empty
/// one: it injects nothing, and its per-hop draws come from the tool's
/// private stream, which nothing else reads.
class MonitorNetwork {
 public:
  /// The aggregation protocol, consulted only once a partial is lost or a
  /// monitor dies: the receiving monitor waits kSampleTimeout for each
  /// partial, then re-requests it up to kMaxRetries times, the n-th retry
  /// after a further kRetryBackoff * 2^(n-1).
  static constexpr sim::Time kSampleTimeout = sim::from_millis(5);
  static constexpr int kMaxRetries = 3;
  static constexpr sim::Time kRetryBackoff = sim::from_millis(10);
  /// Modeled cost of survivors re-registering after a failover; charged to
  /// the next sample's aggregation latency.
  static constexpr sim::Time kReregistrationLatency = sim::from_millis(250);

  explicit MonitorNetwork(simmpi::World& world,
                          trace::StackInspector& inspector);
  /// Drive the aggregation layer over any substrate (synthetic worlds for
  /// the extreme-scale benches). The substrate must outlive the network.
  explicit MonitorNetwork(MonitorSubstrate& substrate);

  struct Measurement {
    double scrout = 0.0;      ///< over the partials that reached the root
    int ranks_traced = 0;     ///< ranks actually ptraced this sample
    int active_monitors = 0;  ///< distinct nodes hosting the set
    /// Tool-internal latency to gather the partial counts at the root: the
    /// sum of the per-level binomial gathers along the topology, plus
    /// timeout/retry/failover penalties under a tool-fault plan.
    sim::Time aggregation_latency = 0;
    /// Gather levels behind `aggregation_latency`: the deepest carrier's
    /// level (the star: 1, or 0 when only the root's node is sampled).
    int levels = 0;
    /// Partial counts received directly by the root this sample (the
    /// root's fan-in — O(active monitors) for the star, O(fanout) for a
    /// tree; the quantity the scalability benches plot).
    int root_fan_in = 0;
    // Tool-fault bookkeeping; defaults describe a healthy sample.
    int partials_missing = 0;  ///< partial counts that never arrived
    int retries = 0;           ///< retransmissions this sample
    double coverage = 1.0;     ///< counted ranks / set size
    bool degraded = false;     ///< nothing arrived: the sample is blind
  };

  /// One S_crout sample of `set`, performed the way the real tool does it:
  /// per-node tracing by the owning (active) monitors plus a count
  /// aggregation. Charges the traced ranks their ptrace stops via the
  /// inspector.
  Measurement measure(const std::vector<simmpi::Rank>& set);

  /// Rebuild the aggregation topology from `config`: a k-ary tree, or the
  /// star for fanout <= 0. Call before the first sample and before
  /// set_tool_faults (crash victim selection must know the root).
  void set_topology(const TopologyConfig& config);
  const MonitorTopology& topology() const noexcept { return topology_; }

  /// Arm the tool-side fault model. Call before the first sample.
  void set_tool_faults(const faults::ToolFaultPlan& plan);
  bool tool_faults_active() const noexcept { return plan_.active(); }

  int monitor_count() const noexcept { return sub_.nnodes(); }
  /// Monitors that would be active for `set` (distinct hosting nodes).
  int active_monitors_for(const std::vector<simmpi::Rank>& set) const;
  /// Current aggregation root (-1 once every monitor is dead).
  int lead_monitor() const noexcept { return topology_.root(); }
  bool monitor_alive(int node) const;

  /// Cumulative tool-internal traffic (for the scalability accounting).
  std::uint64_t messages_sent() const noexcept { return messages_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_; }
  std::uint64_t samples() const noexcept { return samples_; }
  /// Ranks traced through the network (sampling only; detection-time full
  /// sweeps go directly through the inspector and are one-off O(P)).
  std::uint64_t ranks_traced_total() const noexcept { return traced_; }
  /// Partial counts received directly by the root (O(active monitors) per
  /// sample for the star; O(fanout) for a tree).
  std::uint64_t root_messages() const noexcept { return root_messages_; }
  /// Parent-hops traversed by partials, retransmissions included (every
  /// tool message is one hop).
  std::uint64_t tree_hops() const noexcept { return tree_hops_; }
  /// Largest per-monitor fan-in seen in any single sample.
  int max_fan_in() const noexcept { return max_fan_in_; }

  /// Tool-fault outcome counters (all zero under the empty plan).
  std::uint64_t monitor_crashes() const noexcept { return crashes_; }
  std::uint64_t lead_failovers() const noexcept { return failovers_; }
  /// Interior-monitor deaths that promoted a child and re-parented its
  /// subtree (root deaths count as lead failovers; the star has no
  /// interior monitors).
  std::uint64_t subtree_failovers() const noexcept {
    return subtree_failovers_;
  }
  std::uint64_t partials_lost() const noexcept { return lost_; }
  std::uint64_t retransmissions() const noexcept { return retries_total_; }

 private:
  /// Build the star, size the per-node state and resolve the perf
  /// counters (both constructors).
  void init();
  /// Apply every scheduled crash whose instant has passed; maintains the
  /// root and emits crash/failover telemetry.
  void advance_tool_state(sim::Time now);
  void crash_monitor(int node, sim::Time at);
  void emit_sample_event(const Measurement& measurement, std::uint64_t messages,
                         std::uint64_t bytes);
  /// Collect the carriers (alive active nodes plus their ancestors) into
  /// carriers_, deepest level first, ascending node id within a level;
  /// fills fan_in_ for every carrier.
  void collect_carriers();
  /// Sum of per-level binomial gathers over the carrier fan-ins; also
  /// updates the fan-in high-water marks and emits MonitorLevelEvents.
  sim::Time tree_gather_latency(int levels, sim::Time now);

  std::optional<WorldSubstrate> owned_;  ///< backs sub_ for the World ctor
  MonitorSubstrate& sub_;
  std::uint64_t messages_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t traced_ = 0;
  std::uint64_t root_messages_ = 0;
  std::uint64_t tree_hops_ = 0;
  int max_fan_in_ = 0;

  // Aggregation topology (the star unless set_topology armed a tree).
  MonitorTopology topology_;

  // Tool-fault state (the empty plan unless set_tool_faults armed one).
  faults::ToolFaultPlan plan_;
  util::Rng tool_rng_;
  util::DynamicBitset dead_;
  std::vector<faults::MonitorCrash> crash_schedule_;  ///< victims resolved
  std::size_t next_crash_ = 0;
  bool lead_crash_applied_ = false;
  sim::Time pending_reregistration_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t subtree_failovers_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t retries_total_ = 0;

  // Pooled per-sample scratch (SoA: flat arrays indexed by node and a
  // bitset mark — no per-sample heap churn once warm).
  util::DynamicBitset node_mark_;
  std::vector<int> active_nodes_;       ///< distinct hosting nodes
  std::vector<int> carriers_;           ///< carriers, deepest first
  std::vector<int> fan_in_;             ///< per-node fan-in this sample
  std::vector<int> agg_monitors_;       ///< partials aggregated per node
  std::vector<int> agg_covered_;        ///< covered ranks per node
  std::vector<int> agg_out_;            ///< OUT_MPI ranks per node
  std::vector<sim::Time> agg_penalty_;  ///< accumulated wait per node
  std::vector<int> level_max_fan_in_;   ///< per-level gather width
  std::vector<int> level_senders_;      ///< carriers forwarding per level

  // Perf mirrors of the counters above, resolved once from the engine's
  // ProfileRegistry (all null when perf accounting is off).
  obs::perf::Counter* perf_samples_ = nullptr;
  obs::perf::Counter* perf_messages_ = nullptr;
  obs::perf::Counter* perf_retries_ = nullptr;
  obs::perf::Counter* perf_failovers_ = nullptr;
  obs::perf::Counter* perf_subtree_failovers_ = nullptr;
  obs::perf::Counter* perf_crashes_ = nullptr;
  obs::perf::Counter* perf_lost_ = nullptr;
  obs::perf::Counter* perf_root_messages_ = nullptr;
  obs::perf::Counter* perf_tree_hops_ = nullptr;
  obs::perf::HighWater* perf_fan_in_ = nullptr;
};

}  // namespace parastack::core
