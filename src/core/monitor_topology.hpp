#pragma once

#include <cstdint>
#include <vector>

namespace parastack::core {

/// Shape of the monitor aggregation topology (one monitor per node).
///
/// The default (`fanout <= 0`) is the paper's flat star: the one-level
/// tree in which every other monitor reports straight to monitor 0. A
/// positive fanout arranges the monitors into a k-ary aggregation tree
/// instead, so no single monitor ever receives more than O(fanout)
/// partial counts per sample regardless of how many monitors are active.
struct TopologyConfig {
  /// Children per interior monitor. <= 0 selects the flat star.
  int fanout = 0;
  /// Seed for the node -> tree-position placement. 0 keeps the identity
  /// placement (node 0 at the root, ids level by level); anything else
  /// shuffles placement deterministically, which is how a trial seed
  /// yields a trial-specific tree without extra draws from the trial RNG.
  /// The star ignores it: monitor 0 is always its root.
  std::uint64_t seed = 0;

  bool tree() const noexcept { return fanout > 0; }
  bool operator==(const TopologyConfig&) const = default;
};

/// Deterministic aggregation tree over monitor ids (k-ary, or the
/// one-level star), with one failover rule: removing a monitor promotes
/// its lowest-id surviving child into the vacated position and re-parents
/// the rest of the subtree under the promotee. In the star that moves the
/// root to the lowest surviving monitor id.
///
/// The topology is purely structural — liveness bookkeeping (who is
/// dead, coverage, degraded mode) stays in MonitorNetwork.
class MonitorTopology {
 public:
  MonitorTopology() = default;

  /// Build the tree over `nodes` monitors; `fanout <= 0` builds the star
  /// (monitor 0 at the root, every other monitor at level 1).
  void build(int nodes, const TopologyConfig& config);

  bool built() const noexcept { return !parent_.empty(); }
  int nodes() const noexcept { return static_cast<int>(parent_.size()); }
  /// Current aggregation root (-1 once every monitor was removed).
  int root() const noexcept { return root_; }
  /// Parent monitor id (-1 for the root).
  int parent(int node) const { return parent_[static_cast<std::size_t>(node)]; }
  /// Distance from the root (root = 0).
  int level(int node) const { return level_[static_cast<std::size_t>(node)]; }
  /// Children in ascending id order (the deterministic gather order).
  const std::vector<int>& children(int node) const {
    return children_[static_cast<std::size_t>(node)];
  }
  bool removed(int node) const {
    return removed_[static_cast<std::size_t>(node)];
  }
  /// Fanout actually used: config.fanout, or nodes - 1 for the star.
  int effective_fanout() const noexcept { return effective_fanout_; }

  struct Removal {
    /// Child promoted into the removed node's position (-1: it was a leaf).
    int promoted = -1;
    /// Former siblings re-parented under the promotee.
    int adopted = 0;
    bool root_changed = false;
    int new_root = -1;  ///< only meaningful when root_changed
  };

  /// Remove a monitor. A leaf just detaches; an interior node's lowest
  /// surviving child takes its place (adopting the siblings), and a dead
  /// root additionally moves the root to the promotee.
  Removal remove(int node);

 private:
  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  std::vector<int> level_;
  std::vector<bool> removed_;
  int root_ = -1;
  int effective_fanout_ = 0;
};

}  // namespace parastack::core
