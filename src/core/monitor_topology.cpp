#include "core/monitor_topology.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace parastack::core {

namespace {

/// Nodes a k-ary tree with `levels` levels below the root can hold
/// (saturating, so huge fanouts don't overflow).
std::uint64_t capacity(std::uint64_t fanout, int levels) {
  std::uint64_t total = 1;  // the root
  std::uint64_t width = 1;
  for (int l = 0; l < levels; ++l) {
    if (width > std::numeric_limits<std::uint64_t>::max() / fanout) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    width *= fanout;
    if (total > std::numeric_limits<std::uint64_t>::max() - width) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    total += width;
  }
  return total;
}

}  // namespace

void MonitorTopology::build(int nodes, const TopologyConfig& config) {
  PS_CHECK(nodes > 0, "topology needs at least one monitor");

  // The star is the one-level tree: its fanout fits every monitor under
  // the root. A depth cap widens a k-ary fanout until everyone fits.
  std::uint64_t fanout = static_cast<std::uint64_t>(
      config.tree() ? config.fanout : std::max(nodes - 1, 1));
  if (config.depth > 0) {
    while (capacity(fanout, config.depth) < static_cast<std::uint64_t>(nodes)) {
      ++fanout;
    }
  }
  effective_fanout_ = static_cast<int>(fanout);

  // Positions form the complete k-ary tree (position 0 = root, parent of
  // position p is (p-1)/k); the placement permutation decides which
  // monitor id sits at which position.
  std::vector<int> place(static_cast<std::size_t>(nodes));
  std::iota(place.begin(), place.end(), 0);
  if (config.tree() && config.seed != 0) {
    util::Rng rng(config.seed);
    for (std::size_t i = place.size() - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(i + 1)));
      std::swap(place[i], place[j]);
    }
  }

  parent_.assign(static_cast<std::size_t>(nodes), -1);
  level_.assign(static_cast<std::size_t>(nodes), 0);
  children_.assign(static_cast<std::size_t>(nodes), {});
  removed_.assign(static_cast<std::size_t>(nodes), false);
  root_ = place[0];
  std::vector<int> pos_level(static_cast<std::size_t>(nodes), 0);
  for (std::size_t p = 1; p < place.size(); ++p) {
    const std::size_t parent_pos = (p - 1) / fanout;
    pos_level[p] = pos_level[parent_pos] + 1;
    parent_[static_cast<std::size_t>(place[p])] = place[parent_pos];
    level_[static_cast<std::size_t>(place[p])] = pos_level[p];
    children_[static_cast<std::size_t>(place[parent_pos])].push_back(place[p]);
  }
  for (auto& kids : children_) std::sort(kids.begin(), kids.end());
}

MonitorTopology::Removal MonitorTopology::remove(int node) {
  PS_CHECK(built(), "topology not built");
  PS_CHECK(node >= 0 && node < nodes(), "remove: node out of range");
  const auto idx = static_cast<std::size_t>(node);
  PS_CHECK(!removed_[idx], "remove: node already removed");
  removed_[idx] = true;

  Removal result;
  const int old_parent = parent_[idx];
  auto detach_from_parent = [&](int child) {
    if (old_parent < 0) return;
    auto& kids = children_[static_cast<std::size_t>(old_parent)];
    kids.erase(std::find(kids.begin(), kids.end(), child));
  };

  std::vector<int>& orphans = children_[idx];
  if (orphans.empty()) {
    detach_from_parent(node);
    if (node == root_) {
      // The last monitor standing was the root: the tree is now empty.
      result.root_changed = true;
      result.new_root = -1;
      root_ = -1;
    }
    return result;
  }

  // Promote the lowest surviving child into the vacated position; its
  // former siblings re-parent under it, its own children stay put.
  const int promoted = orphans.front();  // children are kept sorted
  const auto promoted_idx = static_cast<std::size_t>(promoted);
  result.promoted = promoted;
  result.adopted = static_cast<int>(orphans.size()) - 1;
  detach_from_parent(node);
  parent_[promoted_idx] = old_parent;
  if (old_parent >= 0) {
    auto& kids = children_[static_cast<std::size_t>(old_parent)];
    kids.insert(std::upper_bound(kids.begin(), kids.end(), promoted), promoted);
  }
  auto& adopted = children_[promoted_idx];
  for (std::size_t i = 1; i < orphans.size(); ++i) {
    parent_[static_cast<std::size_t>(orphans[i])] = promoted;
    adopted.push_back(orphans[i]);
  }
  std::sort(adopted.begin(), adopted.end());
  orphans.clear();

  // The promotee climbed one level; recompute levels across its subtree
  // (rare — once per interior crash — so a simple BFS is fine).
  level_[promoted_idx] =
      old_parent < 0 ? 0 : level_[static_cast<std::size_t>(old_parent)] + 1;
  std::vector<int> frontier{promoted};
  while (!frontier.empty()) {
    std::vector<int> next;
    for (const int at : frontier) {
      for (const int child : children_[static_cast<std::size_t>(at)]) {
        level_[static_cast<std::size_t>(child)] =
            level_[static_cast<std::size_t>(at)] + 1;
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }

  if (node == root_) {
    result.root_changed = true;
    result.new_root = promoted;
    root_ = promoted;
  }
  return result;
}

}  // namespace parastack::core
