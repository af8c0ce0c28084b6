#include "core/monitor_topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace parastack::core {
namespace {

TopologyConfig tree_config(int fanout, std::uint64_t seed = 0) {
  TopologyConfig config;
  config.fanout = fanout;
  config.seed = seed;
  return config;
}

/// Deepest level over the surviving monitors (0 when only a root remains,
/// -1 when the tree is empty).
int deepest_level(const MonitorTopology& t) {
  int deepest = -1;
  for (int n = 0; n < t.nodes(); ++n) {
    if (!t.removed(n)) deepest = std::max(deepest, t.level(n));
  }
  return deepest;
}

/// Structural invariants every built (and every post-removal) tree must
/// satisfy: one root, parent/child symmetry, levels = parent level + 1,
/// children within the effective fanout, every survivor reachable.
void expect_valid_tree(const MonitorTopology& t) {
  ASSERT_TRUE(t.built());
  int survivors = 0;
  int roots = 0;
  for (int n = 0; n < t.nodes(); ++n) {
    if (t.removed(n)) continue;
    ++survivors;
    const int p = t.parent(n);
    if (p < 0) {
      ++roots;
      EXPECT_EQ(t.level(n), 0) << "root must sit at level 0";
      EXPECT_EQ(t.root(), n);
    } else {
      EXPECT_FALSE(t.removed(p)) << "live node " << n << " has dead parent";
      EXPECT_EQ(t.level(n), t.level(p) + 1);
      const auto& siblings = t.children(p);
      EXPECT_NE(std::find(siblings.begin(), siblings.end(), n), siblings.end())
          << "parent " << p << " does not list child " << n;
    }
    const auto& kids = t.children(n);
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end()));
    for (const int c : kids) EXPECT_EQ(t.parent(c), n);
  }
  if (survivors > 0) {
    EXPECT_EQ(roots, 1);
  }
}

/// Freshly built trees (no removals yet) additionally respect the fanout
/// bound. Failover can exceed it: a promoted monitor adopts its siblings.
void expect_within_fanout(const MonitorTopology& t) {
  for (int n = 0; n < t.nodes(); ++n) {
    EXPECT_LE(static_cast<int>(t.children(n).size()), t.effective_fanout());
  }
}

TEST(MonitorTopology, BinaryTreeShape) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  expect_valid_tree(t);
  expect_within_fanout(t);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.effective_fanout(), 2);
  // Identity placement: complete binary tree, level order by id.
  EXPECT_EQ(t.children(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(t.children(1), (std::vector<int>{3, 4}));
  EXPECT_EQ(t.children(2), (std::vector<int>{5, 6}));
  EXPECT_EQ(deepest_level(t), 2);
}

TEST(MonitorTopology, SingleNodeIsItsOwnRoot) {
  MonitorTopology t;
  t.build(1, tree_config(4));
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.parent(0), -1);
  EXPECT_EQ(deepest_level(t), 0);
}

TEST(MonitorTopology, SeededPlacementIsDeterministicAndComplete) {
  MonitorTopology a;
  MonitorTopology b;
  a.build(33, tree_config(3, 42));
  b.build(33, tree_config(3, 42));
  expect_valid_tree(a);
  expect_within_fanout(a);
  for (int n = 0; n < 33; ++n) {
    EXPECT_EQ(a.parent(n), b.parent(n));
    EXPECT_EQ(a.level(n), b.level(n));
  }
  // A different seed re-places at least one node (33! permutations; two
  // fixed seeds colliding would be a generator bug worth hearing about).
  MonitorTopology c;
  c.build(33, tree_config(3, 43));
  bool any_moved = false;
  for (int n = 0; n < 33; ++n) {
    if (a.parent(n) != c.parent(n)) any_moved = true;
  }
  EXPECT_TRUE(any_moved);
}

TEST(MonitorTopology, LeafRemovalJustDetaches) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  const auto removal = t.remove(6);
  EXPECT_EQ(removal.promoted, -1);
  EXPECT_EQ(removal.adopted, 0);
  EXPECT_FALSE(removal.root_changed);
  EXPECT_TRUE(t.removed(6));
  EXPECT_EQ(t.children(2), (std::vector<int>{5}));
  expect_valid_tree(t);
}

TEST(MonitorTopology, InteriorRemovalPromotesLowestChildAndAdoptsSiblings) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  const auto removal = t.remove(1);  // children 3, 4
  EXPECT_EQ(removal.promoted, 3);
  EXPECT_EQ(removal.adopted, 1);  // node 4 re-parents under 3
  EXPECT_FALSE(removal.root_changed);
  EXPECT_EQ(t.parent(3), 0);
  EXPECT_EQ(t.parent(4), 3);
  EXPECT_EQ(t.level(3), 1);
  EXPECT_EQ(t.level(4), 2);
  expect_valid_tree(t);
}

TEST(MonitorTopology, RootRemovalMovesTheRoot) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  const auto removal = t.remove(0);
  EXPECT_TRUE(removal.root_changed);
  EXPECT_EQ(removal.new_root, 1);
  EXPECT_EQ(removal.promoted, 1);
  EXPECT_EQ(removal.adopted, 1);  // node 2 adopted by the new root
  EXPECT_EQ(t.root(), 1);
  EXPECT_EQ(t.parent(1), -1);
  EXPECT_EQ(t.level(1), 0);
  EXPECT_EQ(t.parent(2), 1);
  expect_valid_tree(t);
}

TEST(MonitorTopology, CascadeRemovalKeepsSurvivorsConnected) {
  MonitorTopology t;
  t.build(15, tree_config(2));
  // Parent then its promoted child in the same window.
  const auto first = t.remove(1);
  ASSERT_EQ(first.promoted, 3);
  const auto second = t.remove(3);
  EXPECT_GE(second.promoted, 0);
  expect_valid_tree(t);
  // Every survivor still reaches the root.
  for (int n = 0; n < t.nodes(); ++n) {
    if (t.removed(n)) continue;
    int hops = 0;
    int cur = n;
    while (t.parent(cur) >= 0 && hops <= t.nodes()) {
      cur = t.parent(cur);
      ++hops;
    }
    EXPECT_EQ(cur, t.root());
  }
}

TEST(MonitorTopology, StarIsOneLevel) {
  // The default config is the flat star: monitor 0 at the root, every
  // other monitor one hop below it. The placement seed does not move it.
  for (const std::uint64_t seed : {0u, 42u}) {
    TopologyConfig star;
    star.seed = seed;
    MonitorTopology t;
    t.build(6, star);
    expect_valid_tree(t);
    expect_within_fanout(t);
    EXPECT_EQ(t.root(), 0);
    EXPECT_EQ(t.effective_fanout(), 5);
    EXPECT_EQ(t.children(0), (std::vector<int>{1, 2, 3, 4, 5}));
    for (int n = 1; n < 6; ++n) EXPECT_EQ(t.level(n), 1);
    EXPECT_EQ(deepest_level(t), 1);

    // A dead root promotes monitor 1, which adopts the rest.
    const auto removal = t.remove(0);
    EXPECT_TRUE(removal.root_changed);
    EXPECT_EQ(removal.new_root, 1);
    EXPECT_EQ(removal.adopted, 4);
    EXPECT_EQ(t.children(1), (std::vector<int>{2, 3, 4, 5}));
    for (int n = 2; n < 6; ++n) EXPECT_EQ(t.level(n), 1);
    expect_valid_tree(t);
  }
}

TEST(MonitorTopology, RemovingEverythingEmptiesTheTree) {
  MonitorTopology t;
  t.build(4, tree_config(2));
  for (int n = 0; n < 4; ++n) {
    if (!t.removed(n)) t.remove(t.root());
  }
  EXPECT_EQ(t.root(), -1);
  EXPECT_EQ(deepest_level(t), -1);
}

TEST(MonitorTopologyDeath, DoubleRemovalRejected) {
  MonitorTopology t;
  t.build(7, tree_config(2));
  t.remove(3);
  EXPECT_DEATH(t.remove(3), "removed");
}

}  // namespace
}  // namespace parastack::core
