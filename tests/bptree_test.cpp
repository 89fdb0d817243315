#include "bptree/bptree.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace dsi::bptree {
namespace {

std::vector<uint64_t> SortedKeys(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<uint64_t> keys;
  for (size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 20)));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(BptTreeTest, FanoutForCapacity) {
  EXPECT_EQ(BptTree::FanoutForCapacity(64), 3u);    // 64/18
  EXPECT_EQ(BptTree::FanoutForCapacity(128), 7u);
  EXPECT_EQ(BptTree::FanoutForCapacity(256), 14u);
  EXPECT_EQ(BptTree::FanoutForCapacity(512), 28u);
  EXPECT_EQ(BptTree::FanoutForCapacity(32), 2u);    // clamped minimum
}

TEST(BptTreeTest, SingleLeaf) {
  const BptTree t({1, 2, 3}, 4);
  EXPECT_EQ(t.height(), 0u);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_leaves(), 1u);
  EXPECT_TRUE(t.is_leaf(t.root()));
  EXPECT_EQ(t.FindLeaf(2), t.root());
}

TEST(BptTreeTest, LeavesPackInKeyOrder) {
  const auto keys = SortedKeys(100, 1);
  const BptTree t(keys, 4);
  EXPECT_EQ(t.num_leaves(), 25u);
  uint32_t data_id = 0;
  for (uint32_t leaf = 0; leaf < t.num_leaves(); ++leaf) {
    EXPECT_TRUE(t.is_leaf(leaf));
    for (const BptEntry& e : t.entries(leaf)) {
      EXPECT_EQ(e.child, data_id);
      EXPECT_EQ(e.key, keys[data_id]);
      ++data_id;
    }
  }
  EXPECT_EQ(data_id, 100u);
}

TEST(BptTreeTest, FindLeafLocatesEveryKey) {
  const auto keys = SortedKeys(500, 2);
  const BptTree t(keys, 5);
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint32_t leaf = t.FindLeaf(keys[i]);
    ASSERT_TRUE(t.is_leaf(leaf));
    // The key must be inside the leaf's [min, max] range... except for
    // duplicates spanning leaves, where FindLeaf returns the last leaf
    // whose min <= key: the key is >= leaf min and <= next leaf min.
    EXPECT_GE(keys[i], t.entries(leaf).front().key);
    if (leaf + 1 < t.num_leaves()) {
      EXPECT_LE(keys[i], t.entries(leaf + 1).front().key);
    }
  }
}

TEST(BptTreeTest, FindLeafBelowMinimumReturnsFirstLeaf) {
  const BptTree t({100, 200, 300, 400, 500, 600}, 2);
  EXPECT_EQ(t.FindLeaf(50), 0u);
}

TEST(BptTreeTest, FindLeafAboveMaximumReturnsLastLeaf) {
  const BptTree t({100, 200, 300, 400, 500, 600}, 2);
  EXPECT_EQ(t.FindLeaf(10000), t.num_leaves() - 1);
}

TEST(BptTreeTest, HeightLogarithmic) {
  const BptTree t(SortedKeys(10000, 3), 3);
  // ceil(log3(3334 leaves)) ~ 8.
  EXPECT_GE(t.height(), 7u);
  EXPECT_LE(t.height(), 9u);
  EXPECT_FALSE(t.is_leaf(t.root()));
  EXPECT_EQ(t.level(t.root()), t.height());
}

TEST(BptTreeTest, InternalKeysAreChildMinimums) {
  const BptTree t(SortedKeys(200, 4), 4);
  for (uint32_t id = 0; id < t.num_nodes(); ++id) {
    if (t.is_leaf(id)) continue;
    for (const BptEntry& e : t.entries(id)) {
      EXPECT_EQ(e.key, t.entries(e.child).front().key);
      EXPECT_EQ(t.level(e.child) + 1, t.level(id));
    }
  }
}

TEST(BptTreeTest, NodeBytesMatchEntryCount) {
  const BptTree t(SortedKeys(50, 5), 4);
  for (uint32_t id = 0; id < t.num_nodes(); ++id) {
    EXPECT_EQ(t.NodeBytes(id),
              t.entries(id).size() * common::kHcIndexEntryBytes);
    EXPECT_LE(t.entries(id).size(), 4u);
    EXPECT_GE(t.entries(id).size(), 1u);
  }
}

TEST(BptTreeTest, DescendIndexForRangeWithDuplicateRuns) {
  // Keys: a run of 7s spans leaves [5,7,7] [7,7,9]. A range scan starting
  // at 7 must descend into the FIRST leaf (last child with key < 7), while
  // the point-style DescendIndex may legally land later.
  const BptTree t({5, 7, 7, 7, 7, 9}, 3);
  ASSERT_EQ(t.num_leaves(), 2u);
  const uint32_t root = t.root();
  EXPECT_EQ(t.DescendIndexForRange(root, 7), 0u);
  EXPECT_EQ(t.DescendIndexForRange(root, 5), 0u);
  EXPECT_EQ(t.DescendIndexForRange(root, 8), 1u);
  EXPECT_EQ(t.DescendIndexForRange(root, 100), 1u);
  EXPECT_EQ(t.DescendIndex(root, 7), 1u);  // last entry with key <= 7
}

TEST(BptTreeTest, DuplicateKeysSupported) {
  const BptTree t({5, 5, 5, 5, 5, 7, 7, 9}, 3);
  const uint32_t leaf = t.FindLeaf(5);
  EXPECT_TRUE(t.is_leaf(leaf));
  EXPECT_EQ(t.entries(leaf).front().key, 5u);
}

TEST(BptTreeTest, ToAirSpecShape) {
  const BptTree t(SortedKeys(100, 6), 4);
  const auto spec = t.ToAirSpec(std::vector<uint32_t>(100, 1024));
  EXPECT_EQ(spec.nodes.size(), t.num_nodes());
  EXPECT_EQ(spec.root, t.root());
  EXPECT_EQ(spec.data_sizes.size(), 100u);
  // Leaf children are data ids 0..99 across leaves.
  std::vector<bool> seen(100, false);
  for (size_t id = 0; id < spec.nodes.size(); ++id) {
    if (spec.nodes[id].level == 0) {
      for (uint32_t d : spec.nodes[id].children) seen[d] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(AirTreeBroadcastTest, ReplicationAndOccurrences) {
  const BptTree t(SortedKeys(200, 7), 3);
  const auto spec = t.ToAirSpec(std::vector<uint32_t>(200, 1024));
  const broadcast::AirTreeBroadcast air(spec, 64, /*target_subtrees=*/8);
  EXPECT_GE(air.num_subtrees(), 8u);
  // The root occurs once per subtree (path replication).
  EXPECT_EQ(air.NodeSlots(t.root()).size(), air.num_subtrees());
  // Every data bucket occurs exactly once.
  for (uint32_t d = 0; d < 200; ++d) {
    (void)air.DataSlot(d);  // asserts internally if missing
  }
  // Non-replicated nodes occur exactly once.
  size_t total_occurrences = 0;
  for (uint32_t id = 0; id < t.num_nodes(); ++id) {
    EXPECT_GE(air.NodeSlots(id).size(), 1u);
    total_occurrences += air.NodeSlots(id).size();
  }
  EXPECT_GT(total_occurrences, t.num_nodes());  // some replication happened
}

TEST(AirTreeBroadcastTest, SingleSubtreeDisablesReplication) {
  const BptTree t(SortedKeys(50, 8), 3);
  const auto spec = t.ToAirSpec(std::vector<uint32_t>(50, 1024));
  const broadcast::AirTreeBroadcast air(spec, 64, /*target_subtrees=*/1);
  EXPECT_EQ(air.num_subtrees(), 1u);
  EXPECT_EQ(air.NodeSlots(t.root()).size(), 1u);
}

TEST(AirTreeBroadcastTest, DataFollowsItsSubtreeIndex) {
  const BptTree t(SortedKeys(100, 9), 3);
  const auto spec = t.ToAirSpec(std::vector<uint32_t>(100, 1024));
  const broadcast::AirTreeBroadcast air(spec, 64, 4);
  // Data id 0 (first leaf's first entry) must be broadcast after the first
  // leaf node but within the first portion of the cycle.
  const auto& prog = air.program();
  const uint64_t first_leaf_start =
      prog.bucket(air.NodeSlots(0).front()).start_packet;
  const uint64_t data0_start =
      prog.bucket(air.DataSlot(0)).start_packet;
  EXPECT_GT(data0_start, first_leaf_start);
}

TEST(AirTreeBroadcastTest, NextNodeAiringPicksSoonestOccurrence) {
  const BptTree t(SortedKeys(200, 10), 3);
  const auto spec = t.ToAirSpec(std::vector<uint32_t>(200, 1024));
  const broadcast::AirTreeBroadcast air(spec, 64, 8);
  broadcast::ClientSession s(air.program(), 0, broadcast::ErrorModel{},
                             common::Rng(1));
  s.InitialProbe();
  const auto next = air.NextNodeAiring(t.root(), s);
  EXPECT_EQ(next.wait, s.PacketsUntil(next.slot));
  // No other occurrence of the root is nearer.
  for (size_t other : air.NodeSlots(t.root())) {
    EXPECT_LE(next.wait, s.PacketsUntil(other));
  }
}

}  // namespace
}  // namespace dsi::bptree
