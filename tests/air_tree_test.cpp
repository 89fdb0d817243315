#include "broadcast/air_tree.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "bptree/bptree.hpp"
#include "broadcast/generation.hpp"
#include "common/rng.hpp"

namespace dsi::broadcast {
namespace {

/// A small synthetic 3-level tree: root -> 3 internals -> 9 leaves -> 27
/// data buckets.
AirTreeSpec MakeSpec() {
  AirTreeSpec spec;
  // 9 leaves (ids 0..8), 3 internals (9..11), root (12).
  uint32_t data = 0;
  for (uint32_t leaf = 0; leaf < 9; ++leaf) {
    AirTreeSpec::Node n;
    n.level = 0;
    n.size_bytes = 54;
    for (int i = 0; i < 3; ++i) n.children.push_back(data++);
    spec.nodes.push_back(n);
  }
  for (uint32_t mid = 0; mid < 3; ++mid) {
    AirTreeSpec::Node n;
    n.level = 1;
    n.size_bytes = 54;
    for (uint32_t i = 0; i < 3; ++i) n.children.push_back(mid * 3 + i);
    spec.nodes.push_back(n);
  }
  AirTreeSpec::Node root;
  root.level = 2;
  root.size_bytes = 54;
  root.children = {9, 10, 11};
  spec.nodes.push_back(root);
  spec.root = 12;
  spec.data_sizes.assign(27, 1024);
  return spec;
}

TEST(AirTreeDistributedTest, SubtreeStructure) {
  const AirTreeBroadcast air(MakeSpec(), 64, /*target_subtrees=*/3,
                             TreeLayout::kDistributed);
  EXPECT_EQ(air.layout(), TreeLayout::kDistributed);
  EXPECT_EQ(air.num_subtrees(), 3u);
  EXPECT_EQ(air.distribution_level(), 1u);
  // Root is replicated once per subtree; internals once; leaves once.
  EXPECT_EQ(air.NodeSlots(12).size(), 3u);
  for (uint32_t mid = 9; mid <= 11; ++mid) {
    EXPECT_EQ(air.NodeSlots(mid).size(), 1u);
  }
  for (uint32_t leaf = 0; leaf < 9; ++leaf) {
    EXPECT_EQ(air.NodeSlots(leaf).size(), 1u);
  }
}

TEST(AirTreeDistributedTest, OrderWithinCycle) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  const auto& prog = air.program();
  // Per subtree: [root][mid][leaf leaf leaf][9 data]. Data of subtree s
  // comes after its leaves and before the next subtree's root copy.
  for (uint32_t s = 0; s < 3; ++s) {
    const uint64_t root_start =
        prog.bucket(air.NodeSlots(12)[s]).start_packet;
    const uint64_t mid_start =
        prog.bucket(air.NodeSlots(9 + s).front()).start_packet;
    EXPECT_GT(mid_start, root_start);
    for (uint32_t leaf = s * 3; leaf < s * 3 + 3; ++leaf) {
      const uint64_t leaf_start =
          prog.bucket(air.NodeSlots(leaf).front()).start_packet;
      EXPECT_GT(leaf_start, mid_start);
      for (uint32_t i = 0; i < 3; ++i) {
        const uint32_t d = leaf * 3 + i;
        EXPECT_GT(prog.bucket(air.DataSlot(d)).start_packet, leaf_start);
      }
    }
  }
}

TEST(AirTreeDistributedTest, EveryDataBucketExactlyOnce) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  std::set<size_t> slots;
  for (uint32_t d = 0; d < 27; ++d) slots.insert(air.DataSlot(d));
  EXPECT_EQ(slots.size(), 27u);
}

TEST(AirTreeOneMTest, WholeIndexReplicatedMTimes) {
  for (const uint32_t m : {1u, 2u, 3u, 5u}) {
    const AirTreeBroadcast air(MakeSpec(), 64, m, TreeLayout::kOneM);
    EXPECT_EQ(air.layout(), TreeLayout::kOneM);
    for (uint32_t node = 0; node < 13; ++node) {
      EXPECT_EQ(air.NodeSlots(node).size(), m) << "node " << node;
    }
    std::set<size_t> slots;
    for (uint32_t d = 0; d < 27; ++d) slots.insert(air.DataSlot(d));
    EXPECT_EQ(slots.size(), 27u);
  }
}

TEST(AirTreeOneMTest, DataSplitsIntoChunksAfterEachCopy) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kOneM);
  const auto& prog = air.program();
  // Copy c of the root precedes the data of chunk c (9 items each) and
  // follows the data of chunk c-1.
  for (uint32_t c = 0; c < 3; ++c) {
    const uint64_t copy_start =
        prog.bucket(air.NodeSlots(12)[c]).start_packet;
    for (uint32_t d = c * 9; d < (c + 1) * 9; ++d) {
      EXPECT_GT(prog.bucket(air.DataSlot(d)).start_packet, copy_start);
    }
    if (c > 0) {
      for (uint32_t d = (c - 1) * 9; d < c * 9; ++d) {
        EXPECT_LT(prog.bucket(air.DataSlot(d)).start_packet, copy_start);
      }
    }
  }
}

TEST(AirTreeOneMTest, CycleGrowsWithM) {
  const AirTreeBroadcast one(MakeSpec(), 64, 1, TreeLayout::kOneM);
  const AirTreeBroadcast four(MakeSpec(), 64, 4, TreeLayout::kOneM);
  EXPECT_GT(four.program().cycle_bytes(), one.program().cycle_bytes());
  // Exactly 3 extra index copies: 13 nodes x 1 packet x 64 B each.
  EXPECT_EQ(four.program().cycle_bytes() - one.program().cycle_bytes(),
            3u * 13u * 64u);
}

TEST(AirTreeOneMTest, DistributedCheaperThanFullReplication) {
  // Same number of index access points (m == target subtrees): the
  // distributed layout replicates only paths and must be no longer.
  const AirTreeBroadcast dist(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  const AirTreeBroadcast onem(MakeSpec(), 64, 3, TreeLayout::kOneM);
  EXPECT_LT(dist.program().cycle_bytes(), onem.program().cycle_bytes());
}

TEST(AirTreeTest, NextNodeAiringWrapsCorrectly) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  // Park a session just past the last bucket; the next root copy is the
  // first one of the next cycle.
  ClientSession s(air.program(),
                  air.program().cycle_packets() - 1, ErrorModel{},
                  common::Rng(1));
  s.InitialProbe();
  const auto next = air.NextNodeAiring(12, s);
  EXPECT_EQ(next.slot, air.NodeSlots(12).front());
  EXPECT_EQ(next.wait, s.PacketsUntil(next.slot));
}

TEST(AirTreeTest, SingleNodeTree) {
  AirTreeSpec spec;
  AirTreeSpec::Node leaf;
  leaf.level = 0;
  leaf.size_bytes = 18;
  leaf.children = {0, 1};
  spec.nodes.push_back(leaf);
  spec.root = 0;
  spec.data_sizes = {100, 200};
  const AirTreeBroadcast air(spec, 64, 4, TreeLayout::kDistributed);
  EXPECT_EQ(air.num_subtrees(), 1u);
  EXPECT_EQ(air.NodeSlots(0).size(), 1u);
  (void)air.DataSlot(0);
  (void)air.DataSlot(1);
}

TEST(AirTreeTest, RealTreeBothLayoutsCoverSameData) {
  std::vector<uint64_t> keys;
  common::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    keys.push_back(static_cast<uint64_t>(rng.UniformInt(0, 1 << 20)));
  }
  std::sort(keys.begin(), keys.end());
  const bptree::BptTree tree(keys, 4);
  const auto spec = tree.ToAirSpec(std::vector<uint32_t>(300, 1024));
  const AirTreeBroadcast dist(spec, 64, 8, TreeLayout::kDistributed);
  const AirTreeBroadcast onem(spec, 64, 2, TreeLayout::kOneM);
  for (uint32_t d = 0; d < 300; ++d) {
    (void)dist.DataSlot(d);
    (void)onem.DataSlot(d);
  }
  for (uint32_t n = 0; n < tree.num_nodes(); ++n) {
    EXPECT_GE(dist.NodeSlots(n).size(), 1u);
    EXPECT_EQ(onem.NodeSlots(n).size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// AirTreeReader: the client half shared by the R-tree and HCI clients. On
// MakeSpec() with 3 subtrees each one airs [root][mid][3 leaves][9 data]:
// data 0..8 belong to subtree 0 (mid 9), 9..17 to subtree 1 (mid 10) and
// 18..26 to subtree 2 (mid 11).
// ---------------------------------------------------------------------------

/// Slots the session listened to (kListen events), in listening order.
std::vector<size_t> ListenedSlots(const std::vector<TraceEvent>& trace) {
  std::vector<size_t> slots;
  for (const TraceEvent& e : trace) {
    if (e.kind == TraceEvent::Kind::kListen) slots.push_back(e.slot);
  }
  return slots;
}

TEST(AirTreeReaderTest, FlushReadsOnlyDataAiringBeforeTheNodeInAiringOrder) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  ClientSession s(air.program(), 0, ErrorModel{}, common::Rng(1));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  AirTreeReader reader(air, &s);
  // Queued out of airing order; 2 and 5 air before mid 10, 11 and 20 after.
  for (const uint32_t d : {20u, 5u, 11u, 2u}) reader.Want(d);
  reader.FlushPassingData(10);
  EXPECT_EQ(ListenedSlots(trace),
            (std::vector<size_t>{air.DataSlot(2), air.DataSlot(5)}));
  EXPECT_TRUE(reader.retrieved(2));
  EXPECT_TRUE(reader.retrieved(5));
  EXPECT_FALSE(reader.retrieved(11));
  EXPECT_FALSE(reader.retrieved(20));
  EXPECT_EQ(reader.stats().objects_read, 2u);
  // Stopped before the node went by.
  EXPECT_LE(s.now_packets(),
            air.program().bucket(air.NodeSlots(10).front()).start_packet);

  // The drain takes the rest, soonest first, and leaves nothing pending.
  reader.DrainPending();
  EXPECT_EQ(ListenedSlots(trace),
            (std::vector<size_t>{air.DataSlot(2), air.DataSlot(5),
                                 air.DataSlot(11), air.DataSlot(20)}));
  EXPECT_EQ(reader.stats().objects_read, 4u);
  EXPECT_TRUE(reader.stats().completed);
  const uint64_t done_at = s.now_packets();
  reader.DrainPending();
  EXPECT_EQ(s.now_packets(), done_at);
  EXPECT_EQ(ListenedSlots(trace).size(), 4u);
}

TEST(AirTreeReaderTest, LostBucketStaysPendingAndCountsEveryAttempt) {
  const AirTreeBroadcast air(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  ClientSession s(air.program(), 0,
                  ErrorModel{1.0, ErrorMode::kPerBucketLoss}, common::Rng(1));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  AirTreeReader reader(air, &s);
  reader.Want(11);
  // Data 11 airs before mid 11: one attempt, lost; its next occurrence is
  // a cycle away, behind the node, so the sweep stops there.
  reader.FlushPassingData(11);
  EXPECT_EQ(ListenedSlots(trace), std::vector<size_t>{air.DataSlot(11)});
  EXPECT_EQ(reader.stats().buckets_lost, 1u);
  EXPECT_FALSE(reader.retrieved(11));
  reader.FlushPassingData(11);
  EXPECT_EQ(reader.stats().buckets_lost, 1u);

  // Still pending: the drain retries it once per cycle until the watchdog
  // expires, then marks the query incomplete.
  reader.DrainPending();
  const std::vector<size_t> listened = ListenedSlots(trace);
  EXPECT_GT(listened.size(), 2u);
  for (const size_t slot : listened) EXPECT_EQ(slot, air.DataSlot(11));
  EXPECT_EQ(reader.stats().buckets_lost, listened.size());
  EXPECT_TRUE(reader.WatchdogExpired());
  EXPECT_FALSE(reader.stats().completed);
  EXPECT_FALSE(reader.stats().stale);
  EXPECT_FALSE(reader.retrieved(11));

  // The next query starts from a fresh watchdog and an empty pending list.
  reader.BeginQuery();
  EXPECT_FALSE(reader.WatchdogExpired());
  EXPECT_TRUE(reader.stats().completed);
  reader.DrainPending();
  EXPECT_EQ(ListenedSlots(trace).size(), listened.size());
}

TEST(AirTreeReaderTest, ReadAcrossGenerationSwitchGoesStale) {
  const AirTreeBroadcast gen0(MakeSpec(), 64, 3, TreeLayout::kDistributed);
  const AirTreeBroadcast gen1(MakeSpec(), 64, 2, TreeLayout::kOneM);
  GenerationSchedule schedule;
  schedule.Append(&gen0.program(), 1);
  schedule.Append(&gen1.program(), 1);
  ClientSession s(schedule, 0, ErrorModel{}, common::Rng(1));
  AirTreeReader reader(gen0, &s);
  // A late datum airs within generation 0...
  reader.Want(20);
  reader.DrainPending();
  EXPECT_TRUE(reader.retrieved(20));
  EXPECT_EQ(s.generation(), 0u);
  EXPECT_FALSE(reader.stats().stale);
  // ...but data 0 has gone by: its next occurrence lies past the switch.
  reader.Want(0);
  reader.DrainPending();
  EXPECT_EQ(s.generation(), 1u);
  EXPECT_TRUE(reader.stats().stale);
  EXPECT_FALSE(reader.stats().completed);
  EXPECT_FALSE(reader.retrieved(0));
  EXPECT_EQ(reader.stats().buckets_lost, 0u);
}

}  // namespace
}  // namespace dsi::broadcast
