#include "broadcast/air_tree.hpp"

#include <algorithm>
#include <cassert>

namespace dsi::broadcast {

namespace {

constexpr uint64_t kWatchdogCycles = 400;

/// Preorder (left-to-right) node order of the subtree rooted at \p root,
/// plus its data ids in leaf order.
void PreorderAndData(const AirTreeSpec& spec, uint32_t root,
                     std::vector<uint32_t>* order,
                     std::vector<uint32_t>* data_ids) {
  std::vector<uint32_t> stack{root};
  while (!stack.empty()) {
    const uint32_t id = stack.back();
    stack.pop_back();
    order->push_back(id);
    const auto& node = spec.nodes[id];
    if (node.level == 0) {
      for (uint32_t d : node.children) data_ids->push_back(d);
    } else {
      for (auto it = node.children.rbegin(); it != node.children.rend();
           ++it) {
        stack.push_back(*it);
      }
    }
  }
}

}  // namespace

AirTreeBroadcast::AirTreeBroadcast(AirTreeSpec spec, size_t packet_capacity,
                                   uint32_t target_subtrees,
                                   TreeLayout layout)
    : spec_(std::move(spec)), program_(packet_capacity), layout_(layout) {
  // An empty tree (zero objects) yields an empty program — nothing on air;
  // RunWorkload guards it and no ClientSession may be constructed over it.
  if (spec_.nodes.empty()) {
    program_.Finalize();
    return;
  }
  assert(spec_.root < spec_.nodes.size());
  target_subtrees = std::max<uint32_t>(target_subtrees, 1);
  node_slots_.resize(spec_.nodes.size());
  data_slot_.assign(spec_.data_sizes.size(), SIZE_MAX);

  switch (layout_) {
    case TreeLayout::kDistributed:
      BuildDistributed(target_subtrees);
      break;
    case TreeLayout::kOneM:
      BuildOneM(target_subtrees);
      break;
  }
  program_.Finalize();
  // Slots were appended in broadcast order; occurrence lists are sorted by
  // construction.
}

void AirTreeBroadcast::BuildDistributed(uint32_t target_subtrees) {
  const uint32_t root_level = spec_.nodes[spec_.root].level;

  // Count nodes per level to find the distribution level: the highest level
  // with at least target_subtrees nodes (or the leaf level if none).
  std::vector<uint32_t> level_count(root_level + 1, 0);
  for (const auto& n : spec_.nodes) {
    assert(n.level <= root_level);
    ++level_count[n.level];
  }
  distribution_level_ = 0;
  for (uint32_t lvl = root_level;; --lvl) {
    if (level_count[lvl] >= target_subtrees || lvl == 0) {
      distribution_level_ = lvl;
      break;
    }
  }

  // Collect subtree roots (distribution-level nodes) left to right, and the
  // ancestor path (root .. parent) to emit before each subtree.
  struct PathedRoot {
    uint32_t node;
    std::vector<uint32_t> path;
  };
  std::vector<PathedRoot> roots;
  {
    std::vector<std::pair<uint32_t, std::vector<uint32_t>>> stack;
    stack.emplace_back(spec_.root, std::vector<uint32_t>{});
    // Depth-first, left to right (stack gets children reversed).
    while (!stack.empty()) {
      auto [id, path] = std::move(stack.back());
      stack.pop_back();
      const auto& node = spec_.nodes[id];
      if (node.level == distribution_level_) {
        roots.push_back(PathedRoot{id, std::move(path)});
        continue;
      }
      path.push_back(id);
      for (auto it = node.children.rbegin(); it != node.children.rend();
           ++it) {
        stack.emplace_back(*it, path);
      }
    }
  }

  subtree_roots_.reserve(roots.size());
  for (const PathedRoot& r : roots) {
    subtree_roots_.push_back(r.node);
    // Replicated part: the ancestor path, root first.
    for (uint32_t anc : r.path) {
      node_slots_[anc].push_back(program_.AddBucket(
          BucketKind::kIndexNode, anc, spec_.nodes[anc].size_bytes));
    }
    // Non-replicated part: subtree nodes in DFS preorder, then its data.
    std::vector<uint32_t> order;
    std::vector<uint32_t> data_ids;
    PreorderAndData(spec_, r.node, &order, &data_ids);
    for (uint32_t id : order) {
      node_slots_[id].push_back(program_.AddBucket(
          BucketKind::kIndexNode, id, spec_.nodes[id].size_bytes));
    }
    for (uint32_t d : data_ids) {
      assert(d < spec_.data_sizes.size());
      assert(data_slot_[d] == SIZE_MAX);  // each datum broadcast once
      data_slot_[d] =
          program_.AddBucket(BucketKind::kDataObject, d, spec_.data_sizes[d]);
    }
  }
}

void AirTreeBroadcast::BuildOneM(uint32_t copies) {
  distribution_level_ = spec_.nodes[spec_.root].level;
  subtree_roots_.assign(copies, spec_.root);

  std::vector<uint32_t> order;
  std::vector<uint32_t> data_ids;
  PreorderAndData(spec_, spec_.root, &order, &data_ids);

  const size_t total = data_ids.size();
  const size_t chunk = (total + copies - 1) / std::max<uint32_t>(copies, 1);
  size_t next_data = 0;
  for (uint32_t copy = 0; copy < copies; ++copy) {
    // One full copy of the index...
    for (uint32_t id : order) {
      node_slots_[id].push_back(program_.AddBucket(
          BucketKind::kIndexNode, id, spec_.nodes[id].size_bytes));
    }
    // ...followed by the next 1/m of the data.
    const size_t end = std::min(total, next_data + chunk);
    for (; next_data < end; ++next_data) {
      const uint32_t d = data_ids[next_data];
      assert(data_slot_[d] == SIZE_MAX);
      data_slot_[d] =
          program_.AddBucket(BucketKind::kDataObject, d, spec_.data_sizes[d]);
    }
  }
  assert(next_data == total);
}

AirTreeBroadcast::NodeAiring AirTreeBroadcast::NextNodeAiring(
    uint32_t node_id, const ClientSession& session) const {
  const auto& slots = node_slots_[node_id];
  assert(!slots.empty());
  NodeAiring best{slots.front(), session.PacketsUntil(slots.front())};
  for (size_t i = 1; i < slots.size(); ++i) {
    const uint64_t wait = session.PacketsUntil(slots[i]);
    if (wait < best.wait) best = {slots[i], wait};
  }
  return best;
}

size_t AirTreeBroadcast::DataSlot(uint32_t data_id) const {
  assert(data_id < data_slot_.size());
  assert(data_slot_[data_id] != SIZE_MAX);
  return data_slot_[data_id];
}

AirTreeReader::AirTreeReader(const AirTreeBroadcast& air,
                             ClientSession* session)
    : air_(&air),
      session_(session),
      node_cache_(air.spec().nodes.size(), false),
      retrieved_(air.spec().data_sizes.size(), 0) {
  session_->InitialProbe();
  generation_ = session_->generation();
  deadline_packets_ = session_->now_packets() +
                      kWatchdogCycles * session_->program().cycle_packets();
}

void AirTreeReader::BeginQuery() {
  pending_data_.clear();
  stats_.completed = true;
  stats_.stale = false;
  deadline_packets_ = session_->now_packets() +
                      kWatchdogCycles * session_->program().cycle_packets();
}

bool AirTreeReader::ShouldAbort() {
  if (!WatchdogExpired() && !stats_.stale) return false;
  stats_.completed = false;
  return true;
}

void AirTreeReader::NoteLoss() {
  if (session_->generation() != generation_) {
    stats_.stale = true;
    stats_.completed = false;
  } else {
    ++stats_.buckets_lost;
  }
}

bool AirTreeReader::ListenNode(uint32_t node_id) {
  if (session_->ReadBucket(air_->NextNodeAiring(node_id, *session_).slot)) {
    ++stats_.nodes_read;
    node_cache_[node_id] = true;
    return true;
  }
  NoteLoss();
  return false;
}

bool AirTreeReader::TryReadData(uint32_t data_id) {
  if (retrieved_[data_id]) return true;
  if (session_->ReadBucket(air_->DataSlot(data_id))) {
    ++stats_.objects_read;
    retrieved_[data_id] = 1;
    return true;
  }
  NoteLoss();
  return false;
}

std::pair<size_t, uint64_t> AirTreeReader::SoonestPending() const {
  size_t best_i = 0;
  uint64_t best_wait = UINT64_MAX;
  for (size_t i = 0; i < pending_data_.size(); ++i) {
    const uint64_t w =
        session_->PacketsUntil(air_->DataSlot(pending_data_[i]));
    if (w < best_wait) {
      best_wait = w;
      best_i = i;
    }
  }
  return {best_i, best_wait};
}

void AirTreeReader::ReadPending(size_t i) {
  if (TryReadData(pending_data_[i])) {
    pending_data_.erase(pending_data_.begin() + static_cast<ptrdiff_t>(i));
  }
}

void AirTreeReader::FlushPassingData(uint32_t before_node) {
  // Repeatedly read the pending data bucket that comes up soonest, as long
  // as it arrives before the node we are headed to (recomputed each pass,
  // since reading advances time). A lost bucket stays pending: its next
  // occurrence is a cycle away, so the sweep moves on to whatever passes
  // next instead of blocking on the loss.
  while (!pending_data_.empty() && !WatchdogExpired() && !stats_.stale) {
    const auto [i, wait] = SoonestPending();
    if (wait >= PacketsUntilNode(before_node)) return;
    ReadPending(i);
  }
}

void AirTreeReader::DrainPending() {
  // Sweep in passing order; lost buckets stay pending and are retried when
  // they come around again, alongside everything else still pending.
  while (!pending_data_.empty()) {
    if (ShouldAbort()) return;
    ReadPending(SoonestPending().first);
  }
}

}  // namespace dsi::broadcast
