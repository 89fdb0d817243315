#include "rtree/rtree_air.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dsi::rtree {

RtreeIndex::RtreeIndex(std::vector<datasets::SpatialObject> objects,
                       size_t packet_capacity, uint32_t target_subtrees,
                       broadcast::TreeLayout layout)
    : tree_(std::move(objects), Rtree::FanoutForCapacity(packet_capacity)),
      air_(tree_.ToAirSpec(std::vector<uint32_t>(
               tree_.str_objects().size(), common::kDataObjectBytes)),
           packet_capacity, target_subtrees, layout) {
  assert(Rtree::SupportedCapacity(packet_capacity));
}

RtreeClient::RtreeClient(const RtreeIndex& index,
                         broadcast::ClientSession* session)
    : index_(index), reader_(index.air(), session) {}

bool RtreeClient::TryReadNode(uint32_t node_id) {
  if (reader_.node_cached(node_id)) return true;
  // Drain pending data buckets that pass by on the way to the node.
  reader_.FlushPassingData(node_id);
  // A lost node stays in the caller's frontier and competes again at its
  // next occurrence. Blocking here would let every other frontier node fly
  // by — a full-tree traversal under heavy loss then costs O(tree) extra
  // cycles and spuriously trips the watchdog.
  return !reader_.stats().stale && reader_.ListenNode(node_id);
}

size_t RtreeClient::EarliestFrontierIndex(
    const std::vector<uint32_t>& frontier) const {
  uint64_t best_wait = UINT64_MAX;
  size_t best_i = SIZE_MAX;
  for (size_t i = 0; i < frontier.size(); ++i) {
    const uint64_t w = reader_.PacketsUntilNode(frontier[i]);
    if (w < best_wait) {
      best_wait = w;
      best_i = i;
    }
  }
  return best_i;
}

std::vector<datasets::SpatialObject> RtreeClient::WindowQuery(
    const common::Rect& window) {
  const Rtree& tree = index_.tree();
  std::vector<uint32_t> frontier{tree.root()};
  while (!frontier.empty()) {
    // Report what was retrieved; completed=false flags the abort.
    if (reader_.ShouldAbort()) break;
    const size_t i = EarliestFrontierIndex(frontier);
    const uint32_t node = frontier[i];
    if (!TryReadNode(node)) continue;  // lost: retried at next occurrence
    frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(i));
    for (const Rtree::Entry& e : tree.entries(node)) {
      if (!e.mbr.Intersects(window)) continue;
      if (tree.is_leaf(node)) {
        // Leaf entries carry the exact point: membership is known here,
        // the payload still has to be fetched from the data segment.
        reader_.Want(e.child);
      } else {
        frontier.push_back(e.child);
      }
    }
  }
  reader_.DrainPending();
  return reader_.RetrievedWhere(
      index_.str_objects(), [&](const datasets::SpatialObject& o) {
        return window.Contains(o.location);
      });
}

std::vector<datasets::SpatialObject> RtreeClient::KnnQuery(
    const common::Point& q, size_t k) {
  if (k == 0) return {};  // degenerate: the empty set, no listening needed
  const Rtree& tree = index_.tree();

  // Exact candidate distances come straight from leaf entries (points).
  struct Candidate {
    double dist2;
    uint32_t data_id;
  };
  std::vector<Candidate> candidates;
  auto tau2 = [&]() -> double {
    if (candidates.size() < k) return std::numeric_limits<double>::infinity();
    return candidates[k - 1].dist2;
  };
  auto add_candidate = [&](double d2, uint32_t data_id) {
    candidates.push_back(Candidate{d2, data_id});
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.dist2 != b.dist2 ? a.dist2 < b.dist2
                                          : a.data_id < b.data_id;
              });
    if (candidates.size() > k) candidates.resize(k);
  };

  std::vector<uint32_t> frontier{tree.root()};
  while (!frontier.empty()) {
    // Fetch what is already known; completed=false flags the abort.
    if (reader_.ShouldAbort()) break;
    // Prune frontier nodes that cannot beat the current k-th candidate.
    std::erase_if(frontier, [&](uint32_t id) {
      return tree.node_mbr(id).MinSquaredDistance(q) > tau2();
    });
    if (frontier.empty()) break;
    const size_t i = EarliestFrontierIndex(frontier);
    const uint32_t node = frontier[i];
    if (!TryReadNode(node)) continue;  // lost: retried at next occurrence
    frontier.erase(frontier.begin() + static_cast<ptrdiff_t>(i));
    for (const Rtree::Entry& e : tree.entries(node)) {
      const double mind2 = e.mbr.MinSquaredDistance(q);
      if (mind2 > tau2()) continue;
      if (tree.is_leaf(node)) {
        add_candidate(mind2, e.child);
      } else {
        frontier.push_back(e.child);
      }
    }
  }

  // Fetch the answer objects' payloads.
  for (const Candidate& c : candidates) reader_.Want(c.data_id);
  reader_.DrainPending();

  std::vector<datasets::SpatialObject> out;
  out.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    if (reader_.retrieved(c.data_id)) {
      out.push_back(index_.str_objects()[c.data_id]);
    }
  }
  return out;
}

}  // namespace dsi::rtree
