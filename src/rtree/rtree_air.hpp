#pragma once

/// \file rtree_air.hpp
/// \brief The R-tree baseline on the broadcast channel: STR-packed tree,
/// distributed-index air layout, and client search whose navigation order
/// follows the broadcast order (Section 2.1's requirement: visiting nodes
/// out of broadcast order costs a full extra cycle).

#include <cstdint>
#include <vector>

#include "broadcast/air_tree.hpp"
#include "broadcast/client.hpp"
#include "common/geometry.hpp"
#include "datasets/datasets.hpp"
#include "rtree/str_pack.hpp"

namespace dsi::rtree {

/// Server-side R-tree broadcast.
class RtreeIndex {
 public:
  RtreeIndex(std::vector<datasets::SpatialObject> objects,
             size_t packet_capacity, uint32_t target_subtrees = 16,
             broadcast::TreeLayout layout =
                 broadcast::TreeLayout::kDistributed);

  const Rtree& tree() const { return tree_; }
  const broadcast::AirTreeBroadcast& air() const { return air_; }
  const broadcast::BroadcastProgram& program() const {
    return air_.program();
  }
  /// Objects in broadcast (STR leaf) order; data id == rank here.
  const std::vector<datasets::SpatialObject>& str_objects() const {
    return tree_.str_objects();
  }

 private:
  Rtree tree_;
  broadcast::AirTreeBroadcast air_;
};

/// Query execution against an R-tree broadcast. Both searches keep a
/// frontier of not-yet-visited relevant nodes and always read the one whose
/// next broadcast occurrence comes soonest (branch-and-bound adapted to the
/// linear channel). Reads, the pending-bucket sweep, the watchdog and the
/// continuous-client contract are broadcast::AirTreeReader's.
class RtreeClient {
 public:
  RtreeClient(const RtreeIndex& index, broadcast::ClientSession* session);

  /// Arms the next query of a continuous client (AirTreeReader::BeginQuery).
  void BeginQuery() { reader_.BeginQuery(); }

  std::vector<datasets::SpatialObject> WindowQuery(const common::Rect& window);
  std::vector<datasets::SpatialObject> KnnQuery(const common::Point& q,
                                                size_t k);

  const broadcast::AirTreeStats& stats() const { return reader_.stats(); }

 private:
  /// Sweeps the pending data passing by, then makes one listen attempt for
  /// \p node_id; false on a link error (the node stays in the frontier —
  /// callers sweep, never block).
  bool TryReadNode(uint32_t node_id);
  /// Picks the frontier node with the soonest next occurrence; SIZE_MAX
  /// index when the frontier is empty.
  size_t EarliestFrontierIndex(const std::vector<uint32_t>& frontier) const;

  const RtreeIndex& index_;
  broadcast::AirTreeReader reader_;
};

}  // namespace dsi::rtree
