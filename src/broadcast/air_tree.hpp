#pragma once

/// \file air_tree.hpp
/// \brief Generic "tree on air" broadcast layout implementing the
/// distributed indexing scheme of Imielinski et al. [9], which the paper
/// uses for both baselines ("Both implementation of R-tree and B+-tree are
/// based on the well known distributed indexing scheme").
///
/// The tree is cut at a *distribution level*: the subtrees rooted there are
/// broadcast exactly once per cycle (non-replicated part), while the path
/// of ancestors above each subtree is re-broadcast right before it
/// (replicated part). Each subtree's data buckets follow its index nodes:
///
///   [path][subtree_1 nodes][subtree_1 data][path][subtree_2 nodes]...
///
/// Clients navigate by reading a node, choosing children, and dozing to the
/// next occurrence of each child's bucket — wrapping into the next cycle
/// whenever the needed node has already gone by (the fundamental cost of
/// tree indexes on air that DSI avoids). AirTreeReader is that client's
/// shared half: node/data reads, the pending-bucket sweep and the watchdog.

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "broadcast/client.hpp"
#include "broadcast/program.hpp"
#include "datasets/datasets.hpp"

namespace dsi::broadcast {

/// Logical description of a static, bulk-loaded tree to put on air.
struct AirTreeSpec {
  struct Node {
    uint32_t level = 0;  ///< 0 = leaf level; root has the maximum level.
    /// Child node ids (level > 0) or data bucket ids (level == 0), ordered
    /// left to right (the broadcast order of the indexed space).
    std::vector<uint32_t> children;
    uint32_t size_bytes = 0;  ///< Serialized node size.
  };
  std::vector<Node> nodes;
  uint32_t root = 0;
  /// Serialized payload size of each data bucket, indexed by data id.
  std::vector<uint32_t> data_sizes;
};

/// How the tree is interleaved with the data on air.
enum class TreeLayout : uint8_t {
  /// Distributed indexing [9]: the tree is cut at a distribution level;
  /// each subtree airs once, preceded by a fresh copy of its root path.
  kDistributed,
  /// (1, m) indexing [9]: the *whole* index airs m times per cycle, each
  /// copy followed by 1/m of the data. Simpler, but the duplicated index
  /// stretches the cycle — the scheme the distributed index supersedes.
  kOneM,
};

/// A finalized broadcast program for a tree plus the occurrence lookup
/// tables clients use to doze toward the next copy of a bucket.
class AirTreeBroadcast {
 public:
  /// \param target_subtrees For kDistributed: desired number of
  /// non-replicated subtrees; the distribution level is the highest tree
  /// level with at least this many nodes (clamped to the leaf level), and
  /// 1 disables replication. For kOneM: the number of index copies m.
  AirTreeBroadcast(AirTreeSpec spec, size_t packet_capacity,
                   uint32_t target_subtrees = 16,
                   TreeLayout layout = TreeLayout::kDistributed);

  const AirTreeSpec& spec() const { return spec_; }
  const BroadcastProgram& program() const { return program_; }
  TreeLayout layout() const { return layout_; }
  uint32_t distribution_level() const { return distribution_level_; }
  uint32_t num_subtrees() const {
    return static_cast<uint32_t>(subtree_roots_.size());
  }

  /// One occurrence of a node on air and the doze until it starts.
  struct NodeAiring {
    size_t slot = 0;
    uint64_t wait = 0;  ///< Packets until the occurrence starts.
  };

  /// The occurrence of node \p node_id that starts soonest at or after the
  /// session's current time (the first listed on ties), with its wait.
  NodeAiring NextNodeAiring(uint32_t node_id,
                            const ClientSession& session) const;

  /// Slot of the (single) occurrence of data bucket \p data_id.
  size_t DataSlot(uint32_t data_id) const;

  /// All occurrence slots of a node (for tests/inspection).
  const std::vector<size_t>& NodeSlots(uint32_t node_id) const {
    return node_slots_[node_id];
  }

 private:
  void BuildDistributed(uint32_t target_subtrees);
  void BuildOneM(uint32_t copies);

  AirTreeSpec spec_;
  BroadcastProgram program_;
  TreeLayout layout_ = TreeLayout::kDistributed;
  uint32_t distribution_level_ = 0;
  std::vector<uint32_t> subtree_roots_;
  std::vector<std::vector<size_t>> node_slots_;  // by node id, sorted
  std::vector<size_t> data_slot_;                // by data id
};

/// Per-query diagnostics of a tree-on-air client (R-tree, HCI).
struct AirTreeStats {
  uint64_t nodes_read = 0;
  uint64_t objects_read = 0;
  uint64_t buckets_lost = 0;
  bool completed = true;
  /// Broadcast republished mid-query (dynamic broadcasts): the node cache
  /// and pending slots referred to the dead layout; partial results returned.
  bool stale = false;
};

/// The client state and reads every tree-on-air client shares; the family
/// client (RtreeClient, HciClient) holds one and keeps only its search
/// logic — which node to read next. Kept alive on one session it serves a
/// stream of queries: the node cache and retrieved flags describe the
/// broadcast content, so they stay valid within one generation (call
/// BeginQuery() before each re-evaluation; rebuild on the new generation's
/// index when session->generation() advances).
///
/// No read here blocks on a loss: a lost data bucket stays pending and a
/// lost node returns false, so callers sweep on to whatever passes next.
/// Blocking a full cycle per loss would cost O(pending) extra cycles under
/// heavy loss and spuriously trip the watchdog.
class AirTreeReader {
 public:
  /// Probes \p session and arms the watchdog; \p air and \p session must
  /// outlive the reader.
  AirTreeReader(const AirTreeBroadcast& air, ClientSession* session);

  /// Arms the next query: clears the per-query flags and the previous
  /// query's half-resolved pending list, and re-arms the watchdog from the
  /// session's current instant. The node cache and retrieved flags are kept.
  void BeginQuery();

  bool WatchdogExpired() const {
    return session_->now_packets() >= deadline_packets_;
  }
  /// True once the query has to give up — watchdog expired or broadcast
  /// republished — and then marks it incomplete; the caller reports what
  /// was retrieved so far.
  bool ShouldAbort();

  /// Packets until the next occurrence of node \p node_id.
  uint64_t PacketsUntilNode(uint32_t node_id) const {
    return air_->NextNodeAiring(node_id, *session_).wait;
  }

  /// One listen attempt for node \p node_id at its next occurrence; true
  /// once it is cached. A loss counts in buckets_lost, or flags the query
  /// stale when the broadcast was republished.
  bool ListenNode(uint32_t node_id);

  /// Queues \p data_id for retrieval unless it is already retrieved.
  void Want(uint32_t data_id) {
    if (!retrieved_[data_id]) pending_data_.push_back(data_id);
  }
  /// Reads the pending data buckets that air before the next occurrence of
  /// \p before_node, soonest first: listening to them now is free
  /// latency-wise, and letting them fly by would cost a cycle.
  void FlushPassingData(uint32_t before_node);
  /// Reads all remaining pending data, soonest first; marks the query
  /// incomplete if the watchdog or a republication cuts the sweep short.
  void DrainPending();

  /// Retrieved objects that pass \p keep, in data-id order; \p objects is
  /// the index's object store in data-id order. The flags are scanned with
  /// memchr: the scan covers all n flags on every query, and a plain byte
  /// loop's speed swung by ~20% with its code alignment alone (Xeon,
  /// g++ 12 -O3).
  template <typename Keep>
  std::vector<datasets::SpatialObject> RetrievedWhere(
      const std::vector<datasets::SpatialObject>& objects, Keep keep) const {
    std::vector<datasets::SpatialObject> out;
    const uint8_t* const flags = retrieved_.data();
    const size_t n = retrieved_.size();
    for (size_t i = 0; i < n; ++i) {
      const void* hit = std::memchr(flags + i, 1, n - i);
      if (hit == nullptr) break;
      i = static_cast<size_t>(static_cast<const uint8_t*>(hit) - flags);
      if (keep(objects[i])) out.push_back(objects[i]);
    }
    return out;
  }

  bool node_cached(uint32_t node_id) const { return node_cache_[node_id]; }
  bool retrieved(uint32_t data_id) const { return retrieved_[data_id] != 0; }
  ClientSession& session() const { return *session_; }
  const AirTreeStats& stats() const { return stats_; }

 private:
  /// Common tail of a lost read: stale on a republication, else one more
  /// lost bucket.
  void NoteLoss();
  /// One listen attempt for data bucket \p data_id at its next occurrence
  /// (true at once if already retrieved); losses as for ListenNode.
  bool TryReadData(uint32_t data_id);
  /// The pending list's soonest-airing entry (first one on ties) and its
  /// wait in packets; the list must not be empty.
  std::pair<size_t, uint64_t> SoonestPending() const;
  /// One read attempt for pending entry \p i; dropped from the list on
  /// success, kept on a loss.
  void ReadPending(size_t i);

  const AirTreeBroadcast* air_;
  ClientSession* session_;
  uint64_t generation_ = 0;  ///< Generation the caches refer to.
  uint64_t deadline_packets_ = 0;
  /// Index nodes already downloaded: a client keeps them in memory, so
  /// revisiting one is free (re-reading it off the air would cost a cycle).
  std::vector<bool> node_cache_;
  std::vector<uint32_t> pending_data_;  ///< Data ids still to retrieve.
  /// Retrieved flags by data id; payloads are never copied — the simulated
  /// read is paid via the session and the data lives in the index.
  std::vector<uint8_t> retrieved_;  ///< 1 once retrieved, else 0.
  AirTreeStats stats_;
};

}  // namespace dsi::broadcast
