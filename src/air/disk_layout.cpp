#include "air/disk_layout.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "broadcast/air_tree.hpp"

namespace dsi::air {

broadcast::BroadcastProgram MakeSkewedProgram(
    const AirIndexHandle& index, const broadcast::DiskConfig& config) {
  const common::Rect universe = datasets::UnitUniverse();
  const datasets::RegionPopularity popularity(config.grid, config.skew,
                                              config.pop_seed);
  return broadcast::MakeMultiDiskProgram(
      index.program(), config.num_disks,
      index.DiskWeights(popularity, universe));
}

std::optional<broadcast::BroadcastProgram> OnAirProgram(
    const AirIndexHandle& index, const broadcast::DiskConfig& disks,
    const broadcast::CodingConfig& coding) {
  if (!disks.enabled()) {
    if (!coding.enabled()) return std::nullopt;
    return broadcast::MakeCodedProgram(index.program(), coding);
  }
  broadcast::BroadcastProgram skewed = MakeSkewedProgram(index, disks);
  if (!coding.enabled()) return skewed;
  return broadcast::MakeCodedProgram(skewed, coding);
}

std::vector<double> TreeDiskWeights(
    const broadcast::AirTreeBroadcast& air, const AirIndexHandle& handle,
    const datasets::RegionPopularity& popularity,
    const common::Rect& universe) {
  const broadcast::AirTreeSpec& spec = air.spec();

  std::vector<double> data_w(spec.data_sizes.size(), 1.0);
  for (uint32_t id = 0; id < data_w.size(); ++id) {
    common::Point anchor;
    if (handle.SlotAnchor(air.DataSlot(id), &anchor)) {
      data_w[id] = popularity.Weight(anchor, universe);
    }
  }

  // Subtree max, children before parents (levels ascend toward the root).
  std::vector<uint32_t> by_level(spec.nodes.size());
  std::iota(by_level.begin(), by_level.end(), 0u);
  std::stable_sort(by_level.begin(), by_level.end(),
                   [&](uint32_t a, uint32_t b) {
                     return spec.nodes[a].level < spec.nodes[b].level;
                   });
  std::vector<double> node_w(spec.nodes.size(), 1.0);
  for (const uint32_t id : by_level) {
    const broadcast::AirTreeSpec::Node& node = spec.nodes[id];
    double w = 0.0;
    for (const uint32_t child : node.children) {
      w = std::max(w, node.level == 0 ? data_w[child] : node_w[child]);
    }
    node_w[id] = node.children.empty() ? 1.0 : w;
  }

  std::vector<double> weights(handle.program().num_buckets(), 1.0);
  for (uint32_t id = 0; id < data_w.size(); ++id) {
    weights[air.DataSlot(id)] = data_w[id];
  }
  for (uint32_t id = 0; id < node_w.size(); ++id) {
    for (const size_t slot : air.NodeSlots(id)) {
      weights[slot] = node_w[id];
    }
  }
  return weights;
}

}  // namespace dsi::air
