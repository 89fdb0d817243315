#include "broadcast/disks.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <numeric>

namespace dsi::broadcast {

BroadcastProgram MakeMultiDiskProgram(const BroadcastProgram& flat,
                                      uint32_t num_disks,
                                      const std::vector<double>& weights) {
  assert(flat.flat());  // the first transform: coding re-lays its output
  assert(weights.size() == flat.num_buckets());
  const size_t n = flat.num_buckets();
  const uint32_t k = std::min<uint32_t>(
      {num_disks, 3, static_cast<uint32_t>(std::max<size_t>(n, 1))});
  if (k <= 1 || n == 0) return flat;

  // Rank slots hottest first; ties keep broadcast order so the layout is
  // deterministic and weight-degenerate inputs stay in cycle order.
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return weights[a] > weights[b];
  });

  // Disk d (0 = hottest) holds the share 2^d / (2^k - 1) of the cycle's
  // AIRTIME and airs f_d = 2^(k-1-d) times per major cycle, split into 2^d
  // chunks. Shares are measured in packets, not slot counts: buckets vary
  // wildly in size (an index table is a fraction of a data object), and
  // airtime is what the repetition multiplies.
  const uint32_t denom = (1u << k) - 1;
  std::vector<uint64_t> prefix(n + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    prefix[i + 1] = prefix[i] + flat.bucket(order[i]).packets;
  }
  std::vector<size_t> boundary(k + 1);
  boundary[k] = n;
  for (uint32_t d = 0; d < k; ++d) {
    const uint64_t target = prefix[n] * ((1u << d) - 1) / denom;
    boundary[d] = static_cast<size_t>(
        std::lower_bound(prefix.begin(), prefix.end(), target) -
        prefix.begin());
    if (d > 0) boundary[d] = std::max(boundary[d], boundary[d - 1]);
  }

  // Weight only decides each slot's DISK; within a disk, slots go back to
  // broadcast order. Index descents and frame sweeps are pipelined
  // dependency chains (node before subtree, table before objects) that
  // clients read front to back — a weight-permuted disk would charge a
  // doze per hop and forfeit the frequency win the tiers just bought.
  for (uint32_t d = 0; d < k; ++d) {
    std::sort(order.begin() + static_cast<ptrdiff_t>(boundary[d]),
              order.begin() + static_cast<ptrdiff_t>(boundary[d + 1]));
  }

  BroadcastProgram out(flat.packet_capacity(), Layout{k, 0, 0});
  const uint32_t minors = 1u << (k - 1);
  for (uint32_t minor = 0; minor < minors; ++minor) {
    for (uint32_t d = 0; d < k; ++d) {
      const size_t n_d = boundary[d + 1] - boundary[d];
      const uint32_t chunks = 1u << d;
      const uint32_t chunk = minor % chunks;
      const size_t lo = boundary[d] + n_d * chunk / chunks;
      const size_t hi = boundary[d] + n_d * (chunk + 1) / chunks;
      for (size_t i = lo; i < hi; ++i) {
        const uint32_t slot = order[i];
        const Bucket& b = flat.bucket(slot);
        out.AddBucket(b.kind, b.payload, b.size_bytes, slot);
      }
    }
  }
  out.Finalize();
  return out;
}

}  // namespace dsi::broadcast
