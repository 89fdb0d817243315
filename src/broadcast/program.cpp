#include "broadcast/program.hpp"

#include <numeric>

namespace dsi::broadcast {

void BroadcastProgram::Finalize() {
  uint64_t off = 0;
  for (Bucket& b : buckets_) {
    b.start_packet = off;
    off += b.packets;
  }
  cycle_packets_ = off;
  // Packet -> slot acceleration: stride_slot_[i] is the slot covering
  // packet i * slot_stride_. With the stride at the mean bucket length,
  // SlotAtPacket finishes after O(1) expected forward steps — it runs on
  // the per-session tune-in/doze hot path.
  if (!buckets_.empty() && cycle_packets_ > 0) {
    slot_stride_ = std::max<uint64_t>(1, cycle_packets_ / buckets_.size());
    stride_slot_.resize(cycle_packets_ / slot_stride_ + 1);
    size_t slot = 0;
    for (size_t i = 0; i < stride_slot_.size(); ++i) {
      const uint64_t packet = i * slot_stride_;
      while (slot + 1 < buckets_.size() &&
             buckets_[slot + 1].start_packet <= packet) {
        ++slot;
      }
      stride_slot_[i] = slot;
    }
  }
  finalized_ = true;
  if (flat()) return;

  // Parity groups: a run of parity buckets closes the group before it.
  if (coded()) {
    group_start_.push_back(0);
    for (size_t p = 0; p < buckets_.size(); ++p) {
      if (p > 0 && buckets_[p - 1].kind == BucketKind::kParity &&
          buckets_[p].kind != BucketKind::kParity) {
        group_start_.push_back(static_cast<uint32_t>(p));
      }
      air_[p].group = static_cast<uint32_t>(group_start_.size() - 1);
    }
    group_start_.push_back(static_cast<uint32_t>(buckets_.size()));
  }

  // Airings: a counting sort of physical slots by data slot. Physical order
  // is start order, so every data slot's run comes out sorted.
  airing_begin_.assign(1, 0);
  for (const AirSlot& a : air_) {
    if (a.data_slot == kNoSlot) continue;
    if (a.data_slot + 1 >= airing_begin_.size()) {
      airing_begin_.resize(size_t{a.data_slot} + 2, 0);
    }
    ++airing_begin_[a.data_slot + 1];
  }
  num_data_ = airing_begin_.size() - 1;
  std::partial_sum(airing_begin_.begin(), airing_begin_.end(),
                   airing_begin_.begin());
  airings_.resize(airing_begin_.back());
  std::vector<uint32_t> next(airing_begin_.begin(), airing_begin_.end() - 1);
  for (size_t p = 0; p < air_.size(); ++p) {
    if (air_[p].data_slot != kNoSlot) {
      airings_[next[air_[p].data_slot]++] = static_cast<uint32_t>(p);
    }
  }
}

size_t BroadcastProgram::SlotAtPacket(uint64_t cycle_packet) const {
  assert(finalized_);
  assert(cycle_packet < cycle_packets_);
  // Jump to the stride anchor at/before the packet, then walk forward; the
  // stride matches the mean bucket length, so the walk is O(1) expected.
  size_t slot = stride_slot_[cycle_packet / slot_stride_];
  while (slot + 1 < buckets_.size() &&
         buckets_[slot + 1].start_packet <= cycle_packet) {
    ++slot;
  }
  return slot;
}

size_t BroadcastProgram::SlotStartingAtOrAfter(uint64_t cycle_packet) const {
  assert(finalized_);
  if (cycle_packet >= cycle_packets_) return 0;
  // The covering slot either starts exactly here or the next one is the
  // first to start at/after (wrapping past the end of the cycle).
  const size_t slot = SlotAtPacket(cycle_packet);
  if (buckets_[slot].start_packet >= cycle_packet) return slot;
  return slot + 1 < buckets_.size() ? slot + 1 : 0;
}

}  // namespace dsi::broadcast
