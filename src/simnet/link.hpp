// Link descriptions and per-direction channel contention state.
//
// A link is an undirected physical connection (Infinity Fabric, X-Bus,
// NVLink2/3, PCIe4, Slingshot) with a per-direction aggregate bandwidth split
// across `channels` independent lanes. A single message stream occupies one
// lane, so its serialization rate is bandwidth/channels — this is how NVLink
// port groups are modeled and what makes message-splitting pay off (Fig 10).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/loggp.hpp"
#include "simnet/time.hpp"
#include "util/indexed_heap.hpp"

namespace mrl::simnet {

/// Immutable description of a physical link.
struct LinkSpec {
  std::string name;          ///< e.g. "IF CPU-CPU", "NVLink3 g0-g1"
  double bandwidth_gbs = 0;  ///< aggregate per-direction bandwidth, GB/s (1e9)
  double latency_us = 0;     ///< hardware traversal latency per hop
  int channels = 1;          ///< independent lanes per direction
  /// Minimum per-message lane hold time: protocol engines (e.g. the Summit
  /// X-Bus coherence path) serialize small transactions regardless of size.
  double msg_occupancy_us = 0;

  /// Serialization rate of a single message stream (one lane), GB/s.
  [[nodiscard]] double channel_gbs() const {
    return bandwidth_gbs / channels;
  }
};

/// Mutable contention state for ONE direction of a link: when each lane is
/// next free, plus the spec-derived per-message costs cached once at
/// construction so the fabric's per-hop loop never re-derives them.
///
/// Lane selection is incremental: a single-lane link short-circuits to lane
/// 0, a multi-lane link keeps an indexed min-heap over (free-at, lane) whose
/// top is exactly the first minimum a linear std::min_element scan would
/// return (ties break toward the lowest lane index).
class LinkState {
 public:
  explicit LinkState(const LinkSpec& spec);

  /// Picks the lane that frees earliest; returns its index.
  [[nodiscard]] int earliest_lane() const {
    return lane_next_free_.size() == 1 ? 0 : lane_heap_.top();
  }

  [[nodiscard]] TimeUs lane_free_at(int lane) const {
    return lane_next_free_[lane];
  }
  void set_lane_free_at(int lane, TimeUs t);

  /// Spec-derived constants (identical values to re-deriving per message).
  [[nodiscard]] double channel_gbs() const { return ser_.gbs(); }
  [[nodiscard]] double latency_us() const { return latency_us_; }
  [[nodiscard]] double msg_occupancy_us() const { return msg_occupancy_us_; }
  /// Pre-derived one-lane serialization cost (see SerCost).
  [[nodiscard]] const SerCost& ser() const { return ser_; }

  /// A lane grant for one message whose head reaches this hop at `head`.
  struct LaneClaim {
    int lane = 0;      ///< claimed lane index
    TimeUs start = 0;  ///< when serialization starts (head or lane-free time)
  };

  /// Claims the earliest-free lane, accounting the head-of-line wait and the
  /// message count. The caller publishes the hold via set_lane_free_at()
  /// once the tail time is known.
  [[nodiscard]] LaneClaim claim(TimeUs head);

  [[nodiscard]] int num_lanes() const {
    return static_cast<int>(lane_next_free_.size());
  }

  /// Total busy time accumulated (for utilization reporting).
  [[nodiscard]] double busy_us() const { return busy_us_; }
  void add_busy(double us) { busy_us_ += us; }

  /// Head-of-line time transfers spent waiting for a free lane.
  [[nodiscard]] double queue_us() const { return queue_us_; }
  void add_queue(double us) { queue_us_ += us; }

  /// Messages that claimed a lane in this direction.
  [[nodiscard]] std::uint64_t msgs() const { return msgs_; }
  void note_msg() { ++msgs_; }

  void reset();

 private:
  std::vector<TimeUs> lane_next_free_;
  util::IndexedMinHeap<TimeUs> lane_heap_;  ///< only populated for >1 lanes
  SerCost ser_;
  double latency_us_ = 0.0;
  double msg_occupancy_us_ = 0.0;
  double busy_us_ = 0.0;
  double queue_us_ = 0.0;
  std::uint64_t msgs_ = 0;
};

}  // namespace mrl::simnet
