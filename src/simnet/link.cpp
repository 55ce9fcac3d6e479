#include "simnet/link.hpp"

#include <algorithm>

#include "util/status.hpp"

namespace mrl::simnet {

LinkState::LinkState(const LinkSpec& spec)
    : lane_next_free_(static_cast<std::size_t>(spec.channels), kTimeZero),
      ser_(spec.channel_gbs()),
      latency_us_(spec.latency_us),
      msg_occupancy_us_(spec.msg_occupancy_us) {
  MRL_CHECK(spec.channels >= 1);
  if (spec.channels > 1) {
    lane_heap_.reset(spec.channels);
    for (int l = 0; l < spec.channels; ++l) lane_heap_.push(l, kTimeZero);
  }
}

void LinkState::set_lane_free_at(int lane, TimeUs t) {
  lane_next_free_[static_cast<std::size_t>(lane)] = t;
  if (lane_next_free_.size() > 1) lane_heap_.update(lane, t);
}

LinkState::LaneClaim LinkState::claim(TimeUs head) {
  LaneClaim c;
  c.lane = earliest_lane();
  c.start = std::max(head, lane_next_free_[static_cast<std::size_t>(c.lane)]);
  ++msgs_;
  queue_us_ += c.start - head;
  return c;
}

void LinkState::reset() {
  std::fill(lane_next_free_.begin(), lane_next_free_.end(), kTimeZero);
  if (lane_next_free_.size() > 1) {
    for (int l = 0; l < static_cast<int>(lane_next_free_.size()); ++l) {
      lane_heap_.update(l, kTimeZero);
    }
  }
  busy_us_ = 0.0;
  queue_us_ = 0.0;
  msgs_ = 0;
}

}  // namespace mrl::simnet
