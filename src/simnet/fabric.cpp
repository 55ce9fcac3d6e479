#include "simnet/fabric.hpp"

#include <algorithm>
#include <limits>

#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::simnet {

Fabric::Fabric(const Topology* topo, RouteMode mode, double local_bw_gbs,
               double local_latency_us, const FaultSpec& faults)
    : topo_(topo),
      mode_(mode),
      local_bw_gbs_(local_bw_gbs),
      local_latency_us_(local_latency_us),
      local_ser_(local_bw_gbs),
      fault_(faults, topo != nullptr ? topo->num_links() * 2 : 0) {
  MRL_CHECK(topo_ != nullptr && topo_->finalized());
  MRL_CHECK(local_bw_gbs_ > 0);
  dlink_state_.reserve(static_cast<std::size_t>(topo_->num_links()) * 2);
  for (int l = 0; l < topo_->num_links(); ++l) {
    dlink_state_.emplace_back(topo_->link(l));
    dlink_state_.emplace_back(topo_->link(l));
  }
}

TransferResult Fabric::transfer(const TransferParams& p) {
  MRL_CHECK(p.src_ep >= 0 && p.src_ep < topo_->num_endpoints());
  MRL_CHECK(p.dst_ep >= 0 && p.dst_ep < topo_->num_endpoints());
  MRL_CHECK(p.src_rank >= 0);
  total_bytes_ += p.bytes;
  ++total_msgs_;

  // Injection: the issuing rank serializes its own message launches — the
  // LogGP gap g plus, when a pump rate is set, the time to source the bytes.
  if (static_cast<std::size_t>(p.src_rank) >= injector_free_.size()) {
    injector_free_.resize(static_cast<std::size_t>(p.src_rank) + 1, kTimeZero);
  }
  TimeUs& inj = injector_free_[static_cast<std::size_t>(p.src_rank)];
  const TimeUs inject_start = std::max(p.start_us, inj);
  const double pump_us =
      p.pump_gbs > 0
          ? static_cast<double>(p.bytes) * gbs_to_us_per_byte(p.pump_gbs)
          : 0.0;
  inj = inject_start + p.inj_gap_us + pump_us;

  TransferResult r;
  r.inject_free_us = inj;

  if (p.src_ep == p.dst_ep) {
    // Same-endpoint (shared-memory) transfer. The local rate's per-byte cost
    // is pre-derived once (SerCost) — same value as dividing per message.
    double ser = local_ser_.ser_us(p.bytes);
    if (p.per_stream_gbs > 0) {
      ser = std::max(ser, static_cast<double>(p.bytes) *
                              gbs_to_us_per_byte(p.per_stream_gbs));
    }
    if (p.pump_gbs > 0) {
      ser = std::max(ser, pump_us);
    }
    r.arrival_us = inject_start + p.sw_latency_us + local_latency_us_ + ser;
    r.queue_us = inject_start - p.start_us;
    r.ser_us = ser;
    return r;
  }

  if (p.src_ep != route_src_ || p.dst_ep != route_dst_) {
    route_ = topo_->route(p.src_ep, p.dst_ep);
    MRL_CHECK(!route_.empty());
    route_src_ = p.src_ep;
    route_dst_ = p.dst_ep;
  }

  if (mode_ == RouteMode::kCutThrough) {
    // Head propagates hop by hop; the body streams at the slowest lane rate.
    TimeUs head = inject_start;
    double bottleneck_gbs = p.per_stream_gbs > 0
                                ? p.per_stream_gbs
                                : std::numeric_limits<double>::infinity();
    if (p.pump_gbs > 0) bottleneck_gbs = std::min(bottleneck_gbs, p.pump_gbs);
    std::size_t nclaims = 0;
    int total_drops = 0;
    double lane_wait = 0;
    double max_lane_wait = -1.0;
    double min_lane_gbs = std::numeric_limits<double>::infinity();
    std::int32_t wait_dlink = -1;   // hop with the longest head-of-line wait
    std::int32_t bottleneck_dlink = -1;  // slowest lane (uncontended fallback)
    for (const DirectedLink& dl : route_) {
      LinkState& st = dlink_state_[static_cast<std::size_t>(dl.id())];
      const LinkState::LaneClaim lc = st.claim(head);
      // Fault perturbation for this message-hop: neutral (0 extra latency,
      // 1.0 bandwidth scale, 0 drops) unless a FaultSpec is active, so the
      // arithmetic below stays bit-identical on a pristine fabric.
      const FaultModel::HopFault hf = fault_.next_hop_fault(dl.id(), lc.start);
      claims_[nclaims++] =
          Claim{&st, lc.lane, lc.start, st.msg_occupancy_us()};
      const double w = lc.start - head;
      lane_wait += w;
      if (w > max_lane_wait) {
        max_lane_wait = w;
        wait_dlink = dl.id();
      }
      if (st.channel_gbs() < min_lane_gbs) {
        min_lane_gbs = st.channel_gbs();
        bottleneck_dlink = dl.id();
      }
      head = lc.start + st.latency_us() + hf.extra_latency_us;
      bottleneck_gbs =
          std::min(bottleneck_gbs, st.channel_gbs() * hf.bw_scale);
      total_drops += hf.drops;
    }
    const double ser =
        static_cast<double>(p.bytes) * gbs_to_us_per_byte(bottleneck_gbs);
    // Every dropped attempt costs the retransmit timeout plus a full
    // reserialization before the surviving copy gets through.
    const double drop_extra =
        total_drops == 0
            ? 0.0
            : total_drops *
                  (fault_.spec().retransmit_timeout_us + ser);
    r.arrival_us = head + ser + drop_extra + p.sw_latency_us;
    r.drops = total_drops;
    r.queue_us = (inject_start - p.start_us) + lane_wait +
                 total_drops * fault_.spec().retransmit_timeout_us;
    r.ser_us = ser * (1 + total_drops);
    r.dlink = max_lane_wait > 0 ? wait_dlink : bottleneck_dlink;
    // Each claimed lane is busy until the tail has passed it (or for the
    // link's per-message occupancy floor, whichever is longer).
    for (std::size_t i = 0; i < nclaims; ++i) {
      const Claim& c = claims_[i];
      const double hold = std::max(ser + drop_extra, c.occupancy);
      c.state->set_lane_free_at(c.lane, c.start + hold);
      c.state->add_busy(hold);
    }
  } else {
    // Store-and-forward: the whole message is serialized on every hop. The
    // per-lane rate is pre-derived in the LinkState (SerCost), so a pristine
    // hop costs a multiply; a fault-scaled hop re-derives exactly as before.
    TimeUs t = inject_start;
    int total_drops = 0;
    double queue = inject_start - p.start_us;
    double ser_total = 0;
    double max_lane_wait = -1.0;
    double min_lane_gbs = std::numeric_limits<double>::infinity();
    std::int32_t wait_dlink = -1;
    std::int32_t bottleneck_dlink = -1;
    for (const DirectedLink& dl : route_) {
      LinkState& st = dlink_state_[static_cast<std::size_t>(dl.id())];
      const LinkState::LaneClaim lc = st.claim(t);
      const FaultModel::HopFault hf = fault_.next_hop_fault(dl.id(), lc.start);
      double ser = st.ser().ser_us_scaled(p.bytes, hf.bw_scale);
      if (p.per_stream_gbs > 0) {
        ser = std::max(ser, static_cast<double>(p.bytes) *
                                gbs_to_us_per_byte(p.per_stream_gbs));
      }
      if (p.pump_gbs > 0) ser = std::max(ser, pump_us);
      const double drop_extra =
          hf.drops == 0
              ? 0.0
              : hf.drops * (fault_.spec().retransmit_timeout_us + ser);
      const double lat = st.latency_us() + hf.extra_latency_us;
      const double hold = std::max(ser + drop_extra, st.msg_occupancy_us());
      const double w = lc.start - t;
      queue += w + hf.drops * fault_.spec().retransmit_timeout_us;
      ser_total += ser * (1 + hf.drops);
      if (w > max_lane_wait) {
        max_lane_wait = w;
        wait_dlink = dl.id();
      }
      if (st.channel_gbs() < min_lane_gbs) {
        min_lane_gbs = st.channel_gbs();
        bottleneck_dlink = dl.id();
      }
      t = lc.start + lat + ser + drop_extra;
      st.set_lane_free_at(lc.lane, lc.start + lat + hold);
      st.add_busy(hold);
      total_drops += hf.drops;
    }
    r.arrival_us = t + p.sw_latency_us;
    r.drops = total_drops;
    r.queue_us = queue;
    r.ser_us = ser_total;
    r.dlink = max_lane_wait > 0 ? wait_dlink : bottleneck_dlink;
  }
  return r;
}

RoundTripFault Fabric::sample_round_trip(int src_ep, int dst_ep,
                                         TimeUs now_us) {
  RoundTripFault rt;
  if (!fault_.enabled() || src_ep == dst_ep) return rt;
  MRL_CHECK(src_ep >= 0 && src_ep < topo_->num_endpoints());
  MRL_CHECK(dst_ep >= 0 && dst_ep < topo_->num_endpoints());
  for (int leg = 0; leg < 2; ++leg) {
    const int from = leg == 0 ? src_ep : dst_ep;
    const int to = leg == 0 ? dst_ep : src_ep;
    for (const DirectedLink& dl : topo_->route(from, to)) {
      const FaultModel::HopFault hf = fault_.next_hop_fault(dl.id(), now_us);
      rt.extra_us += hf.extra_latency_us +
                     hf.drops * fault_.spec().retransmit_timeout_us;
      rt.drops += hf.drops;
    }
  }
  return rt;
}

void Fabric::reset() {
  injector_free_.clear();
  for (LinkState& s : dlink_state_) s.reset();
  fault_.reset();
  total_bytes_ = 0;
  total_msgs_ = 0;
}

double Fabric::link_busy_us(int link_id, int dir) const {
  MRL_CHECK(link_id >= 0 && link_id < topo_->num_links());
  MRL_CHECK(dir == 0 || dir == 1);
  return dlink_state_[static_cast<std::size_t>(link_id) * 2 + dir].busy_us();
}

double Fabric::link_queue_us(int link_id, int dir) const {
  MRL_CHECK(link_id >= 0 && link_id < topo_->num_links());
  MRL_CHECK(dir == 0 || dir == 1);
  return dlink_state_[static_cast<std::size_t>(link_id) * 2 + dir].queue_us();
}

std::uint64_t Fabric::link_msgs(int link_id, int dir) const {
  MRL_CHECK(link_id >= 0 && link_id < topo_->num_links());
  MRL_CHECK(dir == 0 || dir == 1);
  return dlink_state_[static_cast<std::size_t>(link_id) * 2 + dir].msgs();
}

}  // namespace mrl::simnet
