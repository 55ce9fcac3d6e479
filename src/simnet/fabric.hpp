// The fabric: computes when a message injected at a source endpoint becomes
// visible at a destination endpoint, charging LogGP injection gaps, per-lane
// link serialization, hop latencies, and the runtime's software latency.
//
// Two routing cost modes (an ablation in the paper's spirit):
//   kCutThrough    — the head moves hop by hop (paying contention + hop
//                    latency), the body streams at the bottleneck lane rate.
//   kStoreForward  — the full message is serialized onto every hop in turn.
//
// The engine guarantees transfer() calls arrive in nondecreasing virtual-time
// order, which makes lane contention causally correct and deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "simnet/fault.hpp"
#include "simnet/loggp.hpp"
#include "simnet/time.hpp"
#include "simnet/topology.hpp"

namespace mrl::simnet {

enum class RouteMode { kCutThrough, kStoreForward };

/// One message handed to the fabric.
struct TransferParams {
  int src_ep = 0;            ///< source endpoint id
  int dst_ep = 0;            ///< destination endpoint id
  int src_rank = 0;          ///< issuing rank (per-rank injection pump)
  std::uint64_t bytes = 0;   ///< payload size
  TimeUs start_us = 0;       ///< virtual time the NIC gets the message
  double sw_latency_us = 0;  ///< runtime software latency (LogGP L share)
  double inj_gap_us = 0;     ///< LogGP g charged at the source injector
  double per_stream_gbs = 0; ///< optional per-stream bandwidth cap (0 = none)
  /// Rate at which the issuing rank can source bytes (0 = unlimited). A CPU
  /// core streams at its memory bandwidth, so one rank cannot drive multiple
  /// link lanes concurrently; GPU PEs have parallel DMA engines (0).
  double pump_gbs = 0;
};

struct TransferResult {
  TimeUs inject_free_us = 0;  ///< when the source may inject the next message
  TimeUs arrival_us = 0;      ///< when the last byte is visible at dst
  int drops = 0;              ///< fault-injected transmission drops (charged)
  // Decomposition of (arrival_us - start_us) for the profiler/critical-path
  // analyzer (DESIGN.md §14). The remainder after queue + serialization is
  // pure latency (hop + software + fault extra-latency).
  double queue_us = 0;      ///< injector + head-of-line + retransmit waits
  double ser_us = 0;        ///< bandwidth serialization (incl. re-sends)
  std::int32_t dlink = -1;  ///< dominant directed link (-1: same-endpoint)
};

/// Fault perturbation for an analytic (non-transfer) round trip, e.g. the
/// get/atomic request-response paths that bypass transfer().
struct RoundTripFault {
  double extra_us = 0;  ///< jitter/outage/retransmit time charged at origin
  int drops = 0;        ///< dropped attempts (input to backoff accounting)
};

/// Per-endpoint/per-link mutable state plus the transfer cost function.
class Fabric {
 public:
  /// `local_bw_gbs`/`local_latency_us` cost same-endpoint transfers (ranks
  /// sharing a socket communicate through shared memory). `faults` perturbs
  /// link traversals; the default (empty) spec is a strict no-op.
  Fabric(const Topology* topo, RouteMode mode, double local_bw_gbs,
         double local_latency_us, const FaultSpec& faults = {});

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Cost one message. Mutates injector and lane contention state.
  TransferResult transfer(const TransferParams& p);

  /// Samples fault perturbations along the src->dst->src round trip at
  /// virtual time `now_us` for operations costed analytically (gets,
  /// atomics). Returns zeros — consuming no fault state — when faults are
  /// disabled or the endpoints coincide.
  RoundTripFault sample_round_trip(int src_ep, int dst_ep, TimeUs now_us);

  /// Clears all contention state (between repetitions of an experiment),
  /// including fault-injection ordinals.
  void reset();

  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] RouteMode mode() const { return mode_; }
  [[nodiscard]] const FaultModel& faults() const { return fault_; }

  /// Total bytes moved and per-link busy time since construction/reset.
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_msgs() const { return total_msgs_; }
  [[nodiscard]] double link_busy_us(int link_id, int dir) const;
  /// Head-of-line lane-wait time and message count per directed link.
  [[nodiscard]] double link_queue_us(int link_id, int dir) const;
  [[nodiscard]] std::uint64_t link_msgs(int link_id, int dir) const;

 private:
  /// A lane claimed by a cut-through transfer, held until the tail passes.
  struct Claim {
    LinkState* state;
    int lane;
    TimeUs start;
    double occupancy;
  };

  const Topology* topo_;
  RouteMode mode_;
  double local_bw_gbs_;
  double local_latency_us_;
  SerCost local_ser_;                       // pre-derived shared-memory rate
  std::vector<TimeUs> injector_free_;       // per source rank (grown on use)
  std::vector<LinkState> dlink_state_;      // per directed link (2 per link)
  FaultModel fault_;                        // seeded fault perturbations
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_msgs_ = 0;
  // One transfer's route and lane claims: members rather than locals, which
  // keeps them off the rank fiber's stack. route_ is the route of the last
  // endpoint pair routed, rebuilt only when a transfer's pair differs; the
  // topology is immutable, so it stays valid across reset().
  Route route_;
  int route_src_ = -1;
  int route_dst_ = -1;
  std::array<Claim, Route::kMaxHops> claims_;
};

}  // namespace mrl::simnet
