// LogGP parameter sets (Alexandrov et al., "LogGP: incorporating long
// messages into the LogP model"). The Message Roofline Model is expressed in
// these terms; the fabric charges them to application code.
//
//   L — end-to-end software+stack latency per message (processor independent)
//   o — per-MPI/SHMEM-operation overhead paid by the issuing processor
//   g — gap between consecutive message injections at one endpoint
//   G — seconds per byte (1/bandwidth); in the fabric G is derived from the
//       channel bandwidth along the route, so LogGP here carries only a
//       per-stream cap used by the analytical model
#pragma once

#include <cstdint>
#include <string>

namespace mrl::simnet {

/// One runtime's LogGP parameters on one platform (e.g. "two-sided CrayMPI
/// on Perlmutter CPU").
struct LogGP {
  double L_us = 3.0;        ///< software latency per message
  double o_us = 0.3;        ///< overhead per operation (each MPI call)
  double g_us = 0.05;       ///< injection gap between messages
  double per_stream_gbs = 0.0;  ///< 0 = uncapped (use link channel bandwidth)
  /// Extra software latency for remote atomics (CAS/fetch-op). Atomics
  /// bypass most of the put software path: ~0 for GPU-initiated NVSHMEM
  /// (CAS = o + hardware RTT), a bit over 1 us for MPI one-sided.
  double atomic_L_us = 0.0;
  /// Per-operation overhead for remote atomics; < 0 means "same as o_us".
  /// NVSHMEM on Summit issues atomics much faster than signalled puts.
  double atomic_o_us = -1.0;

  [[nodiscard]] double atomic_o() const {
    return atomic_o_us < 0 ? o_us : atomic_o_us;
  }
};

/// Pre-derived serialization cost for a stream of messages through one lane
/// (or one shared-memory path). Costing a message under LogGP's G term means
/// converting a bandwidth to microseconds-per-byte — a divide. A lane's rate
/// is fixed, so the divide is hoisted here and each queued op pays a multiply.
///
/// The scaled overload keeps fault-perturbed hops exact: when the bandwidth
/// scale leaves the rate unchanged (scale == 1.0, the pristine-fabric common
/// case) the pre-derived rate is bit-identical to re-deriving; otherwise it
/// falls back to the full per-message derivation.
class SerCost {
 public:
  SerCost() = default;
  explicit SerCost(double gbs);

  [[nodiscard]] double gbs() const { return gbs_; }

  /// Microseconds to serialize `bytes` at the pre-derived rate.
  [[nodiscard]] double ser_us(std::uint64_t bytes) const {
    return static_cast<double>(bytes) * us_per_byte_;
  }

  /// Microseconds to serialize `bytes` at `gbs() * bw_scale`.
  [[nodiscard]] double ser_us_scaled(std::uint64_t bytes,
                                     double bw_scale) const;

 private:
  double gbs_ = 0;
  double us_per_byte_ = 0;
};

/// The communication runtimes the paper compares.
enum class Runtime {
  kTwoSidedMpi,   ///< MPI_Isend/Irecv/Waitall (2 ops per message)
  kOneSidedMpi,   ///< MPI_Put + flush + signal put + flush (4 ops per message)
  kShmem,         ///< GPU-initiated put-with-signal (1 op per message)
};

std::string to_string(Runtime r);

}  // namespace mrl::simnet
