// Bandwidth sweep drivers: run real communication code on the simulated
// fabric over a (message size x messages-per-sync) grid and report sustained
// bandwidth — the "empirical dots" of the paper's Figs 1, 3, 4.
//
// Benchmark shapes (windowed, like osu_bw):
//   two-sided      — sender: m x MPI_Isend + Waitall + wait for 0-byte ack;
//                    receiver: m x Irecv + Waitall + Isend(ack).
//   one-sided MPI  — origin: m x MPI_Put + MPI_Win_flush(target); the flush
//                    waits for remote completion, giving intrinsic
//                    back-pressure (no ack message needed).
//   SHMEM          — PE: m x put_signal_nbi + quiet.
//   atomic CAS     — m blocking compare-and-swaps (latency probe).
//
// The Fig 10 split sweep and the Fig 4 CAS probe are run_sweep calls too:
// one windowed loop between one sender and one receiver serves all three.
#pragma once

#include <cstdint>
#include <vector>

#include "core/model.hpp"
#include "simnet/platform.hpp"
#include "util/status.hpp"

namespace mrl::core {

enum class SweepKind {
  kTwoSided,
  kOneSidedMpi,
  kShmemPutSignal,
  kAtomicCas,
};

std::string to_string(SweepKind k);

struct SweepConfig {
  SweepKind kind = SweepKind::kTwoSided;
  std::vector<std::uint64_t> msg_sizes;       ///< bytes per message
  std::vector<std::uint64_t> msgs_per_sync;   ///< the concurrency axis
  int iters = 10;                             ///< sync windows per point
  int nranks = 2;
  int sender = 0;
  int receiver = 1;
  /// Concurrent grid points (each on its own engine). <= 0 uses
  /// core::default_jobs(); 1 runs the points in order on the caller's
  /// thread. Results are bit-identical for every value — grid points are
  /// isolated simulations written to pre-assigned output slots.
  int jobs = 0;

  /// Default grid: sizes 8 B .. 4 MiB (x4), msg/sync 1 .. 1e4 (x10).
  static SweepConfig defaults(SweepKind kind);
};

/// Runs the sweep on `platform`; one engine run per grid point. Grid points
/// execute `cfg.jobs`-wide in parallel; output order matches the
/// (msg_sizes x msgs_per_sync) iteration order regardless of jobs.
///
/// A grid point that ends in deadlock or trips the engine's virtual-time
/// watchdog (possible under an aggressive FaultSpec) surfaces as an error
/// Status — the first failing point in grid order, independent of `jobs`.
Result<std::vector<SweepPoint>> run_sweep(const simnet::Platform& platform,
                                          const SweepConfig& cfg);

/// Mean latency of one blocking remote atomic CAS between two ranks, over
/// 64 CASes (Fig 4's 0.8 us / 1.0 us / 1.6 us probes).
Result<double> measure_cas_latency_us(const simnet::Platform& platform,
                                      int nranks, int origin, int target);

/// Message splitting (paper Fig 10): a fixed message VOLUME sent as `ways`
/// concurrent put-with-signal messages of volume / ways bytes per sync
/// window. On channelized links (NVLink port groups) a single stream rides
/// one lane, so splitting buys aggregate bandwidth until per-message
/// overhead dominates.
struct SplitPoint {
  std::uint64_t volume_bytes = 0;  ///< total bytes per sync window
  int ways = 1;                    ///< number of concurrent messages
  double time_us = 0;              ///< one sync window (puts + quiet)
  double gbs = 0;
  double speedup_vs_1 = 0;         ///< filled by run_split_sweep
};

struct SplitConfig {
  std::vector<std::uint64_t> volumes;  ///< default 1 KiB .. 16 MiB
  std::vector<int> ways;               ///< default {1, 2, 4, 8}
  int iters = 8;
  int sender = 0;
  int receiver = 1;
  int nranks = 2;

  static SplitConfig defaults();
};

/// Runs the split sweep with SHMEM put-with-signal on `platform` (meant for
/// the GPU platforms; works on any): one run_sweep per split factor, so its
/// points run core::default_jobs()-wide. Output is volume-major, then ways,
/// in config order. A volume that `ways` does not divide fails with
/// kInvalidArgument; a failed run surfaces as run_sweep's Status.
Result<std::vector<SplitPoint>> run_split_sweep(
    const simnet::Platform& platform, const SplitConfig& cfg);

/// Fits roofline parameters from a fresh sweep on the platform. `jobs`
/// forwards to SweepConfig::jobs (<= 0 = core::default_jobs()).
Result<RooflineParams> calibrate_roofline(const simnet::Platform& platform,
                                          SweepKind kind, int jobs = 0);

}  // namespace mrl::core
