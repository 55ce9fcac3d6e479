// The serving loop the MPI and SHMEM embedding runners share (defined in
// embedding.cpp). Internal to the workload: callers use run_mpi/run_shmem.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/engine.hpp"
#include "util/function_ref.hpp"
#include "workloads/embedding/embedding.hpp"

namespace mrl::workloads::embedding {

/// The serving phase both runners share. A runner exposes the shards (an
/// MPI window or the SHMEM symmetric heap), calls serve() on every rank with
/// its get call, and finish() once the run is over.
class Server {
 public:
  /// Fetches `span` from its owner into `dest` (a blocking get).
  using GetFn = util::FunctionRef<void(float* dest, const GetSpan& span)>;

  Server(runtime::Engine& eng, const Config& cfg);

  /// Serves rank `r`'s queries batch by batch: gathers each batch's rows
  /// (hot rows are served by the local replica), builds its spans, issues
  /// them one blocking get at a time, charges the pooling compute, records
  /// per-query latency and checks every fetched float.
  void serve(runtime::Rank& r, GetFn get);

  /// The Result of a run whose serving phase took `time_us`. Also hands
  /// the run's freed heap pages back to the kernel: glibc keeps freed
  /// chunks resident, and after a run's rank shards, span lists and staging
  /// buffers are freed how much of them stays resident depends on which
  /// runs came before, so a process serving many query streams would
  /// otherwise peak above its largest single run.
  Result finish(const runtime::RunResult& run, double time_us);

 private:
  struct Tally {
    std::uint64_t gets = 0;
    std::uint64_t naive = 0;
    std::uint64_t hits = 0;
    std::uint64_t bytes = 0;
    bool bad = false;
  };

  runtime::Engine& eng_;
  const Config& cfg_;
  const int nranks_;
  const ZipfGen zipf_;
  std::vector<double> latency_;  ///< per global query
  std::vector<Tally> tally_;     ///< per rank
};

}  // namespace mrl::workloads::embedding
