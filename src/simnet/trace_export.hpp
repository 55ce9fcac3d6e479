// Trace export: dump a communication trace as CSV or as Chrome tracing JSON
// (load in chrome://tracing or Perfetto — one row per rank, one slice per
// message from issue to arrival).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "simnet/spans.hpp"
#include "simnet/time.hpp"
#include "simnet/trace.hpp"

namespace mrl::simnet {

/// CSV: src,dst,bytes,kind,epoch,t_issue_us,t_arrival_us.
void export_trace_csv(const Trace& trace, std::ostream& os);

/// Chrome tracing JSON ("traceEvents" array of complete events; pid 0,
/// tid = source rank, us timestamps).
void export_trace_chrome(const Trace& trace, std::ostream& os);
bool export_trace_chrome(const Trace& trace, const std::string& path);

/// Everything one completed run contributes to the profiler/exporters: the
/// message trace, the per-rank execution spans, per-rank end times, and the
/// directed-link display names (DESIGN.md §14). Copyable value type — the
/// process-wide ProfileCapture (runtime/profiler.hpp) snapshots one of these
/// per Engine::run.
struct RunCapture {
  int nranks = 0;
  TimeUs makespan_us = 0;
  std::vector<TimeUs> rank_end_us;
  RecordStore msgs;
  SpanStore spans;
  std::vector<std::string> dlink_names;  ///< indexed by directed link id
};

/// Combined Chrome/Perfetto trace of a captured run: pid 0 carries the
/// message slices (tid = source rank, exactly export_trace_chrome's shape),
/// pid 1 the per-rank execution timelines (tid = rank, one slice per span),
/// pid 2 counter tracks (per-directed-link in-flight messages and global
/// in-flight puts). `rank_lo`/`rank_hi` bound the slice output to a rank
/// range (--trace-ranks; rank_hi < 0 means "through the last rank");
/// counter tracks always cover the whole run.
void export_capture_chrome(const RunCapture& c, std::ostream& os,
                           int rank_lo = 0, int rank_hi = -1);
bool export_capture_chrome(const RunCapture& c, const std::string& path,
                           int rank_lo = 0, int rank_hi = -1);

/// Message-trace CSV of a captured run — exactly export_trace_csv's columns
/// and cell bytes, filtered to source ranks in [rank_lo, rank_hi].
void export_trace_csv(const RunCapture& c, std::ostream& os, int rank_lo = 0,
                      int rank_hi = -1);
bool export_trace_csv(const RunCapture& c, const std::string& path,
                      int rank_lo = 0, int rank_hi = -1);

/// Execution-span CSV (rank,kind,t_begin_us,t_end_us,peer,cause_t_us,
/// cause_nspans,bytes,gate,q_us,s_us), rank-range filtered like the Chrome
/// export.
void export_spans_csv(const RunCapture& c, std::ostream& os, int rank_lo = 0,
                      int rank_hi = -1);

}  // namespace mrl::simnet
