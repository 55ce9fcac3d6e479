#include "simnet/trace_export.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <ostream>

#include "util/csv.hpp"
#include "util/log.hpp"

namespace mrl::simnet {

void export_trace_csv(const Trace& trace, std::ostream& os) {
  CsvWriter w(os);
  w.header({"src", "dst", "bytes", "kind", "epoch", "t_issue_us",
            "t_arrival_us", "drops"});
  for (const MsgRecord& r : trace.records()) {
    w.row({std::to_string(r.src_rank), std::to_string(r.dst_rank),
           std::to_string(r.bytes), to_string(r.kind),
           std::to_string(r.epoch), std::to_string(r.t_issue),
           std::to_string(r.t_arrival), std::to_string(r.drops)});
  }
}

void export_trace_chrome(const Trace& trace, std::ostream& os) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const MsgRecord& r : trace.records()) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << to_string(r.kind) << " " << r.bytes << "B -> r"
       << r.dst_rank << "\",\"cat\":\"" << to_string(r.kind)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << r.src_rank
       << ",\"ts\":" << r.t_issue
       << ",\"dur\":" << (r.t_arrival - r.t_issue)
       << ",\"args\":{\"bytes\":" << r.bytes << ",\"epoch\":" << r.epoch
       << ",\"dst\":" << r.dst_rank << ",\"drops\":" << r.drops << "}}";
  }
  os << "]}";
}

bool export_trace_chrome(const Trace& trace, const std::string& path) {
  std::ofstream f(path);
  if (!f) {
    MRL_LOG_WARN("cannot open %s", path.c_str());
    return false;
  }
  export_trace_chrome(trace, f);
  return f.good();
}

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      os << ' ';
    } else {
      os << ch;
    }
  }
}

/// One +1/-1 edge of a counter series, ordered by (time, sequence) so the
/// emitted absolute values are independent of how the edges were generated.
struct CounterEdge {
  TimeUs t = 0;
  std::int64_t seq = 0;
  int delta = 0;
};

void emit_counter(std::ostream& os, bool& first, const char* name, int tid,
                  std::vector<CounterEdge>& edges) {
  std::sort(edges.begin(), edges.end(),
            [](const CounterEdge& a, const CounterEdge& b) {
              if (a.t != b.t) return a.t < b.t;
              return a.seq < b.seq;
            });
  std::int64_t v = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    v += edges[i].delta;
    // Collapse same-timestamp edges into one final value.
    if (i + 1 < edges.size() && edges[i + 1].t == edges[i].t) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"";
    json_escape(os, name);
    os << "\",\"ph\":\"C\",\"pid\":2,\"tid\":" << tid
       << ",\"ts\":" << edges[i].t << ",\"args\":{\"v\":" << v << "}}";
  }
}

}  // namespace

void export_capture_chrome(const RunCapture& c, std::ostream& os, int rank_lo,
                           int rank_hi) {
  if (rank_hi < 0) rank_hi = c.nranks - 1;
  os << "{\"traceEvents\":[";
  bool first = true;
  const auto meta = [&](int pid, const char* name) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":\"" << name << "\"}}";
  };
  meta(0, "messages");
  meta(1, "ranks");
  meta(2, "counters");
  // pid 0: message slices (same shape as export_trace_chrome).
  for (const MsgRecord& r : c.msgs) {
    if (r.src_rank < rank_lo || r.src_rank > rank_hi) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << to_string(r.kind) << " " << r.bytes << "B -> r"
       << r.dst_rank << "\",\"cat\":\"" << to_string(r.kind)
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << r.src_rank
       << ",\"ts\":" << r.t_issue << ",\"dur\":" << (r.t_arrival - r.t_issue)
       << ",\"args\":{\"bytes\":" << r.bytes << ",\"epoch\":" << r.epoch
       << ",\"dst\":" << r.dst_rank << ",\"drops\":" << r.drops << "}}";
  }
  // pid 1: per-rank execution timelines.
  for (const SpanRecord& s : c.spans) {
    if (s.rank < rank_lo || s.rank > rank_hi) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << to_string(s.kind) << "\",\"cat\":\"span\""
       << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.rank
       << ",\"ts\":" << s.t_begin << ",\"dur\":" << (s.t_end - s.t_begin)
       << ",\"args\":{\"peer\":" << s.peer << ",\"bytes\":" << s.bytes
       << ",\"gate\":" << s.gate << ",\"cause_t\":" << s.cause_t
       << ",\"q\":" << s.q_us << ",\"s\":" << s.s_us << "}}";
  }
  // pid 2: counter tracks — per-directed-link in-flight messages and the
  // global in-flight one-sided put count. Edges at issue/arrival; always
  // unfiltered so the counters describe the whole run.
  std::vector<std::vector<CounterEdge>> per_dlink;
  std::vector<CounterEdge> puts;
  std::int64_t seq = 0;
  for (const MsgRecord& r : c.msgs) {
    if (r.dlink >= 0) {
      if (static_cast<std::size_t>(r.dlink) >= per_dlink.size()) {
        per_dlink.resize(static_cast<std::size_t>(r.dlink) + 1);
      }
      auto& e = per_dlink[static_cast<std::size_t>(r.dlink)];
      e.push_back({r.t_issue, seq, +1});
      e.push_back({r.t_arrival, seq, -1});
    }
    if (r.kind == OpKind::kPut || r.kind == OpKind::kPutSignal ||
        r.kind == OpKind::kSignal) {
      puts.push_back({r.t_issue, seq, +1});
      puts.push_back({r.t_arrival, seq, -1});
    }
    ++seq;
  }
  for (std::size_t d = 0; d < per_dlink.size(); ++d) {
    if (per_dlink[d].empty()) continue;
    const std::string name =
        d < c.dlink_names.size() ? c.dlink_names[d] + " in-flight"
                                 : "dlink " + std::to_string(d) + " in-flight";
    emit_counter(os, first, name.c_str(), static_cast<int>(d), per_dlink[d]);
  }
  if (!puts.empty()) {
    emit_counter(os, first, "in-flight puts",
                 static_cast<int>(per_dlink.size()), puts);
  }
  os << "]}";
}

bool export_capture_chrome(const RunCapture& c, const std::string& path,
                           int rank_lo, int rank_hi) {
  std::ofstream f(path);
  if (!f) {
    MRL_LOG_WARN("cannot open %s", path.c_str());
    return false;
  }
  export_capture_chrome(c, f, rank_lo, rank_hi);
  return f.good();
}

void export_trace_csv(const RunCapture& c, std::ostream& os, int rank_lo,
                      int rank_hi) {
  if (rank_hi < 0) rank_hi = c.nranks - 1;
  CsvWriter w(os);
  w.header({"src", "dst", "bytes", "kind", "epoch", "t_issue_us",
            "t_arrival_us", "drops"});
  for (const MsgRecord& r : c.msgs) {
    if (r.src_rank < rank_lo || r.src_rank > rank_hi) continue;
    w.row({std::to_string(r.src_rank), std::to_string(r.dst_rank),
           std::to_string(r.bytes), to_string(r.kind),
           std::to_string(r.epoch), std::to_string(r.t_issue),
           std::to_string(r.t_arrival), std::to_string(r.drops)});
  }
}

bool export_trace_csv(const RunCapture& c, const std::string& path,
                      int rank_lo, int rank_hi) {
  std::ofstream f(path);
  if (!f) {
    MRL_LOG_WARN("cannot open %s", path.c_str());
    return false;
  }
  export_trace_csv(c, f, rank_lo, rank_hi);
  return f.good();
}

void export_spans_csv(const RunCapture& c, std::ostream& os, int rank_lo,
                      int rank_hi) {
  if (rank_hi < 0) rank_hi = c.nranks - 1;
  CsvWriter w(os);
  w.header({"rank", "kind", "t_begin_us", "t_end_us", "peer", "cause_t_us",
            "cause_nspans", "bytes", "gate", "q_us", "s_us"});
  for (const SpanRecord& s : c.spans) {
    if (s.rank < rank_lo || s.rank > rank_hi) continue;
    w.row({std::to_string(s.rank), to_string(s.kind),
           std::to_string(s.t_begin), std::to_string(s.t_end),
           std::to_string(s.peer), std::to_string(s.cause_t),
           std::to_string(s.cause_nspans), std::to_string(s.bytes),
           std::to_string(s.gate), std::to_string(s.q_us),
           std::to_string(s.s_us)});
  }
}

}  // namespace mrl::simnet
