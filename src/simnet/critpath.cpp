#include "simnet/critpath.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "util/status.hpp"

namespace mrl::simnet {

namespace {

// All attribution happens in integer picoseconds with llround'ed interval
// BOUNDARIES (not durations): amount([lo,hi]) = pico(hi) - pico(lo), so
// adjacent intervals telescope and the category totals sum exactly to
// pico(makespan) no matter how the walk slices the timeline.
std::int64_t pico(TimeUs t) { return std::llround(t * 1e6); }

double us(std::int64_t p) { return static_cast<double>(p) * 1e-6; }

bool is_msg_wait(SpanKind k) {
  return k == SpanKind::kRecv || k == SpanKind::kUnapplied ||
         k == SpanKind::kSignalWait;
}

bool is_sync_wait(SpanKind k) {
  return k == SpanKind::kCollective || k == SpanKind::kBarrier ||
         k == SpanKind::kFence || k == SpanKind::kWait;
}

/// Split of one attributed segment, in picoseconds.
struct Split {
  std::int64_t queue = 0;
  std::int64_t ser = 0;
  std::int64_t lat = 0;
  std::int64_t sync = 0;
};

/// Clips the (q_us, s_us) decomposition into a segment of `seg` picoseconds;
/// the exact remainder lands in latency or sync per `rest_is_sync`.
Split clip_split(std::int64_t seg, double q_us, double s_us,
                 bool rest_is_sync) {
  Split out;
  out.queue = std::min<std::int64_t>(std::max<std::int64_t>(pico(q_us), 0),
                                     seg);
  out.ser = std::min<std::int64_t>(std::max<std::int64_t>(pico(s_us), 0),
                                   seg - out.queue);
  const std::int64_t rest = seg - out.queue - out.ser;
  if (rest_is_sync) {
    out.sync = rest;
  } else {
    out.lat = rest;
  }
  return out;
}

struct TopEntry {
  std::int64_t pico = 0;
  int id = 0;
};

void append_top(std::ostringstream& os, const char* title,
                const std::vector<std::int64_t>& per_id,
                const std::function<std::string(int)>& name) {
  std::vector<TopEntry> top;
  for (std::size_t i = 0; i < per_id.size(); ++i) {
    if (per_id[i] > 0) top.push_back({per_id[i], static_cast<int>(i)});
  }
  if (top.empty()) return;
  std::sort(top.begin(), top.end(), [](const TopEntry& a, const TopEntry& b) {
    if (a.pico != b.pico) return a.pico > b.pico;
    return a.id < b.id;
  });
  if (top.size() > 10) top.resize(10);
  os << title << "\n";
  char buf[160];
  for (const TopEntry& e : top) {
    std::snprintf(buf, sizeof buf, "  %-24s %14.3f us\n",
                  name(e.id).c_str(), us(e.pico));
    os << buf;
  }
}

}  // namespace

CritPathReport analyze_critical_path(const CritPathInput& in) {
  CritPathReport rep;
  MRL_CHECK(in.spans != nullptr && in.rank_end_us != nullptr);
  MRL_CHECK(in.nranks >= 1 &&
            in.rank_end_us->size() == static_cast<std::size_t>(in.nranks));
  const SpanStore& store = *in.spans;

  // Last-finishing rank (ties break toward the lowest id).
  int end_rank = 0;
  for (int i = 1; i < in.nranks; ++i) {
    if ((*in.rank_end_us)[static_cast<std::size_t>(i)] >
        (*in.rank_end_us)[static_cast<std::size_t>(end_rank)]) {
      end_rank = i;
    }
  }
  rep.end_rank = end_rank;
  rep.makespan_pico = static_cast<std::uint64_t>(
      pico((*in.rank_end_us)[static_cast<std::size_t>(end_rank)]));

  // Per-rank span index lists, in recording order. A rank's clock is
  // monotone, so its t_end sequence is nondecreasing — binary-searchable.
  std::vector<std::vector<std::size_t>> by_rank(
      static_cast<std::size_t>(in.nranks));
  for (std::size_t i = 0; i < store.size(); ++i) {
    by_rank[static_cast<std::size_t>(store[i].rank)].push_back(i);
  }

  // Message index sorted by (dst, arrival, store order) for flight joins.
  std::vector<std::size_t> midx;
  const RecordStore* msgs = in.msgs;
  if (msgs != nullptr) {
    midx.resize(msgs->size());
    for (std::size_t i = 0; i < midx.size(); ++i) midx[i] = i;
    std::sort(midx.begin(), midx.end(), [&](std::size_t a, std::size_t b) {
      const MsgRecord& ma = (*msgs)[a];
      const MsgRecord& mb = (*msgs)[b];
      if (ma.dst_rank != mb.dst_rank) return ma.dst_rank < mb.dst_rank;
      if (ma.t_arrival != mb.t_arrival) return ma.t_arrival < mb.t_arrival;
      return a < b;
    });
  }
  // Finds the message delivered to `dst` at exactly `arrival`, preferring
  // (src, t_issue) == (peer, issue) when a causal edge names the sender;
  // otherwise the first record in store order. -1 if none.
  const auto find_msg = [&](int dst, TimeUs arrival, int peer,
                            TimeUs issue) -> std::ptrdiff_t {
    if (msgs == nullptr || midx.empty()) return -1;
    const auto lo = std::lower_bound(
        midx.begin(), midx.end(), std::make_pair(dst, arrival),
        [&](std::size_t a, const std::pair<int, TimeUs>& key) {
          const MsgRecord& m = (*msgs)[a];
          if (m.dst_rank != key.first) return m.dst_rank < key.first;
          return m.t_arrival < key.second;
        });
    std::ptrdiff_t first = -1;
    for (auto it = lo; it != midx.end(); ++it) {
      const MsgRecord& m = (*msgs)[*it];
      if (m.dst_rank != dst || m.t_arrival != arrival) break;
      if (first == -1) first = static_cast<std::ptrdiff_t>(*it);
      if (peer >= 0 && m.src_rank == peer && m.t_issue == issue) {
        return static_cast<std::ptrdiff_t>(*it);
      }
    }
    return first;
  };

  // ---- the backward walk ----
  std::vector<std::int64_t> rank_stall(static_cast<std::size_t>(in.nranks), 0);
  std::vector<std::int64_t> link_pico;  // grown on use, by directed link id
  std::int64_t compute = 0, latency = 0, ser = 0, queue = 0, sync = 0;
  std::ostringstream path;
  constexpr std::uint64_t kMaxPathLines = 200;
  std::uint64_t path_lines = 0;
  char buf[256];
  const auto path_line = [&](TimeUs lo, TimeUs hi, int rank,
                             const std::string& what) {
    ++path_lines;
    if (path_lines > kMaxPathLines) return;
    std::snprintf(buf, sizeof buf, "  %.3f..%.3f us rank %d %s\n", lo, hi,
                  rank, what.c_str());
    path << buf;
  };

  int cur = end_rank;
  TimeUs t = (*in.rank_end_us)[static_cast<std::size_t>(end_rank)];
  std::size_t limit = by_rank[static_cast<std::size_t>(cur)].size();
  // Backstop: the walk strictly descends in (time, per-rank span position),
  // so this cap is never reached on well-formed inputs; if it ever is, the
  // remainder is attributed to compute and the report says so.
  const std::uint64_t step_cap =
      2 * store.size() + 2 * static_cast<std::uint64_t>(in.nranks) + 64;

  for (;;) {
    ++rep.steps;
    if (rep.steps > step_cap) {
      compute += pico(t);
      rep.truncated = true;
      path_line(0, t, cur, "walk truncated (step cap); remainder -> compute");
      break;
    }
    const std::vector<std::size_t>& lst = by_rank[static_cast<std::size_t>(cur)];
    // Largest k < limit with span k's t_end <= t.
    std::size_t hi = std::min(limit, lst.size());
    std::size_t k = hi;
    {
      std::size_t a = 0, b = hi;
      while (a < b) {  // first index with t_end > t
        const std::size_t mid = (a + b) / 2;
        if (store[lst[mid]].t_end > t) {
          b = mid;
        } else {
          a = mid + 1;
        }
      }
      k = a;  // spans [0, k) have t_end <= t
    }
    if (k == 0) {
      compute += pico(t);
      path_line(0, t, cur, "compute (run start)");
      break;
    }
    const SpanRecord& spn = store[lst[k - 1]];
    const TimeUs b0 = spn.t_begin;
    const TimeUs e = spn.t_end;
    const std::int64_t gap = pico(t) - pico(e);
    compute += gap;

    const bool wait_kind = is_msg_wait(spn.kind) || is_sync_wait(spn.kind);
    const bool has_cause = wait_kind && spn.peer >= 0;
    // Segment start: a causal wait attributes the full dependency window
    // [cause_t, e] (for a message wake that IS the flight window, issue to
    // arrival, even when it began before this rank blocked — overlapped
    // communication); otherwise the span's own extent [b0, e].
    const TimeUs c0 = has_cause ? std::min(spn.cause_t, e) : b0;
    const std::int64_t seg = pico(e) - pico(c0);

    Split sp;
    std::ptrdiff_t mi = -1;
    if (is_msg_wait(spn.kind)) {
      mi = find_msg(cur, e, has_cause ? spn.peer : -1,
                    has_cause ? spn.cause_t : 0);
      if (mi >= 0) {
        const MsgRecord& m = (*msgs)[static_cast<std::size_t>(mi)];
        sp = clip_split(seg, m.q_us, m.s_us, /*rest_is_sync=*/false);
        if (m.dlink >= 0) {
          if (static_cast<std::size_t>(m.dlink) >= link_pico.size()) {
            link_pico.resize(static_cast<std::size_t>(m.dlink) + 1, 0);
          }
          link_pico[static_cast<std::size_t>(m.dlink)] += sp.queue + sp.ser;
        }
      } else {
        sp.lat = seg;  // no record (e.g. tracing off): count it as latency
      }
    } else if (is_sync_wait(spn.kind)) {
      sp.sync = seg;
    } else {
      // Blocking-advance op: the call site recorded the fabric q/s share.
      const bool rest_sync =
          spn.kind == SpanKind::kFlush || spn.kind == SpanKind::kQuiet;
      sp = clip_split(seg, spn.q_us, spn.s_us, rest_sync);
    }
    queue += sp.queue;
    ser += sp.ser;
    latency += sp.lat;
    sync += sp.sync;
    rank_stall[static_cast<std::size_t>(cur)] += seg;

    std::string what = to_string(spn.kind);
    if (spn.peer >= 0) {
      what += wait_kind ? " <- rank " : " -> rank ";
      what += std::to_string(spn.peer);
    }
    if (spn.bytes > 0) {
      what += ' ';
      what += std::to_string(spn.bytes);
      what += 'B';
    }
    {
      char det[128];
      std::snprintf(det, sizeof det, " (q %.3f ser %.3f lat %.3f sync %.3f",
                    us(sp.queue), us(sp.ser), us(sp.lat), us(sp.sync));
      what += det;
      if (gap > 0) {
        std::snprintf(det, sizeof det, " +compute %.3f", us(gap));
        what += det;
      }
      what += ")";
    }
    path_line(c0, t, cur, what);

    if (has_cause) {
      // Follow the causal edge: resume on the satisfying rank at the moment
      // it acted, bounded to the spans that preceded the action.
      cur = spn.peer;
      t = c0;
      limit = spn.cause_nspans;
    } else {
      t = b0;
      limit = k - 1;
    }
  }

  rep.compute_pico = static_cast<std::uint64_t>(compute);
  rep.latency_pico = static_cast<std::uint64_t>(latency);
  rep.ser_pico = static_cast<std::uint64_t>(ser);
  rep.queue_pico = static_cast<std::uint64_t>(queue);
  rep.sync_pico = static_cast<std::uint64_t>(sync);

  // ---- fixed-format report ----
  std::ostringstream os;
  std::snprintf(buf, sizeof buf,
                "critical path: makespan %.3f us, ends at rank %d (%llu "
                "steps)%s\n",
                us(static_cast<std::int64_t>(rep.makespan_pico)), end_rank,
                static_cast<unsigned long long>(rep.steps),
                rep.truncated ? " [truncated]" : "");
  os << buf;
  os << "category totals (exactly partition the makespan):\n";
  const auto pct = [&](std::uint64_t p) {
    return rep.makespan_pico == 0
               ? 0.0
               : 100.0 * static_cast<double>(p) /
                     static_cast<double>(rep.makespan_pico);
  };
  const auto cat = [&](const char* name, std::uint64_t p) {
    std::snprintf(buf, sizeof buf, "  %-16s %14.3f us  %5.1f%%\n", name,
                  us(static_cast<std::int64_t>(p)), pct(p));
    os << buf;
  };
  cat("compute", rep.compute_pico);
  cat("sync wait", rep.sync_pico);
  cat("net latency", rep.latency_pico);
  cat("serialization", rep.ser_pico);
  cat("queueing", rep.queue_pico);

  append_top(os, "top ranks by critical-path stall:", rank_stall,
             [](int id) { return "rank " + std::to_string(id); });
  append_top(os, "top links on the critical path:", link_pico, [&](int id) {
    if (in.dlink_names != nullptr &&
        static_cast<std::size_t>(id) < in.dlink_names->size()) {
      return (*in.dlink_names)[static_cast<std::size_t>(id)];
    }
    return "dlink " + std::to_string(id);
  });

  os << "path (most recent first):\n" << path.str();
  if (path_lines > kMaxPathLines) {
    std::snprintf(buf, sizeof buf, "  (... %llu more steps)\n",
                  static_cast<unsigned long long>(path_lines - kMaxPathLines));
    os << buf;
  }
  rep.text = os.str();
  return rep;
}

}  // namespace mrl::simnet
