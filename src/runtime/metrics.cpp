#include "runtime/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "util/csv.hpp"

namespace mrl::runtime {

namespace {

std::atomic<bool> g_default_metrics{false};

std::string fmt_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

// %.17g round-trips any double exactly: identical bits => identical text,
// which is what the byte-identity contract needs.
std::string fmt_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

using Row = std::vector<std::string>;

void counter_rows(std::vector<Row>& rows, const std::string& section,
                  const std::string& id, const OpCounters& c) {
  auto put = [&](const char* metric, std::uint64_t v) {
    rows.push_back({section, id, metric, fmt_u64(v)});
  };
  put("sends", c.sends);
  put("recvs", c.recvs);
  put("puts", c.puts);
  put("gets", c.gets);
  put("atomics", c.atomics);
  put("cas_failures", c.cas_failures);
  put("collectives", c.collectives);
  put("syncs", c.syncs);
  put("waits", c.waits);
  put("bytes_sent", c.bytes_sent);
  put("bytes_recv", c.bytes_recv);
  put("drops", c.drops);
  put("violations", c.violations);
}

void hist_rows(std::vector<Row>& rows, const std::string& section,
               const Log2Histogram& h) {
  const int hi = h.max_bucket();
  for (int k = 0; k <= hi; ++k) {
    rows.push_back({section, std::to_string(k), Log2Histogram::bucket_label(k),
                    fmt_u64(h.bucket_count(k))});
  }
}

}  // namespace

void OpCounters::add(const OpCounters& o) {
  sends += o.sends;
  recvs += o.recvs;
  puts += o.puts;
  gets += o.gets;
  atomics += o.atomics;
  cas_failures += o.cas_failures;
  collectives += o.collectives;
  syncs += o.syncs;
  waits += o.waits;
  bytes_sent += o.bytes_sent;
  bytes_recv += o.bytes_recv;
  drops += o.drops;
  violations += o.violations;
}

RankMetrics MetricsReport::totals() const {
  RankMetrics t;
  for (const RankMetrics& r : ranks) {
    t.ops.add(r.ops);
    t.blocked_us += r.blocked_us;  // fixed rank-id order => deterministic
    t.msg_bytes.merge(r.msg_bytes);
    t.wait_us.merge(r.wait_us);
    t.query_us.merge(r.query_us);
  }
  return t;
}

std::vector<std::vector<std::string>> MetricsReport::csv_rows() const {
  std::vector<Row> rows;
  rows.push_back({"section", "id", "metric", "value"});
  const RankMetrics t = totals();
  counter_rows(rows, "total", "", t.ops);
  rows.push_back({"total", "", "blocked_us", fmt_f64(t.blocked_us)});
  rows.push_back({"total", "", "makespan_us", fmt_f64(makespan_us)});
  rows.push_back({"total", "", "nranks", std::to_string(nranks)});
  hist_rows(rows, "hist_msg_bytes", t.msg_bytes);
  hist_rows(rows, "hist_wait_us", t.wait_us);
  hist_rows(rows, "hist_query_us", t.query_us);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const std::string id = std::to_string(i);
    counter_rows(rows, "rank", id, ranks[i].ops);
    rows.push_back({"rank", id, "blocked_us", fmt_f64(ranks[i].blocked_us)});
  }
  for (const LinkMetrics& l : links) {
    const std::string id = std::to_string(l.link) + ":" + std::to_string(l.dir);
    rows.push_back({"link", id, "name", l.name});
    rows.push_back({"link", id, "msgs", fmt_u64(l.msgs)});
    rows.push_back({"link", id, "busy_us", fmt_f64(l.busy_us)});
    rows.push_back({"link", id, "queue_us", fmt_f64(l.queue_us)});
  }
  return rows;
}

std::vector<std::vector<std::string>> MetricsReport::stack_csv_rows() const {
  std::vector<Row> rows;
  if (stack_hwm_bytes.empty()) return rows;
  rows.push_back(
      {"stack", "", "usable_bytes", fmt_u64(stack_usable_bytes)});
  std::size_t peak = 0;
  for (std::size_t i = 0; i < stack_hwm_bytes.size(); ++i) {
    peak = std::max(peak, stack_hwm_bytes[i]);
    rows.push_back({"stack", std::to_string(i), "hwm_bytes",
                    fmt_u64(stack_hwm_bytes[i])});
  }
  rows.push_back({"stack", "", "max_hwm_bytes", fmt_u64(peak)});
  return rows;
}

void Metrics::reset(int nranks) {
  if (!enabled_) return;
  ranks_.assign(static_cast<std::size_t>(nranks), RankMetrics{});
}

void Metrics::on_msg_slow(const simnet::MsgRecord& rec, bool is_get) {
  RankMetrics& m = rank_at(rec.src_rank);
  switch (rec.kind) {
    case simnet::OpKind::kSend: ++m.ops.sends; break;
    case simnet::OpKind::kPut:
    case simnet::OpKind::kPutSignal:
    case simnet::OpKind::kSignal:
      // MPI gets are traced as kPut (pre-existing trace encoding); is_get
      // reclassifies them without perturbing the trace bytes.
      if (is_get) break;
      ++m.ops.puts;
      break;
    case simnet::OpKind::kAtomic: ++m.ops.atomics; break;
    case simnet::OpKind::kCollective: ++m.ops.collectives; break;
  }
  if (is_get) {
    ++m.ops.gets;
    m.ops.bytes_recv += rec.bytes;
  } else {
    m.ops.bytes_sent += rec.bytes;
  }
  m.ops.drops += static_cast<std::uint64_t>(rec.drops);
  m.msg_bytes.add(static_cast<double>(rec.bytes));
}

void Metrics::on_wait_slow(int rank, double blocked_us) {
  RankMetrics& m = rank_at(rank);
  ++m.ops.waits;
  m.blocked_us += blocked_us;
  m.wait_us.add(blocked_us);
}

bool default_metrics() {
  return g_default_metrics.load(std::memory_order_relaxed);
}

void set_default_metrics(bool on) {
  g_default_metrics.store(on, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  // Intentionally leaked: the --metrics publish seam (core/cli.cpp) writes
  // the aggregate from an atexit handler registered at flag-parse time,
  // which runs after function-local statics constructed later are
  // destroyed, so the registry must never be torn down.
  static MetricsRegistry* reg = new MetricsRegistry;
  return *reg;
}

void MetricsRegistry::publish(const MetricsReport& report) {
  const RankMetrics t = report.totals();
  std::lock_guard lk(mu_);
  ++runs_;
  max_nranks_ = std::max(max_nranks_, report.nranks);
  max_makespan_us_ = std::max(max_makespan_us_, report.makespan_us);
  totals_.add(t.ops);
  msg_bytes_.merge(t.msg_bytes);
  wait_us_.merge(t.wait_us);
  query_us_.merge(t.query_us);
  for (const LinkMetrics& l : report.links) {
    // Each report's doubles are deterministic per run; quantizing them to
    // integer picoseconds before summing keeps the aggregate commutative.
    LinkAgg& a = links_[{l.name, l.dir}];
    a.msgs += l.msgs;
    a.busy_pico += static_cast<std::uint64_t>(std::llround(l.busy_us * 1e6));
    a.queue_pico += static_cast<std::uint64_t>(std::llround(l.queue_us * 1e6));
  }
}

void MetricsRegistry::reset() {
  std::lock_guard lk(mu_);
  runs_ = 0;
  max_nranks_ = 0;
  max_makespan_us_ = 0;
  totals_ = OpCounters{};
  msg_bytes_ = Log2Histogram{};
  wait_us_ = Log2Histogram{};
  query_us_ = Log2Histogram{};
  links_.clear();
}

std::uint64_t MetricsRegistry::runs() const {
  std::lock_guard lk(mu_);
  return runs_;
}

OpCounters MetricsRegistry::totals() const {
  std::lock_guard lk(mu_);
  return totals_;
}

std::vector<MetricsRegistry::LinkTotals> MetricsRegistry::link_totals()
    const {
  std::lock_guard lk(mu_);
  std::vector<LinkTotals> out;
  out.reserve(links_.size());
  for (const auto& [key, agg] : links_) {
    LinkTotals t;
    t.name = key.first;
    t.dir = key.second;
    t.msgs = agg.msgs;
    t.busy_pico = agg.busy_pico;
    t.queue_pico = agg.queue_pico;
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<std::vector<std::string>> MetricsRegistry::csv_rows() const {
  std::lock_guard lk(mu_);
  std::vector<Row> rows;
  rows.push_back({"section", "id", "metric", "value"});
  counter_rows(rows, "total", "", totals_);
  rows.push_back({"total", "", "runs", fmt_u64(runs_)});
  rows.push_back({"total", "", "max_nranks", std::to_string(max_nranks_)});
  rows.push_back({"total", "", "max_makespan_us", fmt_f64(max_makespan_us_)});
  hist_rows(rows, "hist_msg_bytes", msg_bytes_);
  hist_rows(rows, "hist_wait_us", wait_us_);
  hist_rows(rows, "hist_query_us", query_us_);
  for (const auto& [key, agg] : links_) {
    const std::string id = key.first + ":" + std::to_string(key.second);
    rows.push_back({"link", id, "msgs", fmt_u64(agg.msgs)});
    rows.push_back({"link", id, "busy_us",
                    fmt_f64(static_cast<double>(agg.busy_pico) * 1e-6)});
    rows.push_back({"link", id, "queue_us",
                    fmt_f64(static_cast<double>(agg.queue_pico) * 1e-6)});
  }
  return rows;
}

Status MetricsRegistry::write_csv(const std::string& path) const {
  return write_metrics_csv(path, csv_rows());
}

Status write_metrics_csv(const std::string& path,
                         const std::vector<std::vector<std::string>>& rows) {
  return write_csv_file(path, rows);
}

}  // namespace mrl::runtime
