// Benchmark child process. run.py starts one per measurement so every
// workload runs alone in a fresh process, on one thread (fibers, heap
// scheduler, jobs 1). Modes:
//
//   timed   set up, then run passes of the timed region with every observer
//           off for --budget seconds (one pass for a run-once workload);
//           prints set-up time, per-pass host times and memory.
//   observe set up, then run --passes passes with one observer
//           (none|metrics|check|spans|trace) on; prints the median pass
//           time and, with metrics on, the exact op counts per pass. A
//           repeating workload replays each pass with every observer off
//           right after, so the ratio compares the same inputs in the same
//           process. With --budget the first pass stops after the first
//           step that ends past that many seconds, and later passes run as
//           many steps; the check observer covers at most the workload's
//           checked_steps().
//   layers  set up, run one traced pass (benchmark-side spans around each
//           layer call), then every per-layer probe at the workload's
//           shape; writes the spans to --spans and prints the unit costs.
//   record  prints expected.inc: the simulated outputs every pass is
//           checked against.
//
// Each mode prints one JSON line on stdout as its last line.
#include <malloc.h>

#include <cstdio>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "common.hpp"
#include "core/parallel.hpp"
#include "runtime/engine.hpp"
#include "runtime/metrics.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"

namespace perfbench {
namespace {

namespace rt = mrl::runtime;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double budget_s = -1;
  int passes = 1;
  std::string observer = "none";
  std::string spans_path;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench timed|observe|layers --workload NAME "
               "[--seed N] [--budget S] [--passes N] [--observer "
               "none|metrics|check|spans|trace] [--spans PATH]\n"
               "       perfbench record\n");
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  if (argc < 2) return false;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      const auto n = mrl::parse_u64(v);
      if (!n) return false;
      a.seed = *n;
    } else if (flag == "--budget") {
      const auto s = mrl::parse_f64(v);
      if (!s || *s < 0) return false;
      a.budget_s = *s;

    } else if (flag == "--passes") {
      const auto n = mrl::parse_i64(v);
      if (!n || *n < 1) return false;
      a.passes = static_cast<int>(*n);
    } else if (flag == "--observer") {
      a.observer = v;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      return false;
    }
  }
  return true;
}

/// The configuration users run: every observer off by default, one thread,
/// fibers, the indexed-heap scheduler. Returns false (and says why) if the
/// environment turned something on, e.g. MSGROOF_CHECK=1.
bool observers_off() {
  const bool ok = !rt::default_metrics() && !mrl::check::default_check() &&
                  !rt::default_spans() && !rt::default_trace();
  if (!ok) {
    std::fprintf(stderr,
                 "perfbench: an observer is on by default (metrics %d, check "
                 "%d, spans %d, trace %d); the timed pass needs all off\n",
                 rt::default_metrics(), mrl::check::default_check(),
                 rt::default_spans(), rt::default_trace());
  }
  return ok;
}

void pin_configuration() {
  rt::set_default_backend(rt::EngineBackend::kFibers);
  rt::set_default_scheduler(rt::SchedulerKind::kIndexedHeap);
  mrl::core::set_default_jobs(1);
}

/// Turns one observer's process-wide default on or off (engines built
/// afterwards pick it up). False for an unknown name.
bool set_observer(const std::string& name, bool on) {
  if (name == "none") return true;
  if (name == "metrics") {
    rt::set_default_metrics(on);
  } else if (name == "check") {
    mrl::check::set_default_check(on);
  } else if (name == "spans") {
    rt::set_default_spans(on);
  } else if (name == "trace") {
    rt::set_default_trace(on);
  } else {
    return false;
  }
  return true;
}

/// Set-up shared by every mode: build platforms and inputs, plus one cold
/// warm-up pass for workloads that repeat. Returns the host seconds taken.
double set_up(Workload& w, std::uint64_t seed, PassResult& warm,
              SpanRecorder* rec) {
  SpanRecorder::Scope s(rec, "setup");
  const double t0 = now_s();
  w.build(seed);
  if (w.repeats()) warm = run_pass(w, nullptr);
  return now_s() - t0;
}

void emit_outcome(JsonLine& j, const PassResult& r) {
  j.num("attempted", r.attempted);
  j.num("failed", r.failed);
  j.str("error", r.error);
}

int run_timed(Workload& w, const Args& a) {
  PassResult all;
  const double setup_s = set_up(w, a.seed, all, nullptr);
  // Hand freed heap pages back first, so VmRSS counts what set-up holds,
  // not what the allocator happened to keep from the warm-up pass (that
  // depends on which seed-ordered step ran last).
  malloc_trim(0);
  const double setup_rss = proc_status_mb("VmRSS");
  std::vector<double> pass_s, msgs;
  const double start = now_s();
  do {
    const double t0 = now_s();
    const PassResult r = run_pass(w, nullptr);
    pass_s.push_back(now_s() - t0);
    msgs.push_back(static_cast<double>(r.msgs));
    all.merge(r);
  } while (w.repeats() &&
           (pass_s.size() < 3 || now_s() - start < a.budget_s));
  JsonLine j;
  j.num("setup_s", setup_s);
  j.num("setup_rss_mb", setup_rss);
  j.num("peak_rss_mb", proc_status_mb("VmHWM"));
  j.nums("pass_s", pass_s);
  j.nums("msgs", msgs);
  emit_outcome(j, all);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

int run_observe(Workload& w, const Args& a) {
  PassResult all;
  set_up(w, a.seed, all, nullptr);
  if (!set_observer(a.observer, false)) return usage();
  auto& reg = rt::MetricsRegistry::instance();
  reg.reset();
  int steps = a.observer == "check" ? w.checked_steps() : w.steps();
  // A run-once workload stays cold: one pass per process, compared by the
  // caller with a "none" child.
  const int passes = w.repeats() ? a.passes : 1;
  std::vector<double> on_s, off_s;
  for (int p = 0; p < passes; ++p) {
    set_observer(a.observer, true);
    double t0 = now_s();
    all.merge(run_pass(w, nullptr, steps, p == 0 ? a.budget_s : -1, &steps,
                       /*end=*/!w.repeats()));
    on_s.push_back(now_s() - t0);
    set_observer(a.observer, false);
    if (w.repeats()) {
      t0 = now_s();
      all.merge(run_pass(w, nullptr, steps));
      off_s.push_back(now_s() - t0);
    }
  }
  JsonLine j;
  j.str("observer", a.observer);
  j.num("wall_s", mrl::median(on_s));
  if (!off_s.empty()) j.num("off_s", mrl::median(off_s));
  j.num("peak_rss_mb", proc_status_mb("VmHWM"));
  if (a.observer == "metrics") {
    // Only this observer child reads the registry; the timed pass never does.
    const rt::OpCounters c = reg.totals();
    const double n = passes;
    j.num("fabric_ops", static_cast<double>(c.fabric_ops()) / n);
    j.num("syncs", static_cast<double>(c.syncs) / n);
    j.num("waits", static_cast<double>(c.waits) / n);
    j.num("transfers",
          static_cast<double>(c.sends + c.puts + 2 * c.atomics) / n);
  }
  emit_outcome(j, all);
  std::printf("%s\n", j.done().c_str());
  return 0;
}

int run_layers(Workload& w, const Args& a) {
  SpanRecorder rec;
  PassResult all;
  set_up(w, a.seed, all, &rec);
  double traced_s = 0;
  PassResult traced;
  {
    SpanRecorder::Scope s(&rec, "pass");
    const double t0 = now_s();
    traced = run_pass(w, &rec);
    traced_s = now_s() - t0;
  }
  all.merge(traced);
  std::vector<std::pair<std::string, double>> probes;
  {
    SpanRecorder::Scope s(&rec, "probes");
    run_probes(w, rec, probes);
  }
  // The traced pass's own gets replace the probe's combining estimate.
  double gets = 0, naive = 0;
  for (const auto& [k, v] : traced.counts) {
    if (k == "gets") gets = v;
    if (k == "gets_naive") naive = v;
  }
  JsonLine j;
  j.num("trace_wall_s", traced_s);
  j.num("core.sweep_two_sided_s", rec.total_s("core.run_sweep.two_sided"));
  j.num("core.sweep_one_sided_s", rec.total_s("core.run_sweep.one_sided"));
  j.num("core.sweep_shmem_s", rec.total_s("core.run_sweep.shmem"));
  for (const auto& [k, v] : probes) {
    j.num(k, k == "workloads.embedding.combine_ratio" && naive > 0
                 ? gets / naive
                 : v);
  }
  JsonLine work;
  for (const auto& [k, v] : traced.work) work.num(k, v);
  j.raw("work", work.done());
  emit_outcome(j, all);
  if (!a.spans_path.empty() && !rec.write_csv(a.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", j.done().c_str());
  return 0;
}

int run_record() {
  std::printf(
      "// Simulated outputs every benchmark pass is checked against, exact\n"
      "// to the last bit. Regenerate with `perfbench record` (README.md)\n"
      "// only when a change is meant to alter simulated results.\n");
  for (const char* name :
       {"stencil_scale", "roofline_sweep", "embedding_serving"}) {
    auto w = make_workload(name);
    w->build(1);
    w->record(stdout);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse(argc, argv, a)) return usage();
  if (!observers_off()) return 3;
  pin_configuration();
  if (a.mode == "record") return run_record();
  auto w = make_workload(a.workload);
  if (!w) return usage();
  if (a.mode == "timed") return run_timed(*w, a);
  if (a.mode == "observe") return run_observe(*w, a);
  if (a.mode == "layers") return run_layers(*w, a);
  return usage();
}
