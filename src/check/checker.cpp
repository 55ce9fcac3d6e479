#include "check/checker.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <ostream>
#include <tuple>
#include <utility>

namespace mrl::check {
namespace {

// Cap on stored violation lines. Detection (and the per-rank counters) keep
// going past the cap; the report just notes how many lines were suppressed.
constexpr std::size_t kMaxStoredViolations = 200;

std::string fmt_t(simnet::TimeUs t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fus", t);
  return buf;
}

std::string fmt_range(std::uint64_t off, std::uint64_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%" PRIu64 ", %" PRIu64 ")", off,
                off + bytes);
  return buf;
}

// Signal-word traffic is exempt from atomic-vs-atomic conflicts: bare MPI
// signal puts, the atomic half of fused SHMEM put-with-signal, explicit
// atomics, and signal waits all model word-atomic hardware operations.
bool atomic_class(AccessKind k, PutClass c) {
  return k == AccessKind::kAtomic ||
         (k == AccessKind::kPut && c == PutClass::kSignal);
}

bool is_write(AccessKind k) {
  return k == AccessKind::kPut || k == AccessKind::kAtomic ||
         k == AccessKind::kLocalWrite;
}

}  // namespace

const char* to_string(AccessKind k) {
  switch (k) {
    case AccessKind::kPut:
      return "put";
    case AccessKind::kGet:
      return "get";
    case AccessKind::kAtomic:
      return "atomic";
    case AccessKind::kLocalRead:
      return "local_read";
    case AccessKind::kLocalWrite:
      return "local_write";
  }
  return "?";
}

void Checker::reset(int nranks) {
  nranks_ = nranks;
  zero_base_ = std::make_shared<const std::vector<std::uint64_t>>(
      static_cast<std::size_t>(nranks), 0);
  vc_.assign(static_cast<std::size_t>(nranks), Clock{zero_base_, {}});
  spaces_.clear();
  channels_.clear();
  wires_.clear();
  in_flight_.assign(static_cast<std::size_t>(nranks), {});
  violations_.clear();
  per_rank_violations_.assign(static_cast<std::size_t>(nranks), 0);
  suppressed_ = 0;
}

void Checker::clear_verdicts() {
  spaces_.clear();
  channels_.clear();
  violations_.clear();
  std::fill(per_rank_violations_.begin(), per_rank_violations_.end(), 0);
  suppressed_ = 0;
}

int Checker::add_space(std::string name) {
  Space s;
  s.name = std::move(name);
  s.regions.resize(static_cast<std::size_t>(nranks_));
  spaces_.push_back(std::move(s));
  return static_cast<int>(spaces_.size()) - 1;
}

int Checker::add_channel(std::string name, int clears_space) {
  Channel c;
  c.name = std::move(name);
  c.clears_space = clears_space;
  c.in_wave.assign(static_cast<std::size_t>(nranks_), 0);
  channels_.push_back(std::move(c));
  return static_cast<int>(channels_.size()) - 1;
}

std::uint64_t Checker::clk(const Clock& c, int r) const {
  const auto key = static_cast<std::int32_t>(r);
  const auto it = std::lower_bound(
      c.delta.begin(), c.delta.end(), key,
      [](const auto& e, std::int32_t k) { return e.first < k; });
  if (it != c.delta.end() && it->first == key) return it->second;
  return (*c.base)[static_cast<std::size_t>(r)];
}

void Checker::set_clk(Clock& c, int r, std::uint64_t v) {
  if (v <= (*c.base)[static_cast<std::size_t>(r)]) return;
  const auto key = static_cast<std::int32_t>(r);
  const auto it = std::lower_bound(
      c.delta.begin(), c.delta.end(), key,
      [](const auto& e, std::int32_t k) { return e.first < k; });
  if (it != c.delta.end() && it->first == key) {
    it->second = std::max(it->second, v);
  } else {
    c.delta.insert(it, {key, v});
  }
}

std::vector<std::uint64_t> Checker::dense(const Clock& c) const {
  std::vector<std::uint64_t> out = *c.base;
  for (const auto& [r, v] : c.delta) {
    auto& slot = out[static_cast<std::size_t>(r)];
    slot = std::max(slot, v);
  }
  return out;
}

void Checker::tick(int rank) {
  Clock& c = vc_[static_cast<std::size_t>(rank)];
  set_clk(c, rank, clk(c, rank) + 1);
}

void Checker::join(int rank, const Clock& other) {
  Clock& mine = vc_[static_cast<std::size_t>(rank)];
  if (mine.base == other.base) {
    // Common case: both clocks sit on the same collective-wave baseline, so
    // only the sparse overlays differ.
    for (const auto& [r, v] : other.delta) set_clk(mine, r, v);
    return;
  }
  // Bases diverged (a snapshot crossing a collective boundary): fall back to
  // a dense elementwise max, which becomes this rank's private base.
  auto merged = std::make_shared<std::vector<std::uint64_t>>(dense(mine));
  for (int r = 0; r < nranks_; ++r) {
    auto& slot = (*merged)[static_cast<std::size_t>(r)];
    slot = std::max(slot, clk(other, r));
  }
  mine.base = std::move(merged);
  mine.delta.clear();
}

Checker::Wire& Checker::wire(int src, int dst) {
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(src))
                             << 32) |
                            static_cast<std::uint32_t>(dst);
  const auto it = std::lower_bound(
      wires_.begin(), wires_.end(), key,
      [](const Wire& w, std::uint64_t k) { return w.key < k; });
  if (it != wires_.end() && it->key == key) return *it;
  Wire w;
  w.key = key;
  return *wires_.insert(it, std::move(w));
}

void Checker::add_violation(Violation v) {
  if (v.rank_a >= 0 && v.rank_a < nranks_) {
    ++per_rank_violations_[static_cast<std::size_t>(v.rank_a)];
  }
  if (violations_.size() < kMaxStoredViolations) {
    violations_.push_back(std::move(v));
  } else {
    ++suppressed_;
  }
}

std::string Checker::where(int space, int owner) const {
  std::string s = spaces_[static_cast<std::size_t>(space)].name;
  s += "@rank";
  s += std::to_string(owner);
  return s;
}

bool Checker::conflicts(const Rec& a, const Rec& b) const {
  if (a.rank == b.rank) return false;
  // Empty ranges (e.g. the data half of a pure-signal put_signal with zero
  // payload bytes) touch no memory and cannot race.
  if (a.bytes == 0 || b.bytes == 0) return false;
  if (a.off >= b.off + b.bytes || b.off >= a.off + a.bytes) return false;
  if (!is_write(a.kind) && !is_write(b.kind)) return false;
  if (atomic_class(a.kind, a.cls) && atomic_class(b.kind, b.cls)) return false;
  return true;
}

std::uint32_t Checker::scan_and_record(int space, int owner, Rec rec) {
  Region& region =
      spaces_[static_cast<std::size_t>(space)].regions[static_cast<std::size_t>(
          owner)];
  const Clock& observer_vc = vc_[static_cast<std::size_t>(rec.rank)];
  // First-divergence reporting: with k unordered conflicting writers the
  // full pair set is quadratic and unreadable. Records are appended in
  // global virtual-time order, so the first unordered conflict in scan
  // order is the earliest conflicting endpoint — report that one pair per
  // new access and stop.
  for (const Rec& old : region.recs) {
    if (!conflicts(old, rec)) continue;
    // old happens-before the new access iff old has completed and the new
    // access's rank already knows old.rank's clock past old's order point.
    const bool ordered =
        !old.in_flight && old.order_clk <= clk(observer_vc, old.rank);
    if (ordered) continue;
    Violation viol;
    viol.kind = "race";
    viol.space = where(space, owner);
    viol.rank_a = rec.rank;
    viol.rank_b = old.rank;
    viol.t_a = rec.t;
    viol.t_b = old.t;
    viol.off_a = rec.off;
    viol.bytes_a = rec.bytes;
    viol.off_b = old.off;
    viol.bytes_b = old.bytes;
    std::string v = "race on ";
    v += viol.space;
    v += ": ";
    v += to_string(rec.kind);
    v += " by rank " + std::to_string(rec.rank) + " @" + fmt_t(rec.t) +
         " bytes " + fmt_range(rec.off, rec.bytes);
    v += " conflicts with ";
    v += to_string(old.kind);
    if (old.in_flight) {
      v += old.locally_complete ? " (in flight; flush_local only)"
                                : " (in flight)";
    }
    v += " by rank " + std::to_string(old.rank) + " @" + fmt_t(old.t) +
         " bytes " + fmt_range(old.off, old.bytes);
    v += " — unordered in happens-before";
    viol.text = std::move(v);
    add_violation(std::move(viol));
    break;
  }
  if (region.recs.size() >=
      static_cast<std::size_t>(history_limit_)) {
    ++region.overflow;
    return kNoRec;
  }
  region.recs.push_back(std::move(rec));
  return static_cast<std::uint32_t>(region.recs.size()) - 1;
}

void Checker::on_send(int src, int dst, std::uint64_t seq) {
  if (!enabled_) return;
  tick(src);
  wire(src, dst).msgs.emplace_back(seq, vc_[static_cast<std::size_t>(src)]);
}

void Checker::on_recv(int dst, int src, std::uint64_t seq) {
  if (!enabled_) return;
  Wire& w = wire(src, dst);
  // Keyed lookup, not front-pop: tag-filtered matching can consume the
  // wire out of FIFO order.
  for (std::size_t i = 0; i < w.msgs.size(); ++i) {
    if (w.msgs[i].first != seq) continue;
    join(dst, w.msgs[i].second);
    w.msgs.erase(w.msgs.begin() + static_cast<std::ptrdiff_t>(i));
    break;
  }
  tick(dst);
}

bool Checker::on_collective_enter(int chan, int rank, const char* kind,
                                  simnet::TimeUs t, std::uint64_t gen,
                                  bool last) {
  if (!enabled_) return true;
  Channel& c = channels_[static_cast<std::size_t>(chan)];
  const bool first = c.first_rank < 0;
  if (first) {
    c.gen = gen;
    c.kind = kind;
    c.first_rank = rank;
    c.first_t = t;
  } else if (std::strcmp(c.kind, kind) != 0) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "collective mismatch on %s (gen %" PRIu64
                  "): rank %d @%s entered %s but rank %d @%s entered %s",
                  c.name.c_str(), gen, rank, fmt_t(t).c_str(), kind,
                  c.first_rank, fmt_t(c.first_t).c_str(), c.kind);
    Violation viol;
    viol.kind = "collective_mismatch";
    viol.space = c.name;
    viol.rank_a = rank;
    viol.rank_b = c.first_rank;
    viol.t_a = t;
    viol.t_b = c.first_t;
    viol.text = buf;
    add_violation(std::move(viol));
    return false;
  }
  tick(rank);
  const Clock& mine = vc_[static_cast<std::size_t>(rank)];
  if (first) {
    // First entrant seeds the wave merge densely; same-base followers (the
    // norm — everyone shares the previous wave's baseline) then cost only
    // their delta sizes, keeping a wave at O(ranks) total, not O(ranks²).
    c.merged = dense(mine);
    c.wave_base = mine.base;
  } else if (mine.base == c.wave_base) {
    for (const auto& [r, v] : mine.delta) {
      auto& slot = c.merged[static_cast<std::size_t>(r)];
      slot = std::max(slot, v);
    }
  } else {
    for (int r = 0; r < nranks_; ++r) {
      auto& slot = c.merged[static_cast<std::size_t>(r)];
      slot = std::max(slot, clk(mine, r));
    }
  }
  c.in_wave[static_cast<std::size_t>(rank)] = 1;
  if (!last) return true;

  // Every other entrant stays blocked in the rendezvous until it wakes, and
  // only the drain that just ran could change its clock since it entered:
  // an on_applied join injects some origin's issue-time snapshot, which
  // that origin's merged entry clock dominates. So the merged clock
  // dominates every rank's, and each rank adopts it as the new shared
  // baseline rather than joining it: O(1) per rank, and it is exactly this
  // collapse that keeps every rank's delta sparse between collectives.
  const auto base =
      std::make_shared<const std::vector<std::uint64_t>>(std::move(c.merged));
  for (int r = 0; r < nranks_; ++r) {
    Clock& vc = vc_[static_cast<std::size_t>(r)];
    vc.base = base;
    vc.delta.clear();
    tick(r);
  }
  c.merged = {};
  c.wave_base = nullptr;
  std::fill(c.in_wave.begin(), c.in_wave.end(), std::uint8_t{0});
  c.first_rank = -1;
  if (c.clears_space >= 0) {
    // Global RMA sync (fence / SHMEM barrier): every put on this space is
    // complete, and the history restarts — nothing before the sync can
    // race with anything after it. The drain applied all pending
    // deliveries before this hook ran, so no record handles survive.
    Space& sp = spaces_[static_cast<std::size_t>(c.clears_space)];
    for (Region& region : sp.regions) region.recs.clear();
    for (auto& fl : in_flight_) {
      fl.erase(std::remove_if(fl.begin(), fl.end(),
                              [&](const InFlight& f) {
                                return f.space == c.clears_space;
                              }),
               fl.end());
    }
  }
  return true;
}

PutHandles Checker::on_put(int origin, int space, int owner,
                           std::uint64_t off, std::uint64_t bytes,
                           PutClass cls, std::uint64_t sig_off,
                           simnet::TimeUs t) {
  PutHandles h;
  if (!enabled_) return h;

  // Epoch discipline before recording: a signal issued while earlier data
  // puts to the same target are still in flight may overtake them (MPI RMA
  // and SHMEM both order signal delivery only after flush/quiet).
  if (cls == PutClass::kSignal || cls == PutClass::kFused) {
    for (const InFlight& f : in_flight_[static_cast<std::size_t>(origin)]) {
      if (f.space != space || f.owner != owner || f.idx == kNoRec) continue;
      const Rec& prior = spaces_[static_cast<std::size_t>(space)]
                             .regions[static_cast<std::size_t>(owner)]
                             .recs[f.idx];
      if (!prior.in_flight || prior.cls != PutClass::kData) continue;
      Violation viol;
      viol.kind = "signal_overtake";
      viol.space = where(space, owner);
      viol.rank_a = origin;
      viol.rank_b = owner;
      viol.t_a = t;
      viol.t_b = prior.t;
      viol.off_a = off;
      viol.bytes_a = bytes;
      viol.off_b = prior.off;
      viol.bytes_b = prior.bytes;
      std::string v = cls == PutClass::kSignal
                          ? "sync misuse: signal put by rank "
                          : "sync misuse: put_signal by rank ";
      v += std::to_string(origin) + " @" + fmt_t(t) + " to " +
           viol.space + " may overtake unflushed data put bytes " +
           fmt_range(prior.off, prior.bytes) + " @" + fmt_t(prior.t);
      if (prior.locally_complete) {
        v += " (flush_local completed it locally only; it does not order "
             "remote delivery)";
      }
      v += cls == PutClass::kSignal ? " — flush before signaling"
                                    : " — quiet before put_signal";
      viol.text = std::move(v);
      add_violation(std::move(viol));
      break;  // one diagnostic per signal op, not one per pending put
    }
  }

  tick(origin);
  Rec rec;
  rec.rank = origin;
  rec.kind = AccessKind::kPut;
  rec.cls = cls;
  rec.in_flight = true;
  rec.off = off;
  rec.bytes = bytes;
  rec.order_clk = ~0ull;
  rec.t = t;
  rec.vc = vc_[static_cast<std::size_t>(origin)];  // cheap: shared base
  h.data = scan_and_record(space, owner, std::move(rec));
  if (h.data != kNoRec) {
    in_flight_[static_cast<std::size_t>(origin)].push_back(
        {space, owner, h.data});
  }

  if (cls == PutClass::kFused) {
    Rec sig;
    sig.rank = origin;
    sig.kind = AccessKind::kAtomic;
    sig.cls = PutClass::kFused;
    sig.in_flight = true;
    sig.off = sig_off;
    sig.bytes = 8;
    sig.order_clk = ~0ull;
    sig.t = t;
    sig.vc = vc_[static_cast<std::size_t>(origin)];
    h.sig = scan_and_record(space, owner, std::move(sig));
    if (h.sig != kNoRec) {
      in_flight_[static_cast<std::size_t>(origin)].push_back(
          {space, owner, h.sig});
    }
  }
  return h;
}

void Checker::record_access(int rank, int space, int owner,
                            AccessKind kind, std::uint64_t off,
                            std::uint64_t bytes, simnet::TimeUs t) {
  tick(rank);
  Rec rec;
  rec.rank = rank;
  rec.kind = kind;
  rec.off = off;
  rec.bytes = bytes;
  rec.order_clk = clk(vc_[static_cast<std::size_t>(rank)], rank);
  rec.t = t;
  scan_and_record(space, owner, std::move(rec));
}

void Checker::on_get(int origin, int space, int owner, std::uint64_t off,
                     std::uint64_t bytes, simnet::TimeUs t) {
  if (!enabled_) return;
  record_access(origin, space, owner, AccessKind::kGet, off, bytes, t);
}

void Checker::on_atomic(int origin, int space, int owner, std::uint64_t off,
                        std::uint64_t bytes, simnet::TimeUs t) {
  if (!enabled_) return;
  record_access(origin, space, owner, AccessKind::kAtomic, off, bytes, t);
}

void Checker::on_local(int rank, int space, std::uint64_t off,
                       std::uint64_t bytes, bool is_write_access,
                       bool unapplied_overlap, simnet::TimeUs t) {
  if (!enabled_) return;
  if (unapplied_overlap && !is_write_access) {
    Violation viol;
    viol.kind = "unapplied_read";
    viol.space = where(space, rank);
    viol.rank_a = rank;
    viol.t_a = t;
    viol.off_a = off;
    viol.bytes_a = bytes;
    viol.text = "sync misuse: local_read by rank " + std::to_string(rank) +
                " @" + fmt_t(t) + " of " + viol.space + " bytes " +
                fmt_range(off, bytes) +
                " overlaps an arrived but unapplied put — missing "
                "MPI_Win_sync / wait before reading";
    add_violation(std::move(viol));
  }
  record_access(rank, space, rank,
                is_write_access ? AccessKind::kLocalWrite
                                : AccessKind::kLocalRead,
                off, bytes, t);
}

void Checker::on_flush(int origin, int space, int target) {
  if (!enabled_) return;
  // Tick first so the order point is strictly newer than any clock snapshot
  // that escaped via earlier sends: only post-flush knowledge orders the put.
  tick(origin);
  const std::uint64_t order =
      clk(vc_[static_cast<std::size_t>(origin)], origin);
  auto& fl = in_flight_[static_cast<std::size_t>(origin)];
  for (std::size_t i = 0; i < fl.size();) {
    const InFlight& f = fl[i];
    if (f.space != space || (target >= 0 && f.owner != target)) {
      ++i;
      continue;
    }
    Rec& rec = spaces_[static_cast<std::size_t>(f.space)]
                   .regions[static_cast<std::size_t>(f.owner)]
                   .recs[f.idx];
    if (rec.in_flight) {
      rec.in_flight = false;
      rec.order_clk = std::min(rec.order_clk, order);
    }
    fl.erase(fl.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void Checker::on_flush_local(int origin, int space, int target) {
  if (!enabled_) return;
  // Deliberately no tick, no order-clock stamp, no in-flight erasure:
  // MPI_Win_flush_local licenses reuse of the origin's source buffers (which
  // the checker never tracks) and nothing else. The puts remain in flight —
  // a later signal still overtakes them (W1) and finishing without a real
  // flush still leaks them (W2). We only mark the records so those verdicts
  // can name flush_local instead of claiming no completion call was made.
  for (const InFlight& f : in_flight_[static_cast<std::size_t>(origin)]) {
    if (f.space != space || (target >= 0 && f.owner != target)) continue;
    if (f.idx == kNoRec) continue;
    Rec& rec = spaces_[static_cast<std::size_t>(f.space)]
                   .regions[static_cast<std::size_t>(f.owner)]
                   .recs[f.idx];
    if (rec.in_flight) rec.locally_complete = true;
  }
}

void Checker::on_applied(int space, int owner, const PutHandles& h) {
  if (!enabled_) return;
  Region& region =
      spaces_[static_cast<std::size_t>(space)].regions[static_cast<std::size_t>(
          owner)];
  const std::uint32_t handles[2] = {h.data, h.sig};
  for (std::uint32_t idx : handles) {
    if (idx == kNoRec) continue;
    Rec& rec = region.recs[idx];
    rec.applied = true;
    if (rec.vc.base != nullptr) {
      // The target observes the delivery: it now knows everything the origin
      // knew when it issued the put.
      join(owner, rec.vc);
      const std::uint64_t issue_clk = clk(rec.vc, rec.rank);
      rec.order_clk = std::min(rec.order_clk, issue_clk);
      rec.vc = Clock{};
    }
    if (rec.in_flight) {
      rec.in_flight = false;
      auto& fl = in_flight_[static_cast<std::size_t>(rec.rank)];
      fl.erase(std::remove_if(fl.begin(), fl.end(),
                              [&](const InFlight& f) {
                                return f.space == space && f.owner == owner &&
                                       f.idx == idx;
                              }),
               fl.end());
    }
  }
}

void Checker::on_run_end() {
  if (!enabled_) return;
  for (int origin = 0; origin < nranks_; ++origin) {
    const auto& fl = in_flight_[static_cast<std::size_t>(origin)];
    for (const InFlight& f : fl) {
      const Rec& rec = spaces_[static_cast<std::size_t>(f.space)]
                           .regions[static_cast<std::size_t>(f.owner)]
                           .recs[f.idx];
      if (!rec.in_flight) continue;
      Violation viol;
      viol.kind = "missing_completion";
      viol.space = where(f.space, f.owner);
      viol.rank_a = origin;
      viol.rank_b = f.owner;
      viol.t_a = rec.t;
      viol.off_a = rec.off;
      viol.bytes_a = rec.bytes;
      viol.text = "sync misuse: put by rank " + std::to_string(origin) +
                  " @" + fmt_t(rec.t) + " to " + viol.space + " bytes " +
                  fmt_range(rec.off, rec.bytes) +
                  (rec.locally_complete
                       ? " was completed only locally (flush_local is "
                         "not remote completion)"
                       : " was never completed") +
                  " — missing flush/quiet/fence before finishing";
      add_violation(std::move(viol));
    }
  }
}

std::string Checker::report() const {
  std::string out = "RMA checker: " +
                    std::to_string(violations_.size() + suppressed_) +
                    " violation(s)";
  std::uint64_t dropped = 0;
  for (const Space& sp : spaces_) {
    for (const Region& region : sp.regions) dropped += region.overflow;
  }
  if (dropped != 0) {
    out += " (history limit reached: " + std::to_string(dropped) +
           " accesses unchecked; raise --check-history)";
  }
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    out += "\n  [" + std::to_string(i + 1) + "] " + violations_[i].text;
  }
  if (suppressed_ != 0) {
    out += "\n  ... " + std::to_string(suppressed_) + " more suppressed";
  }
  return out;
}

std::string Checker::deadlock_note() const {
  std::string out;
  for (const Channel& c : channels_) {
    if (c.first_rank < 0) continue;
    const auto entered = std::count(c.in_wave.begin(), c.in_wave.end(), 1);
    out += "\n  collective " + c.name + " gen " + std::to_string(c.gen) +
           ": " + std::to_string(entered) + "/" + std::to_string(nranks_) +
           " entered (" + c.kind + "), waiting for ranks";
    int listed = 0;
    for (int r = 0; r < nranks_; ++r) {
      if (c.in_wave[static_cast<std::size_t>(r)]) continue;
      if (listed == 8) {
        out += " ...";
        break;
      }
      out += (listed == 0 ? " " : ", ") + std::to_string(r);
      ++listed;
    }
  }
  return out;
}

namespace {
std::atomic<bool> g_default_check{[] {
  const char* env = std::getenv("MSGROOF_CHECK");
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0;
}()};
std::atomic<std::uint64_t> g_default_check_history{1u << 16};
}  // namespace

bool default_check() { return g_default_check.load(std::memory_order_relaxed); }
void set_default_check(bool on) {
  g_default_check.store(on, std::memory_order_relaxed);
}
std::uint64_t default_check_history() {
  return g_default_check_history.load(std::memory_order_relaxed);
}
void set_default_check_history(std::uint64_t n) {
  g_default_check_history.store(n, std::memory_order_relaxed);
}

namespace {
void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      os << '\\' << ch;
    } else if (ch == '\n') {
      os << "\\n";
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      os << ' ';
    } else {
      os << ch;
    }
  }
  os << '"';
}

std::string fmt_us(simnet::TimeUs t) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}
}  // namespace

void write_check_report_json(const std::vector<Violation>& violations,
                             std::ostream& os) {
  os << "{\n  \"schema\": \"msgroof.check_report.v1\",\n"
     << "  \"violation_count\": " << violations.size() << ",\n"
     << "  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const Violation& v = violations[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"kind\": ";
    json_string(os, v.kind);
    os << ", \"space\": ";
    json_string(os, v.space);
    os << ", \"rank_a\": " << v.rank_a << ", \"rank_b\": " << v.rank_b
       << ", \"t_a_us\": " << fmt_us(v.t_a) << ", \"t_b_us\": " << fmt_us(v.t_b)
       << ", \"off_a\": " << v.off_a << ", \"bytes_a\": " << v.bytes_a
       << ", \"off_b\": " << v.off_b << ", \"bytes_b\": " << v.bytes_b
       << ", \"text\": ";
    json_string(os, v.text);
    os << "}";
  }
  os << (violations.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

CheckReportRegistry& CheckReportRegistry::instance() {
  static CheckReportRegistry* const inst = new CheckReportRegistry();
  return *inst;
}

void CheckReportRegistry::publish(const std::vector<Violation>& violations) {
  std::lock_guard<std::mutex> lk(mu_);
  violations_.insert(violations_.end(), violations.begin(), violations.end());
}

void CheckReportRegistry::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  violations_.clear();
}

std::vector<Violation> CheckReportRegistry::sorted_violations() const {
  std::vector<Violation> out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = violations_;
  }
  std::sort(out.begin(), out.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.kind, a.space, a.rank_a, a.rank_b, a.t_a, a.t_b, a.off_a,
                    a.bytes_a, a.off_b, a.bytes_b, a.text) <
           std::tie(b.kind, b.space, b.rank_a, b.rank_b, b.t_a, b.t_b, b.off_a,
                    b.bytes_a, b.off_b, b.bytes_b, b.text);
  });
  return out;
}

Status CheckReportRegistry::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return Status(ErrorCode::kNotFound,
                  "cannot open check-report path " + path);
  }
  write_check_report_json(sorted_violations(), f);
  if (!f.good()) {
    return Status(ErrorCode::kNotFound,
                  "short write to check-report path " + path);
  }
  return Status::ok();
}

}  // namespace mrl::check
