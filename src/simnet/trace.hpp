// Communication trace: every message the runtime moves, with issue/arrival
// times and the synchronization epoch it belongs to. Each message is folded
// into running per-kind summaries as it is recorded, so the Message Roofline
// workload dots (Fig 6) and the latency-vs-msg/sync analysis (Fig 7) cost
// O(ranks) memory; the records themselves are stored only when the trace is
// enabled (`--trace`, `--profile`, EngineOptions::trace).
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "simnet/time.hpp"
#include "util/status.hpp"

namespace mrl::simnet {

enum class OpKind : std::uint8_t {
  kSend,        ///< two-sided message
  kPut,         ///< one-sided put (data)
  kPutSignal,   ///< fused put-with-signal (SHMEM)
  kSignal,      ///< one-sided put carrying only a signal word
  kAtomic,      ///< CAS / fetch-op round trip
  kCollective,  ///< barrier/reduction constituent
};
inline constexpr std::size_t kNumOpKinds =
    static_cast<std::size_t>(OpKind::kCollective) + 1;

std::string to_string(OpKind k);

struct MsgRecord {
  std::int32_t src_rank = -1;
  std::int32_t dst_rank = -1;
  std::uint64_t bytes = 0;
  TimeUs t_issue = 0;    ///< virtual time the operation was issued
  TimeUs t_arrival = 0;  ///< virtual time the payload landed at dst
  OpKind kind = OpKind::kSend;
  std::uint64_t epoch = 0;  ///< sender-side synchronization epoch
  std::int32_t drops = 0;   ///< fault-injected transmission drops (retransmitted)
  // Cost decomposition of (t_arrival - t_issue), filled by the fabric (see
  // TransferResult). Trailing fields with defaults: existing positional
  // brace-init call sites and the CSV exporter are unaffected.
  double q_us = 0;           ///< head-of-line + injector + retransmit waits
  double s_us = 0;           ///< bandwidth serialization (incl. re-sends)
  std::int32_t dlink = -1;   ///< dominant directed link (-1: same-endpoint)
};

/// Aggregate view of a trace used by the roofline overlays.
struct TraceSummary {
  std::uint64_t num_msgs = 0;
  std::uint64_t num_epochs = 0;
  double total_bytes = 0;
  double avg_msg_bytes = 0;
  double avg_msgs_per_sync = 0;   ///< messages / sender epochs
  double avg_latency_us = 0;      ///< mean (arrival - issue)
  double min_msg_bytes = 0;
  double max_msg_bytes = 0;
  double span_us = 0;             ///< last arrival - first issue
  double sustained_gbs = 0;       ///< total bytes / span
  std::uint64_t total_drops = 0;  ///< fault-injected drops across messages
};

/// Chunked append-only record storage. A single doubling vector holding
/// millions of records (a traced or profiled run at scale) momentarily
/// keeps ~1.5x the store live during the realloc and copies hundreds of MB;
/// fixed 64Ki-record chunks cap the growth spike at one chunk (~5 MiB) and
/// never move old records.
/// Indexing is two shifts, and clear() keeps the chunks for the next run.
/// Templated so the profiler's per-rank execution spans (DESIGN.md §14)
/// share the same storage discipline as message records.
template <typename T>
class ChunkedStore {
 public:
  static constexpr std::size_t kChunkShift = 16;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kChunkMask = kChunkSize - 1;

  ChunkedStore() = default;
  ChunkedStore(ChunkedStore&&) = default;
  ChunkedStore& operator=(ChunkedStore&&) = default;
  ChunkedStore(const ChunkedStore& o) { *this = o; }
  ChunkedStore& operator=(const ChunkedStore& o) {
    if (this == &o) return *this;
    chunks_.clear();
    chunks_.reserve(o.chunks_.size());
    for (const auto& c : o.chunks_) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
      std::copy(c.get(), c.get() + kChunkSize, chunks_.back().get());
    }
    size_ = o.size_;
    return *this;
  }

  void push_back(const T& r) {
    if ((size_ >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    chunks_[size_ >> kChunkShift][size_ & kChunkMask] = r;
    ++size_;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  void clear() { size_ = 0; }  // chunks stay allocated for the next run

  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i >> kChunkShift][i & kChunkMask];
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = const T&;

    const_iterator() = default;
    const_iterator(const ChunkedStore* s, std::size_t i) : store_(s), i_(i) {}
    reference operator*() const { return (*store_)[i_]; }
    pointer operator->() const { return &(*store_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++i_;
      return t;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const ChunkedStore* store_ = nullptr;
    std::size_t i_ = 0;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

using RecordStore = ChunkedStore<MsgRecord>;

/// Append-only trace. The engine serializes all recording, so no locking.
/// Summaries are always available; records() only holds messages recorded
/// while enabled().
class Trace {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Folds `rec` into the summaries and, when enabled, stores it. A
  /// sender's epoch must not decrease between clear()s: that is what makes
  /// the distinct-epoch count exact without remembering every pair.
  void record(const MsgRecord& rec) {
    MRL_CHECK(rec.src_rank >= 0);
    all_.add(rec);
    by_kind_[static_cast<std::size_t>(rec.kind)].add(rec);
    if (enabled_) records_.push_back(rec);
  }
  void clear();

  [[nodiscard]] const RecordStore& records() const { return records_; }

  [[nodiscard]] TraceSummary summarize() const { return all_.finish(); }

  /// Summary restricted to one op kind.
  [[nodiscard]] TraceSummary summarize(OpKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)].finish();
  }

 private:
  /// Running aggregate behind one TraceSummary, accumulated in record order
  /// so the floating-point sums are those of a pass over the records.
  struct Fold {
    TraceSummary s;  ///< counts, byte total/extremes and drops so far
    double first_issue = 0;
    double last_arrival = 0;
    double lat_sum = 0;
    /// Per sender: 1 + the last epoch folded in (0: none yet).
    std::vector<std::uint64_t> last_epoch;

    void add(const MsgRecord& r) {
      const auto src = static_cast<std::size_t>(r.src_rank);
      if (src >= last_epoch.size()) last_epoch.resize(src + 1);
      std::uint64_t& last = last_epoch[src];
      MRL_CHECK_MSG(r.epoch + 1 >= last, "sender epoch went backwards");
      if (r.epoch + 1 != last) {
        ++s.num_epochs;
        last = r.epoch + 1;
      }
      const auto bytes = static_cast<double>(r.bytes);
      if (s.num_msgs == 0) {
        first_issue = r.t_issue;
        last_arrival = r.t_arrival;
        s.min_msg_bytes = bytes;
        s.max_msg_bytes = bytes;
      }
      ++s.num_msgs;
      s.total_bytes += bytes;
      lat_sum += r.t_arrival - r.t_issue;
      first_issue = std::min(first_issue, r.t_issue);
      last_arrival = std::max(last_arrival, r.t_arrival);
      s.min_msg_bytes = std::min(s.min_msg_bytes, bytes);
      s.max_msg_bytes = std::max(s.max_msg_bytes, bytes);
      s.total_drops += static_cast<std::uint64_t>(r.drops);
    }
    [[nodiscard]] TraceSummary finish() const;
  };

  bool enabled_ = false;
  RecordStore records_;
  /// All kinds together. Kept apart from by_kind_ rather than merged at
  /// read time, since merging would reorder the latency sum's additions.
  Fold all_;
  std::array<Fold, kNumOpKinds> by_kind_;
};

}  // namespace mrl::simnet
