// A priority queue with a sorted-run front, for dense same-time waves.
//
// A P-rank wave pushes its keys in sorted order: every rank performs once at
// the same virtual time, in rank-id order, so each re-queued (key, id)
// orders after the previous one. A binary heap pays O(log n) per push and
// per erase for order that is already there. SortedRunQueue<Key> — the
// engine's ready queue (runtime/engine.cpp, DESIGN.md §10) — is an indexed
// (key, id) queue over ids [0, n) with arbitrary-id erase that keeps a FIFO
// run of the entries that arrived in order. A push that orders after the
// last appended run entry is appended in O(1); any other push goes to a
// util::IndexedMinHeap. top() is the smaller of the run's front and the
// heap's top.
//
// The order does not change: top() is always the strict (key, id) minimum,
// with the same lowest-id tie-break as IndexedMinHeap and the linear scan,
// so swapping it in leaves every grant bit-identical. Storage stays
// O(live entries): the run compacts once its consumed prefix and its
// tombstones reach half its length, so it never grows with history.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/indexed_heap.hpp"
#include "util/status.hpp"

namespace mrl::util {

template <typename Key>
class SortedRunQueue {
 public:
  SortedRunQueue() = default;

  /// Re-dimensions the id universe to [0, n) and empties the queue. Keeps
  /// allocated storage, so per-run resets of a persistent engine are cheap.
  void reset(int n) {
    MRL_CHECK(n >= 0);
    run_.clear();
    head_ = 0;
    dead_ = 0;
    run_pos_.assign(static_cast<std::size_t>(n), -1);
    heap_.reset(n);
  }

  [[nodiscard]] bool empty() const { return run_.empty() && heap_.empty(); }
  [[nodiscard]] int size() const {
    return static_cast<int>(run_.size() - head_ - dead_) + heap_.size();
  }
  [[nodiscard]] int universe() const { return heap_.universe(); }

  [[nodiscard]] bool contains(int id) const {
    return run_pos_[static_cast<std::size_t>(id)] >= 0 || heap_.contains(id);
  }

  /// Inserts `id` with `key`; the id must be in-universe and absent. Returns
  /// true when the entry went onto the sorted run (O(1)), false when it went
  /// to the heap (O(log n)).
  bool push(int id, Key key) {
    MRL_CHECK(id >= 0 && id < universe());
    MRL_CHECK(!contains(id));
    const Entry e{key, id};
    if (!run_.empty() && !less(run_.back(), e)) {
      heap_.push(id, key);
      return false;
    }
    run_pos_[static_cast<std::size_t>(id)] =
        static_cast<std::int32_t>(run_.size());
    run_.push_back(e);
    return true;
  }

  /// Id of the (key, id)-minimum, or -1 when empty.
  [[nodiscard]] int top() const {
    if (run_.empty()) return heap_.top();
    const Entry& f = run_[head_];
    return run_front_wins(f) ? f.id : heap_.top();
  }

  [[nodiscard]] Key top_key() const {
    if (run_.empty()) return heap_.top_key();
    const Entry& f = run_[head_];
    return run_front_wins(f) ? f.key : heap_.top_key();
  }

  /// Removes an arbitrary id: O(1) amortized on the run (the front is
  /// popped, any other run entry becomes a tombstone), O(log n) on the heap.
  void erase(int id) {
    std::int32_t& p = run_pos_[static_cast<std::size_t>(id)];
    if (p < 0) {
      heap_.erase(id);
      return;
    }
    const auto at = static_cast<std::size_t>(p);
    p = -1;
    if (at != head_) {
      ++dead_;
    } else {
      // Keep run_[head_] live: step over the tombstones behind the front.
      for (++head_; head_ < run_.size() && !live(head_); ++head_) --dead_;
    }
    if (2 * (head_ + dead_) >= run_.size()) compact();
  }

 private:
  struct Entry {
    Key key;
    int id;
  };

  // Strict (key, id)-lexicographic order, as in IndexedMinHeap.
  [[nodiscard]] static bool less(const Entry& a, const Entry& b) {
    return a.key < b.key || (!(b.key < a.key) && a.id < b.id);
  }

  [[nodiscard]] bool run_front_wins(const Entry& f) const {
    return heap_.empty() || less(f, Entry{heap_.top_key(), heap_.top()});
  }

  // A run slot is live iff its id still points back at it; an erased (or
  // since re-pushed) id leaves a tombstone behind.
  [[nodiscard]] bool live(std::size_t slot) const {
    return run_pos_[static_cast<std::size_t>(run_[slot].id)] ==
           static_cast<std::int32_t>(slot);
  }

  // Slides the live suffix to the front, dropping the consumed prefix and
  // the tombstones. Runs only when those are at least half the run, so its
  // cost is bounded by the removals since the last compaction.
  void compact() {
    std::size_t w = 0;
    for (std::size_t i = head_; i < run_.size(); ++i) {
      if (!live(i)) continue;
      run_[w] = run_[i];
      run_pos_[static_cast<std::size_t>(run_[w].id)] =
          static_cast<std::int32_t>(w);
      ++w;
    }
    run_.erase(run_.begin() + static_cast<std::ptrdiff_t>(w), run_.end());
    head_ = 0;
    dead_ = 0;
  }

  // Invariants: run_ is strictly ascending in (key, id); run_[head_] is
  // live whenever run_ is non-empty; dead_ counts the tombstones in
  // [head_, run_.size()); an empty run_ means every run entry was consumed.
  std::vector<Entry> run_;
  std::size_t head_ = 0;
  std::size_t dead_ = 0;
  std::vector<std::int32_t> run_pos_;  ///< id -> run slot, -1 when not on it
  IndexedMinHeap<Key> heap_;
};

}  // namespace mrl::util
