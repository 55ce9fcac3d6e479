// Indexed binary min-heap over a dense id universe [0, n).
//
// The scheduler-grade priority queue behind the fabric's per-link lane
// picker (simnet/link.cpp) and the engine's ready queue, where it holds the
// entries that miss util::SortedRunQueue's O(1) sorted run
// (util/sorted_run.hpp, runtime/engine.cpp, DESIGN.md §10). Both need the
// same three things a plain std::priority_queue cannot give:
//
//   * O(log n) removal of an ARBITRARY id (a rank leaving the ready queue
//     because it was granted or blocked; never via lazy deletion, which
//     would make memory grow with history);
//   * O(log n) key update for an id already in the heap (a lane's next-free
//     time moving forward after a claim) — the classic decrease/increase-key;
//   * a deterministic total order: ties on the key break toward the LOWEST
//     id, so the heap's top is exactly the (key, id)-lexicographic minimum a
//     linear scan over ids in ascending order would find. That tie-break is
//     load-bearing — it is the engine's documented "equal wake time => lowest
//     rank id runs first" contract, and it makes the heap a drop-in
//     replacement for the legacy linear scan with bit-identical output.
//
// The position index (id -> heap slot) is a dense vector, so contains() and
// the start of erase()/update() are O(1) with no hashing.
#pragma once

#include <cstddef>
#include <vector>

#include "util/status.hpp"

namespace mrl::util {

template <typename Key>
class IndexedMinHeap {
 public:
  IndexedMinHeap() = default;

  /// Re-dimensions the id universe to [0, n) and empties the heap. Keeps
  /// allocated storage, so per-run resets of a persistent engine are cheap.
  void reset(int n) {
    MRL_CHECK(n >= 0);
    heap_.clear();
    heap_.reserve(static_cast<std::size_t>(n));
    pos_.assign(static_cast<std::size_t>(n), -1);
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] int size() const { return static_cast<int>(heap_.size()); }
  [[nodiscard]] int universe() const { return static_cast<int>(pos_.size()); }

  [[nodiscard]] bool contains(int id) const {
    return pos_[static_cast<std::size_t>(id)] >= 0;
  }

  [[nodiscard]] Key key_of(int id) const {
    const int p = pos_[static_cast<std::size_t>(id)];
    MRL_CHECK(p >= 0);
    return heap_[static_cast<std::size_t>(p)].key;
  }

  /// Inserts `id` with `key`. The id must be in-universe and absent.
  void push(int id, Key key) {
    MRL_CHECK(id >= 0 && id < universe());
    MRL_CHECK(pos_[static_cast<std::size_t>(id)] < 0);
    heap_.push_back(Entry{key, id});
    pos_[static_cast<std::size_t>(id)] = static_cast<int>(heap_.size()) - 1;
    sift_up(static_cast<int>(heap_.size()) - 1);
  }

  /// Id of the (key, id)-minimum, or -1 when empty.
  [[nodiscard]] int top() const { return heap_.empty() ? -1 : heap_[0].id; }

  [[nodiscard]] Key top_key() const {
    MRL_CHECK(!heap_.empty());
    return heap_[0].key;
  }

  void pop() {
    MRL_CHECK(!heap_.empty());
    remove_at(0);
  }

  /// Removes an arbitrary id in O(log n).
  void erase(int id) {
    const int p = pos_[static_cast<std::size_t>(id)];
    MRL_CHECK(p >= 0);
    remove_at(p);
  }

  /// Changes the key of an id already in the heap (decrease OR increase).
  void update(int id, Key key) {
    const int p = pos_[static_cast<std::size_t>(id)];
    MRL_CHECK(p >= 0);
    const Key old = heap_[static_cast<std::size_t>(p)].key;
    heap_[static_cast<std::size_t>(p)].key = key;
    if (key < old) {
      sift_up(p);
    } else if (old < key) {
      sift_down(p);
    }
  }

 private:
  struct Entry {
    Key key;
    int id;
  };

  // Strict (key, id)-lexicographic order; ids are unique, so it totals.
  [[nodiscard]] bool less(const Entry& a, const Entry& b) const {
    return a.key < b.key || (!(b.key < a.key) && a.id < b.id);
  }

  void place(int slot, const Entry& e) {
    heap_[static_cast<std::size_t>(slot)] = e;
    pos_[static_cast<std::size_t>(e.id)] = slot;
  }

  void sift_up(int i) {
    const Entry e = heap_[static_cast<std::size_t>(i)];
    while (i > 0) {
      const int parent = (i - 1) / 2;
      if (!less(e, heap_[static_cast<std::size_t>(parent)])) break;
      place(i, heap_[static_cast<std::size_t>(parent)]);
      i = parent;
    }
    place(i, e);
  }

  void sift_down(int i) {
    const Entry e = heap_[static_cast<std::size_t>(i)];
    const int n = static_cast<int>(heap_.size());
    for (;;) {
      int child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && less(heap_[static_cast<std::size_t>(child + 1)],
                                heap_[static_cast<std::size_t>(child)])) {
        ++child;
      }
      if (!less(heap_[static_cast<std::size_t>(child)], e)) break;
      place(i, heap_[static_cast<std::size_t>(child)]);
      i = child;
    }
    place(i, e);
  }

  void remove_at(int p) {
    const int id = heap_[static_cast<std::size_t>(p)].id;
    pos_[static_cast<std::size_t>(id)] = -1;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (p == static_cast<int>(heap_.size())) return;  // removed the tail
    place(p, last);
    // The hole filler may need to move either way relative to its new
    // neighborhood.
    sift_up(p);
    sift_down(pos_[static_cast<std::size_t>(last.id)]);
  }

  std::vector<Entry> heap_;
  std::vector<int> pos_;  ///< id -> heap slot, -1 when absent
};

}  // namespace mrl::util
