#pragma once
// Calendar queue — the bucketed priority queue of discrete-event
// simulation (R. Brown, CACM 1988), here one of the runtime-selectable
// ready/sleep backends behind the same KeyedMinQueue contract as every
// other scheduler queue (DESIGN.md §4). Time is hashed into an array of
// "days": bucket(key) = (key / width) % num_buckets. When the bucket
// width matches the typical key spacing, push and pop_min touch O(1)
// elements. (The simulation kernel's own event queue is not a
// KeyedMinQueue; see sim/kernel.hpp.)
//
// Contract fit:
//   * nodes are individually arena-allocated and never move, so the node
//     pointer is a stable handle (erase(h) never invalidates others);
//   * FIFO among equal keys via an insertion sequence number; min
//     selection uses the (key, seq) total order, so whole simulations
//     stay bit-identical against every other backend;
//   * counters() / validate() as everywhere else.
//
// Bucket-width policy (DESIGN.md §8): the bucket count follows the live
// size between resize thresholds (grow to 2N buckets when size > 2N,
// shrink to N/2 when size < N/2 — factor-2 hysteresis, so churn around a
// steady size never thrashes). Every resize walks all nodes anyway, so
// the width is recomputed there from the observed key span:
// width = span / size + 1, i.e. ~one element per bucket-day. Resizes are
// O(n) but amortize against the Ω(n) pushes/pops between thresholds.
//
// pop_min scans days forward from the last-known minimum day (a floor
// maintained on every push of a smaller key). The scan is lazy about
// empty buckets (PR 3): the queue tracks its non-empty bucket count,
// every node inspected during the day scan feeds a running "best seen"
// candidate, and the moment all non-empty buckets have been visited the
// candidate IS the minimum — so a sparse population (width
// mis-estimation, the classical calendar failure mode) costs at most
// one partial round instead of a full empty round PLUS a second
// direct-search rescan as before. The found minimum is cached until a
// smaller push / pop / erase invalidates it, so
// min_key()/min_value()/pop_min() triples cost one search.
//
// Keys must be non-negative integers (days are key/width); the scheduler
// keys all qualify: priorities, absolute deadlines, wake-up times, and
// the kernel's packed (t << 2 | rank) event keys.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "containers/op_counters.hpp"
#include "util/arena.hpp"

namespace sps::containers {

template <typename Key, typename Value, typename Less = std::less<Key>>
class CalendarQueue {
  static_assert(std::is_integral_v<Key>,
                "calendar buckets need integer keys (days are key/width)");
  static_assert(std::is_same_v<Less, std::less<Key>>,
                "calendar bucketing assumes the natural numeric order");

  struct Node {
    Node* prev = nullptr;
    Node* next = nullptr;
    Key key{};
    std::uint64_t seq = 0;
    Value value{};
  };

 public:
  using key_type = Key;
  using mapped_type = Value;
  using handle = Node*;

  CalendarQueue() { buckets_.resize(kInitialBuckets, nullptr); }
  CalendarQueue(const CalendarQueue&) = delete;
  CalendarQueue& operator=(const CalendarQueue&) = delete;
  CalendarQueue(CalendarQueue&&) noexcept = default;

  ~CalendarQueue() {
    for (Node* head : buckets_) {
      for (Node* n = head; n != nullptr;) {
        Node* next = n->next;
        arena_.destroy(n);
        n = next;
      }
    }
  }

  handle push(Key key, Value value) {
    if constexpr (std::is_signed_v<Key>) assert(key >= 0);
    Node* n = arena_.create();
    n->key = key;
    n->seq = ++seq_;
    n->value = std::move(value);
    Link(n);
    ++size_;
    ++counters_.pushes;
    const std::uint64_t d = DayOf(key);
    if (size_ == 1 || d < cur_day_) cur_day_ = d;
    // Only a LIVE cache may be updated: when it was invalidated by a
    // pop/erase, a new non-minimal node must not masquerade as the min.
    if (size_ == 1 || (min_node_ != nullptr && BeforeMin(n))) {
      min_node_ = n;
    }
    if (size_ > 2 * buckets_.size()) Resize(2 * buckets_.size());
    return n;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] const Key& min_key() const { return FindMin()->key; }
  [[nodiscard]] const Value& min_value() const { return FindMin()->value; }

  std::pair<Key, Value> pop_min() {
    Node* m = FindMin();
    // The minimum's day is a valid scan floor for everything that remains.
    cur_day_ = DayOf(m->key);
    Unlink(m);
    min_node_ = nullptr;
    --size_;
    ++counters_.pops;
    std::pair<Key, Value> out{m->key, std::move(m->value)};
    arena_.destroy(m);
    MaybeShrink();
    return out;
  }

  Value erase(handle h) {
    assert(h != nullptr);
    Unlink(h);
    if (h == min_node_) min_node_ = nullptr;
    --size_;
    ++counters_.erases;
    Value out = std::move(h->value);
    arena_.destroy(h);
    MaybeShrink();
    return out;
  }

  [[nodiscard]] const QueueOpCounters& counters() const { return counters_; }

  [[nodiscard]] bool validate() const {
    std::size_t counted = 0;
    std::size_t counted_nonempty = 0;
    const Node* true_min = nullptr;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      if (buckets_[b] != nullptr) ++counted_nonempty;
      for (const Node* n = buckets_[b]; n != nullptr; n = n->next) {
        if constexpr (std::is_signed_v<Key>) {
          if (n->key < 0) return false;
        }
        if (BucketOf(n->key) != b) return false;
        if (n->next != nullptr && n->next->prev != n) return false;
        if (n->prev == nullptr && buckets_[b] != n) return false;
        if (DayOf(n->key) < cur_day_) return false;  // scan-floor invariant
        if (true_min == nullptr || n->key < true_min->key ||
            (n->key == true_min->key && n->seq < true_min->seq)) {
          true_min = n;
        }
        ++counted;
      }
    }
    if (counted != size_) return false;
    if (counted_nonempty != nonempty_buckets_) return false;
    if (min_node_ != nullptr && min_node_ != true_min) return false;
    return width_ >= 1;
  }

  /// Introspection for the resizing-policy tests.
  [[nodiscard]] std::size_t num_buckets() const { return buckets_.size(); }
  [[nodiscard]] Key bucket_width() const { return width_; }

 private:
  static constexpr std::size_t kInitialBuckets = 8;

  [[nodiscard]] std::uint64_t DayOf(Key key) const {
    return static_cast<std::uint64_t>(key) /
           static_cast<std::uint64_t>(width_);
  }

  [[nodiscard]] std::size_t BucketOf(Key key) const {
    return static_cast<std::size_t>(DayOf(key) % buckets_.size());
  }

  [[nodiscard]] bool BeforeMin(const Node* n) const {
    return n->key < min_node_->key ||
           (n->key == min_node_->key && n->seq < min_node_->seq);
  }

  void Link(Node* n) {
    Node*& head = buckets_[BucketOf(n->key)];
    if (head == nullptr) ++nonempty_buckets_;
    n->prev = nullptr;
    n->next = head;
    if (head != nullptr) head->prev = n;
    head = n;
  }

  void Unlink(Node* n) {
    if (n->prev != nullptr) {
      n->prev->next = n->next;
    } else {
      Node*& head = buckets_[BucketOf(n->key)];
      head = n->next;
      if (head == nullptr) --nonempty_buckets_;
    }
    if (n->next != nullptr) n->next->prev = n->prev;
    n->prev = n->next = nullptr;
  }

  static bool Before(const Node* a, const Node* b) {
    return a->key < b->key || (a->key == b->key && a->seq < b->seq);
  }

  /// Locate (and cache) the minimum: scan days forward from the floor,
  /// lazily with respect to empty buckets. Every node inspected on the
  /// way feeds a running best-seen candidate and a count of non-empty
  /// buckets visited; the moment that count reaches the queue's
  /// non-empty total, the candidate is the true minimum — a sparse
  /// population (keys spread far beyond one bucket round) resolves in
  /// one partial pass, where the pre-PR-3 scan walked a full empty
  /// round and then re-scanned every bucket from scratch.
  Node* FindMin() const {
    assert(size_ > 0);
    if (min_node_ != nullptr) return min_node_;
    const std::size_t nb = buckets_.size();
    Node* best_seen = nullptr;
    std::size_t nonempty_seen = 0;
    std::uint64_t d = cur_day_;
    for (std::size_t visited = 0; visited < nb; ++visited, ++d) {
      Node* head = buckets_[d % nb];
      if (head == nullptr) continue;
      ++nonempty_seen;
      Node* day_best = nullptr;
      for (Node* n = head; n != nullptr; n = n->next) {
        if (DayOf(n->key) == d &&
            (day_best == nullptr || Before(n, day_best))) {
          day_best = n;
        }
        if (best_seen == nullptr || Before(n, best_seen)) best_seen = n;
      }
      if (day_best != nullptr) {
        // Nothing lives on a day in [cur_day_, d) — those days' buckets
        // were all visited at exactly their day — so this is the min.
        cur_day_ = d;
        min_node_ = day_best;
        return day_best;
      }
      if (nonempty_seen == nonempty_buckets_) break;  // seen every node
    }
    // Sparse: every live node was inspected above; jump to the best.
    cur_day_ = DayOf(best_seen->key);
    min_node_ = best_seen;
    return best_seen;
  }

  void MaybeShrink() {
    if (buckets_.size() > kInitialBuckets && size_ < buckets_.size() / 2) {
      Resize(buckets_.size() / 2);
    }
  }

  void Resize(std::size_t new_buckets) {
    std::vector<Node*> nodes;
    nodes.reserve(size_);
    for (Node* head : buckets_) {
      for (Node* n = head; n != nullptr;) {
        Node* next = n->next;
        n->prev = n->next = nullptr;
        nodes.push_back(n);
        n = next;
      }
    }
    Key lo = 0;
    Key hi = 0;
    if (!nodes.empty()) {
      lo = hi = nodes.front()->key;
      for (const Node* n : nodes) {
        lo = n->key < lo ? n->key : lo;
        hi = n->key > hi ? n->key : hi;
      }
    }
    // ~one element per bucket-day: average spacing of the live keys,
    // floored at 1 (duplicates / empty queue).
    width_ = nodes.empty()
                 ? Key{1}
                 : static_cast<Key>((hi - lo) /
                                    static_cast<Key>(nodes.size())) +
                       Key{1};
    buckets_.assign(new_buckets, nullptr);
    nonempty_buckets_ = 0;  // Link() recounts as it re-buckets
    for (Node* n : nodes) Link(n);
    cur_day_ = nodes.empty() ? 0 : DayOf(lo);
    // min_node_ still points at a live node; the cache stays valid.
  }

  std::vector<Node*> buckets_;
  Key width_ = 1;
  std::size_t size_ = 0;
  std::size_t nonempty_buckets_ = 0;  ///< buckets with a non-null head
  std::uint64_t seq_ = 0;
  mutable std::uint64_t cur_day_ = 0;  ///< no live element has a smaller day
  mutable Node* min_node_ = nullptr;   ///< cached minimum (lazy)
  /// Node storage: slab/free-list arena (util/arena.hpp); nodes never
  /// move, so the node pointer stays a stable handle.
  util::SlabArena<Node> arena_;
  QueueOpCounters counters_;
};

}  // namespace sps::containers
