#pragma once
// Queue concept layer — the uniform contract every scheduler queue backend
// models (DESIGN.md "Queue concept"). The paper's scheduler needs exactly
// three queue capabilities: insert a keyed element, extract the minimum,
// and remove an arbitrary element through a stable handle (a split task
// leaving a sleep queue early, a preempted job being requeued). The three
// container implementations in this directory each provide a different
// cost trade-off for those capabilities; this header adapts all of them
// to one interface. The paper's two Table-1 structures (binomial heap,
// red-black tree) are runtime-selectable per scheduler role, so the
// engines (sim/engine.cpp, sim/global_engine.cpp), the calibration
// harness (overhead/calibrate.hpp) and the ablation bench can swap them
// without touching scheduler logic; the sorted vector is the storage of
// the kernel's fixed event queue (sim/kernel.hpp).
//
// The KeyedMinQueue contract:
//
//   using key_type / mapped_type / handle;
//   handle push(key, value)          insert; handle stays valid until the
//                                    element is popped or erased, even
//                                    across erases of OTHER elements
//   min_key() / min_value()          smallest-key element (FIFO among ties)
//   pop_min() -> {key, value}        remove the minimum
//   erase(handle) -> value           remove an arbitrary element
//   empty() / size()
//   counters()                       per-instance operation counts — the
//                                    data source for the Table-1
//                                    reproduction and the ablation benches
//   validate()                       structural self-check (tests)
//
// Semantics every backend must honour (the conformance suite
// tests/test_queue_concept.cpp checks them against all three):
//   * min/pop order is total: ascending key, FIFO among equal keys. This
//     is what makes whole simulations bit-identical across backends.
//   * erase(h) never invalidates other handles.
//
// The binomial heap gets FIFO tie-breaking from an internal insertion
// sequence number folded into the comparison; RbTree and the sorted
// vector provide it structurally (duplicates insert after equals).

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "containers/binomial_heap.hpp"
#include "containers/op_counters.hpp"
#include "containers/rb_tree.hpp"
#include "containers/sorted_vector_queue.hpp"
#include "util/arena.hpp"

namespace sps::containers {

/// The uniform queue contract (see header comment for semantics).
template <typename Q>
concept KeyedMinQueue = requires(Q q, const Q cq, typename Q::key_type k,
                                 typename Q::mapped_type v,
                                 typename Q::handle h) {
  typename Q::key_type;
  typename Q::mapped_type;
  typename Q::handle;
  { q.push(std::move(k), std::move(v)) } -> std::same_as<typename Q::handle>;
  { cq.empty() } -> std::convertible_to<bool>;
  { cq.size() } -> std::convertible_to<std::size_t>;
  { cq.min_key() } -> std::convertible_to<const typename Q::key_type&>;
  { cq.min_value() } -> std::convertible_to<const typename Q::mapped_type&>;
  {
    q.pop_min()
  } -> std::same_as<std::pair<typename Q::key_type, typename Q::mapped_type>>;
  { q.erase(h) } -> std::same_as<typename Q::mapped_type>;
  { cq.counters() } -> std::convertible_to<const QueueOpCounters&>;
  { cq.validate() } -> std::convertible_to<bool>;
};

/// Role concepts of the scheduler. A READY queue is keyed by scheduling
/// priority (fixed priority or absolute deadline); a SLEEP queue by
/// wake-up time. Structurally they are the same contract — the roles
/// exist so engine code states which instantiation it expects.
template <typename Q, typename Key, typename Value>
concept ReadyQueueFor = KeyedMinQueue<Q> &&
                        std::same_as<typename Q::key_type, Key> &&
                        std::same_as<typename Q::mapped_type, Value>;

template <typename Q, typename Key, typename Value>
concept SleepQueueFor = ReadyQueueFor<Q, Key, Value>;

// ---------------------------------------------------------------------------
// Backend adapters
// ---------------------------------------------------------------------------

namespace detail {

/// Heap entry carrying the FIFO tie-break sequence number.
template <typename Key, typename Value, typename Extra>
struct SeqEntry {
  Key key;
  std::uint64_t seq = 0;
  Value value;
  [[no_unique_address]] Extra extra{};
};

template <typename Less>
struct SeqEntryLess {
  [[no_unique_address]] Less less{};
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    if (less(a.key, b.key)) return true;
    if (less(b.key, a.key)) return false;
    return a.seq < b.seq;
  }
};

}  // namespace detail

/// BinomialHeap behind the queue concept. The binomial heap relocates
/// VALUES between nodes on erase (bubble-to-root swaps), so raw node
/// pointers are not stable handles; each element therefore owns a Slot
/// box that the heap's relocation hook keeps pointed at the element's
/// current node. Handle = Slot*.
template <typename Key, typename Value, typename Less = std::less<Key>>
class BinomialHeapQueue {
  struct Slot {
    void* node = nullptr;  ///< current BinomialHeap node of this element
  };
  using Entry = detail::SeqEntry<Key, Value, Slot*>;
  struct MoveHooks {
    template <typename E, typename Node>
    static void moved(E& e, Node* n) noexcept {
      e.extra->node = n;
    }
  };
  using Heap =
      BinomialHeap<Entry, detail::SeqEntryLess<Less>, MoveHooks>;

 public:
  using key_type = Key;
  using mapped_type = Value;
  using handle = Slot*;

  BinomialHeapQueue() = default;
  BinomialHeapQueue(const BinomialHeapQueue&) = delete;
  BinomialHeapQueue& operator=(const BinomialHeapQueue&) = delete;
  BinomialHeapQueue(BinomialHeapQueue&&) noexcept = default;

  ~BinomialHeapQueue() {
    // Drain so the slot boxes are returned before their arena goes.
    while (!heap_.empty()) arena_.destroy(heap_.pop().extra);
  }

  handle push(Key key, Value value) {
    Slot* slot = arena_.create();
    heap_.push(Entry{std::move(key), ++seq_, std::move(value), slot});
    ++counters_.pushes;
    return slot;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const Key& min_key() const { return heap_.top().key; }
  [[nodiscard]] const Value& min_value() const { return heap_.top().value; }

  std::pair<Key, Value> pop_min() {
    Entry e = heap_.pop();
    arena_.destroy(e.extra);
    ++counters_.pops;
    return {std::move(e.key), std::move(e.value)};
  }

  Value erase(handle h) {
    assert(h != nullptr && h->node != nullptr);
    Entry e = heap_.erase(static_cast<typename Heap::Node*>(h->node));
    assert(e.extra == h);
    arena_.destroy(h);
    ++counters_.erases;
    return std::move(e.value);
  }

  [[nodiscard]] const QueueOpCounters& counters() const { return counters_; }
  [[nodiscard]] bool validate() const { return heap_.validate(); }

 private:
  Heap heap_;
  util::SlabArena<Slot> arena_;
  std::uint64_t seq_ = 0;
  QueueOpCounters counters_;
};

/// RbTree behind the queue concept. The tree is already a stable-handle
/// multimap with FIFO duplicates (inserts after equal keys, erase by
/// pointer transplanting) — the adapter only adds the counters.
template <typename Key, typename Value, typename Less = std::less<Key>>
class RbTreeQueue {
  using Tree = RbTree<Key, Value, Less>;

 public:
  using key_type = Key;
  using mapped_type = Value;
  using handle = typename Tree::handle;

  RbTreeQueue() = default;
  RbTreeQueue(const RbTreeQueue&) = delete;
  RbTreeQueue& operator=(const RbTreeQueue&) = delete;
  RbTreeQueue(RbTreeQueue&&) noexcept = default;

  handle push(Key key, Value value) {
    ++counters_.pushes;
    return tree_.insert(std::move(key), std::move(value));
  }

  [[nodiscard]] bool empty() const { return tree_.empty(); }
  [[nodiscard]] std::size_t size() const { return tree_.size(); }
  [[nodiscard]] const Key& min_key() const { return tree_.min_key(); }
  [[nodiscard]] const Value& min_value() const { return tree_.min_value(); }

  std::pair<Key, Value> pop_min() {
    ++counters_.pops;
    return tree_.pop_min();
  }

  Value erase(handle h) {
    ++counters_.erases;
    return tree_.erase(h);
  }

  [[nodiscard]] const QueueOpCounters& counters() const { return counters_; }
  [[nodiscard]] bool validate() const { return tree_.validate(); }

 private:
  Tree tree_;
  QueueOpCounters counters_;
};

/// SortedVectorQueue behind the queue concept. The vector moves elements
/// on every insert/erase, so it cannot hand out positional handles; the
/// adapter stores arena-allocated Slot boxes IN the vector (the vector's
/// mapped type is Slot*) and hands those out. Slot pointers survive any
/// amount of element movement. erase(h) relocates the slot through the
/// base container's (key, value)-match erase, which is exact because
/// slot pointers are unique.
///
/// What this costs the contiguity story: the KEYS — which is what the
/// base container's binary searches and memmoves touch — stay inline in
/// the vector; only min_value()/pop_min() chase one pointer into the
/// slot arena. So the queue keeps contiguous key traffic, plus the one
/// indirection stable handles fundamentally require of a moving
/// container.
template <typename Key, typename Value, typename Less = std::less<Key>>
class SortedVectorStableQueue {
  struct Slot {
    Key key;
    Value value;
  };
  using Base = SortedVectorQueue<Key, Slot*, Less>;

 public:
  using key_type = Key;
  using mapped_type = Value;
  using handle = Slot*;

  SortedVectorStableQueue() = default;
  SortedVectorStableQueue(const SortedVectorStableQueue&) = delete;
  SortedVectorStableQueue& operator=(const SortedVectorStableQueue&) = delete;
  SortedVectorStableQueue(SortedVectorStableQueue&&) noexcept = default;

  ~SortedVectorStableQueue() {
    // Drain so the slot boxes are returned before their arena goes.
    while (!base_.empty()) arena_.destroy(base_.pop_min().second);
  }

  handle push(Key key, Value value) {
    Slot* slot = arena_.create(Slot{key, std::move(value)});
    base_.insert(std::move(key), slot);
    ++counters_.pushes;
    return slot;
  }

  [[nodiscard]] bool empty() const { return base_.empty(); }
  [[nodiscard]] std::size_t size() const { return base_.size(); }
  [[nodiscard]] const Key& min_key() const { return base_.min_key(); }
  [[nodiscard]] const Value& min_value() const {
    return base_.min_value()->value;
  }

  std::pair<Key, Value> pop_min() {
    auto [key, slot] = base_.pop_min();
    std::pair<Key, Value> out{std::move(key), std::move(slot->value)};
    arena_.destroy(slot);
    ++counters_.pops;
    return out;
  }

  Value erase(handle h) {
    assert(h != nullptr);
    const bool found = base_.erase(h->key, h);
    assert(found);
    (void)found;
    Value out = std::move(h->value);
    arena_.destroy(h);
    ++counters_.erases;
    return out;
  }

  [[nodiscard]] const QueueOpCounters& counters() const { return counters_; }
  [[nodiscard]] bool validate() const { return base_.validate(); }

 private:
  Base base_;
  util::SlabArena<Slot> arena_;
  QueueOpCounters counters_;
};

// ---------------------------------------------------------------------------
// Runtime backend selection
// ---------------------------------------------------------------------------

/// Which container implements a scheduler queue: the paper's two Table-1
/// structures. Selected at runtime in SimConfig / GlobalSimConfig /
/// CalibrationConfig; the dispatch helpers below turn the enum into the
/// concrete adapter type. (SortedVectorStableQueue models the concept
/// too, but only as the kernel's fixed event-queue storage.)
enum class QueueBackend : std::uint8_t {
  kBinomialHeap,   ///< the paper's ready-queue choice
  kRbTree,         ///< the paper's sleep-queue choice
};

inline constexpr QueueBackend kAllQueueBackends[] = {
    QueueBackend::kBinomialHeap,
    QueueBackend::kRbTree,
};

[[nodiscard]] constexpr std::string_view to_string(QueueBackend b) {
  switch (b) {
    case QueueBackend::kBinomialHeap: return "binomial";
    case QueueBackend::kRbTree: return "rbtree";
  }
  return "?";
}

/// Adapter type implementing backend B for (Key, Value).
template <QueueBackend B, typename Key, typename Value,
          typename Less = std::less<Key>>
struct QueueBackendSelector;

template <typename K, typename V, typename L>
struct QueueBackendSelector<QueueBackend::kBinomialHeap, K, V, L> {
  using type = BinomialHeapQueue<K, V, L>;
};
template <typename K, typename V, typename L>
struct QueueBackendSelector<QueueBackend::kRbTree, K, V, L> {
  using type = RbTreeQueue<K, V, L>;
};

template <QueueBackend B, typename Key, typename Value,
          typename Less = std::less<Key>>
using QueueOf = typename QueueBackendSelector<B, Key, Value, Less>::type;

/// Call fn with a std::integral_constant<QueueBackend, B> matching the
/// runtime value — the bridge from a config enum to a template
/// instantiation. All callees must return the same type.
template <typename Fn>
decltype(auto) WithQueueBackend(QueueBackend b, Fn&& fn) {
  switch (b) {
    case QueueBackend::kRbTree:
      return fn(
          std::integral_constant<QueueBackend, QueueBackend::kRbTree>{});
    case QueueBackend::kBinomialHeap:
    default:
      return fn(std::integral_constant<QueueBackend,
                                       QueueBackend::kBinomialHeap>{});
  }
}

// Every adapter must model the contract, for every plausible role.
static_assert(KeyedMinQueue<BinomialHeapQueue<std::uint64_t, void*>>);
static_assert(KeyedMinQueue<RbTreeQueue<std::uint64_t, void*>>);
static_assert(KeyedMinQueue<SortedVectorStableQueue<std::uint64_t, void*>>);

}  // namespace sps::containers
