#pragma once
// Binomial heap — the ready-queue data structure of the semi-partitioned
// scheduler (Zhang/Guan/Yi, PPES 2011, Section 2: "The ready queue is
// implemented by a binomial heap").
//
// A min-ordered binomial heap: the element for which `Compare(a, b)` is
// true against every other element b is at the top. The scheduler
// instantiates this with "higher scheduling priority first", so `top()` is
// the task the core must run next.
//
// Operations and their costs (n = queue size):
//   push        O(log n) worst case
//   top         O(log n)
//   pop         O(log n)
//   erase       O(log n)   (arbitrary element, via its handle)
//
// Handles: `push` returns a stable `handle` identifying the element. The
// heap never moves *nodes*; `erase` bubbles the stored value to the root of
// its tree by swapping values between nodes, and invokes the `Hooks::moved`
// customization point for every value that changes node, so callers that
// track handles inside their elements stay consistent. The default Hooks is
// a no-op (handles of elements displaced by `erase` are then invalidated,
// which is fine for callers that only erase the element they hold a handle
// to and otherwise use push/pop).

#include <cassert>
#include <cstddef>
#include <functional>
#include <utility>

#include "util/arena.hpp"

namespace sps::containers {

/// Default (no-op) relocation hooks for BinomialHeap.
struct NullHeapHooks {
  template <typename T, typename Node>
  static void moved(T& /*value*/, Node* /*new_node*/) noexcept {}
};

template <typename T, typename Compare = std::less<T>,
          typename Hooks = NullHeapHooks>
class BinomialHeap {
 public:
  struct Node {
    T value;
    Node* parent = nullptr;
    Node* child = nullptr;    // leftmost (highest-degree) child
    Node* sibling = nullptr;  // next root in root list / next child
    unsigned degree = 0;

    explicit Node(T v) : value(std::move(v)) {}
  };

  /// Stable identifier for a pushed element (see class comment).
  using handle = Node*;

  BinomialHeap() = default;
  explicit BinomialHeap(Compare cmp) : cmp_(std::move(cmp)) {}

  BinomialHeap(const BinomialHeap&) = delete;
  BinomialHeap& operator=(const BinomialHeap&) = delete;

  BinomialHeap(BinomialHeap&& other) noexcept
      : head_(std::exchange(other.head_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        cmp_(std::move(other.cmp_)),
        arena_(std::move(other.arena_)) {}

  BinomialHeap& operator=(BinomialHeap&& other) noexcept {
    if (this != &other) {
      clear();
      head_ = std::exchange(other.head_, nullptr);
      size_ = std::exchange(other.size_, 0);
      cmp_ = std::move(other.cmp_);
      arena_ = std::move(other.arena_);
    }
    return *this;
  }

  ~BinomialHeap() { clear(); }

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Insert a value; returns a handle usable with erase().
  handle push(T value) {
    Node* n = arena_.create(std::move(value));
    Hooks::moved(n->value, n);
    head_ = merge_root_lists(head_, n);
    consolidate();
    ++size_;
    return n;
  }

  /// Highest-priority element (the one Compare orders before all others).
  /// Precondition: !empty().
  [[nodiscard]] const T& top() const {
    assert(!empty());
    return find_min()->value;
  }

  /// Remove and return the highest-priority element. Precondition: !empty().
  T pop() {
    assert(!empty());
    return remove_root(find_min());
  }

  /// Remove an arbitrary element by handle. Handles of *other* elements are
  /// kept valid through the Hooks::moved customization point.
  T erase(handle h) {
    assert(h != nullptr);
    Node* root = bubble_to_root(h);
    return remove_root(root);
  }

  void clear() noexcept {
    destroy_tree_list(head_);
    head_ = nullptr;
    size_ = 0;
  }

  /// Structural self-check used by the test suite. Verifies:
  ///  - root list strictly increasing in degree,
  ///  - every tree is a valid binomial tree of its degree,
  ///  - heap order (parent ordered not-after child) holds everywhere,
  ///  - node count equals size().
  [[nodiscard]] bool validate() const {
    std::size_t counted = 0;
    int last_degree = -1;
    for (Node* r = head_; r != nullptr; r = r->sibling) {
      if (static_cast<int>(r->degree) <= last_degree) return false;
      last_degree = static_cast<int>(r->degree);
      if (r->parent != nullptr) return false;
      if (!validate_tree(r, r->degree, counted)) return false;
    }
    return counted == size_;
  }

 private:
  [[nodiscard]] Node* find_min() const {
    Node* best = head_;
    for (Node* r = head_->sibling; r != nullptr; r = r->sibling) {
      if (cmp_(r->value, best->value)) best = r;
    }
    return best;
  }

  /// Detach `root` from the root list, reinsert its children, free the
  /// node, and return its value.
  T remove_root(Node* root) {
    detach_root(root);
    absorb_children(root);
    T out = std::move(root->value);
    arena_.destroy(root);
    --size_;
    return out;
  }

  /// Merge two root lists by non-decreasing degree (no linking yet).
  static Node* merge_root_lists(Node* a, Node* b) noexcept {
    Node* head = nullptr;
    Node** tail = &head;
    while (a != nullptr && b != nullptr) {
      Node*& pick = (a->degree <= b->degree) ? a : b;
      *tail = pick;
      tail = &pick->sibling;
      pick = pick->sibling;
    }
    *tail = (a != nullptr) ? a : b;
    return head;
  }

  /// Make `loser` the child of `winner` (both roots, equal degree).
  static void link(Node* winner, Node* loser) noexcept {
    loser->parent = winner;
    loser->sibling = winner->child;
    winner->child = loser;
    ++winner->degree;
  }

  /// After a root-list merge, combine trees of equal degree so at most one
  /// tree of each degree remains (classic binomial-heap union pass).
  void consolidate() {
    if (head_ == nullptr) return;
    Node* prev = nullptr;
    Node* cur = head_;
    Node* next = cur->sibling;
    while (next != nullptr) {
      const bool three_same = next->sibling != nullptr &&
                              next->sibling->degree == cur->degree;
      if (cur->degree != next->degree || three_same) {
        prev = cur;
        cur = next;
      } else if (!cmp_(next->value, cur->value)) {
        // cur stays a root, next becomes its child.
        cur->sibling = next->sibling;
        link(cur, next);
      } else {
        // next stays a root, cur becomes its child.
        if (prev == nullptr) {
          head_ = next;
        } else {
          prev->sibling = next;
        }
        link(next, cur);
        cur = next;
      }
      next = cur->sibling;
    }
  }

  void detach_root(Node* root) noexcept {
    if (head_ == root) {
      head_ = root->sibling;
      return;
    }
    Node* prev = head_;
    while (prev->sibling != root) prev = prev->sibling;
    prev->sibling = root->sibling;
  }

  /// Reinsert the (reversed) child list of a removed root.
  void absorb_children(Node* root) {
    Node* rev = nullptr;
    Node* c = root->child;
    while (c != nullptr) {
      Node* next = c->sibling;
      c->sibling = rev;
      c->parent = nullptr;
      rev = c;
      c = next;
    }
    root->child = nullptr;
    if (rev != nullptr) {
      head_ = merge_root_lists(head_, rev);
      consolidate();
    }
  }

  /// Swap the node's value with its ancestors' until the value originally
  /// at `n` sits in a root node; returns that root. Values move between
  /// nodes; Hooks::moved keeps external handles honest.
  Node* bubble_to_root(Node* n) {
    while (n->parent != nullptr) {
      Node* p = n->parent;
      using std::swap;
      swap(n->value, p->value);
      Hooks::moved(n->value, n);
      Hooks::moved(p->value, p);
      n = p;
    }
    return n;
  }

  [[nodiscard]] bool validate_tree(const Node* n, unsigned expected_degree,
                                   std::size_t& counted) const {
    if (n->degree != expected_degree) return false;
    ++counted;
    // Children of a degree-k binomial tree have degrees k-1, k-2, ..., 0
    // in left-to-right order.
    unsigned d = expected_degree;
    for (const Node* c = n->child; c != nullptr; c = c->sibling) {
      if (d == 0) return false;
      --d;
      if (c->parent != n) return false;
      if (cmp_(c->value, n->value)) return false;  // heap order violated
      if (!validate_tree(c, d, counted)) return false;
    }
    return d == 0;
  }

  void destroy_tree_list(Node* n) noexcept {
    while (n != nullptr) {
      Node* next = n->sibling;
      destroy_tree_list(n->child);
      arena_.destroy(n);
      n = next;
    }
  }

  Node* head_ = nullptr;
  std::size_t size_ = 0;
  [[no_unique_address]] Compare cmp_{};
  /// Node storage: slab/free-list arena (util/arena.hpp) — push/pop churn
  /// at a steady queue size never touches the global allocator.
  util::SlabArena<Node> arena_;
};

}  // namespace sps::containers
