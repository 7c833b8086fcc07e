// Unit + property tests for the binomial-heap ready queue.

#include "containers/binomial_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <random>
#include <set>
#include <vector>

namespace sps::containers {
namespace {

using Heap = BinomialHeap<int>;

TEST(BinomialHeap, StartsEmpty) {
  Heap h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.size(), 0u);
  EXPECT_TRUE(h.validate());
}

TEST(BinomialHeap, SingleElement) {
  Heap h;
  h.push(42);
  EXPECT_FALSE(h.empty());
  EXPECT_EQ(h.size(), 1u);
  EXPECT_EQ(h.top(), 42);
  EXPECT_EQ(h.pop(), 42);
  EXPECT_TRUE(h.empty());
}

TEST(BinomialHeap, PopsInSortedOrder) {
  Heap h;
  const std::vector<int> in = {5, 3, 9, 1, 7, 2, 8, 0, 6, 4};
  for (int v : in) h.push(v);
  EXPECT_TRUE(h.validate());
  for (int expect = 0; expect < 10; ++expect) {
    EXPECT_EQ(h.top(), expect);
    EXPECT_EQ(h.pop(), expect);
    EXPECT_TRUE(h.validate());
  }
  EXPECT_TRUE(h.empty());
}

TEST(BinomialHeap, HandlesDuplicates) {
  Heap h;
  for (int i = 0; i < 5; ++i) h.push(7);
  h.push(3);
  EXPECT_EQ(h.pop(), 3);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(h.pop(), 7);
}

TEST(BinomialHeap, EraseByHandle) {
  Heap h;
  std::vector<Heap::handle> handles;
  for (int v : {10, 20, 30, 40, 50}) handles.push_back(h.push(v));
  EXPECT_EQ(h.erase(handles[2]), 30);
  EXPECT_EQ(h.size(), 4u);
  EXPECT_TRUE(h.validate());
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop());
  EXPECT_EQ(out, (std::vector<int>{10, 20, 40, 50}));
}

TEST(BinomialHeap, EraseRootAndLeaf) {
  Heap h;
  auto h1 = h.push(1);  // min -> will be a root after consolidation
  std::vector<Heap::handle> rest;
  for (int v = 2; v <= 8; ++v) rest.push_back(h.push(v));
  EXPECT_EQ(h.erase(h1), 1);
  EXPECT_TRUE(h.validate());
  EXPECT_EQ(h.erase(rest.back()), 8);
  EXPECT_TRUE(h.validate());
  EXPECT_EQ(h.top(), 2);
  EXPECT_EQ(h.size(), 6u);
}

TEST(BinomialHeap, MoveConstructionTransfersOwnership) {
  Heap a;
  for (int v : {3, 1, 2}) a.push(v);
  Heap b(std::move(a));
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.pop(), 1);
}

TEST(BinomialHeap, MaxHeapViaComparator) {
  BinomialHeap<int, std::greater<int>> h;
  for (int v : {5, 1, 9, 3}) h.push(v);
  EXPECT_EQ(h.pop(), 9);
  EXPECT_EQ(h.pop(), 5);
}

TEST(BinomialHeap, CustomStructOrdering) {
  struct Item {
    unsigned prio;
    int payload;
  };
  struct ByPrio {
    bool operator()(const Item& a, const Item& b) const {
      return a.prio < b.prio;
    }
  };
  BinomialHeap<Item, ByPrio> h;
  h.push({7, 70});
  h.push({2, 20});
  h.push({5, 50});
  EXPECT_EQ(h.pop().payload, 20);
  EXPECT_EQ(h.pop().payload, 50);
}

// Hooks: track node relocation so handles survive erase-induced swaps.
struct Tracked {
  int key = 0;
  void* node = nullptr;
  explicit Tracked(int k) : key(k) {}
  bool operator<(const Tracked& o) const { return key < o.key; }
};

struct TrackHooks {
  template <typename T, typename Node>
  static void moved(T& value, Node* n) noexcept {
    value.node = n;
  }
};

TEST(BinomialHeap, HooksKeepHandlesCurrentThroughErase) {
  BinomialHeap<Tracked, std::less<Tracked>, TrackHooks> h;
  std::vector<decltype(h)::handle> handles;
  for (int i = 0; i < 32; ++i) handles.push_back(h.push(Tracked(i)));
  // Erase a deep element; hooks must have updated every moved value.
  h.erase(handles[31]);
  // Walk by popping: each popped value's recorded node must be the node it
  // was last stored in — we can't observe that directly after pop, but we
  // can erase every remaining element VIA its tracked node pointer.
  // Collect current handles by scanning pops is destructive; instead erase
  // elements through their self-reported nodes.
  for (int i = 30; i >= 0; --i) {
    // The tracked node pointer of element i is maintained by the hook.
    // Find it by erasing from the top element's self pointer repeatedly.
    auto top_node =
        static_cast<decltype(h)::handle>(h.top().node);
    const Tracked out = h.erase(top_node);
    EXPECT_EQ(out.key, 30 - i);  // min first
    EXPECT_TRUE(h.validate());
  }
  EXPECT_TRUE(h.empty());
}

// ---- randomized property sweep ------------------------------------------

class BinomialHeapRandomized : public ::testing::TestWithParam<unsigned> {};

TEST_P(BinomialHeapRandomized, MatchesReferenceMultisetUnderRandomOps) {
  std::mt19937 rng(GetParam());
  Heap h;
  std::multiset<int> ref;
  std::vector<std::pair<Heap::handle, int>> live;  // handle -> value

  for (int step = 0; step < 2000; ++step) {
    const int action = static_cast<int>(rng() % 100);
    if (action < 55 || ref.empty()) {
      const int v = static_cast<int>(rng() % 1000);
      live.emplace_back(h.push(v), v);
      ref.insert(v);
    } else if (action < 85) {
      const int top = h.top();
      EXPECT_EQ(top, *ref.begin());
      const int popped = h.pop();
      EXPECT_EQ(popped, *ref.begin());
      ref.erase(ref.begin());
      // Drop one matching live handle (it is now dangling).
      auto it = std::find_if(live.begin(), live.end(),
                             [&](const auto& p) { return p.second == popped; });
      ASSERT_NE(it, live.end());
      live.erase(it);
      // After a pop, OTHER handles remain valid only if no erase-swaps
      // happened; this test only erases via pop from here on when handles
      // may be stale. To keep handles exact we rebuild the live list by
      // draining... instead, this branch invalidates nothing: pop removes
      // a root; handles never move nodes. (erase() is exercised with the
      // Hooks test above and the targeted tests.)
    } else {
      EXPECT_EQ(h.size(), ref.size());
    }
    if (step % 128 == 0) {
      ASSERT_TRUE(h.validate());
    }
  }
  // Drain and compare the full ordering.
  std::vector<int> out;
  while (!h.empty()) out.push_back(h.pop());
  std::vector<int> expect(ref.begin(), ref.end());
  EXPECT_EQ(out, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinomialHeapRandomized,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

class BinomialHeapSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BinomialHeapSizes, StructureValidAtEverySize) {
  const std::size_t n = GetParam();
  Heap h;
  for (std::size_t i = 0; i < n; ++i) {
    h.push(static_cast<int>((i * 2654435761u) % 10007));
  }
  EXPECT_EQ(h.size(), n);
  EXPECT_TRUE(h.validate());
  int last = INT_MIN;
  while (!h.empty()) {
    const int v = h.pop();
    EXPECT_GE(v, last);
    last = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BinomialHeapSizes,
                         ::testing::Values(0u, 1u, 2u, 3u, 4u, 7u, 8u, 15u,
                                           16u, 63u, 64u, 65u, 255u, 1024u));

}  // namespace
}  // namespace sps::containers
