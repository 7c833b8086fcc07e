// Conformance suite of the simulation kernel's event queue
// (sim/kernel.hpp EventQueue): it must pop in exactly the
// (packed key, insertion order) total order the kernel relies on for
// bit-identical runs. Seeded push/pop interleavings over 1..5000 entries
// with heavy key duplication are checked step by step against a
// std::stable_sort reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace sps::sim::kernel {
namespace {

struct NoJob {};
using Ev = Event<NoJob>;
using Queue = EventQueue<NoJob>;

/// Event with packed key (t << kEvKindBits | kind); task_idx carries a
/// caller-chosen id so the test can tell equal-key entries apart.
Ev MakeEvent(Time t, EvKind kind, std::size_t id) {
  return Ev{.t = t, .kind = kind, .task_idx = id};
}

/// The reference model: live entries in insertion order, re-sorted with
/// std::stable_sort by key alone before each pop — stability turns
/// insertion order into the FIFO tie-break.
struct Ref {
  std::uint64_t key;
  std::size_t id;
};

class Reference {
 public:
  void Push(std::uint64_t key, std::size_t id) {
    live_.push_back({key, id});
    dirty_ = true;
  }
  [[nodiscard]] const Ref& Front() {
    if (dirty_) {
      std::stable_sort(
          live_.begin() + static_cast<std::ptrdiff_t>(head_), live_.end(),
          [](const Ref& a, const Ref& b) { return a.key < b.key; });
      dirty_ = false;
    }
    return live_[head_];
  }
  Ref Pop() {
    const Ref r = Front();
    ++head_;
    if (head_ == live_.size()) {
      live_.clear();
      head_ = 0;
    }
    return r;
  }
  [[nodiscard]] bool empty() const { return head_ == live_.size(); }
  [[nodiscard]] std::size_t size() const { return live_.size() - head_; }

 private:
  std::vector<Ref> live_;
  std::size_t head_ = 0;
  bool dirty_ = false;
};

/// Drives a queue and the stable_sort reference through the same
/// operations and checks them after every op.
class Harness {
 public:
  explicit Harness(std::uint64_t seed) : rng_(seed) {}

  /// Push an event at a seeded instant in [t_base, t_base + t_range).
  void Push(Time t_range, Time t_base = 0) {
    const auto t =
        t_base + static_cast<Time>(rng_() % static_cast<std::uint64_t>(
                                                std::max<Time>(1, t_range)));
    const auto kind = static_cast<EvKind>(rng_() % kNumEvKinds);
    const std::size_t id = next_id_++;
    const Ev e = MakeEvent(t, kind, id);
    queue_.push(e);
    ref_.Push(EventKey(e), id);
    ++pushes_;
    Check();
  }

  void Pop() {
    ASSERT_FALSE(queue_.empty());
    const Ref want = ref_.Pop();
    const Ev got = queue_.pop_min();
    ++pops_;
    last_t_ = got.t;
    ASSERT_EQ(EventKey(got), want.key);
    ASSERT_EQ(got.task_idx, want.id) << "FIFO among equal keys broken";
    Check();
  }

  void Drain() {
    while (!queue_.empty()) {
      Pop();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void Check() {
    ASSERT_EQ(queue_.empty(), ref_.empty());
    ASSERT_EQ(queue_.size(), ref_.size());
    if (!queue_.empty()) {
      ASSERT_EQ(queue_.min_key(), ref_.Front().key);
    }
    ASSERT_EQ(queue_.counters().pushes, pushes_);
    ASSERT_EQ(queue_.counters().pops, pops_);
    ASSERT_EQ(queue_.counters().erases, 0u);
  }

  util::SplitMix64& rng() { return rng_; }
  [[nodiscard]] const Queue& queue() const { return queue_; }
  /// Instant of the most recently popped event.
  [[nodiscard]] Time last_t() const { return last_t_; }

 private:
  util::SplitMix64 rng_;
  Queue queue_;
  Reference ref_;
  std::size_t next_id_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  Time last_t_ = 0;
};

TEST(EventQueue, StartsEmpty) {
  Queue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.counters().total(), 0u);
}

TEST(EventQueue, FifoAmongEqualKeys) {
  Queue q;
  // Two interleaved key classes; each must drain in insertion order.
  for (std::size_t i = 0; i < 12; ++i) {
    q.push(MakeEvent(i % 2 == 0 ? 7 : 3, EvKind::kTimer, i));
  }
  std::vector<std::size_t> order;
  while (!q.empty()) order.push_back(q.pop_min().task_idx);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 5, 7, 9, 11, 0, 2, 4, 6,
                                             8, 10}));
}

TEST(EventQueue, KindRanksOrderSameInstant) {
  // Same t: the packed kind is the same-instant rank (segment end before
  // timer before migration arrival before overhead end).
  Queue q;
  q.push(MakeEvent(5, EvKind::kOverheadEnd, 0));
  q.push(MakeEvent(5, EvKind::kMigrationArrival, 1));
  q.push(MakeEvent(5, EvKind::kTimer, 2));
  q.push(MakeEvent(5, EvKind::kSegmentEnd, 3));
  q.push(MakeEvent(4, EvKind::kOverheadEnd, 4));
  std::vector<std::size_t> order;
  while (!q.empty()) order.push_back(q.pop_min().task_idx);
  EXPECT_EQ(order, (std::vector<std::size_t>{4, 3, 2, 1, 0}));
}

TEST(EventQueue, RandomInterleavingsMatchStableSortReference) {
  for (const std::size_t n :
       {1u, 2u, 3u, 4u, 5u, 6u, 17u, 64u, 65u, 341u, 1000u, 5000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Harness hx(util::DeriveSeed(20110318, n, 0));
    // Few distinct instants: roughly eight entries share each key.
    const auto t_range = static_cast<Time>(std::max<std::size_t>(1, n / 32));
    for (std::size_t i = 0; i < n; ++i) {
      hx.Push(t_range);
      if (HasFatalFailure()) return;
    }
    // Interleaved bursts around the filled size.
    for (std::size_t step = 0; step < 2 * n; ++step) {
      const std::uint64_t r = hx.rng()() % 8;
      if (r < 4 || hx.queue().empty()) {
        hx.Push(t_range);
      } else {
        hx.Pop();
      }
      if (HasFatalFailure()) return;
    }
    hx.Drain();
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueue, RefillAfterDrainingToEmpty) {
  Harness hx(7);
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 1 + static_cast<std::size_t>(hx.rng()() % 300);
    for (std::size_t i = 0; i < n; ++i) hx.Push(16);
    hx.Drain();
    if (HasFatalFailure()) return;
    EXPECT_TRUE(hx.queue().empty());
  }
}

TEST(EventQueue, DesPatternWithMonotoneClock) {
  // The kernel's access pattern: pop the minimum, push follow-ups at or
  // after its instant. Ordering must match the reference throughout.
  Harness hx(42);
  for (int i = 0; i < 64; ++i) hx.Push(4);
  for (int step = 0; step < 20000; ++step) {
    hx.Pop();
    const std::uint64_t r = hx.rng()() % 3;
    for (std::uint64_t k = 0; k < r || hx.queue().empty(); ++k) {
      hx.Push(400, hx.last_t());
    }
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace sps::sim::kernel
