// The queue-concept conformance suite: ONE behavioural contract
// (containers/queue_traits.hpp), typed-tested against all three adapters
// (the two runtime-selectable backends plus the sorted vector behind the
// kernel's event queue) — plus the differential simulations proving the
// contract is strong enough that whole scheduler runs are bit-identical
// across backends.

#include "containers/queue_traits.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "overhead/model.hpp"
#include "partition/edf_wm.hpp"
#include "partition/placement.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "trace/gantt.hpp"

namespace sps::containers {
namespace {

// ---------------------------------------------------------------------------
// Typed conformance suite
// ---------------------------------------------------------------------------

template <typename Q>
class QueueConcept : public ::testing::Test {};

using AllBackends =
    ::testing::Types<BinomialHeapQueue<std::uint64_t, int>,
                     RbTreeQueue<std::uint64_t, int>,
                     SortedVectorStableQueue<std::uint64_t, int>>;
TYPED_TEST_SUITE(QueueConcept, AllBackends);

// Compile-time: every backend models the concept, in both roles.
static_assert(ReadyQueueFor<BinomialHeapQueue<std::uint64_t, int>,
                            std::uint64_t, int>);
static_assert(SleepQueueFor<BinomialHeapQueue<std::uint64_t, int>,
                            std::uint64_t, int>);
static_assert(ReadyQueueFor<RbTreeQueue<std::uint64_t, int>, std::uint64_t,
                            int>);
static_assert(SleepQueueFor<RbTreeQueue<std::uint64_t, int>, std::uint64_t,
                            int>);
static_assert(SleepQueueFor<SortedVectorStableQueue<std::uint64_t, int>,
                            std::uint64_t, int>);

TYPED_TEST(QueueConcept, StartsEmpty) {
  TypeParam q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_TRUE(q.validate());
  EXPECT_EQ(q.counters().total(), 0u);
}

TYPED_TEST(QueueConcept, PopMinDrainsInKeyOrder) {
  TypeParam q;
  for (std::uint64_t k : {5u, 2u, 9u, 1u, 7u, 3u, 8u}) {
    q.push(k, static_cast<int>(k) * 10);
  }
  EXPECT_EQ(q.min_key(), 1u);
  EXPECT_EQ(q.min_value(), 10);
  std::uint64_t last = 0;
  while (!q.empty()) {
    auto [k, v] = q.pop_min();
    EXPECT_GT(k, last);
    EXPECT_EQ(v, static_cast<int>(k) * 10);
    last = k;
    EXPECT_TRUE(q.validate());
  }
}

TYPED_TEST(QueueConcept, FifoAmongEqualKeys) {
  TypeParam q;
  // Interleave two key classes; each class must drain in insertion order.
  q.push(5, 1);
  q.push(3, 100);
  q.push(5, 2);
  q.push(3, 200);
  q.push(5, 3);
  EXPECT_EQ(q.pop_min().second, 100);
  EXPECT_EQ(q.pop_min().second, 200);
  EXPECT_EQ(q.pop_min().second, 1);
  EXPECT_EQ(q.pop_min().second, 2);
  EXPECT_EQ(q.pop_min().second, 3);
}

TYPED_TEST(QueueConcept, MinPeeksAgreeWithPop) {
  TypeParam q;
  std::mt19937_64 rng(7);
  for (int i = 0; i < 50; ++i) q.push(rng() % 100, i);
  while (!q.empty()) {
    const std::uint64_t k = q.min_key();
    const int v = q.min_value();
    auto [pk, pv] = q.pop_min();
    EXPECT_EQ(pk, k);
    EXPECT_EQ(pv, v);
  }
}

TYPED_TEST(QueueConcept, EraseByHandleKeepsOtherHandlesValid) {
  TypeParam q;
  std::vector<typename TypeParam::handle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(q.push(static_cast<std::uint64_t>(i), i));
  }
  // Erase every third element THROUGH ITS HANDLE — the queue must keep
  // every other handle valid (this is what breaks naive positional
  // handles, and what the BinomialHeap relocation hooks exist for).
  for (int i = 0; i < 32; i += 3) {
    EXPECT_EQ(q.erase(handles[static_cast<std::size_t>(i)]), i);
    EXPECT_TRUE(q.validate());
  }
  // Erase a few of the survivors too, out of order.
  EXPECT_EQ(q.erase(handles[7]), 7);
  EXPECT_EQ(q.erase(handles[31]), 31);
  // The rest must drain in exact key order.
  std::vector<int> expected;
  for (int i = 0; i < 32; ++i) {
    if (i % 3 != 0 && i != 7 && i != 31) expected.push_back(i);
  }
  std::vector<int> drained;
  while (!q.empty()) drained.push_back(q.pop_min().second);
  EXPECT_EQ(drained, expected);
}

TYPED_TEST(QueueConcept, CountersTrackEveryOperation) {
  TypeParam q;
  q.push(1, 10);
  q.push(2, 20);
  auto h3 = q.push(3, 30);
  (void)q.pop_min();  // pops key 1; h3 stays valid
  (void)q.erase(h3);
  const QueueOpCounters& c = q.counters();
  EXPECT_EQ(c.pushes, 3u);
  EXPECT_EQ(c.pops, 1u);
  EXPECT_EQ(c.erases, 1u);
  EXPECT_EQ(c.total(), 5u);
}

TYPED_TEST(QueueConcept, RandomizedAgainstReferenceModel) {
  // Reference: a flat list of live (key, seq, value) records; expected
  // min = smallest (key, seq). Exercises push / pop_min / erase-by-handle
  // interleaved, checking values and structural validity throughout.
  struct Ref {
    std::uint64_t key;
    std::uint64_t seq;
    int value;
    typename TypeParam::handle h;
  };
  TypeParam q;
  std::vector<Ref> live;
  std::mt19937_64 rng(1234);
  std::uint64_t seq = 0;
  int next_value = 0;
  for (int step = 0; step < 2000; ++step) {
    const auto r = rng() % 10;
    if (r < 5 || live.empty()) {
      const std::uint64_t key = rng() % 50;
      const int v = next_value++;
      live.push_back(Ref{key, ++seq, v, q.push(key, v)});
    } else if (r < 8) {
      std::size_t best = 0;
      for (std::size_t i = 1; i < live.size(); ++i) {
        if (live[i].key < live[best].key ||
            (live[i].key == live[best].key &&
             live[i].seq < live[best].seq)) {
          best = i;
        }
      }
      EXPECT_EQ(q.min_key(), live[best].key);
      auto [k, v] = q.pop_min();
      EXPECT_EQ(k, live[best].key);
      EXPECT_EQ(v, live[best].value);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(best));
    } else {
      const std::size_t victim = rng() % live.size();
      EXPECT_EQ(q.erase(live[victim].h), live[victim].value);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_TRUE(q.validate());
    ASSERT_EQ(q.size(), live.size());
  }
}

}  // namespace
}  // namespace sps::containers

// ---------------------------------------------------------------------------
// Differential simulations: identical SimResult across queue backends
// ---------------------------------------------------------------------------

namespace sps::sim {
namespace {

using containers::QueueBackend;
using containers::kAllQueueBackends;
using partition::kNormalPriorityBase;
using rt::MakeTask;

void ExpectSameResult(const SimResult& a, const SimResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.total_misses, b.total_misses);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.total_preemptions, b.total_preemptions);
  EXPECT_EQ(a.simulated, b.simulated);
  // The operation SEQUENCE is policy-determined, so even the op counters
  // must agree backend-to-backend — including the kernel's event queue.
  EXPECT_EQ(a.ready_ops, b.ready_ops);
  EXPECT_EQ(a.sleep_ops, b.sleep_ops);
  EXPECT_EQ(a.event_ops, b.event_ops);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    EXPECT_EQ(a.tasks[i].released, b.tasks[i].released);
    EXPECT_EQ(a.tasks[i].completed, b.tasks[i].completed);
    EXPECT_EQ(a.tasks[i].deadline_misses, b.tasks[i].deadline_misses);
    EXPECT_EQ(a.tasks[i].shed, b.tasks[i].shed);
    EXPECT_EQ(a.tasks[i].preemptions, b.tasks[i].preemptions);
    EXPECT_EQ(a.tasks[i].migrations, b.tasks[i].migrations);
    EXPECT_EQ(a.tasks[i].max_response, b.tasks[i].max_response);
    EXPECT_DOUBLE_EQ(a.tasks[i].avg_response, b.tasks[i].avg_response);
  }
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t c = 0; c < a.cores.size(); ++c) {
    SCOPED_TRACE("core " + std::to_string(c));
    EXPECT_EQ(a.cores[c].busy_exec, b.cores[c].busy_exec);
    EXPECT_EQ(a.cores[c].overhead_rls, b.cores[c].overhead_rls);
    EXPECT_EQ(a.cores[c].overhead_sch, b.cores[c].overhead_sch);
    EXPECT_EQ(a.cores[c].overhead_cnt1, b.cores[c].overhead_cnt1);
    EXPECT_EQ(a.cores[c].overhead_cnt2, b.cores[c].overhead_cnt2);
    EXPECT_EQ(a.cores[c].cpmd_charged, b.cores[c].cpmd_charged);
    EXPECT_EQ(a.cores[c].context_switches, b.cores[c].context_switches);
  }
}

/// A 2-core partition with preemptions, a split (migrating) task, and
/// equal-priority FIFO contention — every queue code path the engine has.
partition::Partition DifferentialPartition() {
  partition::Partition p;
  p.num_cores = 2;
  {
    partition::PlacedTask split;  // elevated split task over both cores
    split.task = MakeTask(0, Millis(4), Millis(10));
    split.parts = {{0, Millis(2), 0}, {1, Millis(2), 0}};
    p.tasks.push_back(split);
  }
  auto normal = [](rt::TaskId id, Time c, Time t, partition::CoreId core,
                   rt::Priority prio) {
    partition::PlacedTask pt;
    pt.task = MakeTask(id, c, t);
    pt.parts = {{core, c, prio + kNormalPriorityBase}};
    return pt;
  };
  p.tasks.push_back(normal(1, Millis(3), Millis(15), 0, 1));
  p.tasks.push_back(normal(2, Millis(5), Millis(40), 0, 2));
  p.tasks.push_back(normal(3, Millis(2), Millis(12), 1, 1));
  p.tasks.push_back(normal(4, Millis(6), Millis(35), 1, 2));
  return p;
}

TEST(DifferentialSim, PartitionedIdenticalAcrossReadyBackends) {
  const partition::Partition p = DifferentialPartition();
  SimConfig cfg;
  cfg.horizon = Millis(500);
  cfg.overheads = overhead::OverheadModel::Zero();
  cfg.ready_backend = QueueBackend::kBinomialHeap;
  const SimResult baseline = Simulate(p, cfg);
  EXPECT_GT(baseline.total_migrations, 0u);  // the split task migrates
  EXPECT_GT(baseline.ready_ops.total(), 0u);
  for (QueueBackend b : kAllQueueBackends) {
    cfg.ready_backend = b;
    ExpectSameResult(baseline, Simulate(p, cfg),
                     std::string("ready=") +
                         std::string(containers::to_string(b)));
  }
}

TEST(DifferentialSim, PartitionedIdenticalAcrossSleepBackends) {
  const partition::Partition p = DifferentialPartition();
  SimConfig cfg;
  cfg.horizon = Millis(500);
  cfg.overheads = overhead::OverheadModel::Zero();
  const SimResult baseline = Simulate(p, cfg);
  for (QueueBackend b : kAllQueueBackends) {
    cfg.sleep_backend = b;
    ExpectSameResult(baseline, Simulate(p, cfg),
                     std::string("sleep=") +
                         std::string(containers::to_string(b)));
  }
}

TEST(DifferentialSim, PartitionedIdenticalWithOverheadsAndSporadics) {
  // Stronger than the acceptance criterion: overhead charging is
  // model-based (costs don't depend on the container), so results stay
  // identical even with the paper's overheads and sporadic arrivals.
  // ExpectSameResult also compares event_ops: the kernel's event queue
  // sees the same push/pop sequence whichever per-core queues feed it.
  const partition::Partition p = DifferentialPartition();
  SimConfig cfg;
  cfg.horizon = Millis(400);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.arrivals.kind = ArrivalModel::Kind::kSporadicUniformDelay;
  cfg.exec.kind = ExecModel::Kind::kUniform;
  const SimResult baseline = Simulate(p, cfg);
  EXPECT_GT(baseline.event_ops.total(), 0u);
  for (QueueBackend rb : kAllQueueBackends) {
    for (QueueBackend sb : kAllQueueBackends) {
      cfg.ready_backend = rb;
      cfg.sleep_backend = sb;
      ExpectSameResult(baseline, Simulate(p, cfg),
                       std::string("ready=") +
                           std::string(containers::to_string(rb)) +
                           " sleep=" +
                           std::string(containers::to_string(sb)));
    }
  }
}

TEST(DifferentialSim, GeneratedWorkloadIdenticalAcrossBackends) {
  // A bigger, generator-produced workload through a real partitioner —
  // whatever structure SPA2 emits must stay backend-invariant too.
  rt::GeneratorConfig gen;
  gen.num_tasks = 20;
  gen.total_utilization = 3.4;
  rt::Rng rng(99);
  const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
  partition::SpaConfig scfg;
  scfg.num_cores = 4;
  scfg.preassign_heavy = true;
  const auto pr = partition::SpaPartition(ts, scfg);
  ASSERT_TRUE(pr.success);

  SimConfig cfg;
  cfg.horizon = Millis(300);
  cfg.overheads = overhead::OverheadModel::Zero();
  const SimResult baseline = Simulate(pr.partition, cfg);
  for (QueueBackend b : kAllQueueBackends) {
    cfg.ready_backend = b;
    cfg.sleep_backend = b;
    ExpectSameResult(baseline, Simulate(pr.partition, cfg),
                     std::string("both=") +
                         std::string(containers::to_string(b)));
  }
}

TEST(DifferentialSim, IdenticalAcrossReadySleepBackendsUnderJitterAndBursts) {
  // The scenario-diversity arrival models go through the same kernel
  // sampling path — backend invariance must hold there too.
  const partition::Partition p = DifferentialPartition();
  for (const ArrivalModel::Kind kind :
       {ArrivalModel::Kind::kJittered, ArrivalModel::Kind::kBursty}) {
    SimConfig cfg;
    cfg.horizon = Millis(300);
    cfg.arrivals.kind = kind;
    const SimResult baseline = Simulate(p, cfg);
    EXPECT_GT(baseline.tasks.at(0).released, 1u);
    for (QueueBackend b : kAllQueueBackends) {
      cfg.ready_backend = b;
      cfg.sleep_backend = b;
      ExpectSameResult(baseline, Simulate(p, cfg),
                       std::string("arrivals+both=") +
                           std::string(containers::to_string(b)));
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded-vs-serial differentials: the per-core parallel runner
// (SimConfig::shards, DESIGN.md §9) is bit-identical to the classic
// serial event loop — per backend, per arrival model, with overheads
// and random execution times, for FP and EDF(-WM) partitions alike.
// ---------------------------------------------------------------------------

TEST(ShardedSim, IdenticalToSerialAcrossBackendsAndArrivals) {
  const partition::Partition p = DifferentialPartition();
  for (const ArrivalModel::Kind kind :
       {ArrivalModel::Kind::kPeriodic,
        ArrivalModel::Kind::kSporadicUniformDelay,
        ArrivalModel::Kind::kJittered, ArrivalModel::Kind::kBursty}) {
    for (QueueBackend b : kAllQueueBackends) {
      SimConfig cfg;
      cfg.horizon = Millis(300);
      cfg.overheads = overhead::OverheadModel::PaperCoreI7();
      cfg.exec.kind = ExecModel::Kind::kUniform;
      cfg.arrivals.kind = kind;
      cfg.ready_backend = b;
      cfg.sleep_backend = b;
      cfg.shards = 1;
      const SimResult serial = Simulate(p, cfg);
      EXPECT_GT(serial.total_migrations, 0u);
      for (const unsigned shards : {2u, 0u}) {
        cfg.shards = shards;
        ExpectSameResult(
            serial, Simulate(p, cfg),
            std::string("sharded backend=") +
                std::string(containers::to_string(b)) + " arrivals=" +
                std::to_string(static_cast<int>(kind)) + " shards=" +
                std::to_string(shards));
      }
    }
  }
}

TEST(ShardedSim, IdenticalToSerialOnGeneratedSpa2Workload) {
  // A generator-produced 4-core SPA2 partition — whatever split
  // structure SPA2 emits, the sharded run must reproduce the serial one
  // exactly, devirtualized default backends included.
  rt::GeneratorConfig gen;
  gen.num_tasks = 24;
  gen.total_utilization = 3.4;
  rt::Rng rng(2024);
  const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
  partition::SpaConfig scfg;
  scfg.num_cores = 4;
  scfg.preassign_heavy = true;
  const auto pr = partition::SpaPartition(ts, scfg);
  ASSERT_TRUE(pr.success);

  SimConfig cfg;
  cfg.horizon = Millis(400);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.exec.kind = ExecModel::Kind::kUniform;
  cfg.arrivals.kind = ArrivalModel::Kind::kSporadicUniformDelay;
  const SimResult serial = Simulate(pr.partition, cfg);
  cfg.shards = 0;
  ExpectSameResult(serial, Simulate(pr.partition, cfg),
                   "sharded generated SPA2");
}

TEST(ShardedSim, IdenticalToSerialUnderEdfWmWindows) {
  // EDF-WM split windows are the cross-core coupling that joins cores
  // into one lane; jittered arrivals stress the shed/overrun paths on
  // top.
  rt::GeneratorConfig gen;
  gen.num_tasks = 16;
  gen.total_utilization = 3.2;
  rt::Rng rng(77);
  const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
  partition::EdfPartitionConfig ecfg;
  ecfg.num_cores = 4;
  const auto pr = partition::EdfWm(ts, ecfg);
  ASSERT_TRUE(pr.success) << pr.failure_reason;

  SimConfig cfg;
  cfg.horizon = Millis(400);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.arrivals.kind = ArrivalModel::Kind::kJittered;
  const SimResult serial = Simulate(pr.partition, cfg);
  for (const unsigned shards : {2u, 0u}) {
    SimConfig scfg2 = cfg;
    scfg2.shards = shards;
    ExpectSameResult(serial, Simulate(pr.partition, scfg2),
                     "sharded EDF-WM shards=" + std::to_string(shards));
  }
}

// ---------------------------------------------------------------------------
// Observability differentials (DESIGN.md §10): traced/metered sharded
// runs must produce BYTE-IDENTICAL canonical traces and identical
// metrics to the serial loop, for every shard count, backend, and
// arrival model. These run under TSan in CI together with the other
// ShardedSim suites.
// ---------------------------------------------------------------------------

partition::PlacedTask NormalOn(rt::TaskId id, Time c, Time t,
                               partition::CoreId core, rt::Priority prio) {
  partition::PlacedTask pt;
  pt.task = MakeTask(id, c, t);
  pt.parts = {{core, c, prio + kNormalPriorityBase}};
  return pt;
}

/// An overloaded 3-core partition in two core groups: core 0 alone
/// (two 60% tasks), and cores 1 and 2 joined by a split task, core 2
/// at 123%. Both groups miss deadlines and shed releases, so sharded
/// runs merge the miss and shed paths of several lanes.
partition::Partition OverloadedCoreGroupsPartition() {
  partition::Partition p;
  p.num_cores = 3;
  p.tasks.push_back(NormalOn(0, Millis(6), Millis(10), 0, 1));
  p.tasks.push_back(NormalOn(1, Millis(6), Millis(10), 0, 2));
  {
    partition::PlacedTask split;
    split.task = MakeTask(2, Millis(8), Millis(12));
    split.parts = {{1, Millis(4), 0}, {2, Millis(4), 0}};
    p.tasks.push_back(split);
  }
  p.tasks.push_back(NormalOn(3, Millis(5), Millis(10), 1, 1));
  p.tasks.push_back(NormalOn(4, Millis(9), Millis(10), 2, 1));
  return p;
}

TEST(ShardedSim, TracedByteIdenticalAcrossShardCountsBackendsAndArrivals) {
  const partition::Partition overloaded = OverloadedCoreGroupsPartition();
  // Two core groups: core 0 alone, cores 1-2 joined by the split task.
  const std::vector<CoreGroup> groups = CoreGroups(overloaded);
  ASSERT_EQ(groups.size(), 2u);
  ASSERT_EQ(groups[0].cores, std::vector<partition::CoreId>{0});
  ASSERT_EQ(groups[1].cores, (std::vector<partition::CoreId>{1, 2}));
  for (const partition::Partition& p :
       {DifferentialPartition(), overloaded}) {
    const bool overload = p.num_cores == overloaded.num_cores;
    for (const ArrivalModel::Kind kind :
         {ArrivalModel::Kind::kPeriodic,
          ArrivalModel::Kind::kSporadicUniformDelay,
          ArrivalModel::Kind::kJittered, ArrivalModel::Kind::kBursty}) {
      for (QueueBackend b : kAllQueueBackends) {
        SimConfig cfg;
        cfg.horizon = Millis(250);
        cfg.overheads = overhead::OverheadModel::PaperCoreI7();
        cfg.exec.kind = ExecModel::Kind::kUniform;
        cfg.arrivals.kind = kind;
        cfg.ready_backend = b;
        cfg.sleep_backend = b;
        cfg.record_trace = true;
        cfg.record_metrics = true;
        cfg.shards = 1;
        const SimResult serial = Simulate(p, cfg);
        ASSERT_FALSE(serial.trace_events.empty());
        if (overload) {
          // Misses in both core groups (task 0-1 on core 0, tasks 2-4
          // on cores 1-2), and shed releases.
          std::uint64_t shed = 0;
          std::uint64_t misses[2] = {0, 0};
          for (std::size_t i = 0; i < serial.tasks.size(); ++i) {
            shed += serial.tasks[i].shed;
            misses[i < 2 ? 0 : 1] += serial.tasks[i].deadline_misses;
          }
          EXPECT_GT(misses[0], 0u);
          EXPECT_GT(misses[1], 0u);
          EXPECT_GT(shed, 0u);
        }
        const std::string serial_bytes = trace::ToCsv(serial.trace_events);
        for (const unsigned shards : {2u, 3u, 0u}) {
          cfg.shards = shards;
          const SimResult sharded = Simulate(p, cfg);
          const std::string what =
              std::string("traced backend=") +
              std::string(containers::to_string(b)) + " arrivals=" +
              std::to_string(static_cast<int>(kind)) + " shards=" +
              std::to_string(shards) + " overloaded=" +
              std::to_string(overload);
          ExpectSameResult(serial, sharded, what);
          // The acceptance criterion, literally: byte-identical traces.
          EXPECT_EQ(serial_bytes, trace::ToCsv(sharded.trace_events))
              << what;
          EXPECT_TRUE(serial.metrics == sharded.metrics) << what;
        }
      }
    }
  }
}

TEST(ShardedSim, TracedByteIdenticalOnGeneratedSpa2Workload) {
  // Bigger generated workload: whatever split structure SPA2 emits, the
  // merged sharded trace must reproduce the serial bytes.
  rt::GeneratorConfig gen;
  gen.num_tasks = 24;
  gen.total_utilization = 3.4;
  rt::Rng rng(2024);
  const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
  partition::SpaConfig scfg;
  scfg.num_cores = 4;
  scfg.preassign_heavy = true;
  const auto pr = partition::SpaPartition(ts, scfg);
  ASSERT_TRUE(pr.success);

  SimConfig cfg;
  cfg.horizon = Millis(300);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.exec.kind = ExecModel::Kind::kUniform;
  cfg.arrivals.kind = ArrivalModel::Kind::kSporadicUniformDelay;
  cfg.record_trace = true;
  cfg.record_metrics = true;
  const SimResult serial = Simulate(pr.partition, cfg);
  cfg.shards = 0;
  const SimResult sharded = Simulate(pr.partition, cfg);
  ExpectSameResult(serial, sharded, "traced generated SPA2");
  EXPECT_EQ(trace::ToCsv(serial.trace_events),
            trace::ToCsv(sharded.trace_events));
  EXPECT_TRUE(serial.metrics == sharded.metrics);
}

TEST(ShardedSim, RecordTraceUnderShardingLeavesResultUnchanged) {
  // Recording is observation only: a traced sharded run returns the
  // plain serial result and a non-empty canonical trace.
  const partition::Partition p = DifferentialPartition();
  SimConfig cfg;
  cfg.horizon = Millis(100);
  const SimResult plain = Simulate(p, cfg);
  cfg.shards = 4;
  cfg.record_trace = true;
  const SimResult traced = Simulate(p, cfg);
  ExpectSameResult(plain, traced, "record_trace");
  EXPECT_FALSE(traced.trace_events.empty());
}

TEST(ShardedSim, WideEdfTieBreakShardsBeyond1024Tasks) {
  // PR-4 satellite: the EDF CurKey tie-break is 16 bits wide, so sets
  // past the old 1024-task limit shard (and stay bit-identical) instead
  // of silently running serial. Heavy same-period aliasing makes the
  // equal-deadline tie-break do real work, and a few split tasks keep
  // the cross-lane protocol engaged.
  partition::Partition p;
  p.num_cores = 8;
  p.policy = partition::SchedPolicy::kEdf;
  const std::size_t n = 1200;  // > 1024
  for (std::size_t i = 0; i < n; ++i) {
    partition::PlacedTask pt;
    // Two period classes only -> massive deadline ties at every grid
    // point; tiny WCETs keep each core feasible-ish.
    const Time period = (i % 2 == 0) ? Millis(20) : Millis(40);
    pt.task = MakeTask(static_cast<rt::TaskId>(i), Micros(40), period);
    pt.parts = {{static_cast<partition::CoreId>(i % 8), Micros(40), 0}};
    p.tasks.push_back(pt);
  }
  for (std::size_t s = 0; s < 4; ++s) {  // split tasks across lane pairs
    partition::PlacedTask pt;
    pt.task = MakeTask(static_cast<rt::TaskId>(n + s), Millis(2),
                       Millis(25));
    pt.parts = {
        {static_cast<partition::CoreId>(2 * s), Millis(1), 0, Millis(12)},
        {static_cast<partition::CoreId>(2 * s + 1), Millis(1), 0,
         Millis(25)}};
    p.tasks.push_back(pt);
  }
  SimConfig cfg;
  cfg.horizon = Millis(120);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  const SimResult serial = Simulate(p, cfg);
  EXPECT_GT(serial.total_migrations, 0u);
  for (const unsigned shards : {2u, 0u}) {
    cfg.shards = shards;
    ExpectSameResult(serial, Simulate(p, cfg),
                     "wide EDF shards=" + std::to_string(shards));
  }
}

/// 13 cores in 7 core groups: one split chain over six NON-adjacent
/// cores {1, 3, 4, 6, 9, 11} (a long SPA2 tail chain), a two-part split
/// over {2, 7}, single-core groups 0, 5, 8, 10 with normal tasks only,
/// and an empty core 12.
partition::Partition CoreGroupPartition() {
  partition::Partition p;
  p.num_cores = 13;
  {
    partition::PlacedTask chain;
    chain.task = MakeTask(0, Millis(6), Millis(20));
    for (const partition::CoreId c : {1u, 3u, 4u, 6u, 9u, 11u}) {
      chain.parts.push_back({c, Millis(1), 0});
    }
    p.tasks.push_back(chain);
  }
  {
    partition::PlacedTask pair;
    pair.task = MakeTask(1, Millis(5), Millis(15));
    pair.parts = {{2, Millis(3), 0}, {7, Millis(2), 0}};
    p.tasks.push_back(pair);
  }
  rt::TaskId id = 2;
  for (partition::CoreId c = 0; c < 12; ++c) {
    p.tasks.push_back(NormalOn(id++, Millis(2), Millis(9 + c % 4), c, 1));
    p.tasks.push_back(NormalOn(id++, Millis(3), Millis(25 + c), c, 2));
  }
  return p;
}

TEST(ShardedSim, CoreGroupsKeepSplitTasksTogether) {
  const partition::Partition p = CoreGroupPartition();
  const std::vector<CoreGroup> groups = CoreGroups(p);
  ASSERT_EQ(groups.size(), 7u);
  // Every core sits in exactly one group, every task in the group of its
  // first core, and groups are ordered by their lowest core.
  std::vector<std::size_t> group_of(p.num_cores, groups.size());
  std::size_t tasks = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    ASSERT_FALSE(groups[g].cores.empty());
    EXPECT_TRUE(std::is_sorted(groups[g].cores.begin(), groups[g].cores.end()));
    if (g > 0) EXPECT_LT(groups[g - 1].cores[0], groups[g].cores[0]);
    for (const partition::CoreId c : groups[g].cores) {
      ASSERT_EQ(group_of[c], groups.size()) << "core " << c << " twice";
      group_of[c] = g;
    }
    tasks += groups[g].tasks.size();
  }
  EXPECT_EQ(tasks, p.tasks.size());
  EXPECT_EQ(groups[1].cores,
            (std::vector<partition::CoreId>{1, 3, 4, 6, 9, 11}));
  EXPECT_EQ(groups.back().cores, std::vector<partition::CoreId>{12});
  EXPECT_TRUE(groups.back().tasks.empty());
  // All cores of a split task share a group, which holds the task.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const std::size_t i : groups[g].tasks) {
      for (const partition::SubtaskPlacement& part : p.tasks[i].parts) {
        EXPECT_EQ(group_of[part.core], g) << "task " << p.tasks[i].task.id;
      }
    }
  }
  // Deterministic.
  const std::vector<CoreGroup> again = CoreGroups(p);
  ASSERT_EQ(again.size(), groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    EXPECT_EQ(again[g].cores, groups[g].cores);
    EXPECT_EQ(again[g].tasks, groups[g].tasks);
  }
}

TEST(ShardedSim, MoreCoreGroupsThanLanesMatchSerial) {
  const partition::Partition p = CoreGroupPartition();
  SimConfig cfg;
  cfg.horizon = Millis(300);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.exec.kind = ExecModel::Kind::kUniform;
  cfg.arrivals.kind = ArrivalModel::Kind::kSporadicUniformDelay;
  cfg.record_trace = true;
  cfg.record_metrics = true;
  const SimResult serial = Simulate(p, cfg);
  EXPECT_GT(serial.total_migrations, 0u);
  ASSERT_FALSE(serial.trace_events.empty());
  const std::string serial_bytes = trace::ToCsv(serial.trace_events);
  for (const unsigned shards : {2u, 3u, 0u}) {
    cfg.shards = shards;
    const SimResult sharded = Simulate(p, cfg);
    const std::string what = "core groups shards=" + std::to_string(shards);
    ExpectSameResult(serial, sharded, what);
    EXPECT_EQ(serial_bytes, trace::ToCsv(sharded.trace_events)) << what;
    EXPECT_TRUE(serial.metrics == sharded.metrics) << what;
  }
}

}  // namespace
}  // namespace sps::sim
