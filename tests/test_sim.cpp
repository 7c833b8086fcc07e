// Tests for the discrete-event scheduler simulator: single-core behaviour,
// the Figure-1 preemption sequence, split-task migration semantics, and
// overhead accounting.

#include <gtest/gtest.h>

#include <algorithm>

#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "sim/engine.hpp"
#include "trace/gantt.hpp"
#include "trace/trace.hpp"

namespace sps::sim {
namespace {

using overhead::OverheadModel;
using partition::kNormalPriorityBase;
using partition::Partition;
using partition::PlacedTask;
using rt::MakeTask;

PlacedTask Normal(rt::TaskId id, Time c, Time t, partition::CoreId core,
                  rt::Priority prio) {
  PlacedTask pt;
  pt.task = MakeTask(id, c, t);
  pt.parts = {{core, c, prio + kNormalPriorityBase}};
  return pt;
}

TEST(Sim, SingleTaskRunsEveryPeriod) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(2), Millis(10), 0, 0));
  SimConfig cfg;
  cfg.horizon = Millis(99);  // releases at 0,10,...,90: ten jobs
  const SimResult r = Simulate(p, cfg);
  ASSERT_EQ(r.tasks.size(), 1u);
  EXPECT_EQ(r.tasks[0].released, 10u);
  EXPECT_EQ(r.tasks[0].completed, 10u);
  EXPECT_EQ(r.tasks[0].deadline_misses, 0u);
  EXPECT_EQ(r.tasks[0].max_response, Millis(2));
  EXPECT_EQ(r.total_misses, 0u);
  EXPECT_EQ(r.cores[0].busy_exec, Millis(20));
}

TEST(Sim, RateMonotonicPreemption) {
  // tau0: C=2,T=5 (high prio); tau1: C=4,T=20. tau1 is preempted by tau0.
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(2), Millis(5), 0, 0));
  p.tasks.push_back(Normal(1, Millis(4), Millis(20), 0, 1));
  SimConfig cfg;
  cfg.horizon = Millis(20);
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  // tau1 runs [2,5] and [7,8]: response 8ms, preempted once at t=5.
  EXPECT_EQ(r.tasks[1].max_response, Millis(8));
  EXPECT_EQ(r.tasks[1].preemptions, 1u);
}

TEST(Sim, Figure1SequenceWithOverheads) {
  // Reproduce Figure 1: tau2 (lp) executing, tau1 (hp) released mid-run.
  // Expected overhead segments in order: rls, sch, cnt1 around tau1's
  // start; sch, cnt2 after tau1 finishes; then tau2 resumes (cache).
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(1, Millis(2), Millis(10), 0, 0));  // tau1 hp
  p.tasks.push_back(Normal(2, Millis(9), Millis(40), 0, 1));  // tau2 lp
  // Synchronous start: tau1 job1 runs [0,2], tau2 runs [2,11] minus the
  // preemption by tau1's SECOND release at t=10ms — Figure 1's scenario.
  SimConfig cfg;
  cfg.horizon = Millis(40);
  cfg.overheads = OverheadModel::PaperCoreI7();
  cfg.record_trace = true;
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  EXPECT_GE(r.tasks[1].preemptions, 1u);

  // Find tau1's release at t=10ms and verify the overhead chain after it.
  const auto& ev = r.trace_events;
  auto it = std::find_if(ev.begin(), ev.end(), [](const trace::Event& e) {
    return e.kind == trace::EventKind::kRelease && e.task == 1 &&
           e.time == Millis(10);
  });
  ASSERT_NE(it, ev.end());
  std::vector<trace::OverheadKind> kinds;
  for (auto j = it; j != ev.end() && kinds.size() < 3; ++j) {
    if (j->kind == trace::EventKind::kOverheadBegin) {
      kinds.push_back(j->overhead);
    }
  }
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], trace::OverheadKind::kRls);
  EXPECT_EQ(kinds[1], trace::OverheadKind::kSch);
  EXPECT_EQ(kinds[2], trace::OverheadKind::kCnt1);

  // Overhead totals are accounted per category.
  EXPECT_GT(r.cores[0].overhead_rls, 0);
  EXPECT_GT(r.cores[0].overhead_sch, 0);
  EXPECT_GT(r.cores[0].overhead_cnt1, 0);
  EXPECT_GT(r.cores[0].overhead_cnt2, 0);
  EXPECT_GT(r.cores[0].cpmd_charged, 0);  // tau2's reload after preemption
}

TEST(Sim, SplitTaskMigratesBetweenCores) {
  // tau0 split: 3ms on core0 + 2ms on core1, T=10ms.
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(0, Millis(5), Millis(10));
  pt.parts = {{0, Millis(3), 0}, {1, Millis(2), 0}};
  p.tasks.push_back(pt);
  SimConfig cfg;
  cfg.horizon = Millis(50);
  cfg.record_trace = true;
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  EXPECT_EQ(r.tasks[0].completed, 5u);
  EXPECT_EQ(r.tasks[0].migrations, 5u);  // one per period
  EXPECT_EQ(r.total_migrations, 5u);
  // Execution time lands on the right cores: 3ms/period on 0, 2 on 1.
  EXPECT_EQ(r.cores[0].busy_exec, Millis(15));
  EXPECT_EQ(r.cores[1].busy_exec, Millis(10));
  // Trace contains the migration pair each period.
  const auto& ev = r.trace_events;
  const auto outs = std::count_if(ev.begin(), ev.end(), [](const auto& e) {
    return e.kind == trace::EventKind::kMigrateOut;
  });
  const auto ins = std::count_if(ev.begin(), ev.end(), [](const auto& e) {
    return e.kind == trace::EventKind::kMigrateIn;
  });
  EXPECT_EQ(outs, 5);
  EXPECT_EQ(ins, 5);
}

TEST(Sim, TailReturnsToFirstCoreSleepQueueAndReleasesThere) {
  // After the tail finishes on core1 the next release must again start on
  // core0 — the paper's "sleep queue of the core hosting the first
  // subtask". Observable: releases all happen on core 0.
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(0, Millis(4), Millis(10));
  pt.parts = {{0, Millis(2), 0}, {1, Millis(2), 0}};
  p.tasks.push_back(pt);
  SimConfig cfg;
  cfg.horizon = Millis(30);
  cfg.record_trace = true;
  const SimResult r = Simulate(p, cfg);
  ASSERT_FALSE(r.trace_events.empty());
  for (const trace::Event& e : r.trace_events) {
    if (e.kind == trace::EventKind::kRelease) {
      EXPECT_EQ(e.core, 0u);
    }
    if (e.kind == trace::EventKind::kMigrateIn) {
      EXPECT_EQ(e.core, 1u);
    }
  }
}

TEST(Sim, ElevatedSubtaskPreemptsNormalWork) {
  // Core1 runs a long normal task; the migrated-in subtask (elevated
  // priority) preempts it on arrival.
  Partition p;
  p.num_cores = 2;
  PlacedTask split;
  split.task = MakeTask(0, Millis(4), Millis(10));
  split.parts = {{0, Millis(2), 0}, {1, Millis(2), 0}};  // elevated
  p.tasks.push_back(split);
  p.tasks.push_back(Normal(1, Millis(6), Millis(10), 1, 0));
  SimConfig cfg;
  cfg.horizon = Millis(10);
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  // The normal task on core1 was preempted by the tail's arrival at 2ms.
  EXPECT_GE(r.tasks[1].preemptions, 1u);
  // Tail completes at 4ms (2ms body + 2ms tail, no waiting).
  EXPECT_EQ(r.tasks[0].max_response, Millis(4));
}

TEST(Sim, DeadlineMissDetectedOnOverload) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(6), Millis(10), 0, 0));
  p.tasks.push_back(Normal(1, Millis(6), Millis(10), 0, 1));
  SimConfig cfg;
  cfg.horizon = Millis(100);
  const SimResult r = Simulate(p, cfg);
  EXPECT_GT(r.total_misses, 0u);
  EXPECT_GT(r.tasks[1].deadline_misses + r.tasks[1].shed, 0u);
}

TEST(Sim, ExecModelFractionShortensResponses) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(4), Millis(10), 0, 0));
  SimConfig cfg;
  cfg.horizon = Millis(50);
  cfg.exec.kind = ExecModel::Kind::kFraction;
  cfg.exec.fraction = 0.5;
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.tasks[0].max_response, Millis(2));
}

TEST(Sim, EarlyFinishOnBodyPartSkipsMigration) {
  // Split 3+3 but actual execution only 2ms: never leaves core 0.
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(0, Millis(6), Millis(10));
  pt.parts = {{0, Millis(3), 0}, {1, Millis(3), 0}};
  p.tasks.push_back(pt);
  SimConfig cfg;
  cfg.horizon = Millis(30);
  cfg.exec.kind = ExecModel::Kind::kFraction;
  cfg.exec.fraction = 0.3;  // 1.8ms < 3ms body budget
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_migrations, 0u);
  EXPECT_EQ(r.cores[1].busy_exec, 0);
  EXPECT_EQ(r.total_misses, 0u);
}

TEST(Sim, UniformExecModelIsSeededDeterministic) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(4), Millis(10), 0, 0));
  SimConfig cfg;
  cfg.horizon = Millis(200);
  cfg.exec.kind = ExecModel::Kind::kUniform;
  cfg.exec.seed = 77;
  const SimResult a = Simulate(p, cfg);
  const SimResult b = Simulate(p, cfg);
  EXPECT_EQ(a.tasks[0].max_response, b.tasks[0].max_response);
  EXPECT_EQ(a.tasks[0].avg_response, b.tasks[0].avg_response);
  cfg.exec.seed = 78;
  const SimResult c = Simulate(p, cfg);
  EXPECT_NE(a.tasks[0].avg_response, c.tasks[0].avg_response);
}

TEST(Sim, OverheadsExtendResponseTimes) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(2), Millis(10), 0, 0));
  p.tasks.push_back(Normal(1, Millis(3), Millis(10), 0, 1));
  SimConfig cfg;
  cfg.horizon = Millis(100);
  const SimResult zero = Simulate(p, cfg);
  cfg.overheads = OverheadModel::PaperCoreI7();
  const SimResult paper = Simulate(p, cfg);
  EXPECT_GT(paper.tasks[1].max_response, zero.tasks[1].max_response);
  EXPECT_GT(paper.total_overhead(), 0);
  EXPECT_EQ(paper.total_misses, 0u);
}

TEST(Sim, GanttRendersSplitExecution) {
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(3, Millis(5), Millis(10));
  pt.parts = {{0, Millis(3), 0}, {1, Millis(2), 0}};
  p.tasks.push_back(pt);
  SimConfig cfg;
  cfg.horizon = Millis(10);
  cfg.record_trace = true;
  const SimResult r = Simulate(p, cfg);
  const std::string g = trace::RenderGantt(r.trace_events, {});
  EXPECT_NE(g.find("core0"), std::string::npos);
  EXPECT_NE(g.find("core1"), std::string::npos);
  EXPECT_NE(g.find('3'), std::string::npos);  // task glyph on both rows
}

TEST(Sim, TimeConservationPerCore) {
  // busy + overhead <= horizon on every core, with equality (minus the
  // final partial period) for a fully loaded core.
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(1), Millis(2), 0, 0));
  p.tasks.push_back(Normal(1, Millis(2), Millis(4), 0, 1));  // U = 1.0
  SimConfig cfg;
  cfg.horizon = Millis(100);
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  const CoreStats& c = r.cores[0];
  const Time accounted = c.busy_exec + c.overhead_rls + c.overhead_sch +
                         c.overhead_cnt1 + c.overhead_cnt2;
  EXPECT_EQ(accounted, Millis(100));  // zero-overhead model: all busy
  EXPECT_EQ(c.busy_exec, Millis(100));
}

TEST(Sim, TimeConservationWithOverheads) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(1), Millis(5), 0, 0));
  p.tasks.push_back(Normal(1, Millis(2), Millis(10), 0, 1));
  SimConfig cfg;
  cfg.horizon = Millis(1000);
  cfg.overheads = OverheadModel::PaperCoreI7();
  const SimResult r = Simulate(p, cfg);
  const CoreStats& c = r.cores[0];
  const Time accounted = c.busy_exec + c.overhead_rls + c.overhead_sch +
                         c.overhead_cnt1 + c.overhead_cnt2;
  EXPECT_LE(accounted, Millis(1000));
  // Overheads appear in every category and CPMD sits inside busy_exec.
  EXPECT_GT(c.overhead_rls, 0);
  EXPECT_GT(c.overhead_sch, 0);
  EXPECT_GT(c.overhead_cnt1, 0);
  EXPECT_GT(c.overhead_cnt2, 0);
  EXPECT_LE(c.cpmd_charged, c.busy_exec);
  // Expected busy work: 200 jobs of 1ms + 100 jobs of 2ms + CPMD.
  EXPECT_EQ(c.busy_exec - c.cpmd_charged, Millis(400));
}

TEST(Sim, SporadicArrivalsReleaseFewerJobs) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(2), Millis(10), 0, 0));
  SimConfig cfg;
  cfg.horizon = Millis(1000);
  const SimResult periodic = Simulate(p, cfg);
  cfg.arrivals.kind = ArrivalModel::Kind::kSporadicUniformDelay;
  cfg.arrivals.max_delay_fraction = 0.5;
  const SimResult sporadic = Simulate(p, cfg);
  // Inter-arrivals stretch, so strictly fewer releases; still no misses
  // (sporadic separation >= T only reduces load).
  EXPECT_LT(sporadic.tasks[0].released, periodic.tasks[0].released);
  EXPECT_GE(sporadic.tasks[0].released, 60u);  // >= horizon / (1.5 T)
  EXPECT_EQ(sporadic.total_misses, 0u);
}

TEST(Sim, SporadicArrivalsDeterministicPerSeed) {
  Partition p;
  p.num_cores = 1;
  p.tasks.push_back(Normal(0, Millis(2), Millis(10), 0, 0));
  SimConfig cfg;
  cfg.horizon = Millis(500);
  cfg.arrivals.kind = ArrivalModel::Kind::kSporadicUniformDelay;
  cfg.arrivals.seed = 9;
  const SimResult a = Simulate(p, cfg);
  const SimResult b = Simulate(p, cfg);
  EXPECT_EQ(a.tasks[0].released, b.tasks[0].released);
  cfg.arrivals.seed = 10;
  const SimResult c = Simulate(p, cfg);
  EXPECT_NE(a.tasks[0].released, c.tasks[0].released);
}

TEST(Sim, SporadicScheduleStaysSoundForSplitTasks) {
  // A split task under sporadic arrivals: budgets and migration behave
  // identically per job; only the release pattern changes.
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(0, Millis(5), Millis(10));
  pt.parts = {{0, Millis(3), 0}, {1, Millis(2), 0}};
  p.tasks.push_back(pt);
  SimConfig cfg;
  cfg.horizon = Millis(500);
  cfg.arrivals.kind = ArrivalModel::Kind::kSporadicUniformDelay;
  const SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  EXPECT_EQ(r.tasks[0].migrations, r.tasks[0].completed);
}

}  // namespace
}  // namespace sps::sim
