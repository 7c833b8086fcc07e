// Tests for the EDF extension: demand-bound analysis, partitioned EDF,
// EDF-WM window splitting, the EDF simulator policy, and the end-to-end
// soundness property (accepted => no simulated misses).

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "analysis/edf.hpp"
#include "overhead/model.hpp"
#include "partition/edf_wm.hpp"
#include "partition/verify.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"

namespace sps {
namespace {

using analysis::Dbf;
using analysis::EdfDemandTest;
using analysis::EdfTask;
using overhead::OverheadModel;
using rt::MakeTask;

EdfTask ET(Time c, Time t, Time d = 0) {
  EdfTask e;
  e.wcet = c;
  e.period = t;
  e.deadline = d == 0 ? t : d;
  return e;
}

// ---- demand bound function ---------------------------------------------

TEST(EdfDbf, StepFunctionValues) {
  const EdfTask t = ET(2, 10);
  EXPECT_EQ(Dbf(t, 9), 0);
  EXPECT_EQ(Dbf(t, 10), 2);
  EXPECT_EQ(Dbf(t, 19), 2);
  EXPECT_EQ(Dbf(t, 20), 4);
  EXPECT_EQ(Dbf(t, 100), 20);
}

TEST(EdfDbf, ConstrainedDeadlineShiftsSteps) {
  const EdfTask t = ET(2, 10, 6);
  EXPECT_EQ(Dbf(t, 5), 0);
  EXPECT_EQ(Dbf(t, 6), 2);
  EXPECT_EQ(Dbf(t, 15), 2);
  EXPECT_EQ(Dbf(t, 16), 4);
}

TEST(EdfDbf, MonotoneInT) {
  const EdfTask t = ET(3, 7, 5);
  Time last = 0;
  for (Time x = 0; x < 200; ++x) {
    const Time d = Dbf(t, x);
    EXPECT_GE(d, last);
    last = d;
  }
}

// ---- demand test ----------------------------------------------------------

TEST(EdfTest, FullUtilizationImplicitDeadlinesSchedulable) {
  // EDF schedules any implicit-deadline set with U <= 1.
  std::vector<EdfTask> ts = {ET(2, 4), ET(3, 6)};  // U = 1.0
  EXPECT_TRUE(EdfDemandTest(ts).schedulable);
}

TEST(EdfTest, FullUtilizationMatchesExhaustiveDemandCheck) {
  // At U == 1 the test stops at the hyperperiod bound instead of the
  // cap. Its verdict and first violation must equal a check of every
  // instant up to the cap, on seeded random constrained-deadline sets.
  constexpr Time kCap = 5000;
  const std::vector<Time> periods = {2, 3, 4, 6, 8, 12};
  std::mt19937_64 rng(14);
  int checked = 0;
  int unschedulable = 0;
  while (checked < 200) {
    std::vector<EdfTask> ts;
    const std::size_t n = 2 + rng() % 3;
    Time h = 1;
    for (std::size_t i = 0; i < n; ++i) {
      ts.push_back(ET(1, periods[rng() % periods.size()]));
      h = std::lcm(h, ts.back().period);
    }
    // Spread the hyperperiod's H units of work: U == 1 exactly.
    Time left = h;
    for (std::size_t i = 0; i + 1 < n && left > 0; ++i) {
      const Time jobs = h / ts[i].period;
      const auto room =
          static_cast<std::uint64_t>(std::max<Time>(1, left / jobs));
      ts[i].wcet = 1 + static_cast<Time>(rng() % room);
      left -= ts[i].wcet * jobs;
    }
    const Time last_jobs = h / ts.back().period;
    if (left <= 0 || left % last_jobs != 0) continue;
    ts.back().wcet = left / last_jobs;
    for (EdfTask& t : ts) {
      if (t.wcet > t.period) t.wcet = 0;
      const auto slack = static_cast<std::uint64_t>(t.period - t.wcet + 1);
      t.deadline = t.wcet + static_cast<Time>(rng() % slack);
    }
    if (std::any_of(ts.begin(), ts.end(), [](const EdfTask& t) {
          return t.wcet <= 0 || t.deadline <= 0;
        })) {
      continue;
    }
    Time first_violation = 0;
    for (Time t = 1; t <= kCap && first_violation == 0; ++t) {
      Time demand = 0;
      for (const EdfTask& task : ts) demand += Dbf(task, t);
      if (demand > t) first_violation = t;
    }
    const auto res = EdfDemandTest(ts, kCap);
    EXPECT_EQ(res.schedulable, first_violation == 0) << "set " << checked;
    EXPECT_EQ(res.violation_at, first_violation) << "set " << checked;
    EXPECT_LE(res.horizon, h + 12);  // stopped at the hyperperiod bound
    unschedulable += first_violation != 0;
    ++checked;
  }
  EXPECT_GT(unschedulable, 20);
  EXPECT_LT(unschedulable, 180);
}

// The oracle for EdfDemandTest's QPA walk: the same horizon, then
// demand at EVERY deadline point up to it, in increasing order.
analysis::EdfResult DenseDemandTest(const std::vector<EdfTask>& tasks,
                                    Time max_horizon) {
  analysis::EdfResult res;
  if (tasks.empty()) {
    res.schedulable = true;
    return res;
  }
  double u = 0.0;
  for (const EdfTask& t : tasks) {
    u += static_cast<double>(t.wcet) / static_cast<double>(t.period);
  }
  if (u > 1.0 + 1e-12) return res;
  Time horizon = 0;
  if (u < 1.0 - 1e-9) {
    double la = 0.0;
    for (const EdfTask& t : tasks) {
      la += static_cast<double>(t.wcet) / static_cast<double>(t.period) *
            static_cast<double>(t.period - t.deadline);
    }
    horizon = static_cast<Time>(la / (1.0 - u)) + 1;
  } else {
    // H + max D when it fits the cap and U <= 1 holds in integers.
    Time h = 1;
    Time d_max = 0;
    bool fits = true;
    for (const EdfTask& t : tasks) {
      const Time d = t.deadline;
      if (d <= 0) fits = false;
      d_max = std::max(d_max, d);
      if (fits && h / std::gcd(h, t.period) > max_horizon / t.period) {
        fits = false;
      }
      if (fits) h = std::lcm(h, t.period);
    }
    fits = fits && h <= max_horizon - d_max;
    Time demand = 0;
    for (const EdfTask& t : tasks) {
      if (fits) demand += t.wcet * (h / t.period);
    }
    horizon = fits && demand <= h ? h + d_max : max_horizon;
  }
  for (const EdfTask& t : tasks) {
    horizon = std::max(horizon, t.deadline);
  }
  const bool capped = horizon > max_horizon && u >= 1.0 - 1e-9;
  horizon = std::min(horizon, max_horizon);
  res.horizon = horizon;
  std::vector<Time> points;
  for (const EdfTask& t : tasks) {
    for (Time d = t.deadline; d <= horizon; d += t.period) {
      points.push_back(d);
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  for (const Time t : points) {
    Time demand = 0;
    for (const EdfTask& task : tasks) demand += Dbf(task, t);
    if (demand > t) {
      res.violation_at = t;
      return res;
    }
  }
  res.schedulable = !capped;
  return res;
}

TEST(EdfTest, QpaMatchesTheDensePointWalk) {
  // Seeded random sets: D <= T (a third of them below C), U < 1 and
  // U == 1, caps from 50 to 5000 so the cap often binds. Verdict, first
  // violation and horizon must all equal the dense walk's, and
  // EdfSchedulable must give the same verdict.
  std::mt19937_64 rng(19);
  const std::vector<Time> periods = {2, 3, 4, 5, 6, 8, 10, 12, 15, 20};
  int accepted = 0, violated = 0, capped = 0, late_violation = 0;
  int full_util = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    const Time cap = 50 + static_cast<Time>(rng() % 4951);
    const std::size_t n = 1 + rng() % 6;
    std::vector<EdfTask> ts;
    const bool exact_full = iter % 4 == 0;
    // Scaled-up U == 1 sets put deadlines past the cap: the capped reject.
    const Time scale = iter % 8 == 0 ? 1 : 400;
    Time h = 1;
    for (std::size_t i = 0; i < n; ++i) {
      const Time t = exact_full ? scale * periods[rng() % periods.size()]
                                : 2 + static_cast<Time>(rng() % 400);
      h = std::lcm(h, t);
      ts.push_back(ET(1, t));
    }
    if (exact_full) {
      // Spread H units of work over the hyperperiod: U == 1 exactly.
      Time left = h;
      for (std::size_t i = 0; i + 1 < n && left > 0; ++i) {
        const Time jobs = h / ts[i].period;
        const auto room =
            static_cast<std::uint64_t>(std::max<Time>(1, left / jobs));
        ts[i].wcet = 1 + static_cast<Time>(rng() % room);
        left -= ts[i].wcet * jobs;
      }
      const Time last_jobs = h / ts.back().period;
      if (left <= 0 || left % last_jobs != 0) continue;
      ts.back().wcet = left / last_jobs;
    } else {
      const std::uint64_t share = 1 + rng() % 3;  // U ~ 1/share
      for (EdfTask& t : ts) {
        const auto room = static_cast<std::uint64_t>(
            std::max<Time>(1, 2 * t.period / static_cast<Time>(n * share)));
        t.wcet = 1 + static_cast<Time>(rng() % room);
      }
    }
    bool valid = true;
    for (EdfTask& t : ts) {
      if (t.wcet > t.period) valid = false;
      if (!valid) break;
      const auto slack = static_cast<std::uint64_t>(t.period - t.wcet + 1);
      t.deadline = t.wcet + static_cast<Time>(rng() % slack);
      // A third of the deadlines are redrawn in [1, D], below C too:
      // early points that violate.
      if (rng() % 3 == 0) {
        t.deadline = 1 + static_cast<Time>(
                             rng() % static_cast<std::uint64_t>(t.deadline));
      }
    }
    if (!valid) continue;
    const auto want = DenseDemandTest(ts, cap);
    const auto got = EdfDemandTest(ts, cap);
    ASSERT_EQ(got.schedulable, want.schedulable) << "set " << iter;
    ASSERT_EQ(got.violation_at, want.violation_at) << "set " << iter;
    ASSERT_EQ(got.horizon, want.horizon) << "set " << iter;
    ASSERT_EQ(EdfSchedulable(ts, cap), want.schedulable) << "set " << iter;
    if (want.violation_at != 0) {
      // A cap at the first violation puts it exactly on the horizon.
      const auto at = EdfDemandTest(ts, want.violation_at);
      ASSERT_EQ(at.violation_at, want.violation_at) << "set " << iter;
      ASSERT_EQ(at.horizon, want.violation_at) << "set " << iter;
    }
    accepted += want.schedulable;
    violated += want.violation_at != 0;
    capped += !want.schedulable && want.violation_at == 0 &&
              want.horizon == cap;
    full_util += exact_full;
    Time first = 0;
    for (const EdfTask& t : ts) {
      if (first == 0 || t.deadline < first) first = t.deadline;
    }
    late_violation += want.violation_at > first;
  }
  // The sample covers every branch.
  EXPECT_GT(accepted, 3000);
  EXPECT_GT(violated, 3000);
  EXPECT_GT(capped, 150);
  EXPECT_GT(late_violation, 500);
  EXPECT_GT(full_util, 1000);
}

TEST(EdfTest, LateViolationFoundPastTheDefaultCap) {
  // (C, D, T) = (500 ms, 1.2 s, 10 s) and (800 ms, 1.2 s, 10 s): 1.3 s of
  // demand is due by 1.2 s. U = 0.13 and L_a ~ 1.31 s. The default 1 s
  // cap holds no deadline point, so the default call accepts (ROADMAP
  // direction 1); with a 100 s cap the first point is checked and
  // violates.
  const std::vector<EdfTask> ts = {
      ET(Millis(500), Millis(10000), Millis(1200)),
      ET(Millis(800), Millis(10000), Millis(1200))};
  const auto res = EdfDemandTest(ts, Millis(100000));
  EXPECT_FALSE(res.schedulable);
  EXPECT_EQ(res.violation_at, Millis(1200));
}

TEST(EdfTest, OverUtilizationFails) {
  std::vector<EdfTask> ts = {ET(3, 4), ET(3, 6)};  // U = 1.25
  EXPECT_FALSE(EdfDemandTest(ts).schedulable);
}

TEST(EdfTest, ConstrainedDeadlinesCanFailBelowFullUtilization) {
  // U = 0.75 but both deadlines at 4 with combined demand 5 at t=4.
  std::vector<EdfTask> ts = {ET(2, 8, 4), ET(3, 8, 4)};
  const auto res = EdfDemandTest(ts);
  EXPECT_FALSE(res.schedulable);
  EXPECT_EQ(res.violation_at, 4);
}

TEST(EdfTest, ConstrainedButFeasible) {
  std::vector<EdfTask> ts = {ET(1, 8, 2), ET(3, 8, 6)};
  EXPECT_TRUE(EdfDemandTest(ts).schedulable);
}

TEST(EdfTest, EdfBeatsRmOnTheClassicExample) {
  // C=(2,5), T=(5,10): RM unschedulable (R2 = 5+2+2... > 10? classic:
  // U = 0.9 > LL(2)), EDF fine.
  std::vector<EdfTask> ts = {ET(Millis(2), Millis(5)),
                             ET(Millis(5), Millis(10))};
  EXPECT_TRUE(EdfDemandTest(ts).schedulable);
}

TEST(EdfTest, InflationMakesDemandStricter) {
  std::vector<analysis::EdfCoreEntry> entries(2);
  entries[0].exec = Micros(400);
  entries[0].period = Millis(1);
  entries[0].deadline = Millis(1);
  entries[1].exec = Micros(550);
  entries[1].period = Millis(1);
  entries[1].deadline = Millis(1);
  const auto zero = analysis::InflateEdfCore(entries, OverheadModel::Zero());
  EXPECT_TRUE(EdfDemandTest(zero).schedulable);  // U = 0.95
  const auto paper =
      analysis::InflateEdfCore(entries, OverheadModel::PaperCoreI7());
  EXPECT_FALSE(EdfDemandTest(paper).schedulable);  // ~60us/job extra
}

// ---- partitioners -----------------------------------------------------------

partition::EdfPartitionConfig ECfg(unsigned cores,
                                   OverheadModel m = OverheadModel::Zero()) {
  partition::EdfPartitionConfig cfg;
  cfg.num_cores = cores;
  cfg.model = m;
  return cfg;
}

rt::TaskSet Uniform(std::size_t n, double u, Time period) {
  rt::TaskSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    ts.add(MakeTask(static_cast<rt::TaskId>(i),
                    static_cast<Time>(u * static_cast<double>(period)),
                    period));
  }
  rt::AssignRateMonotonic(ts);
  return ts;
}

TEST(EdfBinPack, PacksToFullCoreUtilization) {
  // EDF cores take U = 1.0: 4 x 0.5 fit on 2 cores exactly.
  const rt::TaskSet ts = Uniform(4, 0.5, Millis(100));
  const auto r = EdfBinPack(ts, partition::FitPolicy::kFirstFit, ECfg(2));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.partition.policy, partition::SchedPolicy::kEdf);
  EXPECT_EQ(r.partition.num_split_tasks(), 0u);
  EXPECT_NEAR(r.partition.core_utilization(0), 1.0, 1e-9);
}

TEST(EdfBinPack, StillHitsTheBinPackingWall) {
  // 3 x 0.6 on 2 cores: impossible without splitting even under EDF.
  const rt::TaskSet ts = Uniform(3, 0.6, Millis(100));
  const auto r = EdfBinPack(ts, partition::FitPolicy::kFirstFit, ECfg(2));
  EXPECT_FALSE(r.success);
}

TEST(EdfWm, SplitsAcrossTheWall) {
  const rt::TaskSet ts = Uniform(3, 0.6, Millis(100));
  const auto r = EdfWm(ts, ECfg(2));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.partition.num_split_tasks(), 1u);
  EXPECT_TRUE(r.partition.valid());
  // Window deadlines are strictly increasing and end at the deadline.
  for (const auto& pt : r.partition.tasks) {
    if (!pt.split()) continue;
    EXPECT_EQ(pt.parts.back().rel_deadline, pt.task.deadline);
  }
}

TEST(EdfWm, AcceptsEverythingEdfFfdAccepts) {
  rt::GeneratorConfig gen;
  gen.num_tasks = 10;
  gen.total_utilization = 3.0;
  rt::Rng rng(555);
  for (int i = 0; i < 10; ++i) {
    const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
    const bool ffd =
        EdfBinPack(ts, partition::FitPolicy::kFirstFit, ECfg(4)).success;
    const bool wm = EdfWm(ts, ECfg(4)).success;
    EXPECT_LE(ffd, wm) << "set " << i;
  }
}

TEST(EdfWm, OverheadAwareVariantStillWorks) {
  const rt::TaskSet ts = Uniform(3, 0.55, Millis(100));
  const auto r = EdfWm(ts, ECfg(2, OverheadModel::PaperCoreI7()));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(
      AnalyzePartition(r.partition, OverheadModel::PaperCoreI7())
          .schedulable);
}

TEST(EdfWm, PerWindowAnalysisAcceptsTheExactlyFullCore) {
  // A late window of a split task next to a heavy normal task. Under the
  // per-window analysis (window = sporadic (B, T, D_w), no release
  // jitter) the core is schedulable: demand at t=10 is 8 + 2 = 10. A
  // jitter-widened window (jitter = window start = 5) would count TWO
  // window jobs at t=10, demand 12 > 10, and reject. The simulator
  // agrees with the per-window verdict (EdfSoundness below covers the
  // randomized version).
  const rt::Task split = MakeTask(0, Millis(4), Millis(10));
  partition::Partition p;
  p.num_cores = 2;
  p.policy = partition::SchedPolicy::kEdf;
  partition::PlacedTask s;
  s.task = split;
  s.parts = {{0, Millis(2), 0, Millis(5)},   // window [0, 5)
             {1, Millis(2), 0, Millis(10)}};  // window [5, 10)
  partition::PlacedTask heavy;
  heavy.task = MakeTask(1, Millis(8), Millis(10));
  heavy.parts = {{1, Millis(8), 0, 0}};
  p.tasks.push_back(s);
  p.tasks.push_back(heavy);
  ASSERT_TRUE(p.valid());

  // Schedulable: core 1's demand exactly meets supply.
  EXPECT_TRUE(AnalyzePartition(p, OverheadModel::Zero()).schedulable);

  // And the execution backs the tight analysis: no misses.
  sim::SimConfig cfg;
  cfg.horizon = Millis(200);
  EXPECT_EQ(Simulate(p, cfg).total_misses, 0u);
}

// ---- EDF in the simulator ----------------------------------------------------

TEST(EdfSim, EarliestDeadlineRunsFirst) {
  partition::Partition p;
  p.num_cores = 1;
  p.policy = partition::SchedPolicy::kEdf;
  // tau0: long period but short deadline — must preempt tau1 under EDF.
  partition::PlacedTask a;
  a.task = rt::Task{.id = 0, .wcet = Millis(2), .period = Millis(50),
                    .deadline = Millis(5), .priority = 0};
  a.parts = {{0, Millis(2), 0, 0}};
  partition::PlacedTask b;
  b.task = MakeTask(1, Millis(10), Millis(30));
  b.parts = {{0, Millis(10), 0, 0}};
  p.tasks.push_back(b);  // insertion order must not matter
  p.tasks.push_back(a);
  sim::SimConfig cfg;
  cfg.horizon = Millis(30);
  const sim::SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  // tau0 (deadline 5ms) ran before tau1 finished.
  EXPECT_EQ(r.tasks[1].max_response, Millis(2));
  EXPECT_GE(r.tasks[0].preemptions, 0u);
}

TEST(EdfSim, FullUtilizationRunsWithoutMisses) {
  partition::Partition p;
  p.num_cores = 1;
  p.policy = partition::SchedPolicy::kEdf;
  partition::PlacedTask a;
  a.task = MakeTask(0, Millis(2), Millis(4));
  a.parts = {{0, Millis(2), 0, 0}};
  partition::PlacedTask b;
  b.task = MakeTask(1, Millis(3), Millis(6));
  b.parts = {{0, Millis(3), 0, 0}};
  p.tasks.push_back(a);
  p.tasks.push_back(b);
  sim::SimConfig cfg;
  cfg.horizon = Millis(120);  // 10 hyperperiods
  const sim::SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);  // U = 1, EDF handles it
}

TEST(EdfSim, SplitTaskHonoursWindows) {
  // Split task: 3ms in window [0,5), 3ms in window [5,10) of T=10ms.
  partition::Partition p;
  p.num_cores = 2;
  p.policy = partition::SchedPolicy::kEdf;
  partition::PlacedTask split;
  split.task = MakeTask(0, Millis(6), Millis(10));
  split.parts = {{0, Millis(3), 0, Millis(5)},
                 {1, Millis(3), 0, Millis(10)}};
  p.tasks.push_back(split);
  sim::SimConfig cfg;
  cfg.horizon = Millis(50);
  const sim::SimResult r = Simulate(p, cfg);
  EXPECT_EQ(r.total_misses, 0u);
  EXPECT_EQ(r.tasks[0].migrations, 5u);
  EXPECT_EQ(r.cores[0].busy_exec, Millis(15));
  EXPECT_EQ(r.cores[1].busy_exec, Millis(15));
}

// ---- end-to-end soundness -------------------------------------------------

class EdfSoundness : public ::testing::TestWithParam<double> {};

TEST_P(EdfSoundness, AcceptedPartitionsNeverMissInSimulation) {
  rt::GeneratorConfig gen;
  gen.num_tasks = 12;
  gen.total_utilization = GetParam() * 4;
  gen.period_min = Millis(5);
  gen.period_max = Millis(100);
  rt::Rng rng(static_cast<std::uint64_t>(GetParam() * 10000));
  const OverheadModel model = OverheadModel::PaperCoreI7();
  for (int i = 0; i < 5; ++i) {
    const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
    for (const bool wm : {false, true}) {
      const partition::PartitionResult pr =
          wm ? EdfWm(ts, ECfg(4, model))
             : EdfBinPack(ts, partition::FitPolicy::kFirstFit,
                          ECfg(4, model));
      if (!pr.success) continue;
      sim::SimConfig cfg;
      cfg.horizon = Millis(1500);
      cfg.overheads = model;
      const sim::SimResult r = Simulate(pr.partition, cfg);
      EXPECT_EQ(r.total_misses, 0u)
          << (wm ? "EDF-WM" : "EDF-FFD") << " util=" << GetParam()
          << "\n" << pr.partition.summary() << r.summary();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Utils, EdfSoundness,
                         ::testing::Values(0.5, 0.7, 0.8, 0.9, 0.95));

}  // namespace
}  // namespace sps
