// Tests for the task model: time helpers, tasks, task sets, priority
// assignment, orderings, generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rt/generator.hpp"
#include "rt/task.hpp"
#include "rt/taskset.hpp"
#include "rt/time.hpp"

namespace sps::rt {
namespace {

TEST(Time, UnitConversions) {
  EXPECT_EQ(Micros(1.5), 1500);
  EXPECT_EQ(Millis(2.0), 2'000'000);
  EXPECT_DOUBLE_EQ(ToMicros(3300), 3.3);
  EXPECT_DOUBLE_EQ(ToMillis(kSecond), 1000.0);
}

TEST(Time, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 5), 2);
  EXPECT_EQ(CeilDiv(11, 5), 3);
  EXPECT_EQ(CeilDiv(1, 5), 1);
  EXPECT_EQ(CeilDiv(0, 5), 0);
}

TEST(Task, UtilizationAndValidity) {
  const Task t = MakeTask(0, Millis(2), Millis(10));
  EXPECT_DOUBLE_EQ(t.utilization(), 0.2);
  EXPECT_TRUE(t.implicit_deadline());
  EXPECT_TRUE(t.valid());

  Task bad = t;
  bad.wcet = Millis(11);
  EXPECT_FALSE(bad.valid());
  Task zero = t;
  zero.wcet = 0;
  EXPECT_FALSE(zero.valid());
}

TEST(Task, DensityUsesMinOfDeadlineAndPeriod) {
  Task t = MakeTask(0, Millis(2), Millis(10));
  t.deadline = Millis(4);
  EXPECT_DOUBLE_EQ(t.density(), 0.5);
  EXPECT_FALSE(t.implicit_deadline());
}

TEST(TaskSet, TotalsAndLookup) {
  TaskSet ts({MakeTask(0, Millis(1), Millis(10)),
              MakeTask(1, Millis(3), Millis(10)),
              MakeTask(2, Millis(5), Millis(20))});
  EXPECT_DOUBLE_EQ(ts.total_utilization(), 0.1 + 0.3 + 0.25);
  EXPECT_DOUBLE_EQ(ts.max_utilization(), 0.3);
  ASSERT_NE(ts.find(2), nullptr);
  EXPECT_EQ(ts.find(2)->wcet, Millis(5));
  EXPECT_EQ(ts.find(99), nullptr);
  EXPECT_TRUE(ts.valid());
}

TEST(TaskSet, DuplicateIdsInvalid) {
  TaskSet ts({MakeTask(1, 1, 10), MakeTask(1, 1, 20)});
  EXPECT_FALSE(ts.valid());
}

TEST(TaskSet, Hyperperiod) {
  TaskSet ts({MakeTask(0, 1, 4), MakeTask(1, 1, 6), MakeTask(2, 1, 10)});
  ASSERT_TRUE(ts.hyperperiod().has_value());
  EXPECT_EQ(*ts.hyperperiod(), 60);
}

TEST(TaskSet, HyperperiodOverflowDetected) {
  TaskSet ts;
  // Large coprime periods whose LCM overflows int64.
  ts.add(MakeTask(0, 1, 1'000'000'007));
  ts.add(MakeTask(1, 1, 1'000'000'009));
  ts.add(MakeTask(2, 1, 998'244'353));
  ts.add(MakeTask(3, 1, 754'974'721));
  EXPECT_FALSE(ts.hyperperiod().has_value());
}

TEST(Priorities, RateMonotonicOrdersByPeriod) {
  TaskSet ts({MakeTask(0, 1, Millis(100)), MakeTask(1, 1, Millis(10)),
              MakeTask(2, 1, Millis(50))});
  AssignRateMonotonic(ts);
  EXPECT_TRUE(ts.priorities_assigned());
  EXPECT_EQ(ts[1].priority, 0u);  // shortest period -> highest priority
  EXPECT_EQ(ts[2].priority, 1u);
  EXPECT_EQ(ts[0].priority, 2u);
}

TEST(Priorities, RateMonotonicTieBreaksById) {
  TaskSet ts({MakeTask(5, 1, Millis(10)), MakeTask(3, 1, Millis(10))});
  AssignRateMonotonic(ts);
  EXPECT_EQ(ts[1].priority, 0u);  // id 3 beats id 5 on equal periods
  EXPECT_EQ(ts[0].priority, 1u);
}

TEST(Orderings, DecreasingUtilization) {
  TaskSet ts({MakeTask(0, Millis(1), Millis(10)),    // 0.1
              MakeTask(1, Millis(8), Millis(10)),    // 0.8
              MakeTask(2, Millis(4), Millis(10))});  // 0.4
  const auto order = OrderByDecreasingUtilization(ts);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(Orderings, ByPriority) {
  TaskSet ts({MakeTask(0, 1, Millis(100)), MakeTask(1, 1, Millis(10))});
  AssignRateMonotonic(ts);
  const auto order = OrderByPriority(ts);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));
}

// ---- generators ----------------------------------------------------------

TEST(UUniFast, SumsToTarget) {
  Rng rng(7);
  for (const double target : {0.5, 1.0, 2.5, 3.9}) {
    const auto u = UUniFast(8, target, rng);
    double sum = 0;
    for (double x : u) {
      sum += x;
      EXPECT_GE(x, 0.0);
    }
    EXPECT_NEAR(sum, target, 1e-9);
  }
}

TEST(UUniFast, SingleTaskGetsEverything) {
  Rng rng(1);
  const auto u = UUniFast(1, 0.7, rng);
  ASSERT_EQ(u.size(), 1u);
  EXPECT_DOUBLE_EQ(u[0], 0.7);
}

TEST(UUniFastDiscard, RespectsCap) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto u = UUniFastDiscard(6, 3.0, 0.8, rng);
    for (double x : u) EXPECT_LE(x, 0.8 + 1e-12);
    double sum = 0;
    for (double x : u) sum += x;
    EXPECT_NEAR(sum, 3.0, 1e-9);
  }
}

TEST(UUniFastDiscard, RejectsImpossible) {
  Rng rng(3);
  EXPECT_THROW(UUniFastDiscard(4, 3.0, 0.5, rng), std::invalid_argument);
}

TEST(UUniFastDiscard, GivesUpWithATypedErrorAtTheBoundary) {
  // n * max == total is satisfiable (every u_i = 1) but UUniFast never
  // draws it, so the redraw budget runs out.
  Rng rng(3);
  EXPECT_THROW(UUniFastDiscard(4, 4.0, 1.0, rng), GeneratorGaveUp);
}

TEST(Generator, ProducesValidPrioritizedSets) {
  GeneratorConfig cfg;
  cfg.num_tasks = 12;
  cfg.total_utilization = 2.4;
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const TaskSet ts = GenerateTaskSet(cfg, rng);
    EXPECT_EQ(ts.size(), 12u);
    EXPECT_TRUE(ts.valid());
    EXPECT_TRUE(ts.priorities_assigned());
    EXPECT_NEAR(ts.total_utilization(), 2.4, 0.05);  // integer rounding
    for (const Task& t : ts) {
      EXPECT_GE(t.period, cfg.period_min);
      EXPECT_LE(t.period, cfg.period_max);
      EXPECT_TRUE(t.implicit_deadline());
    }
  }
}

TEST(Generator, DeterministicPerSeed) {
  GeneratorConfig cfg;
  Rng a(42), b(42), c(43);
  const TaskSet s1 = GenerateTaskSet(cfg, a);
  const TaskSet s2 = GenerateTaskSet(cfg, b);
  const TaskSet s3 = GenerateTaskSet(cfg, c);
  ASSERT_EQ(s1.size(), s2.size());
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i], s2[i]);
  }
  bool any_diff = false;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    if (!(s1[i] == s3[i])) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generator, ConstrainedDeadlinesStayInRange) {
  GeneratorConfig cfg;
  cfg.implicit_deadlines = false;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const TaskSet ts = GenerateTaskSet(cfg, rng);
    for (const Task& t : ts) {
      EXPECT_GE(t.deadline, t.wcet);
      EXPECT_LE(t.deadline, t.period);
    }
  }
}

TEST(Generator, DiscretePeriodMenu) {
  GeneratorConfig cfg;
  cfg.num_tasks = 40;
  cfg.total_utilization = 2.0;
  cfg.period_choices = {Millis(1), Millis(5), Millis(10), Millis(100)};
  Rng rng(8);
  const TaskSet ts = GenerateTaskSet(cfg, rng);
  for (const Task& t : ts) {
    const bool in_menu =
        t.period == Millis(1) || t.period == Millis(5) ||
        t.period == Millis(10) || t.period == Millis(100);
    EXPECT_TRUE(in_menu) << ToString(t);
  }
  // The harmonic menu keeps the hyperperiod tiny.
  ASSERT_TRUE(ts.hyperperiod().has_value());
  EXPECT_EQ(*ts.hyperperiod(), Millis(100));
}

class GeneratorUtilSweep : public ::testing::TestWithParam<double> {};

TEST_P(GeneratorUtilSweep, HitsTargetUtilization) {
  GeneratorConfig cfg;
  cfg.num_tasks = 16;
  cfg.total_utilization = GetParam() * 4;  // 4 cores normalized
  cfg.max_task_utilization = 1.0;
  Rng rng(1234);
  const TaskSet ts = GenerateTaskSet(cfg, rng);
  EXPECT_NEAR(ts.total_utilization(), cfg.total_utilization, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Grid, GeneratorUtilSweep,
                         ::testing::Values(0.3, 0.5, 0.7, 0.8, 0.9, 0.95));

}  // namespace
}  // namespace sps::rt
