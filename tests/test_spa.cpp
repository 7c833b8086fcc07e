// Tests for the FP-TS (SPA1/SPA2) semi-partitioned algorithms — the
// paper's scheduler. The headline property: task sets that defeat every
// bin-packing partitioner are schedulable once splitting is allowed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "analysis/overhead_aware.hpp"
#include "analysis/rta.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/spa.hpp"
#include "partition/verify.hpp"
#include "rt/generator.hpp"
#include "rt/taskset.hpp"

namespace sps::partition {
namespace {

using overhead::OverheadModel;
using rt::MakeTask;
using rt::TaskSet;

TaskSet Uniform(std::size_t n, double util_each, Time period) {
  TaskSet ts;
  for (std::size_t i = 0; i < n; ++i) {
    ts.add(MakeTask(static_cast<rt::TaskId>(i),
                    static_cast<Time>(util_each * static_cast<double>(period)),
                    period));
  }
  rt::AssignRateMonotonic(ts);
  return ts;
}

SpaConfig Cfg(unsigned cores, OverheadModel m = OverheadModel::Zero()) {
  SpaConfig cfg;
  cfg.num_cores = cores;
  cfg.model = m;
  return cfg;
}

TEST(Spa, TrivialSetNoSplitting) {
  const TaskSet ts = Uniform(4, 0.2, Millis(100));
  const PartitionResult r = Spa1(ts, Cfg(4));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.partition.num_split_tasks(), 0u);
  EXPECT_TRUE(r.partition.valid());
}

TEST(Spa, HeadlineWin_SplitsWhatBinPackingCannotPlace) {
  // m+1 tasks of utilization 0.6 on m cores: impossible partitioned
  // (test_partition.cpp proves all four policies fail), trivial for FP-TS.
  const TaskSet ts = Uniform(3, 0.6, Millis(100));
  const PartitionResult r = Spa1(ts, Cfg(2));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(r.partition.valid());
  EXPECT_GE(r.partition.num_split_tasks(), 1u);
  // And the verifier independently agrees.
  EXPECT_TRUE(AnalyzePartition(r.partition, OverheadModel::Zero())
                  .schedulable);
}

TEST(Spa, BudgetsConserveWcet) {
  // 5 x 0.55 on 4 cores: forces at least one split (no pair fits a core).
  const TaskSet ts = Uniform(5, 0.55, Millis(80));
  const PartitionResult r = Spa1(ts, Cfg(4));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_GE(r.partition.num_split_tasks(), 1u);
  for (const PlacedTask& pt : r.partition.tasks) {
    EXPECT_EQ(pt.total_budget(), pt.task.wcet);
  }
}

TEST(Spa, SplitPartsLandOnDistinctConsecutivelyFilledCores) {
  const TaskSet ts = Uniform(3, 0.6, Millis(100));
  const PartitionResult r = Spa1(ts, Cfg(2));
  ASSERT_TRUE(r.success);
  for (const PlacedTask& pt : r.partition.tasks) {
    for (std::size_t k = 1; k < pt.parts.size(); ++k) {
      // SPA fills cores in order; a later subtask is on a later core.
      EXPECT_GT(pt.parts[k].core, pt.parts[k - 1].core);
    }
  }
}

TEST(Spa, ElevatedSubtasksOutrankNormalTasks) {
  const TaskSet ts = Uniform(3, 0.6, Millis(100));
  const PartitionResult r = Spa1(ts, Cfg(2));
  ASSERT_TRUE(r.success);
  for (const PlacedTask& pt : r.partition.tasks) {
    if (pt.split()) {
      for (const SubtaskPlacement& sp : pt.parts) {
        EXPECT_LT(sp.local_priority, kNormalPriorityBase);
      }
    } else {
      EXPECT_GE(pt.parts[0].local_priority, kNormalPriorityBase);
    }
  }
}

TEST(Spa, NativeModeKeepsRmPriorities) {
  const TaskSet ts = Uniform(3, 0.6, Millis(100));
  SpaConfig cfg = Cfg(2);
  cfg.split_mode = SplitPriorityMode::kNative;
  const PartitionResult r = Spa1(ts, cfg);
  if (r.success) {
    for (const PlacedTask& pt : r.partition.tasks) {
      for (const SubtaskPlacement& sp : pt.parts) {
        EXPECT_GE(sp.local_priority, kNormalPriorityBase);
      }
    }
  }
  // Either way the call must terminate and produce a coherent result.
  EXPECT_EQ(r.success, r.failure_reason.empty());
}

TEST(Spa, FailsGracefullyWhenTrulyOverloaded) {
  const TaskSet ts = Uniform(5, 0.9, Millis(100));  // U = 4.5 on 2 cores
  const PartitionResult r = Spa1(ts, Cfg(2));
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.failure_reason.empty());
}

TEST(Spa, RequiresPriorityAssignment) {
  TaskSet ts;
  ts.add(MakeTask(0, Millis(1), Millis(10)));  // no priority assigned
  const PartitionResult r = Spa1(ts, Cfg(1));
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure_reason.find("priority"), std::string::npos);
}

TEST(Spa2, PreassignsHeavyTasksUnsplit) {
  // Two heavy tasks (0.8) + light dust; SPA2 must keep the heavy tasks
  // whole on dedicated (last) cores.
  TaskSet ts;
  ts.add(MakeTask(0, Millis(80), Millis(100)));
  ts.add(MakeTask(1, Millis(80), Millis(100)));
  for (int i = 2; i < 6; ++i) {
    ts.add(MakeTask(static_cast<rt::TaskId>(i), Millis(10), Millis(100)));
  }
  rt::AssignRateMonotonic(ts);
  const PartitionResult r = Spa2(ts, Cfg(4));
  ASSERT_TRUE(r.success) << r.failure_reason;
  const PlacedTask& h0 = r.partition.tasks[0];
  const PlacedTask& h1 = r.partition.tasks[1];
  EXPECT_FALSE(h0.split());
  EXPECT_FALSE(h1.split());
  // Highest-numbered cores host the heavy tasks.
  EXPECT_GE(h0.parts[0].core, 2u);
  EXPECT_GE(h1.parts[0].core, 2u);
  EXPECT_NE(h0.parts[0].core, h1.parts[0].core);
}

TEST(Spa2, MoreHeavyTasksThanCoresFails) {
  const TaskSet ts = Uniform(3, 0.8, Millis(100));
  const PartitionResult r = Spa2(ts, Cfg(2));
  EXPECT_FALSE(r.success);
}

TEST(Spa2, HandlesMixedSetBinPackingCannot) {
  // Heavy + medium mix engineered to defeat FFD/WFD on 4 cores but not
  // FP-TS: 4 x 0.55 + 4 x 0.45 (every pairing of two mediums > RTA bound
  // is fine actually; use 0.6/0.55 mix at total 3.45/4).
  TaskSet ts;
  rt::TaskId id = 0;
  for (int i = 0; i < 5; ++i) {
    ts.add(MakeTask(id++, Millis(60), Millis(100)));  // 0.6
  }
  for (int i = 0; i < 1; ++i) {
    ts.add(MakeTask(id++, Millis(45), Millis(100)));  // 0.45
  }
  rt::AssignRateMonotonic(ts);  // total U = 3.45 on 4 cores
  BinPackConfig bp;
  bp.num_cores = 4;
  bp.admission = AdmissionTest::kRta;
  // Same-period tasks: a core takes u <= 1.0 exactly; 5 x 0.6: two per
  // core is 1.2 > 1 -> each 0.6 needs its own core; the 0.45 then has no
  // home. All partitioned policies fail:
  EXPECT_FALSE(Ffd(ts, bp).success);
  EXPECT_FALSE(Wfd(ts, bp).success);
  // FP-TS splits and fits.
  const PartitionResult r = Spa2(ts, Cfg(4));
  ASSERT_TRUE(r.success) << r.failure_reason;
}

TEST(Spa, LiuLaylandFillModeStillVerifies) {
  const TaskSet ts = Uniform(4, 0.3, Millis(100));
  SpaConfig cfg = Cfg(2);
  cfg.fill = FillMode::kLiuLaylandFill;
  const PartitionResult r = Spa1(ts, cfg);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(
      AnalyzePartition(r.partition, OverheadModel::Zero()).schedulable);
}

TEST(Spa, HeavyThresholdValues) {
  // Theta(inf)/(1+Theta(inf)) = ln2/(1+ln2) ~= 0.4093.
  EXPECT_NEAR(HeavyThreshold(0), 0.4093, 1e-3);
  // Theta(1) = 1 -> 0.5.
  EXPECT_NEAR(HeavyThreshold(1), 0.5, 1e-9);
}

TEST(Spa, OverheadAwareSpaStillBeatsPartitioned) {
  // The paper's central claim at a small scale: with the measured
  // overheads charged, FP-TS still schedules the u x (m+1) pattern that
  // defeats every partitioner. (u = 0.55: at 0.6 the zero-overhead chain
  // is exactly tight, so any overhead tips it over — see HeadlineWin.)
  const TaskSet ts = Uniform(3, 0.55, Millis(100));
  const OverheadModel m = OverheadModel::PaperCoreI7();
  BinPackConfig bp;
  bp.num_cores = 2;
  bp.admission = AdmissionTest::kRta;
  bp.model = m;
  EXPECT_FALSE(Ffd(ts, bp).success);
  const PartitionResult r = Spa1(ts, Cfg(2, m));
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_TRUE(AnalyzePartition(r.partition, m).schedulable);
}

class SpaUtilizationSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpaUtilizationSweep, AcceptedPartitionsAlwaysVerify) {
  // Property: whatever SPA returns as success must pass the verifier
  // under the same model (soundness of the partitioner).
  const double norm_util = GetParam();
  rt::GeneratorConfig gen;
  gen.num_tasks = 10;
  gen.total_utilization = norm_util * 4;
  gen.period_min = Millis(10);
  gen.period_max = Millis(200);
  rt::Rng rng(static_cast<std::uint64_t>(norm_util * 1000));
  const OverheadModel m = OverheadModel::PaperCoreI7();
  for (int i = 0; i < 5; ++i) {
    const TaskSet ts = rt::GenerateTaskSet(gen, rng);
    for (const bool heavy : {false, true}) {
      SpaConfig cfg = Cfg(4, m);
      cfg.preassign_heavy = heavy;
      const PartitionResult r = SpaPartition(ts, cfg);
      if (r.success) {
        EXPECT_TRUE(r.partition.valid());
        EXPECT_TRUE(AnalyzePartition(r.partition, m).schedulable);
        Time budget_sum = 0;
        for (const PlacedTask& pt : r.partition.tasks) {
          budget_sum += pt.total_budget();
        }
        EXPECT_GT(budget_sum, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Utils, SpaUtilizationSweep,
                         ::testing::Values(0.4, 0.6, 0.7, 0.8, 0.9));

// ---- admission screen and prepared probe ----------------------------------

TaskSet HarmonicFullCore(Time extra_ns) {
  // C = (1, 1, 2) ms, T = (2, 4, 8) ms: raw U == 1, schedulable by RTA
  // (Rta.ExactlyFullUtilizationHarmonicIsSchedulable).
  TaskSet ts;
  ts.add(MakeTask(0, Millis(1), Millis(2)));
  ts.add(MakeTask(1, Millis(1), Millis(4)));
  ts.add(MakeTask(2, Millis(2) + extra_ns, Millis(8)));
  rt::AssignRateMonotonic(ts);
  return ts;
}

TEST(Spa, ExactModeAcceptsAFullHarmonicCore) {
  const TaskSet ts = HarmonicFullCore(0);
  for (const bool heavy : {false, true}) {
    for (const SplitPriorityMode mode :
         {SplitPriorityMode::kElevated, SplitPriorityMode::kNative}) {
      SpaConfig cfg = Cfg(1);
      cfg.preassign_heavy = heavy;
      cfg.split_mode = mode;
      const PartitionResult r = SpaPartition(ts, cfg);
      ASSERT_TRUE(r.success) << r.algorithm << ": " << r.failure_reason;
      EXPECT_EQ(r.partition.num_split_tasks(), 0u);
    }
  }
}

TEST(Spa, ExactModeRejectsRawUtilizationJustAboveOne) {
  // One more ns lifts raw U to 1 + 1.25e-7: the O(1) screen rejects
  // the core before any RTA, for SPA and the bin packers alike.
  const TaskSet ts = HarmonicFullCore(1);
  for (const bool heavy : {false, true}) {
    SpaConfig cfg = Cfg(1);
    cfg.preassign_heavy = heavy;
    EXPECT_FALSE(SpaPartition(ts, cfg).success);
  }
  FpCoreState core;
  core.Commit(ts[0]);
  core.Commit(ts[1]);
  BinPackConfig bp;
  AdmitStats stats;
  EXPECT_FALSE(FpCoreAdmits(core, ts[2], bp, &stats, nullptr));
  EXPECT_EQ(stats.util_rejects, 1u);
  EXPECT_EQ(stats.full_tests, 0u);
  // At raw U == 1 the same core goes to RTA and fits.
  EXPECT_TRUE(FpCoreAdmits(core, HarmonicFullCore(0)[2], bp, &stats,
                           nullptr));
  EXPECT_EQ(stats.full_tests, 1u);
}

// Seeded sets around the acceptance knee: 2 and 4 cores, 1.25 to 3
// tasks per core, implicit and constrained deadlines.
struct ProbeSet {
  unsigned cores;
  TaskSet ts;
};

std::vector<ProbeSet> ProbeSets() {
  std::vector<ProbeSet> sets;
  rt::Rng rng(20110318);
  for (const unsigned m : {2u, 4u}) {
    for (const std::size_t n : {m + 1, 2 * m, 3 * m}) {
      for (const double u : {0.75, 0.85, 0.92, 0.97}) {
        for (const bool implicit : {true, false}) {
          rt::GeneratorConfig gen;
          gen.num_tasks = n;
          gen.total_utilization = u * m;
          gen.period_min = Millis(10);
          gen.period_max = Millis(200);
          gen.implicit_deadlines = implicit;
          for (int k = 0; k < 3; ++k) {
            sets.push_back({m, rt::GenerateTaskSet(gen, rng)});
          }
        }
      }
    }
  }
  return sets;
}

void Fold(std::uint64_t& h, const std::string& s) {
  for (const char ch : s + ";") {
    h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  }
}

// Everything a partitioner decides: verdict, name, reason and every
// subtask's core, budget and priority.
void Fold(std::uint64_t& h, const PartitionResult& r) {
  Fold(h, r.algorithm + "|" + r.failure_reason + "|" +
              std::to_string(r.success));
  for (const PlacedTask& pt : r.partition.tasks) {
    for (const SubtaskPlacement& p : pt.parts) {
      Fold(h, std::to_string(pt.task.id) + ":" + std::to_string(p.core) +
                  ":" + std::to_string(p.budget) + ":" +
                  std::to_string(p.local_priority));
    }
  }
}

TEST(AdmissionProbe, SpaReproducesTheFullCoreAnalysisDecisions) {
  // The fingerprint was taken with every exact-mode SPA probe running
  // InflateCore + AnalyzeCore over a copy of the core with the
  // candidate appended, with no utilization screen. The screened,
  // prepared per-core probe must reproduce every decision bit for bit.
  const std::vector<ProbeSet> sets = ProbeSets();
  std::uint64_t h = 14695981039346656037ull;
  int accepted = 0;
  for (const OverheadModel& m :
       {OverheadModel::Zero(), OverheadModel::PaperCoreI7()}) {
    for (const bool heavy : {false, true}) {
      for (const SplitPriorityMode mode :
           {SplitPriorityMode::kElevated, SplitPriorityMode::kNative}) {
        for (const auto& [cores, ts] : sets) {
          SpaConfig cfg = Cfg(cores, m);
          cfg.preassign_heavy = heavy;
          cfg.split_mode = mode;
          const PartitionResult r = SpaPartition(ts, cfg);
          accepted += r.success ? 1 : 0;
          Fold(h, r);
        }
      }
    }
  }
  EXPECT_EQ(accepted, 734);
  EXPECT_EQ(h, 13698025758033858574ull);
}

// The oracle of the bin packers' admission: the same O(1)
// screen, then the full-core analysis of residents plus candidate.
bool OracleAdmits(const FpCoreState& core, const rt::Task& cand,
                  const OverheadModel& m, AdmitStats& s) {
  if (core.utilization + cand.utilization() > 1.0 + 1e-12) {
    ++s.util_rejects;
    return false;
  }
  ++s.full_tests;
  std::vector<analysis::CoreEntry> entries;
  auto push = [&entries](const rt::Task& t) {
    analysis::CoreEntry e;
    e.exec = t.wcet;
    e.period = t.period;
    e.deadline = t.deadline;
    e.priority = t.priority + kNormalPriorityBase;
    e.id = t.id;
    entries.push_back(e);
  };
  for (const rt::Task& t : core.tasks) push(t);
  push(cand);
  return analysis::AnalyzeCore(analysis::InflateCore(entries, m))
      .schedulable;
}

TEST(AdmissionProbe, BinPackingMatchesTheFullCoreOracle) {
  // Replays FFD and WFD probe by probe with FpCoreAdmits and the oracle
  // side by side: every verdict, the admission counters and the final
  // placement must agree, and BinPackDecreasing must place the same.
  const std::vector<ProbeSet> sets = ProbeSets();
  for (const OverheadModel& m :
       {OverheadModel::Zero(), OverheadModel::PaperCoreI7()}) {
    for (const FitPolicy policy :
         {FitPolicy::kFirstFit, FitPolicy::kWorstFit}) {
      for (std::size_t si = 0; si < sets.size(); ++si) {
        const TaskSet& ts = sets[si].ts;
        BinPackConfig cfg;
        cfg.num_cores = sets[si].cores;
        cfg.model = m;
        std::vector<FpCoreState> cores(cfg.num_cores);
        std::vector<int> core_of(ts.size(), -1);
        AdmitStats got;
        AdmitStats want;
        bool placed_all = true;
        for (const std::size_t ti : rt::OrderByDecreasingUtilization(ts)) {
          std::vector<unsigned> order(cfg.num_cores);
          std::iota(order.begin(), order.end(), 0u);
          if (policy == FitPolicy::kWorstFit) {
            std::stable_sort(order.begin(), order.end(),
                             [&](unsigned a, unsigned b) {
                               return cores[a].utilization <
                                      cores[b].utilization;
                             });
          }
          for (const unsigned c : order) {
            const bool admits =
                FpCoreAdmits(cores[c], ts[ti], cfg, &got, nullptr);
            ASSERT_EQ(admits, OracleAdmits(cores[c], ts[ti], m, want))
                << "set " << si << " task " << ti << " core " << c;
            if (admits) {
              core_of[ti] = static_cast<int>(c);
              break;
            }
          }
          if (core_of[ti] < 0) {
            placed_all = false;
            break;
          }
          cores[static_cast<unsigned>(core_of[ti])].Commit(ts[ti]);
        }
        EXPECT_EQ(got.util_rejects, want.util_rejects) << "set " << si;
        EXPECT_EQ(got.full_tests, want.full_tests) << "set " << si;
        const PartitionResult r = BinPackDecreasing(ts, policy, cfg);
        ASSERT_EQ(r.success, placed_all) << "set " << si;
        if (!r.success) continue;
        for (std::size_t i = 0; i < ts.size(); ++i) {
          EXPECT_EQ(static_cast<int>(r.partition.tasks[i].parts[0].core),
                    core_of[i])
              << "set " << si << " task " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sps::partition
