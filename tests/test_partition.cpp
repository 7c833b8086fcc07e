// Tests for the placement model, the FFD/WFD/BFD bin-packers, and the
// partition verifier.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "online/admission.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "partition/packing.hpp"
#include "partition/placement.hpp"
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

// ---- placement model -------------------------------------------------------

TEST(Placement, ValidityChecks) {
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(0, Millis(4), Millis(10));
  pt.parts = {{0, Millis(3), 0}, {1, Millis(1), 0}};
  p.tasks.push_back(pt);
  EXPECT_TRUE(p.valid());
  EXPECT_EQ(p.num_split_tasks(), 1u);
  EXPECT_EQ(p.migrations_per_period(), 1u);
  EXPECT_EQ(p.entries_per_core(), (std::vector<std::size_t>{1, 1}));
  EXPECT_NEAR(p.core_utilization(0), 0.3, 1e-9);
  EXPECT_NEAR(p.core_utilization(1), 0.1, 1e-9);

  // Budgets must sum to the WCET.
  p.tasks[0].parts[1].budget = Millis(2);
  EXPECT_FALSE(p.valid());
  p.tasks[0].parts[1].budget = Millis(1);

  // Parts on the same core are invalid.
  p.tasks[0].parts[1].core = 0;
  EXPECT_FALSE(p.valid());
  p.tasks[0].parts[1].core = 1;

  // Out-of-range core.
  p.tasks[0].parts[1].core = 5;
  EXPECT_FALSE(p.valid());
}

TEST(Placement, DuplicatePrioritiesOnCoreInvalid) {
  Partition p;
  p.num_cores = 1;
  for (int i = 0; i < 2; ++i) {
    PlacedTask pt;
    pt.task = MakeTask(static_cast<rt::TaskId>(i), Millis(1), Millis(10));
    pt.parts = {{0, Millis(1), 7}};  // same priority twice
    p.tasks.push_back(pt);
  }
  EXPECT_FALSE(p.valid());
  // The same priority on two cores is fine.
  p.num_cores = 2;
  p.tasks[1].parts[0].core = 1;
  EXPECT_TRUE(p.valid());
}

TEST(Placement, SummaryMentionsSplitBudgets) {
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(7, Millis(4), Millis(10));
  pt.parts = {{0, Millis(3), 0}, {1, Millis(1), 0}};
  p.tasks.push_back(pt);
  const std::string s = p.summary();
  EXPECT_NE(s.find("2 cores"), std::string::npos);
  EXPECT_NE(s.find("1 split"), std::string::npos);
  EXPECT_NE(s.find("tau7[1/2"), std::string::npos);
  EXPECT_NE(s.find("tau7[2/2"), std::string::npos);
}

TEST(Placement, EdfPolicyValidation) {
  Partition p;
  p.num_cores = 2;
  p.policy = SchedPolicy::kEdf;
  PlacedTask pt;
  pt.task = MakeTask(0, Millis(4), Millis(10));
  pt.parts = {{0, Millis(2), 0, Millis(5)}, {1, Millis(2), 0, Millis(10)}};
  p.tasks.push_back(pt);
  EXPECT_TRUE(p.valid());
  // Windows must be strictly increasing...
  p.tasks[0].parts[1].rel_deadline = Millis(5);
  EXPECT_FALSE(p.valid());
  // ... and end exactly at the task deadline.
  p.tasks[0].parts[1].rel_deadline = Millis(9);
  EXPECT_FALSE(p.valid());
  p.tasks[0].parts[1].rel_deadline = Millis(10);
  EXPECT_TRUE(p.valid());
  // Under EDF, duplicate local priorities are fine (keys are deadlines).
  Partition q = p;
  PlacedTask other;
  other.task = MakeTask(1, Millis(1), Millis(20));
  other.parts = {{0, Millis(1), 0}};  // same local_priority as pt's part
  q.tasks.push_back(other);
  EXPECT_TRUE(q.valid());
}

// ---- bin packers ------------------------------------------------------------

TEST(BinPack, FfdPlacesGreedilyOnFirstCore) {
  // Four tasks of u=0.3 on 2 cores with the L&L test: bound for 3 tasks is
  // 0.7798 -> core 0 takes only 2 (0.9 > bound), so FFD gives 2+2.
  const TaskSet ts = Uniform(4, 0.3, Millis(100));
  BinPackConfig cfg;
  cfg.num_cores = 2;
  cfg.admission = AdmissionTest::kLiuLayland;
  const PartitionResult r = Ffd(ts, cfg);
  ASSERT_TRUE(r.success) << r.failure_reason;
  EXPECT_EQ(r.partition.entries_per_core(),
            (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(r.partition.num_split_tasks(), 0u);
}

TEST(BinPack, WfdBalancesLoad) {
  const TaskSet ts = Uniform(4, 0.2, Millis(100));
  BinPackConfig cfg;
  cfg.num_cores = 2;
  cfg.admission = AdmissionTest::kRta;
  const PartitionResult r = Wfd(ts, cfg);
  ASSERT_TRUE(r.success);
  // Worst-fit alternates between the emptiest cores: 2 + 2.
  EXPECT_EQ(r.partition.entries_per_core(),
            (std::vector<std::size_t>{2, 2}));
}

TEST(BinPack, FfdConcentratesWithExactRta) {
  // With exact RTA and harmonic periods a core can be filled to U=1.
  TaskSet ts;
  ts.add(MakeTask(0, Millis(1), Millis(2)));
  ts.add(MakeTask(1, Millis(1), Millis(4)));
  ts.add(MakeTask(2, Millis(2), Millis(8)));  // exactly fills core 0
  ts.add(MakeTask(3, Millis(1), Millis(4)));
  rt::AssignRateMonotonic(ts);
  BinPackConfig cfg;
  cfg.num_cores = 2;
  cfg.admission = AdmissionTest::kRta;
  const PartitionResult r = Ffd(ts, cfg);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.partition.entries_per_core(),
            (std::vector<std::size_t>{3, 1}));
}

TEST(BinPack, FailsWhenNothingFits) {
  // The classic bin-packing waste: m+1 tasks of utilization 0.6 cannot be
  // partitioned on m cores, although total utilization is only 0.6(m+1).
  const TaskSet ts = Uniform(3, 0.6, Millis(100));
  BinPackConfig cfg;
  cfg.num_cores = 2;
  cfg.admission = AdmissionTest::kRta;
  for (const FitPolicy policy :
       {FitPolicy::kFirstFit, FitPolicy::kWorstFit, FitPolicy::kBestFit,
        FitPolicy::kNextFit}) {
    const PartitionResult r = BinPackDecreasing(ts, policy, cfg);
    EXPECT_FALSE(r.success) << ToString(policy);
    EXPECT_FALSE(r.failure_reason.empty());
  }
}

TEST(BinPack, OverheadAwareAdmissionIsStricter) {
  // A set that fits exactly with zero overheads must fail once every job
  // carries tens of microseconds of scheduler overhead at millisecond
  // periods... choose tight parameters to expose it.
  TaskSet ts;
  ts.add(MakeTask(0, Micros(500), Millis(1)));
  ts.add(MakeTask(1, Micros(490), Millis(1)));
  rt::AssignRateMonotonic(ts);
  BinPackConfig cfg;
  cfg.num_cores = 1;
  cfg.admission = AdmissionTest::kRta;
  cfg.model = OverheadModel::Zero();
  EXPECT_TRUE(Ffd(ts, cfg).success);
  cfg.model = OverheadModel::PaperCoreI7();
  EXPECT_FALSE(Ffd(ts, cfg).success);
}

TEST(BinPack, AdmissionTestsOrderedByPermissiveness) {
  // RTA accepts everything L&L accepts; hyperbolic sits in between.
  for (double u = 0.05; u <= 0.5; u += 0.05) {
    const TaskSet ts = Uniform(3, u, Millis(50));
    BinPackConfig cfg;
    cfg.num_cores = 1;
    cfg.admission = AdmissionTest::kLiuLayland;
    const bool ll = Ffd(ts, cfg).success;
    cfg.admission = AdmissionTest::kHyperbolic;
    const bool hyp = Ffd(ts, cfg).success;
    cfg.admission = AdmissionTest::kRta;
    const bool rta = Ffd(ts, cfg).success;
    EXPECT_LE(ll, hyp) << u;
    EXPECT_LE(hyp, rta) << u;
  }
}

// Seeded sets on 2, 4 and 8 cores from below the bin-packing knee to
// past it, implicit and constrained deadlines: accepted and rejected
// sets for every partitioner below.
std::vector<std::pair<unsigned, TaskSet>> PinSets() {
  std::vector<std::pair<unsigned, TaskSet>> sets;
  rt::Rng rng(20251018);
  for (const unsigned m : {2u, 4u, 8u}) {
    for (const std::size_t n : {m + m / 2, 2 * m, 3 * m}) {
      for (const double u : {0.6, 0.8, 0.9, 0.97}) {
        for (const bool implicit : {true, false}) {
          rt::GeneratorConfig gen;
          gen.num_tasks = n;
          gen.total_utilization = u * m;
          gen.period_min = Millis(10);
          gen.period_max = Millis(200);
          gen.implicit_deadlines = implicit;
          for (int k = 0; k < 2; ++k) {
            sets.emplace_back(m, rt::GenerateTaskSet(gen, rng));
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

// FNV-1a over everything a partitioner decides: verdict, name, reason,
// the partition's policy and every subtask's core, budget, priority and
// window deadline.
void Fold(std::uint64_t& h, const PartitionResult& r) {
  Fold(h, r.algorithm + "|" + r.failure_reason + "|" +
              std::to_string(r.success) + "|" +
              std::to_string(r.partition.num_cores) + "|" +
              std::to_string(static_cast<int>(r.partition.policy)));
  for (const PlacedTask& pt : r.partition.tasks) {
    for (const SubtaskPlacement& p : pt.parts) {
      Fold(h, std::to_string(pt.task.id) + ":" + std::to_string(p.core) +
                  ":" + std::to_string(p.budget) + ":" +
                  std::to_string(p.local_priority) + ":" +
                  std::to_string(p.rel_deadline));
    }
  }
}

TEST(PlacementPin, BinPackersReproduceTheirPinnedPartitions) {
  // Pins every bin packer's exact output (every fit policy, admission
  // test and overhead model) so a change to the shared probe order or
  // placement step cannot move a placement on both sides of a
  // differential unnoticed.
  const auto sets = PinSets();
  const FitPolicy policies[] = {FitPolicy::kFirstFit, FitPolicy::kBestFit,
                                FitPolicy::kWorstFit, FitPolicy::kNextFit};
  std::uint64_t fp_hash = 14695981039346656037ull;
  std::uint64_t edf_hash = 14695981039346656037ull;
  int fp_accepted = 0;
  int edf_accepted = 0;
  for (const OverheadModel& m :
       {OverheadModel::Zero(), OverheadModel::PaperCoreI7()}) {
    for (const auto& [cores, ts] : sets) {
      BinPackConfig bcfg;
      bcfg.num_cores = cores;
      bcfg.model = m;
      for (const AdmissionTest test :
           {AdmissionTest::kLiuLayland, AdmissionTest::kHyperbolic,
            AdmissionTest::kRta}) {
        bcfg.admission = test;
        for (const FitPolicy policy : policies) {
          const PartitionResult r = BinPackDecreasing(ts, policy, bcfg);
          fp_accepted += r.success ? 1 : 0;
          Fold(fp_hash, r);
        }
      }
      EdfPartitionConfig ecfg;
      ecfg.num_cores = cores;
      ecfg.model = m;
      for (const FitPolicy policy : policies) {
        const PartitionResult r = EdfBinPack(ts, policy, ecfg);
        edf_accepted += r.success ? 1 : 0;
        Fold(edf_hash, r);
      }
      const PartitionResult wm = EdfWm(ts, ecfg);
      edf_accepted += wm.success ? 1 : 0;
      Fold(edf_hash, wm);
    }
  }
  EXPECT_EQ(fp_accepted, 1331);
  EXPECT_EQ(fp_hash, 6153168383166561092ull);
  EXPECT_EQ(edf_accepted, 986);
  EXPECT_EQ(edf_hash, 11181642098421259989ull);
}

TEST(PlacementPin, SpaReproducesItsPinnedPartitions) {
  // Pins SPA1 and SPA2 in both fill modes and both split-priority modes
  // under both overhead models. The split count must stay high, so the
  // pin keeps reaching the body-budget search's admitted branch and the
  // chain steps after it.
  const auto sets = PinSets();
  std::uint64_t hash = 14695981039346656037ull;
  int accepted = 0;
  unsigned splits = 0;
  for (const OverheadModel& m :
       {OverheadModel::Zero(), OverheadModel::PaperCoreI7()}) {
    for (const auto& [cores, ts] : sets) {
      for (const FillMode fill :
           {FillMode::kExactRta, FillMode::kLiuLaylandFill}) {
        for (const SplitPriorityMode mode :
             {SplitPriorityMode::kElevated, SplitPriorityMode::kNative}) {
          SpaConfig cfg;
          cfg.num_cores = cores;
          cfg.model = m;
          cfg.fill = fill;
          cfg.split_mode = mode;
          for (const PartitionResult& r : {Spa1(ts, cfg), Spa2(ts, cfg)}) {
            accepted += r.success ? 1 : 0;
            splits += r.partition.num_split_tasks();
            Fold(hash, r);
          }
        }
      }
    }
  }
  EXPECT_GE(splits, 300u);
  EXPECT_EQ(accepted, 1006);
  EXPECT_EQ(splits, 363u);
  EXPECT_EQ(hash, 2806129471899197251ull);
}

// Hand-built EDF-WM splits: {cores, {C, T} in ms per task}, so every
// WCET is on the 10 us budget grid.
std::vector<std::pair<unsigned, TaskSet>> EdfWmSplitSets() {
  const auto make = [](std::initializer_list<std::pair<int, int>> ms) {
    TaskSet ts;
    rt::TaskId id = 0;
    for (const auto& [c, t] : ms) ts.add(MakeTask(id++, Millis(c), Millis(t)));
    rt::AssignRateMonotonic(ts);
    return ts;
  };
  return {
      // EdfWm.SplitsAcrossTheWall: three 0.6 tasks on two cores, K = 2.
      {2, make({{60, 100}, {60, 100}, {60, 100}})},
      // K = 2 falls short; K = 3 places three parts.
      {3, make({{38, 50}, {8, 10}, {9, 20}, {6, 10}})},
      // Under PaperCoreI7 one window of the K = 2 trial contributes
      // nothing; at K = 3 the remainder runs out after two windows and
      // the last part's window is stretched to the deadline.
      {3, make({{80, 100}, {12, 20}, {4, 20}, {34, 50}, {4, 10}})},
  };
}

TEST(PlacementPin, EdfWmReproducesItsPinnedSplits) {
  // Pins EDF-WM's split partitions and the per-core entries that the
  // online state's Adopt derives from them (DESIGN.md §11). Generated
  // sets never split under EDF-WM, so these hand-built ones carry the
  // window search's admitted branch.
  std::uint64_t hash = 14695981039346656037ull;
  unsigned splits = 0;
  for (const OverheadModel& m :
       {OverheadModel::Zero(), OverheadModel::PaperCoreI7()}) {
    for (const auto& [cores, ts] : EdfWmSplitSets()) {
      EdfPartitionConfig cfg;
      cfg.num_cores = cores;
      cfg.model = m;
      const PartitionResult r = EdfWm(ts, cfg);
      ASSERT_TRUE(r.success) << r.failure_reason;
      splits += r.partition.num_split_tasks();
      Fold(hash, r);
      online::AdmissionConfig acfg;
      acfg.num_cores = cores;
      acfg.model = m;
      online::AdmissionState state(acfg);
      state.Adopt(r.partition);
      for (const EdfCoreState& core : state.ExportState().edf_cores) {
        for (const analysis::EdfCoreEntry& e : core.entries) {
          Fold(hash, std::to_string(e.id) + ":" + std::to_string(e.exec) +
                         ":" + std::to_string(e.period) + ":" +
                         std::to_string(e.deadline) + ":" +
                         std::to_string(e.kind) + ":" +
                         std::to_string(e.dest_queue_size) + ":" +
                         std::to_string(e.first_core_queue_size));
        }
        Fold(hash, "|");
      }
    }
  }
  EXPECT_EQ(splits, 5u);
  EXPECT_EQ(hash, 14687649723063305829ull);
}

// ---- split-budget search ---------------------------------------------------

// The budget loop that SPA's body search and EDF-WM's window search each
// held before they shared LargestAdmitted, kept as its reference.
template <class Admits>
Time ReferenceBudgetLoop(Time lo, Time hi, Admits admits) {
  Time best = 0;
  while (lo <= hi) {
    const Time mid_raw = lo + (hi - lo) / 2;
    const Time mid =
        std::max(kMinBudget, mid_raw - mid_raw % kBudgetGranularity);
    if (admits(mid)) {
      best = mid;
      lo = mid + kBudgetGranularity;
    } else {
      hi = mid - kBudgetGranularity;
    }
  }
  return best;
}

// Runs both searches over [lo, hi] against "admitted iff budget <=
// threshold" and requires the same result and the same probes.
void ExpectSameSearch(Time lo, Time hi, Time threshold) {
  std::vector<Time> probes;
  std::vector<Time> ref_probes;
  const Time got = LargestAdmitted(lo, hi, [&](Time b) {
    probes.push_back(b);
    return b <= threshold;
  });
  const Time want = ReferenceBudgetLoop(lo, hi, [&](Time b) {
    ref_probes.push_back(b);
    return b <= threshold;
  });
  EXPECT_EQ(got, want) << lo << ".." << hi << " @ " << threshold;
  EXPECT_EQ(probes, ref_probes) << lo << ".." << hi << " @ " << threshold;
}

TEST(SplitBudgetSearch, LargestAdmittedMatchesTheOldLoop) {
  // Empty and one-point ranges.
  ExpectSameSearch(kMinBudget, kMinBudget - 1, Millis(1));
  ExpectSameSearch(kMinBudget, 0, Millis(1));
  ExpectSameSearch(kMinBudget, kMinBudget, Millis(1));
  ExpectSameSearch(kMinBudget, kMinBudget, kMinBudget - 1);
  std::mt19937_64 rng(31);
  for (int i = 0; i < 20000; ++i) {
    // Bounds on and off the 10 us grid, thresholds below, inside and
    // above the range.
    const bool on_grid = i % 2 == 0;
    const Time lo = kMinBudget + (on_grid ? 0 : Time(rng() % Micros(50)));
    Time hi = static_cast<Time>(rng() % Millis(40));
    if (on_grid) hi -= hi % kBudgetGranularity;
    const Time threshold = static_cast<Time>(rng() % Millis(45));
    ExpectSameSearch(lo, hi, threshold);
  }
  // The result is the largest admitted probe, and it is admitted.
  const Time b = LargestAdmitted(kMinBudget, Millis(10),
                                 [](Time x) { return x <= Micros(4567); });
  EXPECT_EQ(b, Micros(4560));
  EXPECT_EQ(LargestAdmitted(kMinBudget, Millis(10),
                            [](Time) { return false; }),
            0);
}

// ---- verifier ---------------------------------------------------------------

TEST(Verify, AcceptsFeasibleSplitChain) {
  // tau0 split across two idle cores: trivially schedulable.
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(0, Millis(4), Millis(10));
  pt.parts = {{0, Millis(2), 0}, {1, Millis(2), 0}};
  p.tasks.push_back(pt);
  const PartitionAnalysis a = AnalyzePartition(p, OverheadModel::Zero());
  EXPECT_TRUE(a.schedulable) << a.failure_reason;
  ASSERT_EQ(a.verdicts.size(), 1u);
  EXPECT_EQ(a.verdicts[0].completion, Millis(4));
}

TEST(Verify, RejectsOverloadedCore) {
  Partition p;
  p.num_cores = 1;
  for (int i = 0; i < 2; ++i) {
    PlacedTask pt;
    pt.task = MakeTask(static_cast<rt::TaskId>(i), Millis(6), Millis(10));
    pt.parts = {{0, Millis(6), static_cast<rt::Priority>(i)}};
    p.tasks.push_back(pt);
  }
  const PartitionAnalysis a = AnalyzePartition(p, OverheadModel::Zero());
  EXPECT_FALSE(a.schedulable);
  EXPECT_FALSE(a.failure_reason.empty());
}

TEST(Verify, SplitChainAccountsPredecessorDelay) {
  // Core 1 hosts a higher-priority task that delays the tail; the chain
  // must still fit in the period.
  Partition p;
  p.num_cores = 2;
  {
    PlacedTask pt;  // split task: 3ms on core0 + 3ms on core1, T=10ms
    pt.task = MakeTask(0, Millis(6), Millis(10));
    pt.parts = {{0, Millis(3), 0}, {1, Millis(3), 100}};  // tail native prio
    p.tasks.push_back(pt);
  }
  {
    PlacedTask pt;  // hp task on core 1: 4ms / 10ms
    pt.task = MakeTask(1, Millis(4), Millis(10));
    pt.parts = {{1, Millis(4), 10}};
    p.tasks.push_back(pt);
  }
  const PartitionAnalysis a = AnalyzePartition(p, OverheadModel::Zero());
  ASSERT_TRUE(a.schedulable) << a.failure_reason;
  // Tail: released after body (3ms), waits for hp (4ms), runs 3ms -> 10ms.
  EXPECT_EQ(a.verdicts[0].completion, Millis(10));
}

TEST(Verify, RejectsInfeasibleChain) {
  // Same as above but the hp task leaves too little room.
  Partition p;
  p.num_cores = 2;
  {
    PlacedTask pt;
    pt.task = MakeTask(0, Millis(6), Millis(10));
    pt.parts = {{0, Millis(3), 0}, {1, Millis(3), 100}};
    p.tasks.push_back(pt);
  }
  {
    PlacedTask pt;
    pt.task = MakeTask(1, Millis(5), Millis(10));
    pt.parts = {{1, Millis(5), 10}};
    p.tasks.push_back(pt);
  }
  const PartitionAnalysis a = AnalyzePartition(p, OverheadModel::Zero());
  EXPECT_FALSE(a.schedulable);
}

TEST(Verify, ElevatedTailBeatsNormalTasks) {
  // With the tail at elevated priority the same layout becomes feasible:
  // the tail preempts the 5ms task instead of waiting behind it.
  Partition p;
  p.num_cores = 2;
  {
    PlacedTask pt;
    pt.task = MakeTask(0, Millis(6), Millis(10));
    pt.parts = {{0, Millis(3), 0},
                {1, Millis(3), 0}};  // elevated (< kNormalPriorityBase)
    p.tasks.push_back(pt);
  }
  {
    PlacedTask pt;
    pt.task = MakeTask(1, Millis(4), Millis(10));
    pt.parts = {{1, Millis(4), kNormalPriorityBase + 10}};
    p.tasks.push_back(pt);
  }
  const PartitionAnalysis a = AnalyzePartition(p, OverheadModel::Zero());
  ASSERT_TRUE(a.schedulable) << a.failure_reason;
  EXPECT_EQ(a.verdicts[0].completion, Millis(6));
  // ... and the normal task absorbs the tail's interference: 4 + 3 = 7ms.
  EXPECT_EQ(a.verdicts[1].completion, Millis(7));
}

TEST(Verify, ArbitraryDeadlineUsesTheBusyWindow) {
  // Lehoczky's core: (26/70 us) above (62/100 us, D = 117 us). The first
  // job of the second task completes at 114 us, but its level-2 busy
  // window holds seven jobs and the fifth completes 118 us after its
  // release. The verifier must find 118 us, as FFD's admission does.
  for (const Time d : {Micros(117), Micros(118)}) {
    TaskSet ts;
    ts.add(MakeTask(0, Micros(26), Micros(70)));
    rt::Task late = MakeTask(1, Micros(62), Micros(100));
    late.deadline = d;
    ts.add(late);
    rt::AssignRateMonotonic(ts);
    Partition p;
    p.num_cores = 1;
    for (const rt::Task& t : ts) {
      PlacedTask pt;
      pt.task = t;
      pt.parts = {{0, t.wcet, t.priority + kNormalPriorityBase}};
      p.tasks.push_back(pt);
    }
    const PartitionAnalysis a = AnalyzePartition(p, OverheadModel::Zero());
    ASSERT_EQ(a.verdicts.size(), 2u);
    EXPECT_EQ(a.verdicts[1].completion, Micros(118));
    EXPECT_EQ(a.schedulable, d == Micros(118)) << a.failure_reason;
    BinPackConfig cfg;
    cfg.num_cores = 1;
    EXPECT_EQ(Ffd(ts, cfg).success, d == Micros(118));
  }
}

TEST(Verify, OverheadsTightenTheVerdict) {
  // Feasible with zero overheads, infeasible at 10x paper overheads with
  // microsecond-scale budgets.
  Partition p;
  p.num_cores = 2;
  PlacedTask pt;
  pt.task = MakeTask(0, Micros(900), Millis(1));
  pt.parts = {{0, Micros(450), 0}, {1, Micros(450), 0}};
  p.tasks.push_back(pt);
  EXPECT_TRUE(AnalyzePartition(p, OverheadModel::Zero()).schedulable);
  EXPECT_FALSE(
      AnalyzePartition(p, OverheadModel::PaperScaled(10.0)).schedulable);
}

}  // namespace
}  // namespace sps::partition
