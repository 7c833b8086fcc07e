// Online admission subsystem (DESIGN.md §11): stream generation and
// round-trip, the offline/online placement differentials, capacity
// reclaim, fallback churn accounting, unsplit consolidation, epoch
// replay soundness, the jobs-invariance of stream batches, and a pin of
// the validated replay's per-epoch table.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>

#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "partition/verify.hpp"
#include "rt/generator.hpp"

namespace sps::online {
namespace {

using overhead::OverheadModel;
using rt::MakeTask;

// ---------------------------------------------------------------------------
// Stream model
// ---------------------------------------------------------------------------

TEST(WorkloadStream, GenerationIsDeterministicAndValid) {
  StreamConfig cfg;
  cfg.num_admits = 64;
  cfg.seed = 42;
  const WorkloadStream a = GenerateStream(cfg);
  const WorkloadStream b = GenerateStream(cfg);
  EXPECT_EQ(a.requests(), b.requests());
  EXPECT_TRUE(a.valid());
  EXPECT_EQ(a.num_admits(), 64u);
  // Timestamps non-decreasing, priorities unique DM over admits.
  cfg.seed = 43;
  const WorkloadStream c = GenerateStream(cfg);
  EXPECT_NE(a.requests(), c.requests());
}

TEST(WorkloadStream, SaveLoadRoundTripsByteExactly) {
  StreamConfig cfg;
  cfg.num_admits = 32;
  cfg.leave_fraction = 0.7;
  const WorkloadStream s = GenerateStream(cfg);
  const std::string path = ::testing::TempDir() + "stream_roundtrip.txt";
  std::string err;
  ASSERT_TRUE(SaveStream(s, path, &err)) << err;
  WorkloadStream loaded;
  ASSERT_TRUE(LoadStream(path, loaded, &err)) << err;
  EXPECT_EQ(s.requests(), loaded.requests());
  std::remove(path.c_str());
}

TEST(WorkloadStream, FileErrorsNameThePathAndReason) {
  std::string err;
  WorkloadStream s;
  EXPECT_FALSE(LoadStream("/nonexistent/dir/stream.txt", s, &err));
  EXPECT_NE(err.find("/nonexistent/dir/stream.txt"), std::string::npos);
  EXPECT_NE(err.find("No such file"), std::string::npos) << err;

  err.clear();
  EXPECT_FALSE(SaveStream(s, "/nonexistent/dir/stream.txt", &err));
  EXPECT_NE(err.find("/nonexistent/dir/stream.txt"), std::string::npos);

  // Parse errors name the offending line.
  const std::string bad = ::testing::TempDir() + "stream_bad.txt";
  std::FILE* f = std::fopen(bad.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "# sps-online-stream v1\nadmit 1 2 3\n");
  std::fclose(f);
  err.clear();
  EXPECT_FALSE(LoadStream(bad, s, &err));
  EXPECT_NE(err.find(bad + ":2"), std::string::npos) << err;
  std::remove(bad.c_str());
}

// ---------------------------------------------------------------------------
// Offline/online differentials
// ---------------------------------------------------------------------------

bool SamePartition(const partition::Partition& a,
                   const partition::Partition& b) {
  if (a.num_cores != b.num_cores || a.policy != b.policy ||
      a.tasks.size() != b.tasks.size()) {
    return false;
  }
  auto find = [&](rt::TaskId id) -> const partition::PlacedTask* {
    for (const partition::PlacedTask& pt : b.tasks) {
      if (pt.task.id == id) return &pt;
    }
    return nullptr;
  };
  for (const partition::PlacedTask& pa : a.tasks) {
    const partition::PlacedTask* pb = find(pa.task.id);
    if (pb == nullptr || pa.parts.size() != pb->parts.size()) return false;
    for (std::size_t k = 0; k < pa.parts.size(); ++k) {
      if (pa.parts[k].core != pb->parts[k].core ||
          pa.parts[k].budget != pb->parts[k].budget ||
          pa.parts[k].rel_deadline != pb->parts[k].rel_deadline) {
        return false;
      }
    }
  }
  return true;
}

TEST(OnlineDifferential, AdmitOnlyReplayEqualsOfflineEdfWm) {
  // Feed the offline heuristic order (decreasing utilization) through an
  // ADMIT-only stream: the incremental controller must reproduce the
  // offline EDF-WM partition placement-for-placement — they literally
  // share the per-task step (partition::PlaceEdfTask).
  rt::GeneratorConfig gen;
  gen.num_tasks = 14;
  gen.total_utilization = 3.2;
  rt::Rng rng(2026);
  int compared = 0;
  for (int i = 0; i < 8; ++i) {
    const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
    partition::EdfPartitionConfig ecfg;
    ecfg.num_cores = 4;
    ecfg.model = (i % 2 == 0) ? OverheadModel::Zero()
                              : OverheadModel::PaperCoreI7();
    const partition::PartitionResult pr = partition::EdfWm(ts, ecfg);
    if (!pr.success) continue;
    ++compared;

    ReplayConfig rcfg;
    rcfg.controller.admission.num_cores = 4;
    rcfg.controller.admission.model = ecfg.model;
    rcfg.controller.repartition_fallback = false;  // pure incremental
    const WorkloadStream stream =
        MakeAdmitOnlyStream(ts, rt::OrderByDecreasingUtilization(ts));
    const ReplayResult res = ReplayStream(stream, rcfg);
    EXPECT_EQ(res.rejects, 0u) << "set " << i;
    EXPECT_TRUE(SamePartition(res.final_partition, pr.partition))
        << "set " << i << "\noffline:\n" << pr.partition.summary()
        << "online:\n" << res.final_partition.summary();
    // And the replayed placement is verifier-schedulable on its own.
    EXPECT_TRUE(partition::AnalyzePartition(res.final_partition, ecfg.model)
                    .schedulable);
  }
  EXPECT_GE(compared, 3);
}

TEST(OnlineDifferential, AdmitOnlyReplayEqualsOfflineBinPacking) {
  // Every PlacePolicy under both schedulers and both overhead models:
  // an unsplit ADMIT-only replay must reproduce the offline decreasing
  // bin packing of the matching fit policy (FP: BinPackDecreasing; EDF:
  // EdfBinPack), placement for placement.
  struct Case {
    partition::SchedPolicy sched;
    PlacePolicy place;
    partition::FitPolicy fit;
  };
  const Case cases[] = {
      {partition::SchedPolicy::kFixedPriority, PlacePolicy::kFirstFit,
       partition::FitPolicy::kFirstFit},
      {partition::SchedPolicy::kFixedPriority, PlacePolicy::kWorstFit,
       partition::FitPolicy::kWorstFit},
      {partition::SchedPolicy::kFixedPriority, PlacePolicy::kSpaOrder,
       partition::FitPolicy::kBestFit},
      {partition::SchedPolicy::kEdf, PlacePolicy::kFirstFit,
       partition::FitPolicy::kFirstFit},
      {partition::SchedPolicy::kEdf, PlacePolicy::kWorstFit,
       partition::FitPolicy::kWorstFit},
      {partition::SchedPolicy::kEdf, PlacePolicy::kSpaOrder,
       partition::FitPolicy::kBestFit},
  };
  for (const Case& c : cases) {
    for (const OverheadModel& model :
         {OverheadModel::Zero(), OverheadModel::PaperCoreI7()}) {
      rt::GeneratorConfig gen;
      gen.num_tasks = 12;
      gen.total_utilization = 2.6;
      rt::Rng rng(777);
      int compared = 0;
      for (int i = 0; i < 8; ++i) {
        const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
        partition::PartitionResult pr;
        if (c.sched == partition::SchedPolicy::kEdf) {
          partition::EdfPartitionConfig ecfg;
          ecfg.num_cores = 4;
          ecfg.model = model;
          pr = partition::EdfBinPack(ts, c.fit, ecfg);
        } else {
          partition::BinPackConfig bcfg;
          bcfg.num_cores = 4;
          bcfg.model = model;
          pr = partition::BinPackDecreasing(ts, c.fit, bcfg);
        }
        if (!pr.success) continue;
        ++compared;

        ReplayConfig rcfg;
        rcfg.controller.admission.num_cores = 4;
        rcfg.controller.admission.policy = c.sched;
        rcfg.controller.admission.model = model;
        rcfg.controller.place = c.place;
        rcfg.controller.allow_split = false;
        rcfg.controller.repartition_fallback = false;
        const WorkloadStream stream =
            MakeAdmitOnlyStream(ts, rt::OrderByDecreasingUtilization(ts));
        const ReplayResult res = ReplayStream(stream, rcfg);
        EXPECT_EQ(res.rejects, 0u) << pr.algorithm << " set " << i;
        EXPECT_TRUE(SamePartition(res.final_partition, pr.partition))
            << pr.algorithm << " set " << i << "\noffline:\n"
            << pr.partition.summary() << "online:\n"
            << res.final_partition.summary();
      }
      EXPECT_GE(compared, 3) << ToString(c.place);
    }
  }
}

// ---------------------------------------------------------------------------
// Capacity reclaim / churn
// ---------------------------------------------------------------------------

ControllerConfig OneCore() {
  ControllerConfig cfg;
  cfg.admission.num_cores = 1;
  cfg.allow_split = false;
  cfg.repartition_fallback = false;
  return cfg;
}

TEST(OnlineController, LeaveReclaimsCapacityForReAdmit) {
  Controller ctrl(OneCore());
  // Fill the core to 0.9.
  EXPECT_TRUE(ctrl.Admit(MakeTask(0, Millis(30), Millis(100))).accepted);
  EXPECT_TRUE(ctrl.Admit(MakeTask(1, Millis(30), Millis(100))).accepted);
  EXPECT_TRUE(ctrl.Admit(MakeTask(2, Millis(30), Millis(100))).accepted);
  // u = 0.2 cannot fit any more.
  EXPECT_FALSE(ctrl.Admit(MakeTask(3, Millis(20), Millis(100))).accepted);
  EXPECT_EQ(ctrl.resident(), 3u);
  // Retire one resident (u = 0.3): the rejected task now fits.
  EXPECT_TRUE(ctrl.Leave(1));
  EXPECT_FALSE(ctrl.Leave(1));  // already gone
  EXPECT_TRUE(ctrl.Admit(MakeTask(3, Millis(20), Millis(100))).accepted);
  EXPECT_EQ(ctrl.resident(), 3u);
  EXPECT_NEAR(ctrl.total_utilization(), 0.8, 1e-9);
  // No churn was ever charged: plain admits and leaves move nothing.
  EXPECT_EQ(ctrl.churn().total(), 0u);
}

TEST(OnlineController, DuplicateOrInvalidAdmitsAreRejected) {
  Controller ctrl(OneCore());
  EXPECT_TRUE(ctrl.Admit(MakeTask(7, Millis(10), Millis(100))).accepted);
  EXPECT_FALSE(ctrl.Admit(MakeTask(7, Millis(10), Millis(100))).accepted);
  rt::Task bad = MakeTask(8, Millis(0), Millis(100));  // C = 0
  EXPECT_FALSE(ctrl.Admit(bad).accepted);
  EXPECT_FALSE(ctrl.Leave(999));
}

TEST(OnlineController, FallbackRepartitionAdoptsAndChargesChurn) {
  // Adversarial increasing-utilization arrivals on 2 cores: first-fit
  // wedges (0.75 | 0.75 with a 0.4 pending), the offline decreasing-
  // utilization repartition unwedges to (1.0 | 0.9).
  ControllerConfig cfg;
  cfg.admission.num_cores = 2;
  cfg.allow_split = false;
  cfg.repartition_fallback = true;
  Controller ctrl(cfg);
  const Time T = Millis(100);
  const double us[] = {0.2, 0.25, 0.3, 0.35, 0.4};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ctrl
                    .Admit(MakeTask(static_cast<rt::TaskId>(i),
                                    Millis(100 * us[i]), T))
                    .accepted)
        << i;
  }
  EXPECT_EQ(ctrl.churn().total(), 0u);
  const AdmitOutcome out = ctrl.Admit(MakeTask(5, Millis(40), T));
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.via_fallback);
  EXPECT_EQ(ctrl.churn().repartitions, 1u);
  // FFD on {0.4, 0.4, 0.35, 0.3, 0.25, 0.2} -> c0 = {4,5,0}, c1 = {3,2,1}:
  // tasks 1, 2, 4 changed cores.
  EXPECT_EQ(ctrl.churn().moved, 3u);
  EXPECT_NEAR(ctrl.total_utilization(), 1.9, 1e-9);
  // And the adopted placement is verifier-clean.
  EXPECT_TRUE(partition::AnalyzePartition(ctrl.CurrentPartition(),
                                          OverheadModel::Zero())
                  .schedulable);
}

TEST(OnlineController, UnsplitOnLeaveConsolidatesASplitTask) {
  // 3 x u=0.6 on 2 cores forces one split (the EDF-WM wall); retiring a
  // whole task then lets the split consolidate.
  ControllerConfig cfg;
  cfg.admission.num_cores = 2;
  cfg.unsplit_on_leave = true;
  Controller ctrl(cfg);
  const Time T = Millis(100);
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(60), T)).accepted);
  ASSERT_TRUE(ctrl.Admit(MakeTask(1, Millis(60), T)).accepted);
  const AdmitOutcome split = ctrl.Admit(MakeTask(2, Millis(60), T));
  ASSERT_TRUE(split.accepted);
  ASSERT_GT(split.parts, 1u);
  EXPECT_EQ(ctrl.churn().split, 1u);
  EXPECT_EQ(ctrl.CurrentPartition().num_split_tasks(), 1u);

  EXPECT_TRUE(ctrl.Leave(0));
  EXPECT_EQ(ctrl.churn().unsplit, 1u);
  EXPECT_EQ(ctrl.CurrentPartition().num_split_tasks(), 0u);
  EXPECT_TRUE(partition::AnalyzePartition(ctrl.CurrentPartition(),
                                          OverheadModel::Zero())
                  .schedulable);
}

TEST(OnlineController, UnsplitOnLeaveConsolidatesEveryEligibleSplit) {
  // The consolidation pass is multi-task: one LEAVE can free enough
  // capacity for SEVERAL split residents to come back whole, and the
  // pass loops until it makes no more progress. 3 cores at u=0.8 each
  // force two u=0.25 arrivals to split; retiring one 0.8 task must
  // consolidate BOTH (the recovery-time re-admission shares this path).
  ControllerConfig cfg;
  cfg.admission.num_cores = 3;
  cfg.unsplit_on_leave = true;
  Controller ctrl(cfg);
  const Time T = Millis(100);
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(80), T)).accepted);
  ASSERT_TRUE(ctrl.Admit(MakeTask(1, Millis(80), T)).accepted);
  ASSERT_TRUE(ctrl.Admit(MakeTask(2, Millis(80), T)).accepted);
  const AdmitOutcome s3 = ctrl.Admit(MakeTask(3, Millis(25), T));
  ASSERT_TRUE(s3.accepted);
  ASSERT_GT(s3.parts, 1u);
  const AdmitOutcome s4 = ctrl.Admit(MakeTask(4, Millis(25), T));
  ASSERT_TRUE(s4.accepted);
  ASSERT_GT(s4.parts, 1u);
  EXPECT_EQ(ctrl.churn().split, 2u);
  EXPECT_EQ(ctrl.CurrentPartition().num_split_tasks(), 2u);

  EXPECT_TRUE(ctrl.Leave(0));
  EXPECT_EQ(ctrl.churn().unsplit, 2u);
  EXPECT_EQ(ctrl.CurrentPartition().num_split_tasks(), 0u);
  EXPECT_TRUE(partition::AnalyzePartition(ctrl.CurrentPartition(),
                                          OverheadModel::Zero())
                  .schedulable);
}

// ---------------------------------------------------------------------------
// Epoch replay
// ---------------------------------------------------------------------------

TEST(OnlineReplay, AcceptedEpochsSimulateWithoutMisses) {
  // The admission analysis is sound: every partition standing at an
  // epoch boundary must execute miss-free.
  StreamConfig scfg;
  scfg.num_admits = 40;
  scfg.span = Millis(4000);
  scfg.seed = 99;
  const WorkloadStream stream = GenerateStream(scfg);

  ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = 4;
  rcfg.controller.admission.model = OverheadModel::PaperCoreI7();
  rcfg.epoch = Millis(500);
  rcfg.validate_by_simulation = true;
  rcfg.validate_sim.horizon = Millis(300);
  const ReplayResult res = ReplayStream(stream, rcfg);
  ASSERT_FALSE(res.epochs.empty());
  std::uint64_t validated = 0;
  for (const EpochStats& e : res.epochs) {
    if (e.validated) ++validated;
    EXPECT_EQ(e.sim_misses, 0u) << "epoch [" << ToMillis(e.start) << ", "
                                << ToMillis(e.end) << ")";
  }
  EXPECT_GT(validated, 0u);
  EXPECT_GT(res.admits, 0u);
  // Epoch totals reconcile with the run totals.
  std::uint64_t admits = 0, rejects = 0, leaves = 0;
  ChurnStats churn;
  for (const EpochStats& e : res.epochs) {
    admits += e.admits;
    rejects += e.rejects;
    leaves += e.leaves;
    churn += e.churn;
  }
  EXPECT_EQ(admits, res.admits);
  EXPECT_EQ(rejects, res.rejects);
  EXPECT_EQ(leaves, res.leaves);
  EXPECT_EQ(churn.total(), res.churn.total());
}

TEST(OnlineReplay, StreamBatchesAreBitIdenticalForAnyJobCount) {
  // The §8 determinism contract extended to the online layer: a batch of
  // independent streams produces identical results for jobs = 1 and a
  // wide pool — including the validation simulations, whose seeds derive
  // from (seed, stream index, epoch).
  std::vector<WorkloadStream> streams;
  for (std::uint64_t s = 0; s < 6; ++s) {
    StreamConfig scfg;
    scfg.num_admits = 24;
    scfg.span = Millis(2000);
    scfg.seed = 1000 + s;
    streams.push_back(GenerateStream(scfg));
  }
  ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = 4;
  rcfg.controller.admission.model = OverheadModel::PaperCoreI7();
  rcfg.epoch = Millis(400);
  rcfg.validate_by_simulation = true;
  rcfg.validate_sim.horizon = Millis(100);

  const std::vector<ReplayResult> serial = ReplayBatch(streams, rcfg, 1);
  const std::vector<ReplayResult> wide = ReplayBatch(streams, rcfg, 8);
  ASSERT_EQ(serial.size(), wide.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(DecisionDiff(serial[i], wide[i]), "") << "stream " << i;
  }
}

TEST(DecisionDiff, NamesEachDecisionFieldAndIgnoresRunState) {
  StreamConfig scfg;
  scfg.num_admits = 24;
  scfg.seed = 77;
  ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = 4;
  const ReplayResult base = ReplayStream(GenerateStream(scfg), rcfg);
  ASSERT_FALSE(base.epochs.empty());
  ASSERT_FALSE(base.final_partition.tasks.empty());
  EXPECT_EQ(DecisionDiff(base, base), "");

  struct Change {
    const char* field;  ///< "" = not a decision field
    void (*apply)(ReplayResult&);
  };
  const Change changes[] = {
      {"epochs", [](ReplayResult& r) { ++r.epochs.back().rejects; }},
      {"admits", [](ReplayResult& r) { ++r.admits; }},
      {"rejects", [](ReplayResult& r) { ++r.rejects; }},
      {"leaves", [](ReplayResult& r) { ++r.leaves; }},
      {"churn", [](ReplayResult& r) { ++r.churn.moved; }},
      {"overload", [](ReplayResult& r) { ++r.overload.retry_attempts; }},
      {"shed_outstanding", [](ReplayResult& r) { ++r.shed_outstanding; }},
      {"util_rejects", [](ReplayResult& r) { ++r.admission.util_rejects; }},
      {"density_accepts",
       [](ReplayResult& r) { ++r.admission.density_accepts; }},
      {"full_tests", [](ReplayResult& r) { ++r.admission.full_tests; }},
      // +1 ns: below the 0.1 us rounding of Partition::summary().
      {"final_partition",
       [](ReplayResult& r) { ++r.final_partition.tasks[0].parts[0].budget; }},
      {"", [](ReplayResult& r) { ++r.admission.memo_hits; }},
      {"", [](ReplayResult& r) { ++r.admission.memo_misses; }},
      {"", [](ReplayResult& r) { ++r.admission.memo_evicts; }},
      {"", [](ReplayResult& r) { r.recovery.resume_seq = 9; }},
      {"",
       [](ReplayResult& r) {
         r.durability_error.kind = DurabilityError::Kind::kIo;
       }},
  };
  for (const Change& c : changes) {
    ReplayResult changed = base;
    c.apply(changed);
    EXPECT_EQ(DecisionDiff(base, changed), c.field);
    EXPECT_EQ(DecisionDiff(changed, base), c.field);
  }
}


// ---------------------------------------------------------------------------
// Validated replay pin
// ---------------------------------------------------------------------------

void Fold(std::uint64_t& h, std::string_view s) {
  for (const char ch : s) {
    h = (h ^ static_cast<unsigned char>(ch)) * 1099511628211ull;
  }
  h = (h ^ ';') * 1099511628211ull;
}

/// A generated stream with soft tasks, then one task admitted and
/// retired after an idle gap longer than the replay's compression bound
/// (1024 empty epochs of 200 ms).
WorkloadStream PinStream(std::uint64_t seed) {
  StreamConfig scfg;
  scfg.num_admits = 40;
  scfg.span = Millis(5000);
  scfg.soft_fraction = 0.4;
  scfg.seed = seed;
  std::vector<Request> reqs = GenerateStream(scfg).requests();
  const Time late = reqs.back().at + Millis(200) * 1100;
  Request admit;
  admit.at = late;
  admit.id = 9000;
  admit.task = MakeTask(9000, Millis(4), Millis(40));
  admit.task.priority = 9000;
  Request leave;
  leave.kind = RequestKind::kLeave;
  leave.at = late + Millis(500);
  leave.id = 9000;
  reqs.push_back(admit);
  reqs.push_back(leave);
  return WorkloadStream(std::move(reqs));
}

TEST(ValidatedReplayPin, PlainAndDurableTablesAndMissCountsArePinned) {
  // Pins the validated replay's rows: every epoch's table line and its
  // miss counts, plain and durable, under EDF and FP, with a spike
  // window and spiky validation so misses occur.
  const WorkloadStream s = PinStream(61);
  ASSERT_TRUE(s.valid());
  std::uint64_t hash = 14695981039346656037ull;
  std::size_t rows = 0;
  std::uint64_t misses = 0;
  std::uint64_t hard = 0;
  for (const partition::SchedPolicy policy :
       {partition::SchedPolicy::kEdf,
        partition::SchedPolicy::kFixedPriority}) {
    ReplayConfig cfg;
    cfg.controller.admission.num_cores = 3;
    cfg.controller.admission.policy = policy;
    cfg.controller.admission.model = OverheadModel::PaperCoreI7();
    cfg.epoch = Millis(200);
    cfg.seed = 5;
    cfg.drain_epochs = 3;
    cfg.faults.spikes.push_back(
        SpikeEpoch{Millis(1000), Millis(2000), 0.5, 1.6});
    cfg.validate_by_simulation = true;
    cfg.validate_sim.horizon = Millis(120);
    cfg.validate_sim.exec.kind = sim::ExecModel::Kind::kSpiky;
    cfg.validate_sim.exec.spike_prob = 0.3;
    cfg.validate_sim.exec.spike_magnitude = 1.8;
    const ReplayResult plain = ReplayStream(s, cfg);

    ReplayConfig dcfg = cfg;
    dcfg.durability.dir = ::testing::TempDir() + "sps_validated_pin";
    dcfg.durability.checkpoint_every = 5;
    dcfg.durability.fsync = FsyncPolicy::kOff;
    std::filesystem::remove_all(dcfg.durability.dir);
    const ReplayResult durable = ReplayStream(s, dcfg);
    std::filesystem::remove_all(dcfg.durability.dir);
    ASSERT_TRUE(durable.durability_error.ok())
        << durable.durability_error.message;
    EXPECT_EQ(DecisionDiff(plain, durable), "");

    for (const ReplayResult* r : {&plain, &durable}) {
      Fold(hash, r->Table());
      for (const EpochStats& e : r->epochs) {
        Fold(hash, std::to_string(e.sim_misses) + "/" +
                       std::to_string(e.hard_misses));
        misses += e.sim_misses;
        hard += e.hard_misses;
      }
      rows += r->epochs.size();
    }
  }
  EXPECT_EQ(rows, 204u);
  EXPECT_EQ(misses, 42u);
  EXPECT_EQ(hard, 40u);
  EXPECT_EQ(hash, 10426604513092686727ull);
}

}  // namespace
}  // namespace sps::online
