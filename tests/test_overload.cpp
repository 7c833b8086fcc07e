// Overload-resilience subsystem (DESIGN.md §13): typed loader
// fuzz-negatives, the kSpiky execution model and its admission-generation
// RNG salting, the controller's degrade/shed ladder (victim order,
// exact rollback, hard-task protection), repartition hysteresis, and the
// fault-injected replay's recovery invariants.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"
#include "partition/edf_wm.hpp"
#include "partition/verify.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"

namespace sps::online {
namespace {

using overhead::OverheadModel;
using rt::MakeSoftTask;
using rt::MakeTask;

// ---------------------------------------------------------------------------
// Loader fuzz-negatives: every malformed input is a TYPED error with the
// offending line — never a crash, never a silent false.
// ---------------------------------------------------------------------------

std::string WriteFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + name;
  std::FILE* f = std::fopen(path.c_str(), "w");
  EXPECT_NE(f, nullptr);
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  return path;
}

void ExpectLoadError(const std::string& name, const std::string& body,
                     StreamError::Kind kind, int line) {
  const std::string path = WriteFile(name, body);
  WorkloadStream s;
  StreamError err;
  EXPECT_FALSE(LoadStream(path, s, &err));
  EXPECT_EQ(err.kind, kind) << ToString(err.kind) << ": " << err.message;
  EXPECT_EQ(err.line, line) << err.message;
  if (line > 0) {
    EXPECT_NE(err.message.find(path + ":" + std::to_string(line)),
              std::string::npos)
        << err.message;
  }
  std::remove(path.c_str());
}

constexpr char kHeader[] = "# sps-online-stream v1\n";

TEST(StreamLoaderFuzz, MissingHeaderIsTyped) {
  ExpectLoadError("fuzz_noheader.txt", "admit 0 1 10 100 100 0\n",
                  StreamError::Kind::kMissingHeader, 1);
  ExpectLoadError("fuzz_badheader.txt",
                  "# some other format\nadmit 0 1 10 100 100 0\n",
                  StreamError::Kind::kMissingHeader, 1);
}

TEST(StreamLoaderFuzz, TruncatedFileIsTyped) {
  // The writer always terminates the file with a newline; a file that
  // ends mid-line is a truncated capture.
  ExpectLoadError("fuzz_trunc.txt",
                  std::string(kHeader) + "admit 0 1 10 100 100",
                  StreamError::Kind::kTruncated, 2);
}

TEST(StreamLoaderFuzz, NulByteLineIsTyped) {
  // A line that starts with a NUL reads as empty; it must not be
  // skipped (this capture has no footer to catch it).
  ExpectLoadError("fuzz_nul.txt",
                  std::string(kHeader) + std::string("\0leave 5 9\n", 11),
                  StreamError::Kind::kTruncated, 2);
}

TEST(StreamLoaderFuzz, OverlongLineIsTyped) {
  ExpectLoadError("fuzz_overlong.txt",
                  std::string(kHeader) + std::string(400, 'x') + "\n",
                  StreamError::Kind::kOverlongLine, 2);
}

TEST(StreamLoaderFuzz, DuplicateAdmitIsTyped) {
  ExpectLoadError("fuzz_dup.txt",
                  std::string(kHeader) + "admit 0 1 10 100 100 0\n" +
                      "admit 5 1 10 100 100 1\n",
                  StreamError::Kind::kDuplicateAdmit, 3);
}

TEST(StreamLoaderFuzz, LeaveBeforeAdmitIsTyped) {
  ExpectLoadError("fuzz_leave.txt", std::string(kHeader) + "leave 5 9\n",
                  StreamError::Kind::kLeaveWithoutAdmit, 2);
  // Leave of an id that already left is the same class of error.
  ExpectLoadError("fuzz_releave.txt",
                  std::string(kHeader) + "admit 0 1 10 100 100 0\n" +
                      "leave 5 1\nleave 6 1\n",
                  StreamError::Kind::kLeaveWithoutAdmit, 4);
}

TEST(StreamLoaderFuzz, NonMonotoneTimestampIsTyped) {
  ExpectLoadError("fuzz_time.txt",
                  std::string(kHeader) + "admit 10 1 10 100 100 0\n" +
                      "admit 5 2 10 100 100 1\n",
                  StreamError::Kind::kNonMonotoneTime, 3);
}

TEST(StreamLoaderFuzz, MalformedTaskIsTyped) {
  // C > D violates 0 < C <= D <= T.
  ExpectLoadError("fuzz_badtask.txt",
                  std::string(kHeader) + "admit 0 1 200 100 100 0\n",
                  StreamError::Kind::kMalformedTask, 2);
  // v2 attributes: criticality must be 0/1, degraded WCET < full WCET.
  ExpectLoadError("fuzz_badcrit.txt",
                  "# sps-online-stream v2\n"
                  "admit 0 1 10 100 100 0 7 0 0 0\n",
                  StreamError::Kind::kMalformedTask, 2);
  ExpectLoadError("fuzz_baddeg.txt",
                  "# sps-online-stream v2\n"
                  "admit 0 1 10 100 100 0 1 2 100 10\n",
                  StreamError::Kind::kMalformedTask, 2);
}

TEST(StreamLoaderFuzz, UnparseableLineIsTyped) {
  ExpectLoadError("fuzz_parse.txt",
                  std::string(kHeader) + "frobnicate 1 2\n",
                  StreamError::Kind::kParse, 2);
}

TEST(StreamLoaderFuzz, LegacyOverloadRendersTheTypedMessage) {
  const std::string path = WriteFile(
      "fuzz_legacy.txt", std::string(kHeader) + "leave 5 9\n");
  WorkloadStream s;
  std::string err;
  EXPECT_FALSE(LoadStream(path, s, &err));
  EXPECT_NE(err.find(path + ":2"), std::string::npos) << err;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// v2 stream format and the soft-task generation axis
// ---------------------------------------------------------------------------

TEST(StreamOverloadAxis, SoftStreamsRoundTripThroughV2) {
  StreamConfig cfg;
  cfg.num_admits = 48;
  cfg.leave_fraction = 0.4;
  cfg.soft_fraction = 0.6;
  const WorkloadStream s = GenerateStream(cfg);
  bool any_soft = false;
  bool any_degraded = false;
  for (const Request& r : s.requests()) {
    if (r.kind != RequestKind::kAdmit || !r.task.soft()) continue;
    any_soft = true;
    EXPECT_GT(r.task.tardiness_bound, 0);
    if (r.task.degraded_wcet > 0) {
      any_degraded = true;
      EXPECT_LT(r.task.degraded_wcet, r.task.wcet);
    }
  }
  EXPECT_TRUE(any_soft);
  EXPECT_TRUE(any_degraded);

  const std::string path = ::testing::TempDir() + "stream_v2.txt";
  std::string err;
  ASSERT_TRUE(SaveStream(s, path, &err)) << err;
  // Soft attributes force the v2 header...
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char first[64] = {};
  ASSERT_NE(std::fgets(first, sizeof(first), f), nullptr);
  std::fclose(f);
  EXPECT_STREQ(first, "# sps-online-stream v2\n");
  // ...and the file round-trips exactly, overload attributes included.
  WorkloadStream loaded;
  ASSERT_TRUE(LoadStream(path, loaded, &err)) << err;
  EXPECT_EQ(s.requests(), loaded.requests());
  std::remove(path.c_str());
}

TEST(StreamOverloadAxis, SoftDrawsDoNotPerturbBaseParameters) {
  // The soft attributes live on their own seed axes: switching the
  // fraction on must not change any request's timing or C/T/D.
  StreamConfig hard;
  hard.num_admits = 64;
  StreamConfig soft = hard;
  soft.soft_fraction = 0.5;
  const WorkloadStream a = GenerateStream(hard);
  const WorkloadStream b = GenerateStream(soft);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Request& ra = a.requests()[i];
    const Request& rb = b.requests()[i];
    EXPECT_EQ(ra.at, rb.at);
    EXPECT_EQ(ra.kind, rb.kind);
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.task.wcet, rb.task.wcet);
    EXPECT_EQ(ra.task.period, rb.task.period);
    EXPECT_EQ(ra.task.deadline, rb.task.deadline);
  }
}

// ---------------------------------------------------------------------------
// kSpiky execution model (sim/kernel.hpp)
// ---------------------------------------------------------------------------

partition::Partition SmallEdfPartition(std::vector<rt::Task> tasks,
                                       unsigned cores) {
  partition::EdfPartitionConfig cfg;
  cfg.num_cores = cores;
  const partition::PartitionResult pr = partition::EdfBinPack(
      rt::TaskSet(std::move(tasks)), partition::FitPolicy::kFirstFit, cfg);
  EXPECT_TRUE(pr.success) << pr.failure_reason;
  return pr.partition;
}

using TaskSignature = std::tuple<std::uint64_t, std::uint64_t,
                                 std::uint64_t, std::uint64_t, Time, double>;

TaskSignature Signature(const sim::TaskStats& t) {
  return {t.released, t.completed, t.deadline_misses, t.shed,
          t.max_response, t.avg_response};
}

TEST(SpikyExec, ZeroSpikeProbMatchesWcetModelExactly) {
  const partition::Partition p = SmallEdfPartition(
      {MakeTask(0, Millis(3), Millis(10)), MakeTask(1, Millis(4), Millis(20)),
       MakeTask(2, Millis(5), Millis(50))},
      1);
  sim::SimConfig wcet;
  wcet.horizon = Millis(500);
  sim::SimConfig spiky = wcet;
  spiky.exec.kind = sim::ExecModel::Kind::kSpiky;
  spiky.exec.spike_prob = 0.0;
  const sim::SimResult a = Simulate(p, wcet);
  const sim::SimResult b = Simulate(p, spiky);
  EXPECT_EQ(a.total_misses, b.total_misses);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(Signature(a.tasks[i]), Signature(b.tasks[i])) << i;
  }
}

TEST(SpikyExec, OverrunsAreDeterministicAndAbsorbed) {
  // u = 0.8 with every job at 2x C is a sustained overload: the engine
  // must absorb it through its overrun/shed path (no crash, no UB) and
  // reproduce the exact same statistics on a second run.
  const partition::Partition p = SmallEdfPartition(
      {MakeTask(0, Millis(4), Millis(10)), MakeTask(1, Millis(8), Millis(20))},
      1);
  sim::SimConfig cfg;
  cfg.horizon = Millis(2000);
  cfg.exec.kind = sim::ExecModel::Kind::kSpiky;
  cfg.exec.spike_prob = 1.0;
  cfg.exec.spike_magnitude = 2.0;
  const sim::SimResult a = Simulate(p, cfg);
  const sim::SimResult b = Simulate(p, cfg);
  EXPECT_EQ(a.total_misses, b.total_misses);
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  std::uint64_t dropped_or_missed = 0;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(Signature(a.tasks[i]), Signature(b.tasks[i])) << i;
    EXPECT_GE(a.tasks[i].released, a.tasks[i].completed);
    dropped_or_missed += a.tasks[i].deadline_misses + a.tasks[i].shed;
  }
  EXPECT_GT(dropped_or_missed, 0u);
}

TEST(SpikyExec, AdmissionGenerationSaltsTheRngStreams) {
  const partition::Partition p =
      SmallEdfPartition({MakeTask(0, Millis(5), Millis(10))}, 1);
  sim::SimConfig cfg;
  cfg.horizon = Millis(3000);
  cfg.exec.kind = sim::ExecModel::Kind::kSpiky;
  cfg.exec.spike_prob = 0.5;
  cfg.exec.spike_magnitude = 1.8;
  // Default (no generations) == explicit generation 0, bit-identically.
  sim::SimConfig gen0 = cfg;
  gen0.exec_generations = {0};
  const sim::SimResult a = Simulate(p, cfg);
  const sim::SimResult b = Simulate(p, gen0);
  EXPECT_EQ(Signature(a.tasks[0]), Signature(b.tasks[0]));
  // Generation 1 (the id was re-admitted) draws a DIFFERENT spike
  // pattern: ~300 jobs at p=0.5 cannot coincide.
  sim::SimConfig gen1 = cfg;
  gen1.exec_generations = {1};
  const sim::SimResult c = Simulate(p, gen1);
  EXPECT_NE(Signature(a.tasks[0]), Signature(c.tasks[0]));
}

TEST(OnlineController, ReadmissionBumpsExecGeneration) {
  ControllerConfig cfg;
  cfg.admission.num_cores = 1;
  cfg.allow_split = false;
  cfg.repartition_fallback = false;
  Controller ctrl(cfg);
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(10), Millis(100))).accepted);
  ASSERT_TRUE(ctrl.Admit(MakeTask(1, Millis(10), Millis(100))).accepted);
  EXPECT_EQ(ctrl.ExecGenerations(), (std::vector<std::uint32_t>{0, 0}));
  // LEAVE then re-ADMIT the same id mid-stream: the new incarnation must
  // not resume the old one's RNG position.
  ASSERT_TRUE(ctrl.Leave(0));
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(10), Millis(100))).accepted);
  EXPECT_EQ(ctrl.ExecGenerations(), (std::vector<std::uint32_t>{1, 0}));
  ASSERT_TRUE(ctrl.Leave(0));
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(10), Millis(100))).accepted);
  EXPECT_EQ(ctrl.ExecGenerations(), (std::vector<std::uint32_t>{2, 0}));
}

// ---------------------------------------------------------------------------
// Degrade/shed ladder
// ---------------------------------------------------------------------------

ControllerConfig OneCoreLadder() {
  ControllerConfig cfg;
  cfg.admission.num_cores = 1;
  cfg.allow_split = false;
  cfg.repartition_fallback = false;
  return cfg;  // overload.ladder defaults ON
}

TEST(OverloadLadder, DegradesBeforeSheddingAndPicksLowestValue) {
  Controller ctrl(OneCoreLadder());
  const Time T = Millis(100);
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(50), T)).accepted);  // hard .5
  ASSERT_TRUE(ctrl.Admit(MakeSoftTask(1, Millis(30), T, /*value=*/1, T,
                                      /*degraded=*/Millis(15)))
                  .accepted);                                    // soft .3
  ASSERT_TRUE(
      ctrl.Admit(MakeSoftTask(2, Millis(20), T, /*value=*/0, T)).accepted);
  EXPECT_NEAR(ctrl.total_utilization(), 1.0, 1e-9);

  // A hard candidate that fits nowhere: rung 1 degrades task 1 (the only
  // degradable resident), which is not enough; rung 2 sheds task 2 (the
  // LOWEST value class, even though task 1 was degraded first).
  const AdmitOutcome out = ctrl.Admit(MakeTask(3, Millis(25), T));
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.via_ladder);
  EXPECT_FALSE(out.via_fallback);
  EXPECT_EQ(ctrl.overload_stats().degrades, 1u);
  EXPECT_EQ(ctrl.overload_stats().sheds, 1u);
  EXPECT_EQ(ctrl.shed_resident(), 1u);
  EXPECT_EQ(ctrl.degraded_resident(), 1u);
  EXPECT_EQ(ctrl.resident(), 3u);  // 0, 1 (degraded), 3
  EXPECT_NEAR(ctrl.total_utilization(), 0.90, 1e-9);

  const partition::Partition p = ctrl.CurrentPartition();
  ASSERT_EQ(p.tasks.size(), 3u);
  EXPECT_EQ(p.tasks[0].task.id, 0u);
  EXPECT_EQ(p.tasks[1].task.id, 1u);
  EXPECT_EQ(p.tasks[1].task.wcet, Millis(15));  // degraded service
  EXPECT_EQ(p.tasks[2].task.id, 3u);
  EXPECT_TRUE(
      partition::AnalyzePartition(p, OverheadModel::Zero()).schedulable);
}

TEST(OverloadLadder, HardResidentsAreNeverTouched) {
  Controller ctrl(OneCoreLadder());
  const Time T = Millis(100);
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(60), T)).accepted);
  ASSERT_TRUE(ctrl.Admit(MakeTask(1, Millis(30), T)).accepted);
  EXPECT_FALSE(ctrl.Admit(MakeTask(2, Millis(30), T)).accepted);
  EXPECT_EQ(ctrl.resident(), 2u);
  EXPECT_EQ(ctrl.overload_stats().degrades, 0u);
  EXPECT_EQ(ctrl.overload_stats().sheds, 0u);
  EXPECT_EQ(ctrl.shed_resident(), 0u);
}

TEST(OverloadLadder, ShedsNewestFirstWithinAValueClass) {
  Controller ctrl(OneCoreLadder());
  const Time T = Millis(100);
  ASSERT_TRUE(ctrl.Admit(MakeSoftTask(1, Millis(45), T, 0, T)).accepted);
  ASSERT_TRUE(ctrl.Admit(MakeSoftTask(2, Millis(45), T, 0, T)).accepted);
  const AdmitOutcome out = ctrl.Admit(MakeTask(3, Millis(50), T));
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.via_ladder);
  EXPECT_EQ(ctrl.overload_stats().sheds, 1u);
  // LIFO within the class: the NEWER admission (task 2) is shed first.
  const partition::Partition p = ctrl.CurrentPartition();
  ASSERT_EQ(p.tasks.size(), 2u);
  EXPECT_EQ(p.tasks[0].task.id, 1u);
  EXPECT_EQ(p.tasks[1].task.id, 3u);
}

TEST(OverloadLadder, EqualValueSoftCandidateCannotEvict) {
  Controller ctrl(OneCoreLadder());
  const Time T = Millis(100);
  ASSERT_TRUE(ctrl.Admit(MakeSoftTask(1, Millis(60), T, 2, T)).accepted);
  // Equal value: no thrash — the incumbent stays.
  EXPECT_FALSE(ctrl.Admit(MakeSoftTask(2, Millis(60), T, 2, T)).accepted);
  EXPECT_EQ(ctrl.overload_stats().sheds, 0u);
  EXPECT_EQ(ctrl.resident(), 1u);
  // Strictly higher value evicts.
  const AdmitOutcome out = ctrl.Admit(MakeSoftTask(3, Millis(60), T, 3, T));
  EXPECT_TRUE(out.accepted);
  EXPECT_TRUE(out.via_ladder);
  EXPECT_EQ(ctrl.overload_stats().sheds, 1u);
  EXPECT_EQ(ctrl.CurrentPartition().tasks[0].task.id, 3u);
}

TEST(OverloadLadder, RejectedCandidateRollsEveryActionBack) {
  Controller ctrl(OneCoreLadder());
  const Time T = Millis(100);
  ASSERT_TRUE(ctrl.Admit(MakeTask(0, Millis(50), T)).accepted);  // hard
  ASSERT_TRUE(
      ctrl.Admit(MakeSoftTask(1, Millis(20), T, 0, T, Millis(10))).accepted);
  ASSERT_TRUE(ctrl.Admit(MakeSoftTask(2, Millis(25), T, 1, T)).accepted);
  const partition::Partition before = ctrl.CurrentPartition();
  const double util_before = ctrl.total_utilization();

  // Even with every soft resident degraded AND shed, u=.8 cannot join
  // the u=.5 hard task: the ladder must undo everything it tried.
  EXPECT_FALSE(ctrl.Admit(MakeTask(3, Millis(80), T)).accepted);

  EXPECT_EQ(ctrl.resident(), 3u);
  EXPECT_EQ(ctrl.shed_resident(), 0u);
  EXPECT_EQ(ctrl.degraded_resident(), 0u);
  EXPECT_EQ(ctrl.overload_stats().degrades, 0u);
  EXPECT_EQ(ctrl.overload_stats().sheds, 0u);
  EXPECT_NEAR(ctrl.total_utilization(), util_before, 1e-9);
  const partition::Partition after = ctrl.CurrentPartition();
  ASSERT_EQ(after.tasks.size(), before.tasks.size());
  for (std::size_t i = 0; i < after.tasks.size(); ++i) {
    EXPECT_EQ(after.tasks[i].task, before.tasks[i].task) << i;
  }
  // The restored state still admits normally.
  EXPECT_TRUE(ctrl.Admit(MakeTask(4, Millis(5), T)).accepted);
}

// ---------------------------------------------------------------------------
// Repartition hysteresis
// ---------------------------------------------------------------------------

TEST(OverloadHysteresis, CutsRepartitionStormsAtSaturation) {
  // A churning near-saturation stream on 2 first-fit cores: without
  // hysteresis the fallback re-partitions over and over; the default-on
  // cooldown/band gate must suppress adoptions.
  StreamConfig scfg;
  scfg.num_admits = 240;
  scfg.leave_fraction = 1.0;  // everyone churns
  scfg.min_lifetime = Millis(300);
  scfg.max_lifetime = Millis(900);
  scfg.util_min = 0.10;
  scfg.util_max = 0.30;
  scfg.seed = 99;
  const WorkloadStream s = GenerateStream(scfg);

  ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = 2;
  rcfg.controller.allow_split = false;
  rcfg.controller.repartition_fallback = true;
  rcfg.controller.overload.ladder = false;  // isolate the hysteresis axis
  rcfg.controller.overload.hysteresis = false;
  const ReplayResult off = ReplayStream(s, rcfg);
  ASSERT_GE(off.churn.repartitions, 5u)
      << "stream does not saturate; the test needs a repartition storm";

  // The fixed gate (cooldown 4 epochs, 0.10 util band) suppresses
  // adoptions on this stream.
  rcfg.controller.overload.hysteresis = true;
  const ReplayResult dflt = ReplayStream(s, rcfg);
  EXPECT_LT(dflt.churn.repartitions, off.churn.repartitions);
  EXPECT_GT(dflt.overload.hysteresis_blocks, 0u);
  // Suppressed adoptions mean strictly less placement churn.
  EXPECT_LT(dflt.churn.moved, off.churn.moved);
}

// ---------------------------------------------------------------------------
// Fault-injected replay: reaction, recovery, conservation
// ---------------------------------------------------------------------------

TEST(OverloadReplay, SpikeWindowShedsThenRecoversWithZeroHardMisses) {
  // One core at u=.9: hard .3 + degradable soft .3 + plain soft .3. A
  // 1.5x spike window makes that 1.35 — the reaction degrades the
  // degradable task, then sheds it (full task), landing on {hard,
  // soft2} = .6 (inflated .9, schedulable). After the window the shed
  // task's retry re-admits it.
  const Time T = Millis(100);
  std::vector<Request> reqs;
  Request r;
  r.kind = RequestKind::kAdmit;
  r.at = 0;
  r.id = 0;
  r.task = MakeTask(0, Millis(30), T);
  reqs.push_back(r);
  r.at = Millis(10);
  r.id = 1;
  r.task = MakeSoftTask(1, Millis(30), T, 0, T, Millis(10));
  reqs.push_back(r);
  r.at = Millis(20);
  r.id = 2;
  r.task = MakeSoftTask(2, Millis(30), T, 1, T);
  reqs.push_back(r);
  const WorkloadStream s{std::move(reqs)};

  ReplayConfig cfg;
  cfg.controller.admission.num_cores = 1;
  cfg.controller.allow_split = false;
  cfg.controller.repartition_fallback = false;
  cfg.epoch = Millis(100);
  cfg.drain_epochs = 8;
  cfg.validate_by_simulation = true;
  cfg.validate_sim.horizon = Millis(400);
  cfg.faults.spikes.push_back(
      SpikeEpoch{Millis(300), Millis(500), /*prob=*/1.0, /*magnitude=*/1.5});

  const ReplayResult res = ReplayStream(s, cfg);
  ASSERT_EQ(res.epochs.size(), 9u);  // [0,100) + 8 drain epochs

  // The reaction fired at the window onset: one degrade, one shed.
  EXPECT_EQ(res.overload.degrades, 1u);
  EXPECT_EQ(res.overload.sheds, 1u);
  const EpochStats& fault_epoch = res.epochs[3];  // [300, 400)
  EXPECT_TRUE(fault_epoch.fault_active);
  EXPECT_EQ(fault_epoch.overload.sheds, 1u);
  EXPECT_EQ(fault_epoch.shed_resident, 1u);
  EXPECT_FALSE(res.epochs[0].fault_active);

  // Zero hard misses in EVERY epoch — including the validated-under-
  // spike ones.
  for (const EpochStats& e : res.epochs) {
    EXPECT_TRUE(e.validated);
    EXPECT_EQ(e.hard_misses, 0u) << "[" << ToMillis(e.start) << ", "
                                 << ToMillis(e.end) << ")";
  }

  // Recovery: the shed set drained (the retry re-admitted task 1 at
  // full service once the window closed) and the degrade was either
  // undone by the shed or restored.
  EXPECT_EQ(res.shed_outstanding, 0u);
  EXPECT_EQ(res.overload.shed_restores, 1u);
  EXPECT_EQ(res.epochs.back().shed_resident, 0u);
  EXPECT_EQ(res.epochs.back().degraded_resident, 0u);
  EXPECT_EQ(res.epochs.back().resident, 3u);

  // Conservation: every accepted admit is resident, shed, or left.
  EXPECT_EQ(res.admits, res.final_partition.tasks.size() +
                            res.shed_outstanding + res.leaves);
  // And the standing partition re-validates clean.
  EXPECT_TRUE(partition::AnalyzePartition(res.final_partition,
                                          OverheadModel::Zero())
                  .schedulable);
}

TEST(OverloadReplay, AdmitsAreConservedAcrossResidentShedAndLeft) {
  // Generated soft workload + spike window: the id-conservation law
  // admits == resident + shed_outstanding + leaves must hold exactly.
  StreamConfig scfg;
  scfg.num_admits = 80;
  scfg.leave_fraction = 0.5;
  scfg.soft_fraction = 0.5;
  scfg.seed = 7;
  const WorkloadStream s = GenerateStream(scfg);

  ReplayConfig cfg;
  cfg.controller.admission.num_cores = 2;
  cfg.faults.spikes.push_back(
      SpikeEpoch{Millis(3000), Millis(5000), 0.3, 1.4});
  cfg.drain_epochs = 4;
  const ReplayResult res = ReplayStream(s, cfg);
  EXPECT_EQ(res.admits, res.final_partition.tasks.size() +
                            res.shed_outstanding + res.leaves);
  // Ladder bookkeeping balances: every restore had a shed/degrade.
  EXPECT_GE(res.overload.sheds, res.overload.shed_restores);
  EXPECT_GE(res.overload.degrades, res.overload.degrade_restores);
}

TEST(OverloadReplay, FaultedBatchesAreBitIdenticalForAnyJobCount) {
  StreamConfig scfg;
  scfg.num_admits = 40;
  scfg.leave_fraction = 0.5;
  scfg.soft_fraction = 0.5;
  std::vector<WorkloadStream> streams;
  for (std::uint64_t k = 0; k < 4; ++k) {
    scfg.seed = 1000 + k;
    streams.push_back(GenerateStream(scfg));
  }
  ReplayConfig cfg;
  cfg.controller.admission.num_cores = 2;
  cfg.validate_by_simulation = true;
  cfg.validate_sim.horizon = Millis(150);
  cfg.faults.spikes.push_back(
      SpikeEpoch{Millis(2000), Millis(4000), 0.5, 1.5});
  cfg.faults.storms.push_back(
      BurstStorm{Millis(6000), Millis(7000), 0.9});
  cfg.drain_epochs = 3;

  const std::vector<ReplayResult> serial = ReplayBatch(streams, cfg, 1);
  const std::vector<ReplayResult> pooled = ReplayBatch(streams, cfg, 8);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(DecisionDiff(serial[i], pooled[i]), "") << i;
  }
}

}  // namespace
}  // namespace sps::online
