// Durable online service (DESIGN.md §14): CRC32 vectors, atomic file
// writes, the stream CRC footer, controller snapshot round-trips, the
// crash/recover differential (halt-injection matrix across placement
// policies, scheduling policies and fault windows, every crash point of
// a short stream, a real fork+SIGKILL, and a crash that skips the stdio
// flush, against which no checkpoint may outrun the journal), the
// corrupted-artifact ladder — bit-flipped checkpoints, torn journal
// tails, leftover checkpoint temp files, stale-checkpoint-long-tail,
// wrong-stream or wrong-model fingerprints, format versions that are
// not current —
// and a seeded mutation driver over real checkpoints and journals.
// Recovery must be decision- and byte-identical to the never-crashed
// run; corruption must map to typed errors, never UB.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <ranges>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "online/controller.hpp"
#include "online/durability.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"
#include "util/crc32.hpp"
#include "util/file_io.hpp"
#include "util/rng.hpp"

namespace sps::online {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// util: CRC32 + atomic writes
// ---------------------------------------------------------------------------

TEST(Crc32, KnownVectorsAndIncrementalUpdates) {
  // The IEEE reflected-polynomial check value.
  EXPECT_EQ(util::Crc32Of("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::Crc32Of(""), 0x00000000u);
  EXPECT_EQ(util::Crc32Of("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);

  // Chunked updates equal the one-shot digest.
  util::Crc32 c;
  c.Update("12345");
  c.Update("6789");
  EXPECT_EQ(c.value(), 0xCBF43926u);
}

/// The plain bytewise CRC-32, one bit at a time: the reference the
/// table-driven Update must reproduce.
std::uint32_t BitwiseCrc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesTheBitwiseReferenceAtEveryLengthOffsetAndSplit) {
  util::SplitMix64 rng(20260318);
  std::vector<unsigned char> data(4096 + 8);
  for (unsigned char& b : data) b = static_cast<unsigned char>(rng());
  for (std::size_t len = 0; len <= 4096; ++len) {
    const unsigned char* p = data.data() + rng() % 8;  // any alignment
    const std::uint32_t want = BitwiseCrc32(p, len);
    ASSERT_EQ(util::Crc32Of(p, len), want) << "len=" << len;
    // The same bytes through random incremental splits.
    util::Crc32 c;
    for (std::size_t done = 0; done < len;) {
      const std::size_t step =
          std::min<std::size_t>(len - done, rng() % 24);
      c.Update(p + done, step);
      done += step;
    }
    ASSERT_EQ(c.value(), want) << "len=" << len << " split";
  }
}

TEST(FileIo, AtomicWriteRoundTripsAndFailsWithPathAndReason) {
  const std::string path = ::testing::TempDir() + "atomic_roundtrip.bin";
  const std::string payload("ab\0cd\n\xFFz", 8);  // binary-exact
  std::string err;
  ASSERT_TRUE(util::WriteFileAtomic(path, payload, false, &err)) << err;
  std::string back;
  ASSERT_TRUE(util::ReadFileBytes(path, back, &err)) << err;
  EXPECT_EQ(back, payload);
  // Overwrite is atomic too: afterwards only the new content exists and
  // no temp file is left behind.
  ASSERT_TRUE(util::WriteFileAtomic(path, "second", true, &err)) << err;
  ASSERT_TRUE(util::ReadFileBytes(path, back, &err));
  EXPECT_EQ(back, "second");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::remove(path.c_str());

  err.clear();
  EXPECT_FALSE(util::WriteFileAtomic("/nonexistent/dir/x.bin", "x", false,
                                     &err));
  EXPECT_NE(err.find("/nonexistent/dir/x.bin"), std::string::npos) << err;
  EXPECT_NE(err.find("No such file"), std::string::npos) << err;
}

TEST(FileIo, WriteTextFileIsAtomicAndKeepsTheOldContentOnFailure) {
  const std::string path = ::testing::TempDir() + "atomic_text.txt";
  std::string err;
  ASSERT_TRUE(util::WriteTextFile(path, "hello", &err)) << err;
  std::string back;
  ASSERT_TRUE(util::ReadFileBytes(path, back, &err));
  EXPECT_EQ(back, "hello\n");  // the writer appends the newline
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Stream CRC footer (back-compat pinned)
// ---------------------------------------------------------------------------

WorkloadStream SmallStream(std::uint64_t seed = 7, std::size_t n = 24,
                           double soft = 0.4) {
  StreamConfig cfg;
  cfg.num_admits = n;
  cfg.leave_fraction = 0.5;
  cfg.soft_fraction = soft;
  cfg.seed = seed;
  return GenerateStream(cfg);
}

TEST(StreamCrcFooter, WrittenVerifiedAndCorruptionIsTyped) {
  const WorkloadStream s = SmallStream();
  const std::string path = ::testing::TempDir() + "stream_crc.txt";
  std::string err;
  ASSERT_TRUE(SaveStream(s, path, &err)) << err;

  std::string bytes;
  ASSERT_TRUE(util::ReadFileBytes(path, bytes, &err));
  EXPECT_NE(bytes.find("\n# crc32 "), std::string::npos);

  WorkloadStream loaded;
  ASSERT_TRUE(LoadStream(path, loaded, &err)) << err;
  EXPECT_EQ(s.requests(), loaded.requests());

  // Flip one digit inside a request line: the footer no longer covers
  // the bytes — a typed kCrcMismatch naming the footer's line.
  std::string corrupt = bytes;
  const std::size_t pos = corrupt.find("admit ") + 6;
  corrupt[pos] = corrupt[pos] == '1' ? '2' : '1';
  ASSERT_TRUE(util::WriteFileAtomic(path, corrupt, false, &err));
  StreamError serr;
  // The flip may instead trip the semantic validators (duplicate admit /
  // non-monotone time) before the footer is reached; any of those is a
  // correct rejection, but an untouched-request corruption must land on
  // the CRC check.
  EXPECT_FALSE(LoadStream(path, loaded, &serr));
  EXPECT_NE(serr.kind, StreamError::Kind::kNone);

  // Corrupting only the footer itself is unambiguous.
  std::string bad_footer = bytes;
  const std::size_t f = bad_footer.rfind("# crc32 ");
  bad_footer[f + 8] = bad_footer[f + 8] == 'a' ? 'b' : 'a';
  ASSERT_TRUE(util::WriteFileAtomic(path, bad_footer, false, &err));
  EXPECT_FALSE(LoadStream(path, loaded, &serr));
  EXPECT_EQ(serr.kind, StreamError::Kind::kCrcMismatch);
  EXPECT_NE(serr.message.find("crc32"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StreamCrcFooter, FooterlessFilesStillLoad) {
  // Pre-§14 captures have no footer; they must keep loading unchanged.
  const WorkloadStream s = SmallStream();
  const std::string path = ::testing::TempDir() + "stream_nofooter.txt";
  std::string err;
  ASSERT_TRUE(SaveStream(s, path, &err)) << err;
  std::string bytes;
  ASSERT_TRUE(util::ReadFileBytes(path, bytes, &err));
  const std::size_t f = bytes.rfind("# crc32 ");
  ASSERT_NE(f, std::string::npos);
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes.substr(0, f), false, &err));
  WorkloadStream loaded;
  ASSERT_TRUE(LoadStream(path, loaded, &err)) << err;
  EXPECT_EQ(s.requests(), loaded.requests());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Controller snapshot round-trip
// ---------------------------------------------------------------------------

ControllerConfig MakeControllerConfig(
    PlacePolicy place = PlacePolicy::kFirstFit,
    partition::SchedPolicy policy = partition::SchedPolicy::kEdf) {
  ControllerConfig cfg;
  cfg.admission.num_cores = 3;
  cfg.admission.policy = policy;
  cfg.admission.memo.enabled = false;
  cfg.place = place;
  cfg.unsplit_on_leave = true;
  return cfg;
}

TEST(ControllerSnapshot, RoundTripPreservesEveryFutureDecision) {
  const WorkloadStream s = SmallStream(11, 32);
  const ControllerConfig cfg = MakeControllerConfig();
  Controller a(cfg);
  const auto& reqs = s.requests();
  const std::size_t half = reqs.size() / 2;
  std::vector<rt::TaskId> admitted;  // what the journal's ADMITs give
  for (std::size_t i = 0; i < half; ++i) {
    if (reqs[i].kind == RequestKind::kAdmit) {
      if (a.Admit(reqs[i].task).accepted) admitted.push_back(reqs[i].id);
    } else {
      (void)a.Leave(reqs[i].id);
    }
  }
  a.AdvanceEpoch(false);

  Controller b(cfg);
  ASSERT_TRUE(b.ImportState(a.ExportState(), admitted));
  EXPECT_EQ(b.resident(), a.resident());
  EXPECT_EQ(b.total_utilization(), a.total_utilization());  // exact bits
  EXPECT_EQ(b.ExecGenerations(), a.ExecGenerations());

  // Both controllers must now make IDENTICAL decisions on the tail.
  for (std::size_t i = half; i < reqs.size(); ++i) {
    if (reqs[i].kind == RequestKind::kAdmit) {
      const AdmitOutcome oa = a.Admit(reqs[i].task);
      const AdmitOutcome ob = b.Admit(reqs[i].task);
      EXPECT_EQ(oa.accepted, ob.accepted) << "request " << i;
      EXPECT_EQ(oa.parts, ob.parts) << "request " << i;
    } else {
      EXPECT_EQ(a.Leave(reqs[i].id), b.Leave(reqs[i].id)) << "request " << i;
    }
  }
  a.AdvanceEpoch(false);
  b.AdvanceEpoch(false);
  EXPECT_EQ(a.CurrentPartition().summary(), b.CurrentPartition().summary());
  EXPECT_EQ(a.ExecGenerations(), b.ExecGenerations());
  EXPECT_EQ(a.churn(), b.churn());
  EXPECT_EQ(a.overload_stats(), b.overload_stats());
}

TEST(ControllerSnapshot, RoundTripKeepsDegradedAndBackedOffShedState) {
  // One core: the ladder degrades task 1 and sheds task 2 to admit task
  // 3, and an epoch later task 2's re-admission probe fails, so the
  // snapshot holds a degraded resident and a shed task mid-backoff.
  ControllerConfig cfg;
  cfg.admission.num_cores = 1;
  cfg.admission.memo.enabled = false;  // memo counters are cache state
  cfg.allow_split = false;
  cfg.repartition_fallback = false;
  const Time T = Millis(100);
  Controller a(cfg);
  ASSERT_TRUE(a.Admit(rt::MakeTask(0, Millis(50), T)).accepted);
  ASSERT_TRUE(
      a.Admit(rt::MakeSoftTask(1, Millis(30), T, 1, T, Millis(15))).accepted);
  ASSERT_TRUE(a.Admit(rt::MakeSoftTask(2, Millis(20), T, 0, T)).accepted);
  ASSERT_TRUE(a.Admit(rt::MakeTask(3, Millis(25), T)).via_ladder);
  a.AdvanceEpoch(false);
  ASSERT_EQ(a.degraded_resident(), 1u);
  ASSERT_EQ(a.shed_resident(), 1u);
  ASSERT_EQ(a.overload_stats().retry_attempts, 1u);

  const ControllerSnapshot snap = a.ExportState();
  Controller b(cfg);
  ASSERT_TRUE(b.ImportState(snap, std::vector<rt::TaskId>{0, 1, 2, 3}));
  EXPECT_EQ(b.ExportState(), snap);
  EXPECT_EQ(b.degraded_resident(), 1u);
  EXPECT_EQ(b.shed_resident(), 1u);

  // The backoff, the shed retry and the degraded restore it frees, and
  // the admits after them decide identically.
  for (Controller* c : {&a, &b}) {
    c->AdvanceEpoch(false);  // backoff: no retry yet
    EXPECT_EQ(c->shed_resident(), 1u);
    EXPECT_TRUE(c->Leave(3));
    c->AdvanceEpoch(false);  // retry re-admits 2, then 1 is restored
    EXPECT_EQ(c->shed_resident(), 0u);
    EXPECT_EQ(c->degraded_resident(), 0u);
  }
  EXPECT_EQ(b.ExportState(), a.ExportState());
  for (rt::TaskId id = 4; id < 8; ++id) {
    const rt::Task t = rt::MakeSoftTask(id, Millis(10), T, id, T, Millis(5));
    const AdmitOutcome oa = a.Admit(t);
    const AdmitOutcome ob = b.Admit(t);
    EXPECT_EQ(oa.accepted, ob.accepted) << id;
    EXPECT_EQ(oa.via_ladder, ob.via_ladder) << id;
    EXPECT_EQ(oa.parts, ob.parts) << id;
  }
  EXPECT_EQ(b.ExportState(), a.ExportState());
  EXPECT_EQ(b.ExecGenerations(), a.ExecGenerations());
}

TEST(ControllerSnapshot, ImportRejectsMismatchedCoreLayout) {
  Controller a(MakeControllerConfig());
  const ControllerSnapshot snap = a.ExportState();
  ControllerConfig other = MakeControllerConfig();
  other.admission.num_cores = 5;
  Controller b(other);
  EXPECT_FALSE(b.ImportState(snap, {}));
  ControllerConfig fp = MakeControllerConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kFixedPriority);
  Controller c(fp);
  EXPECT_FALSE(c.ImportState(snap, {}));
}

TEST(ControllerSnapshot, ImportRejectsIdsNoAdmissionCreated) {
  // Residents, shed tasks and generation entries all come from accepted
  // admissions, so a snapshot naming an id outside `admitted` is
  // refused (the durable replay reports kStateMismatch).
  Controller a(MakeControllerConfig());
  ASSERT_TRUE(a.Admit(rt::MakeTask(7, Millis(1), Millis(10))).accepted);
  ASSERT_TRUE(a.Leave(7));
  ASSERT_TRUE(a.Admit(rt::MakeTask(7, Millis(1), Millis(10))).accepted);
  ASSERT_TRUE(a.Admit(rt::MakeTask(9, Millis(1), Millis(10))).accepted);
  const ControllerSnapshot snap = a.ExportState();
  ASSERT_EQ(snap.generation_of.size(), 1u);  // only the re-admitted id
  EXPECT_EQ(*snap.generation_of.begin(), (std::pair<const rt::TaskId,
                                                    std::uint32_t>{7, 1}));
  const std::vector<rt::TaskId> both = {7, 9};
  Controller b(MakeControllerConfig());
  ASSERT_TRUE(b.ImportState(snap, both));
  EXPECT_EQ(b.ExecGenerations(), a.ExecGenerations());
  for (const std::vector<rt::TaskId>& partial :
       {std::vector<rt::TaskId>{7}, std::vector<rt::TaskId>{9}}) {
    Controller c(MakeControllerConfig());
    EXPECT_FALSE(c.ImportState(snap, partial));
  }
  ControllerSnapshot gen0 = snap;
  gen0.generation_of.begin()->second = 0;  // not a sparse entry
  Controller d(MakeControllerConfig());
  EXPECT_FALSE(d.ImportState(gen0, both));
}

// ---------------------------------------------------------------------------
// Crash / recover differential
// ---------------------------------------------------------------------------

ReplayConfig MakeReplayConfig(PlacePolicy place,
                              partition::SchedPolicy policy, bool faults,
                              bool validate = false) {
  ReplayConfig cfg;
  cfg.controller = MakeControllerConfig(place, policy);
  cfg.epoch = Millis(1000);
  cfg.seed = 97;
  cfg.drain_epochs = 2;
  if (faults) {
    cfg.faults.spikes.push_back(
        SpikeEpoch{Millis(2000), Millis(4000), 0.3, 1.4});
  }
  if (validate) {
    cfg.validate_by_simulation = true;
    cfg.validate_sim.horizon = Millis(50);
  }
  return cfg;
}

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "sps_dur_" + tag;
  fs::remove_all(dir);
  return dir;
}

/// Run to completion plain; run durable halting after `halt` appends;
/// recover from the artifacts; expect the stitched run == the plain run.
void RunHaltRecoverDifferential(const ReplayConfig& base,
                                const WorkloadStream& s,
                                std::uint32_t halt, std::uint32_t every,
                                const std::string& tag) {
  SCOPED_TRACE(tag + " halt=" + std::to_string(halt));
  const ReplayResult plain = ReplayStream(s, base);

  ReplayConfig durable = base;
  durable.durability.dir = FreshDir(tag);
  durable.durability.checkpoint_every = every;
  durable.durability.halt_after_appends = halt;
  const ReplayResult crashed = ReplayStream(s, durable);
  ASSERT_TRUE(crashed.durability_error.ok())
      << crashed.durability_error.message;
  ASSERT_TRUE(crashed.recovery.halted_by_injection);

  ReplayConfig rec = base;
  rec.durability.dir = durable.durability.dir;
  rec.durability.checkpoint_every = every;
  rec.durability.recover = true;
  const ReplayResult recovered = ReplayStream(s, rec);
  ASSERT_TRUE(recovered.durability_error.ok())
      << recovered.durability_error.message;
  EXPECT_TRUE(recovered.recovery.attempted);
  EXPECT_EQ(DecisionDiff(plain, recovered), "");
  fs::remove_all(durable.durability.dir);
}

TEST(CrashRecovery, DifferentialAcrossPlacementsPoliciesAndFaults) {
  const WorkloadStream s = SmallStream(23, 40);
  int n = 0;
  for (const PlacePolicy place :
       {PlacePolicy::kFirstFit, PlacePolicy::kWorstFit,
        PlacePolicy::kSpaOrder}) {
    for (const partition::SchedPolicy policy :
         {partition::SchedPolicy::kEdf,
          partition::SchedPolicy::kFixedPriority}) {
      for (const bool faults : {false, true}) {
        const ReplayConfig cfg = MakeReplayConfig(place, policy, faults);
        const std::string tag = std::string(ToString(place)) +
                                (policy == partition::SchedPolicy::kEdf
                                     ? "_edf"
                                     : "_fp") +
                                (faults ? "_flt" : "") + std::to_string(n);
        // Early crash (journal-dominated redo) and late crash
        // (checkpoint-dominated).
        RunHaltRecoverDifferential(cfg, s, 5, 2, tag);
        RunHaltRecoverDifferential(cfg, s, 35, 2, tag);
        ++n;
      }
    }
  }
}

TEST(CrashRecovery, DifferentialWithEpochValidationAndMemoOn) {
  // Validation simulations (exec generations included) and a warm memo
  // must not perturb the recovered decisions or the per-epoch rows.
  const WorkloadStream s = SmallStream(31, 28);
  ReplayConfig cfg = MakeReplayConfig(PlacePolicy::kFirstFit,
                                      partition::SchedPolicy::kEdf,
                                      /*faults=*/true, /*validate=*/true);
  cfg.controller.admission.memo.enabled = true;
  RunHaltRecoverDifferential(cfg, s, 12, 3, "validated");
}

TEST(CrashRecovery, StaleCheckpointWithLongJournalTail) {
  // A sparse checkpoint cadence forces recovery to redo a long journal
  // tail — the redo cross-check path, not the checkpoint fast path.
  const WorkloadStream s = SmallStream(41, 40);
  const ReplayConfig cfg = MakeReplayConfig(
      PlacePolicy::kWorstFit, partition::SchedPolicy::kEdf, true);
  RunHaltRecoverDifferential(cfg, s, 48, 16, "staletail");
}

TEST(CrashRecovery, EveryCrashPointOfAShortStream) {
  // Halt after every journal append of one short stream, fault windows
  // on, and recover each time.
  const WorkloadStream s = SmallStream(23, 24);
  for (const partition::SchedPolicy policy :
       {partition::SchedPolicy::kEdf,
        partition::SchedPolicy::kFixedPriority}) {
    const ReplayConfig cfg =
        MakeReplayConfig(PlacePolicy::kFirstFit, policy, /*faults=*/true);
    const std::string tag =
        policy == partition::SchedPolicy::kEdf ? "every_edf" : "every_fp";
    for (std::uint32_t halt = 1; halt <= s.size(); ++halt) {
      RunHaltRecoverDifferential(cfg, s, halt, 2, tag);
    }
  }
}

Request AdmitAt(Time at, const rt::Task& t) {
  Request r;
  r.kind = RequestKind::kAdmit;
  r.at = at;
  r.id = t.id;
  r.task = t;
  return r;
}

Request LeaveAt(Time at, rt::TaskId id) {
  Request r;
  r.kind = RequestKind::kLeave;
  r.at = at;
  r.id = id;
  return r;
}

/// Six soft tasks fill three cores; each hard arrival sheds the newest
/// soft one, which comes back once the hard task leaves; and ids 1 and
/// 2 leave and return. Admission generations reach 1 and 2.
WorkloadStream ReadmissionStream() {
  const auto soft = [](rt::TaskId id) {
    return rt::MakeSoftTask(id, Millis(45), Millis(100), 1, Millis(100));
  };
  std::vector<Request> reqs;
  for (rt::TaskId id = 1; id <= 6; ++id) {
    reqs.push_back(AdmitAt(Millis(10 * id), soft(id)));
  }
  for (const Time at : {Millis(1100), Millis(5100)}) {
    const rt::TaskId hard = static_cast<rt::TaskId>(10 + at / Millis(1000));
    reqs.push_back(AdmitAt(at, rt::MakeTask(hard, Millis(50), Millis(100))));
    reqs.push_back(LeaveAt(at + Millis(1000), hard));
  }
  for (const auto& [at, id] : {std::pair{Millis(2200), 1u},
                               std::pair{Millis(3200), 2u},
                               std::pair{Millis(4200), 1u},
                               std::pair{Millis(8200), 2u}}) {
    reqs.push_back(LeaveAt(at, id));
    reqs.push_back(AdmitAt(at + Millis(100), soft(id)));
  }
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const Request& a, const Request& b) {
                     return a.at < b.at;
                   });
  return WorkloadStream{std::move(reqs)};
}

TEST(CrashRecovery, EveryCrashPointWithReadmissionsAndShedRestores) {
  // Generations >= 1 are the only ones a checkpoint stores; the rest
  // come back from the journal's accepted ADMITs. Validation draws
  // spiky execution times from RNG streams that each generation
  // re-derives, so a wrong generation after recovery moves the epochs'
  // miss counts.
  const WorkloadStream s = ReadmissionStream();
  ReplayConfig cfg =
      MakeReplayConfig(PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf,
                       /*faults=*/false, /*validate=*/true);
  cfg.validate_sim.horizon = Millis(400);
  cfg.validate_sim.exec.kind = sim::ExecModel::Kind::kSpiky;
  cfg.validate_sim.exec.spike_prob = 0.5;
  cfg.validate_sim.exec.spike_magnitude = 2.0;
  const ReplayResult plain = ReplayStream(s, cfg);
  ASSERT_GE(plain.overload.sheds, 2u);
  ASSERT_GE(plain.overload.shed_restores, 2u);
  ASSERT_EQ(plain.rejects, 0u);
  std::uint64_t misses = 0;
  for (const EpochStats& e : plain.epochs) misses += e.sim_misses;
  ASSERT_GT(misses, 0u);
  for (std::uint32_t halt = 1; halt <= s.size(); ++halt) {
    RunHaltRecoverDifferential(cfg, s, halt, 1, "readmit");
  }
}

/// The epoch index in a ckpt-<epoch>.sps path.
std::uint64_t CheckpointEpoch(const std::string& path) {
  const std::string name = fs::path(path).stem().string();
  return std::stoull(name.substr(name.find('-') + 1));
}

TEST(CrashRecovery, EveryCrashPointWithDeferredEpochRows) {
  // With validation on, a closed epoch's row waits for its batch of
  // validation simulations, which runs while the replay goes on, so it
  // lands in the journal after later request records. A checkpoint's
  // state is taken at epoch entry but its file is written only once the
  // rows before the cut are journaled. A checkpoint every 12 epochs
  // against 16-row batches puts crash points inside a batch, at a
  // launch, and between a checkpoint's entry and its write. A clean
  // halt leaves a whole journal, so recovery truncates nothing, skips
  // no checkpoint, resumes from the newest one, and reproduces every
  // row.
  StreamConfig sc;
  sc.num_admits = 30;
  sc.span = Millis(9000);
  sc.soft_fraction = 0.4;
  sc.seed = 71;
  const WorkloadStream s = GenerateStream(sc);
  ReplayConfig cfg =
      MakeReplayConfig(PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf,
                       /*faults=*/true, /*validate=*/true);
  cfg.epoch = Millis(200);
  cfg.validate_sim.horizon = Millis(30);
  const ReplayResult plain = ReplayStream(s, cfg);
  ASSERT_GT(plain.epochs.size(), 36u);
  constexpr std::uint32_t kEvery = 12;
  // The cut a checkpoint at epoch k names: the requests before the
  // epoch's start and the rows closed before it.
  const auto cut = [&](std::uint64_t k) {
    const Time start = static_cast<Time>(k) * cfg.epoch;
    std::uint64_t requests = 0;
    while (requests < s.size() && s.requests()[requests].at < start) {
      ++requests;
    }
    std::uint64_t rows = 0;
    while (rows < plain.epochs.size() && plain.epochs[rows].start < start) {
      ++rows;
    }
    return std::pair{requests, rows};
  };
  std::size_t deferred = 0;
  std::size_t resumed = 0;
  std::size_t unwritten = 0;
  for (std::uint32_t halt = 1; halt <= s.size(); ++halt) {
    SCOPED_TRACE("halt=" + std::to_string(halt));
    ReplayConfig durable = cfg;
    durable.durability.dir = FreshDir("deferred");
    durable.durability.checkpoint_every = kEvery;
    durable.durability.halt_after_appends = halt;
    const ReplayResult crashed = ReplayStream(s, durable);
    ASSERT_TRUE(crashed.durability_error.ok())
        << crashed.durability_error.message;
    ASSERT_TRUE(crashed.recovery.halted_by_injection);
    JournalScan scan;
    ASSERT_TRUE(ScanJournal(durable.durability.dir + "/journal.wal", scan));
    if (scan.epoch_rows < crashed.epochs.size()) ++deferred;
    // No checkpoint on disk outruns the journal.
    const std::vector<std::string> on_disk =
        ListCheckpoints(durable.durability.dir);
    for (const std::string& path : on_disk) {
      const auto [requests, rows] = cut(CheckpointEpoch(path));
      EXPECT_LE(requests, scan.records) << path;
      EXPECT_LE(rows, scan.epoch_rows) << path;
    }
    // The halted run entered the epoch after its last closed row; a
    // checkpoint due at or before that entry and newer than every file
    // was taken and not yet written.
    const std::uint64_t entered = crashed.epochs.size();
    const std::uint64_t newest_taken = entered - entered % kEvery;
    const std::uint64_t newest_written =
        on_disk.empty() ? 0 : CheckpointEpoch(on_disk.front());
    if (newest_taken > newest_written) ++unwritten;

    ReplayConfig rec = cfg;
    rec.durability.dir = durable.durability.dir;
    rec.durability.checkpoint_every = kEvery;
    rec.durability.recover = true;
    const ReplayResult recovered = ReplayStream(s, rec);
    ASSERT_TRUE(recovered.durability_error.ok())
        << recovered.durability_error.message;
    EXPECT_EQ(recovered.recovery.journal_truncated_bytes, 0u);
    EXPECT_EQ(recovered.recovery.checkpoints_skipped(), 0u);
    EXPECT_EQ(recovered.recovery.recovered, !on_disk.empty());
    EXPECT_EQ(DecisionDiff(plain, recovered), "");
    if (recovered.recovery.recovered) ++resumed;
    fs::remove_all(durable.durability.dir);
  }
  // Most crash points leave closed rows that were never journaled, some
  // leave a checkpoint taken but unwritten, and the later ones resume
  // from a checkpoint.
  EXPECT_GT(deferred, s.size() / 2);
  EXPECT_GT(unwritten, 0u);
  EXPECT_GT(resumed, 0u);
}

TEST(CrashRecovery, EmptyDirectoryRecoversFromScratch) {
  const WorkloadStream s = SmallStream(5, 16);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  ReplayConfig rec = base;
  rec.durability.dir = FreshDir("emptydir");
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_TRUE(r.recovery.attempted);
  EXPECT_FALSE(r.recovery.recovered);
  EXPECT_EQ(r.recovery.journal_records, 0u);
  EXPECT_EQ(DecisionDiff(plain, r), "");
  fs::remove_all(rec.durability.dir);
}

TEST(CrashRecovery, SigkillMidReplayThenRecover) {
  // The real thing: a forked child replays with crash injection and dies
  // by SIGKILL mid-service; the parent recovers from its artifacts.
  const WorkloadStream s = SmallStream(53, 36);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, true);
  const ReplayResult plain = ReplayStream(s, base);

  ReplayConfig crash = base;
  crash.durability.dir = FreshDir("sigkill");
  crash.durability.checkpoint_every = 2;
  crash.durability.crash_after_appends = 20;
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    (void)ReplayStream(s, crash);  // raises SIGKILL at append 20
    _exit(3);                      // only reached if injection failed
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  ReplayConfig rec = base;
  rec.durability.dir = crash.durability.dir;
  rec.durability.recover = true;
  const ReplayResult recovered = ReplayStream(s, rec);
  ASSERT_TRUE(recovered.durability_error.ok())
      << recovered.durability_error.message;
  EXPECT_TRUE(recovered.recovery.recovered);
  EXPECT_GE(recovered.recovery.journal_records, 20u);
  EXPECT_EQ(DecisionDiff(plain, recovered), "");
  fs::remove_all(crash.durability.dir);
}

TEST(CrashRecovery, CheckpointNeverOutrunsTheJournal) {
  // A real crash loses whatever sits in the journal's stdio buffer. A
  // forked child replays with fsync off and a checkpoint at every epoch
  // entry, and dies by _exit (which skips the stdio flush) once epoch 2
  // closes, after two checkpoints were written. Every request the
  // loaded checkpoint covers must have its record in the journal.
  const WorkloadStream s = SmallStream(53, 36);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);

  ReplayConfig crash = base;
  crash.durability.dir = FreshDir("outrun");
  crash.durability.checkpoint_every = 1;
  crash.durability.fsync = FsyncPolicy::kOff;
  crash.obs.on_epoch = [](std::size_t epoch, const EpochStats&,
                          const ReplayResult&) {
    if (epoch >= 2) _exit(0);
  };
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    (void)ReplayStream(s, crash);  // exits at epoch 2
    _exit(3);                      // only reached if the hook never ran
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  ReplayConfig rec = base;
  rec.durability.dir = crash.durability.dir;
  rec.durability.recover = true;
  const ReplayResult recovered = ReplayStream(s, rec);
  ASSERT_TRUE(recovered.durability_error.ok())
      << recovered.durability_error.message;
  ASSERT_TRUE(recovered.recovery.recovered);
  EXPECT_GT(recovered.recovery.resume_seq, 0u);
  EXPECT_GE(recovered.recovery.journal_records,
            recovered.recovery.resume_seq);
  EXPECT_EQ(DecisionDiff(plain, recovered), "");
  fs::remove_all(crash.durability.dir);
}

// ---------------------------------------------------------------------------
// Corrupted artifacts: typed errors or correct recovery, never UB
// ---------------------------------------------------------------------------

/// Leave crash artifacts in a fresh dir and return it.
std::string MakeCrashArtifacts(const WorkloadStream& s,
                               const ReplayConfig& base, std::uint32_t halt,
                               std::uint32_t every, const std::string& tag) {
  ReplayConfig durable = base;
  durable.durability.dir = FreshDir(tag);
  durable.durability.checkpoint_every = every;
  durable.durability.halt_after_appends = halt;
  const ReplayResult r = ReplayStream(s, durable);
  EXPECT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  return durable.durability.dir;
}

void FlipByteAt(const std::string& path, std::size_t offset) {
  std::string bytes;
  std::string err;
  ASSERT_TRUE(util::ReadFileBytes(path, bytes, &err)) << err;
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes, false, &err)) << err;
}

void SetByteAt(const std::string& path, std::size_t offset, char value) {
  std::string bytes;
  std::string err;
  ASSERT_TRUE(util::ReadFileBytes(path, bytes, &err)) << err;
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = value;
  ASSERT_TRUE(util::WriteFileAtomic(path, bytes, false, &err)) << err;
}

/// One journal record frame: [len u32][payload][crc u32] after the
/// 20-byte header; the payload's first byte is the record kind (0 a
/// request, 1 an epoch row).
struct JournalFrame {
  std::size_t payload = 0;  ///< offset of the payload
  std::uint32_t len = 0;
  char kind = 0;
};

std::uint32_t U32At(const std::string& bytes, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + i]))
         << (8 * i);
  }
  return v;
}

std::string U32Bytes(std::uint32_t v) {
  std::string out(4, '\0');
  for (std::size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
  }
  return out;
}

/// The frames of an intact journal, in file order.
std::vector<JournalFrame> JournalFrames(const std::string& bytes) {
  std::vector<JournalFrame> frames;
  for (std::size_t pos = 20; pos + 4 <= bytes.size();) {
    const std::uint32_t len = U32At(bytes, pos);
    frames.push_back(JournalFrame{pos + 4, len, bytes[pos + 4]});
    pos += 4 + len + 4;
  }
  return frames;
}

/// Recompute one frame's CRC, so a mutation of its payload reaches the
/// record decoder instead of stopping at the frame check.
void ResealFrame(std::string& bytes, const JournalFrame& f) {
  bytes.replace(f.payload + f.len, 4,
                U32Bytes(util::Crc32Of(
                    std::string_view(bytes).substr(f.payload, f.len))));
}

/// A record frame around `payload`, its CRC valid.
std::string FrameBytes(const std::string& payload) {
  return U32Bytes(static_cast<std::uint32_t>(payload.size())) + payload +
         U32Bytes(util::Crc32Of(payload));
}

TEST(CorruptArtifacts, JournalOfAnotherFormatVersionIsATypedError) {
  // Byte 7 of the journal is its format version (2). Any other version,
  // the previous one (1, without epoch-row records) included, fails
  // recovery there, before the header CRC is read.
  const WorkloadStream s = SmallStream(83, 24);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  for (const char version : {'\x01', '\x03'}) {
    SCOPED_TRACE(static_cast<int>(version));
    const std::string dir = MakeCrashArtifacts(s, base, 15, 2, "jrnlver");
    SetByteAt(dir + "/journal.wal", 7, version);
    ReplayConfig rec = base;
    rec.durability.dir = dir;
    rec.durability.recover = true;
    const ReplayResult r = ReplayStream(s, rec);
    EXPECT_EQ(r.durability_error.kind, DurabilityError::Kind::kBadVersion);
    EXPECT_EQ(r.durability_error.offset, 7u);
    EXPECT_EQ(r.durability_error.path, dir + "/journal.wal");
    fs::remove_all(dir);
  }
}

TEST(CorruptArtifacts, CheckpointOfTheOldFormatVersionIsSkipped) {
  // Version 4 checkpoints stored a Zobrist hash per fixed-priority core;
  // version 5 stores none. A version-4 newest checkpoint is skipped like
  // a corrupt one: recovery loads the older checkpoint and redoes the
  // rest.
  const WorkloadStream s = SmallStream(61, 40);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  const std::string dir = MakeCrashArtifacts(s, base, 35, 2, "ckptver");

  const std::vector<std::string> ckpts = ListCheckpoints(dir);
  ASSERT_GE(ckpts.size(), 2u);
  SetByteAt(ckpts.front(), 7, '\x04');

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_TRUE(r.recovery.recovered);
  EXPECT_EQ(r.recovery.skipped, std::vector<DurabilityError::Kind>{
                                    DurabilityError::Kind::kBadVersion});
  EXPECT_EQ(DecisionDiff(plain, r), "");
  fs::remove_all(dir);
}

/// `t` as a checkpoint encodes it (little-endian, field by field).
std::string TaskBytes(const rt::Task& t) {
  std::string out;
  const auto put = [&out](std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
    }
  };
  put(t.id, 4);
  put(static_cast<std::uint64_t>(t.wcet), 8);
  put(static_cast<std::uint64_t>(t.period), 8);
  put(static_cast<std::uint64_t>(t.deadline), 8);
  put(t.priority, 4);
  put(t.soft() ? 1 : 0, 1);
  put(static_cast<std::uint64_t>(t.tardiness_bound), 8);
  put(static_cast<std::uint64_t>(t.degraded_wcet), 8);
  put(t.value, 4);
  return out;
}

TEST(CorruptArtifacts, FpCheckpointWithTasksSwappedAcrossCoresIsSkipped) {
  // Two fixed-priority residents on different cores trade places in the
  // per-core task lists, and the CRC is resealed. Every core keeps its
  // task count, so only the check of each core's tasks against the
  // residents placed on it can tell: the newest checkpoint is skipped as
  // kStateMismatch and recovery loads the older one.
  const WorkloadStream s = SmallStream(61, 40, /*soft=*/0.0);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kFixedPriority, false);
  const ReplayResult plain = ReplayStream(s, base);
  const std::string dir = MakeCrashArtifacts(s, base, 35, 2, "fpswap");
  const std::vector<std::string> ckpts = ListCheckpoints(dir);
  ASSERT_GE(ckpts.size(), 2u);
  std::string bytes;
  std::string err;
  ASSERT_TRUE(util::ReadFileBytes(ckpts.front(), bytes, &err)) << err;

  // A resident's task is encoded first in the resident ledger, followed
  // by its part count and first part's core, and last in its core's
  // task list.
  struct OnCore {
    std::size_t at = 0;
    std::uint32_t core = 0;
  };
  std::vector<OnCore> found;
  for (const Request& r : s.requests()) {
    if (r.kind != RequestKind::kAdmit) continue;
    const std::string tb = TaskBytes(r.task);
    const std::size_t first = bytes.find(tb);
    const std::size_t last = bytes.rfind(tb);
    if (first == std::string::npos || first == last) continue;
    ASSERT_EQ(U32At(bytes, first + tb.size()), 1u);  // one part
    found.push_back({last, U32At(bytes, first + tb.size() + 4)});
  }
  const auto other = std::ranges::find_if(found, [&](const OnCore& f) {
    return f.core != found.front().core;
  });
  ASSERT_NE(other, found.end());
  const std::size_t len = TaskBytes(rt::Task{}).size();
  const std::string a = bytes.substr(found.front().at, len);
  bytes.replace(found.front().at, len, bytes.substr(other->at, len));
  bytes.replace(other->at, len, a);
  const std::size_t body = bytes.size() - 4;
  bytes.replace(body, 4, U32Bytes(util::Crc32Of(
                             std::string_view(bytes).substr(0, body))));
  ASSERT_TRUE(util::WriteFileAtomic(ckpts.front(), bytes, false, &err)) << err;

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_TRUE(r.recovery.recovered);
  EXPECT_EQ(r.recovery.skipped, std::vector<DurabilityError::Kind>{
                                    DurabilityError::Kind::kStateMismatch});
  EXPECT_EQ(DecisionDiff(plain, r), "");
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, BitFlippedCheckpointFallsBackToOlderOne) {
  const WorkloadStream s = SmallStream(61, 40);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  const std::string dir = MakeCrashArtifacts(s, base, 35, 2, "flipckpt");

  const std::vector<std::string> ckpts = ListCheckpoints(dir);
  ASSERT_GE(ckpts.size(), 2u);
  FlipByteAt(ckpts.front(), fs::file_size(ckpts.front()) / 2);

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_TRUE(r.recovery.recovered);
  EXPECT_EQ(r.recovery.skipped, std::vector<DurabilityError::Kind>{
                                    DurabilityError::Kind::kCrcMismatch});
  EXPECT_EQ(DecisionDiff(plain, r), "");
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, AllCheckpointsCorruptRecoversFromJournalAlone) {
  const WorkloadStream s = SmallStream(67, 32);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kWorstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  const std::string dir = MakeCrashArtifacts(s, base, 30, 2, "allcorrupt");

  for (const std::string& p : ListCheckpoints(dir)) {
    FlipByteAt(p, fs::file_size(p) / 3);
  }
  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_FALSE(r.recovery.recovered);  // scratch redo
  EXPECT_GE(r.recovery.checkpoints_skipped(), 1u);
  EXPECT_EQ(DecisionDiff(plain, r), "");
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, TornJournalTailIsTruncatedAndRecovered) {
  const WorkloadStream s = SmallStream(71, 32);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  const std::string dir = MakeCrashArtifacts(s, base, 25, 4, "torn");

  // Tear the tail: chop the last 5 bytes (mid-record), then append
  // garbage that can't frame — both must be dropped at the last valid
  // record boundary.
  const std::string journal = dir + "/journal.wal";
  std::string bytes;
  std::string err;
  ASSERT_TRUE(util::ReadFileBytes(journal, bytes, &err));
  const std::string torn = bytes.substr(0, bytes.size() - 5) + "GARBAGE!";
  ASSERT_TRUE(util::WriteFileAtomic(journal, torn, false, &err));

  JournalScan scan;
  ASSERT_TRUE(ScanJournal(journal, scan));
  EXPECT_LT(scan.valid_bytes, scan.total_bytes);
  EXPECT_GE(scan.records, 1u);

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_GT(r.recovery.journal_truncated_bytes, 0u);
  EXPECT_EQ(DecisionDiff(plain, r), "");
  // The torn tail was physically truncated and the redo re-appended the
  // lost suffix: the journal now frame-validates end to end.
  JournalScan after;
  ASSERT_TRUE(ScanJournal(journal, after));
  EXPECT_EQ(after.valid_bytes, after.total_bytes);
  EXPECT_GT(after.records, scan.records);
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, StaleCheckpointTempFileIsIgnored) {
  // A crash after a checkpoint's temp write and before its rename leaves
  // ckpt-<E>.sps.tmp, E newer than every real checkpoint. Recovery must
  // load the newest real checkpoint, and a fresh run must not trip on
  // the leftover, whether the temp holds a torn prefix of the newest
  // checkpoint or a full copy of the oldest (so that reading it would
  // show in checkpoint_epoch).
  const WorkloadStream s = SmallStream(79, 32);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  for (const bool full_copy : {false, true}) {
    SCOPED_TRACE(full_copy ? "full copy" : "torn prefix");
    const std::string dir = MakeCrashArtifacts(
        s, base, 25, 2, full_copy ? "tmpfull" : "tmptorn");
    const std::vector<std::string> ckpts = ListCheckpoints(dir);
    ASSERT_GE(ckpts.size(), 2u);
    unsigned long long newest = 0;
    ASSERT_EQ(std::sscanf(fs::path(ckpts.front()).filename().c_str(),
                          "ckpt-%10llu.sps", &newest),
              1);
    std::string bytes;
    std::string err;
    ASSERT_TRUE(util::ReadFileBytes(
        full_copy ? ckpts.back() : ckpts.front(), bytes, &err))
        << err;
    if (!full_copy) bytes.resize(bytes.size() / 2);
    char name[40];
    std::snprintf(name, sizeof(name), "/ckpt-%010llu.sps.tmp", newest + 1);
    ASSERT_TRUE(util::WriteFileAtomic(dir + name, bytes, false, &err))
        << err;

    ReplayConfig rec = base;
    rec.durability.dir = dir;
    rec.durability.checkpoint_every = 2;
    rec.durability.recover = true;
    const ReplayResult r = ReplayStream(s, rec);
    ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
    EXPECT_TRUE(r.recovery.recovered);
    EXPECT_EQ(r.recovery.checkpoint_epoch, newest);
    EXPECT_EQ(r.recovery.checkpoints_skipped(), 0u);
    EXPECT_EQ(DecisionDiff(plain, r), "");

    ReplayConfig fresh = rec;
    fresh.durability.recover = false;
    const ReplayResult f = ReplayStream(s, fresh);
    ASSERT_TRUE(f.durability_error.ok()) << f.durability_error.message;
    EXPECT_EQ(DecisionDiff(plain, f), "");
    fs::remove_all(dir);
  }
}

TEST(CorruptArtifacts, JournalRecordDivergenceIsATypedError) {
  // A record whose CRC verifies but whose decision was tampered with:
  // the redo cross-check must refuse to silently absorb it.
  const WorkloadStream s = SmallStream(73, 24);
  ReplayConfig base = MakeReplayConfig(PlacePolicy::kFirstFit,
                                       partition::SchedPolicy::kEdf, false);
  const std::string dir = MakeCrashArtifacts(s, base, 15, 0, "diverge");

  const std::string journal = dir + "/journal.wal";
  std::string bytes;
  std::string err;
  ASSERT_TRUE(util::ReadFileBytes(journal, bytes, &err));
  // Flip the first record's flags byte (payload offset 10, after the
  // kind byte and the seq) and re-seal its CRC so the framing stays
  // valid.
  const std::vector<JournalFrame> frames = JournalFrames(bytes);
  ASSERT_FALSE(frames.empty());
  const JournalFrame& f = frames.front();
  ASSERT_EQ(f.kind, '\x00');  // a request record
  bytes[f.payload + 10] = static_cast<char>(bytes[f.payload + 10] ^ 0x01);
  ResealFrame(bytes, f);
  ASSERT_TRUE(util::WriteFileAtomic(journal, bytes, false, &err));

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  EXPECT_EQ(r.durability_error.kind,
            DurabilityError::Kind::kJournalDivergence);
  EXPECT_NE(r.durability_error.message.find("diverges"),
            std::string::npos);
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, WrongStreamFingerprintIsATypedError) {
  const WorkloadStream s = SmallStream(79, 24);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const std::string dir = MakeCrashArtifacts(s, base, 15, 2, "wrongfp");

  // Recover against a DIFFERENT stream: both the checkpoints and the
  // journal carry the original fingerprint.
  const WorkloadStream other = SmallStream(80, 24);
  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(other, rec);
  EXPECT_EQ(r.durability_error.kind,
            DurabilityError::Kind::kFingerprintMismatch);

  // Same stream but a different controller config fingerprints
  // differently too.
  ReplayConfig cfg2 = rec;
  cfg2.controller.place = PlacePolicy::kWorstFit;
  const ReplayResult r2 = ReplayStream(s, cfg2);
  EXPECT_EQ(r2.durability_error.kind,
            DurabilityError::Kind::kFingerprintMismatch);
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, DifferentOverheadModelIsAFingerprintMismatch) {
  // The admission overhead model changes admission decisions, so
  // artifacts written under one model must not resume under another.
  const WorkloadStream s = SmallStream(79, 24);
  ReplayConfig base = MakeReplayConfig(PlacePolicy::kFirstFit,
                                       partition::SchedPolicy::kEdf, false);
  base.controller.admission.num_cores = 4;
  base.controller.admission.model = overhead::OverheadModel::PaperCoreI7();
  const std::string dir = MakeCrashArtifacts(s, base, 30, 2, "wrongmodel");

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  for (const overhead::OverheadModel& model :
       {overhead::OverheadModel::Zero(),
        overhead::OverheadModel::PaperScaled(1.5)}) {
    rec.controller.admission.model = model;
    const ReplayResult r = ReplayStream(s, rec);
    EXPECT_EQ(r.durability_error.kind,
              DurabilityError::Kind::kFingerprintMismatch);
  }
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, DifferentValidationModelIsAFingerprintMismatch) {
  // With validation on, the simulation model decides each epoch's
  // recorded misses, so artifacts written under one horizon or exec
  // model must not resume under another. The lane count is not part of
  // the model: results are bit-identical for every shard count.
  const WorkloadStream s = SmallStream(79, 24);
  ReplayConfig base =
      MakeReplayConfig(PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf,
                       /*faults=*/false, /*validate=*/true);
  base.controller.admission.num_cores = 4;
  // 250 ms epochs close enough rows before append 30 for a validation
  // batch to finish and a checkpoint to reach the disk.
  base.epoch = Millis(250);
  const ReplayResult plain = ReplayStream(s, base);
  const std::string dir = MakeCrashArtifacts(s, base, 30, 2, "wrongsim");

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  {
    ReplayConfig other = rec;
    other.validate_sim.horizon = Millis(80);
    EXPECT_EQ(ReplayStream(s, other).durability_error.kind,
              DurabilityError::Kind::kFingerprintMismatch);
  }
  {
    ReplayConfig other = rec;
    other.validate_sim.exec.kind = sim::ExecModel::Kind::kSpiky;
    EXPECT_EQ(ReplayStream(s, other).durability_error.kind,
              DurabilityError::Kind::kFingerprintMismatch);
  }
  rec.validate_sim.shards = 2;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_TRUE(r.recovery.recovered);
  EXPECT_EQ(DecisionDiff(plain, r), "");
  fs::remove_all(dir);
}

TEST(CrashRecovery, ElevenDigitEpochCheckpointsAreListedPrunedAndWiped) {
  // 1 ns epochs put requests at t ~ 20 s in epochs ~2e10: checkpoint
  // names past the writer's 10-digit zero padding. Idle-epoch
  // compression jumps the gap, so the run stays cheap.
  std::vector<Request> reqs;
  for (rt::TaskId id = 0; id < 12; ++id) {
    Request r;
    r.kind = RequestKind::kAdmit;
    r.at = id < 4 ? static_cast<Time>(id) : Millis(20000) + id;
    r.id = id;
    r.task = rt::MakeTask(id, Millis(1), Millis(10 + id));
    reqs.push_back(r);
  }
  const WorkloadStream s{std::move(reqs)};
  ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  base.epoch = 1;
  const ReplayResult plain = ReplayStream(s, base);

  base.durability.checkpoint_every = 1;
  const std::string dir = MakeCrashArtifacts(s, base, 10, 1, "ckpt11");
  const auto on_disk = [&dir] {
    std::size_t n = 0;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      n += e.path().filename().string().starts_with("ckpt-") ? 1 : 0;
    }
    return n;
  };
  const std::vector<std::string> listed = ListCheckpoints(dir);
  ASSERT_FALSE(listed.empty());
  EXPECT_EQ(listed.size(), on_disk());
  EXPECT_LE(listed.size(), 4u);  // pruned to kKeepCheckpoints
  EXPECT_EQ(fs::path(listed.front()).filename().string().size(),
            std::string("ckpt-20000000005.sps").size());

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_TRUE(r.recovery.recovered);
  EXPECT_GE(r.recovery.checkpoint_epoch, 10'000'000'000ull);
  EXPECT_EQ(DecisionDiff(plain, r), "");

  // A fresh run wipes every checkpoint (and, writing none, leaves none).
  ReplayConfig fresh = base;
  fresh.durability.dir = dir;
  fresh.durability.checkpoint_every = 0;
  ASSERT_TRUE(ReplayStream(s, fresh).durability_error.ok());
  EXPECT_EQ(on_disk(), 0u);
  fs::remove_all(dir);
}

TEST(CorruptArtifacts, GarbageFilesYieldTypedErrorsNeverUB) {
  const std::string dir = FreshDir("garbage");
  fs::create_directories(dir);
  std::string err;
  // A journal that is not a journal.
  const std::string journal = dir + "/journal.wal";
  ASSERT_TRUE(util::WriteFileAtomic(journal, "not a journal at all", false,
                                    &err));
  JournalScan scan;
  DurabilityError derr;
  EXPECT_FALSE(ScanJournal(journal, scan, &derr));
  EXPECT_EQ(derr.kind, DurabilityError::Kind::kBadMagic);

  // Too short for its own header.
  ASSERT_TRUE(util::WriteFileAtomic(journal, "xy", false, &err));
  EXPECT_FALSE(ScanJournal(journal, scan, &derr));
  EXPECT_EQ(derr.kind, DurabilityError::Kind::kTruncated);

  // A checkpoint full of zeros is skipped, not trusted: recovery falls
  // back to scratch and still completes.
  const WorkloadStream s = SmallStream(83, 12);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  fs::remove(journal);
  ASSERT_TRUE(util::WriteFileAtomic(dir + "/ckpt-0000000002.sps",
                                    std::string(256, '\0'), false, &err));
  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_FALSE(r.recovery.recovered);
  EXPECT_EQ(r.recovery.checkpoints_skipped(), 1u);
  EXPECT_EQ(DecisionDiff(plain, r), "");
  fs::remove_all(dir);

  // Epoch-row records that frame under a valid CRC but do not decode in
  // sequence: an unknown record kind, a row cut short, a row numbered
  // out of order. Each ends the valid prefix where it starts, and the
  // redo re-derives and re-appends everything after it.
  ReplayConfig real = base;
  real.durability.dir = FreshDir("garbage_rows");
  real.durability.checkpoint_every = 0;
  ASSERT_TRUE(ReplayStream(s, real).durability_error.ok());
  const std::string rows_journal = real.durability.dir + "/journal.wal";
  std::string bytes;
  ASSERT_TRUE(util::ReadFileBytes(rows_journal, bytes, &err)) << err;
  const std::vector<JournalFrame> frames = JournalFrames(bytes);
  const auto first_row =
      std::find_if(frames.begin(), frames.end(),
                   [](const JournalFrame& f) { return f.kind == '\x01'; });
  ASSERT_NE(first_row, frames.end());
  const std::size_t cut = first_row->payload - 4;
  const std::string row = bytes.substr(first_row->payload, first_row->len);
  const std::string after =
      bytes.substr(first_row->payload + first_row->len + 4);
  std::string unknown_kind = row;
  unknown_kind[0] = '\x07';
  std::string out_of_order = row;
  out_of_order[1] = static_cast<char>(out_of_order[1] + 5);  // row index
  for (const std::string& garbage :
       {unknown_kind, row.substr(0, row.size() - 3), out_of_order}) {
    ASSERT_TRUE(util::WriteFileAtomic(
        rows_journal, bytes.substr(0, cut) + FrameBytes(garbage) + after,
        false, &err))
        << err;
    ASSERT_TRUE(ScanJournal(rows_journal, scan, &derr)) << derr.message;
    EXPECT_EQ(scan.valid_bytes, cut);
    EXPECT_EQ(scan.epoch_rows, 0u);
    EXPECT_EQ(scan.records,
              static_cast<std::uint64_t>(first_row - frames.begin()));
    ReplayConfig again = real;
    again.durability.recover = true;
    const ReplayResult rr = ReplayStream(s, again);
    ASSERT_TRUE(rr.durability_error.ok()) << rr.durability_error.message;
    EXPECT_GT(rr.recovery.journal_truncated_bytes, 0u);
    EXPECT_EQ(DecisionDiff(plain, rr), "");
    std::string healed;
    ASSERT_TRUE(util::ReadFileBytes(rows_journal, healed, &err)) << err;
    EXPECT_EQ(healed, bytes);
  }
  fs::remove_all(real.durability.dir);
}

// ---------------------------------------------------------------------------
// Mutation driver: seeded corruptions of real checkpoints and journals
// ---------------------------------------------------------------------------

/// One seeded corruption: a bit flip, an 8-byte run of 0x00 or 0xFF (the
/// width of a count field) or a truncation.
std::string Mutate(std::string bytes, util::SplitMix64& rng) {
  const std::size_t at = rng() % bytes.size();
  switch (rng() % 4) {
    case 0:
      bytes[at] = static_cast<char>(bytes[at] ^ (1u << (rng() % 8)));
      break;
    case 1:
    case 2: {
      const char fill = (rng() & 1) != 0 ? '\xFF' : '\0';
      for (std::size_t i = at; i < bytes.size() && i < at + 8; ++i) {
        bytes[i] = fill;
      }
      break;
    }
    default:
      bytes.resize(at);
  }
  return bytes;
}

/// Recompute a checkpoint's trailing frame CRC, so the mutation reaches
/// the payload decoder instead of stopping at the CRC check.
void ResealCheckpoint(std::string& bytes) {
  if (bytes.size() < 4) return;
  const std::size_t body = bytes.size() - 4;
  const std::uint32_t crc =
      util::Crc32Of(std::string_view(bytes).substr(0, body));
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[body + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
}

TEST(CorruptArtifacts, CheckpointWithMisorderedOrMisfiledResidentsIsSkipped) {
  // The resident map is on the wire in ascending id order, each entry
  // keyed by its task's id. The newest checkpoint with its first two
  // resident entries swapped (each intact), or with its first resident's
  // task id changed, is skipped for the older one.
  const WorkloadStream s = SmallStream(61, 40);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);
  for (const bool swap : {true, false}) {
    SCOPED_TRACE(swap ? "swapped" : "misfiled");
    const std::string dir = MakeCrashArtifacts(s, base, 35, 2, "ckptkeys");
    const std::vector<std::string> ckpts = ListCheckpoints(dir);
    ASSERT_GE(ckpts.size(), 2u);
    std::string bytes;
    std::string err;
    ASSERT_TRUE(util::ReadFileBytes(ckpts.front(), bytes, &err)) << err;

    // After the 24-byte frame header and the 144 bytes of replay cursor
    // and totals: the resident count, then each entry as its key, its
    // task (id first, 53 bytes), part count and 24-byte parts, admission
    // sequence, and degraded flag (then the 53-byte original if set).
    const auto u32_at = [&](std::size_t at) {
      std::uint32_t v = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[at + i])) << (8 * i);
      }
      return v;
    };
    const auto entry_end = [&](std::size_t at) {
      const std::size_t flag = at + 4 + 53 + 4 + 24 * u32_at(at + 57) + 8;
      return flag + 1 + (bytes[flag] != 0 ? 53 : 0);
    };
    constexpr std::size_t kCount = 24 + 144;
    ASSERT_GE(u32_at(kCount), 2u);
    const std::size_t first = kCount + 8;
    const std::size_t second = entry_end(first);
    const std::size_t third = entry_end(second);
    ASSERT_EQ(u32_at(first), u32_at(first + 4));
    ASSERT_LT(u32_at(first), u32_at(second));
    if (swap) {
      bytes.replace(first, third - first,
                    bytes.substr(second, third - second) +
                        bytes.substr(first, second - first));
    } else {
      bytes[first + 7] = static_cast<char>(bytes[first + 7] ^ 0x40);
    }
    ResealCheckpoint(bytes);
    ASSERT_TRUE(util::WriteFileAtomic(ckpts.front(), bytes, false, &err))
        << err;

    ReplayConfig rec = base;
    rec.durability.dir = dir;
    rec.durability.recover = true;
    const ReplayResult r = ReplayStream(s, rec);
    ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
    EXPECT_TRUE(r.recovery.recovered);
    EXPECT_EQ(r.recovery.checkpoints_skipped(), 1u);
    EXPECT_EQ(DecisionDiff(plain, r), "");
    fs::remove_all(dir);
  }
}

TEST(MutationFuzz, MutatedArtifactsRecoverOrFailTyped) {
  // Every mutant of a real checkpoint or journal either recovers or
  // fails with a typed error. A skipped checkpoint or a torn journal
  // must still reproduce the uninterrupted run. Half of the journal
  // mutants land inside an epoch-row record, and half of those get
  // their frame CRC resealed so they reach the record decoder, the
  // checkpoints' journal-prefix digests and the redo's row cross-check.
  constexpr int kMutantsPerPolicy = 400;
  const WorkloadStream s = SmallStream(29, 24);
  for (const partition::SchedPolicy policy :
       {partition::SchedPolicy::kEdf,
        partition::SchedPolicy::kFixedPriority}) {
    const bool edf = policy == partition::SchedPolicy::kEdf;
    SCOPED_TRACE(edf ? "edf" : "fp");
    const ReplayConfig base =
        MakeReplayConfig(PlacePolicy::kFirstFit, policy, /*faults=*/true);
    const ReplayResult plain = ReplayStream(s, base);
    const std::string dir =
        MakeCrashArtifacts(s, base, 30, 2, edf ? "fuzz_edf" : "fuzz_fp");
    // originals[0] is the journal, originals[1] the newest checkpoint;
    // the older checkpoints are the intact fallback behind its mutants.
    std::vector<std::string> paths = ListCheckpoints(dir);
    ASSERT_GE(paths.size(), 2u);
    paths.insert(paths.begin(), dir + "/journal.wal");
    std::vector<std::pair<std::string, std::string>> originals;
    for (const std::string& path : paths) {
      std::string bytes;
      std::string err;
      ASSERT_TRUE(util::ReadFileBytes(path, bytes, &err)) << err;
      originals.emplace_back(path, std::move(bytes));
    }

    ReplayConfig rec = base;
    rec.durability.dir = dir;
    rec.durability.checkpoint_every = 2;
    rec.durability.recover = true;
    std::vector<JournalFrame> rows = JournalFrames(originals[0].second);
    std::erase_if(rows, [](const JournalFrame& f) { return f.kind != 1; });
    ASSERT_GE(rows.size(), 4u);
    util::SplitMix64 rng(edf ? 0xF022 : 0xF023);
    int skipped = 0;
    int failed = 0;
    int row_recovered = 0;
    int row_failed = 0;
    for (int i = 0; i < kMutantsPerPolicy; ++i) {
      // Three checkpoint mutants for every journal mutant. Recovery
      // rewrites the journal and adds and prunes checkpoints, so every
      // mutant starts from the original artifacts.
      const bool ckpt = i % 4 != 3;
      std::string err;
      fs::remove_all(dir);
      fs::create_directories(dir);
      for (const auto& [path, bytes] : originals) {
        ASSERT_TRUE(util::WriteFileAtomic(path, bytes, false, &err)) << err;
      }
      const auto& [path, bytes] = originals[ckpt ? 1 : 0];
      const bool in_row = !ckpt && (i / 4) % 2 == 1;
      std::string mutant;
      if (in_row) {
        // A bit flip or an 8-byte run of 0xFF inside one row's payload.
        mutant = bytes;
        const JournalFrame& f = rows[rng() % rows.size()];
        const std::size_t at = f.payload + rng() % f.len;
        if ((rng() & 1) != 0) {
          mutant[at] = static_cast<char>(mutant[at] ^ (1u << (rng() % 8)));
        } else {
          for (std::size_t k = at; k < f.payload + f.len && k < at + 8; ++k) {
            mutant[k] = '\xFF';
          }
        }
        if ((i / 8) % 2 == 1) ResealFrame(mutant, f);
      } else {
        mutant = Mutate(bytes, rng);
        if (ckpt) ResealCheckpoint(mutant);
      }
      ASSERT_TRUE(util::WriteFileAtomic(path, mutant, false, &err)) << err;

      const ReplayResult r = ReplayStream(s, rec);
      SCOPED_TRACE("mutant " + std::to_string(i));
      if (!r.durability_error.ok()) {
        ++failed;
        row_failed += in_row ? 1 : 0;
        EXPECT_FALSE(r.durability_error.path.empty());
        EXPECT_FALSE(r.durability_error.message.empty());
        continue;
      }
      row_recovered += in_row ? 1 : 0;
      // A checkpoint whose journal prefix the mutant cut or changed is
      // skipped for an older one, or for a redo from scratch.
      EXPECT_TRUE(r.recovery.recovered ||
                  (!ckpt && r.recovery.checkpoints_skipped() > 0));
      if (r.recovery.checkpoints_skipped() > 0) ++skipped;
      // The checkpoints of a journal mutant are intact: each one it
      // skips lost the journal prefix it extends.
      if (!ckpt) {
        for (const DurabilityError::Kind k : r.recovery.skipped) {
          EXPECT_STREQ(SkipReason(k), "journal prefix missing");
        }
      }
      if (!ckpt || r.recovery.checkpoints_skipped() > 0) {
        EXPECT_EQ(DecisionDiff(plain, r), "");
      }
    }
    // Both outcomes occur: mutants the readers reject and skip, and
    // mutants that end in a typed error; epoch-row mutants included.
    EXPECT_GT(skipped, 0);
    EXPECT_GT(failed, 0);
    EXPECT_GT(row_recovered, 0);
    EXPECT_GT(row_failed, 0);
    fs::remove_all(dir);
  }
}

TEST(MutationFuzz, MutatedStreamsFailTypedOrRoundTrip) {
  // Every mutant of a saved stream file either fails with a typed
  // StreamError or loads and re-saves to the same bytes. Three of four
  // mutants get a fresh '# crc32' footer over the mutated body, so they
  // reach the line parser instead of stopping at the CRC check. A
  // mutant without a footer (a cut at a line end) is a legacy capture:
  // its re-save is the same bytes plus the footer.
  constexpr int kMutantsPerStream = 400;
  const std::string path = ::testing::TempDir() + "stream_fuzz.txt";
  const std::string resaved = ::testing::TempDir() + "stream_fuzz_re.txt";
  util::SplitMix64 rng(0x57E4);
  int loaded_count = 0;
  int failed = 0;
  for (const double soft : {0.0, 0.5}) {  // a v1 and a v2 stream
    std::string err;
    ASSERT_TRUE(SaveStream(SmallStream(31, 16, soft), path, &err)) << err;
    std::string bytes;
    ASSERT_TRUE(util::ReadFileBytes(path, bytes, &err)) << err;
    const std::size_t footer = bytes.rfind("# crc32 ");
    ASSERT_NE(footer, std::string::npos);
    for (int i = 0; i < kMutantsPerStream; ++i) {
      std::string mutant;
      if (i % 4 != 3) {
        mutant = Mutate(bytes.substr(0, footer), rng);
        char line[32];
        std::snprintf(line, sizeof(line), "# crc32 %08x\n",
                      util::Crc32Of(mutant));
        mutant += line;
      } else {
        mutant = Mutate(bytes, rng);
      }
      ASSERT_TRUE(util::WriteFileAtomic(path, mutant, false, &err)) << err;
      SCOPED_TRACE("mutant " + std::to_string(i) + ": " + mutant);
      WorkloadStream s;
      StreamError serr;
      if (!LoadStream(path, s, &serr)) {
        ++failed;
        EXPECT_NE(serr.kind, StreamError::Kind::kNone);
        EXPECT_FALSE(serr.message.empty());
        continue;
      }
      ++loaded_count;
      ASSERT_TRUE(SaveStream(s, resaved, &err)) << err;
      std::string again;
      ASSERT_TRUE(util::ReadFileBytes(resaved, again, &err)) << err;
      if (mutant.find("# crc32 ") == std::string::npos) {
        again.resize(again.rfind("# crc32 "));
      }
      EXPECT_EQ(again, mutant);
    }
  }
  // Both outcomes occur.
  EXPECT_GT(loaded_count, 0);
  EXPECT_GT(failed, 0);
  std::remove(path.c_str());
  std::remove(resaved.c_str());
}

TEST(Durability, CheckpointSizeDoesNotGrowWithHistory) {
  // Steady load: every epoch one task leaves and a new id arrives, so
  // eight tasks stay resident while the history grows. The journal
  // carries the history (every request and epoch row); the newest
  // checkpoint after 4N epochs is within a few bytes of the one after N.
  const auto newest_checkpoint_bytes = [](std::size_t epochs) {
    constexpr rt::TaskId kResident = 8;
    std::vector<Request> reqs;
    for (rt::TaskId id = 0; id < kResident; ++id) {
      reqs.push_back(AdmitAt(Millis(id), rt::MakeTask(id, Millis(5),
                                                      Millis(50))));
    }
    for (std::size_t e = 1; e < epochs; ++e) {
      const Time at = Millis(1000) * static_cast<Time>(e);
      const auto id = static_cast<rt::TaskId>(e);
      reqs.push_back(LeaveAt(at, id - 1));
      reqs.push_back(AdmitAt(
          at + 1, rt::MakeTask(kResident + id - 1, Millis(5), Millis(50))));
    }
    const WorkloadStream s{std::move(reqs)};
    ReplayConfig cfg = MakeReplayConfig(
        PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
    cfg.durability.dir = FreshDir("ckptsize" + std::to_string(epochs));
    cfg.durability.checkpoint_every = 1;
    const ReplayResult r = ReplayStream(s, cfg);
    EXPECT_TRUE(r.durability_error.ok()) << r.durability_error.message;
    EXPECT_EQ(r.rejects, 0u);
    JournalScan scan;
    EXPECT_TRUE(ScanJournal(cfg.durability.dir + "/journal.wal", scan));
    EXPECT_EQ(scan.records, s.size());
    EXPECT_EQ(scan.epoch_rows, r.epochs.size());
    const std::vector<std::string> ckpts = ListCheckpoints(cfg.durability.dir);
    EXPECT_FALSE(ckpts.empty());
    const std::uintmax_t bytes = ckpts.empty() ? 0 : fs::file_size(ckpts[0]);
    fs::remove_all(cfg.durability.dir);
    return bytes;
  };
  const std::uintmax_t n = newest_checkpoint_bytes(8);
  const std::uintmax_t n4 = newest_checkpoint_bytes(32);
  EXPECT_GT(n, 0u);
  EXPECT_LE(n4, n + 64);
  EXPECT_LE(n, n4 + 64);
}

TEST(Durability, FsyncPolicyParsesAllSpellings) {
  FsyncPolicy p = FsyncPolicy::kOff;
  std::uint32_t n = 0;
  EXPECT_TRUE(ParseFsyncPolicy("every-epoch", p, n));
  EXPECT_EQ(p, FsyncPolicy::kEveryEpoch);
  EXPECT_TRUE(ParseFsyncPolicy("off", p, n));
  EXPECT_EQ(p, FsyncPolicy::kOff);
  EXPECT_TRUE(ParseFsyncPolicy("every-n", p, n));
  EXPECT_EQ(p, FsyncPolicy::kEveryN);
  EXPECT_TRUE(ParseFsyncPolicy("every-n:8", p, n));
  EXPECT_EQ(n, 8u);
  EXPECT_FALSE(ParseFsyncPolicy("every-n:", p, n));
  EXPECT_FALSE(ParseFsyncPolicy("sometimes", p, n));
  EXPECT_FALSE(ParseFsyncPolicy("every-n:0", p, n));
  EXPECT_FALSE(ParseFsyncPolicy("every-n:-5", p, n));
  EXPECT_FALSE(ParseFsyncPolicy("every-n:4294967296", p, n));
}

TEST(Durability, FreshRunWipesStaleArtifacts) {
  // recover=false means "start a NEW run": artifacts from a previous one
  // must not leak into (or poison) the directory.
  const WorkloadStream s = SmallStream(89, 16);
  ReplayConfig durable = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  durable.durability.dir = FreshDir("wipe");
  durable.durability.checkpoint_every = 2;
  const ReplayResult first = ReplayStream(s, durable);
  ASSERT_TRUE(first.durability_error.ok());
  ASSERT_FALSE(ListCheckpoints(durable.durability.dir).empty());

  // Second fresh run over a DIFFERENT stream in the same dir: must not
  // trip fingerprint checks (the stale journal was wiped).
  const WorkloadStream other = SmallStream(90, 16);
  const ReplayResult second = ReplayStream(other, durable);
  ASSERT_TRUE(second.durability_error.ok())
      << second.durability_error.message;
  fs::remove_all(durable.durability.dir);
}

/// Checkpoint files a run keeps on disk (the engine's kKeepCheckpoints).
constexpr std::size_t kKeptCheckpoints = 4;

/// The epochs of the checkpoint files in `dir`, newest first.
std::vector<std::uint64_t> CheckpointEpochs(const std::string& dir) {
  std::vector<std::uint64_t> epochs;
  for (const std::string& p : ListCheckpoints(dir)) {
    epochs.push_back(CheckpointEpoch(p));
  }
  return epochs;
}

TEST(Durability, CheckpointEveryEpochLeavesTheNewestFour) {
  // Every epoch entered writes a checkpoint; each write prunes the
  // oldest beyond the kept four, so the four newest entries remain.
  const WorkloadStream s = SmallStream(61, 40);
  ReplayConfig cfg = MakeReplayConfig(PlacePolicy::kFirstFit,
                                      partition::SchedPolicy::kEdf, false);
  cfg.durability.dir = FreshDir("prune_every");
  cfg.durability.checkpoint_every = 1;
  const ReplayResult r = ReplayStream(s, cfg);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;

  // Row 0 is the epoch the replay starts in and the last drain_epochs
  // rows close after the stream ends; every row between was entered.
  std::vector<std::uint64_t> entered;
  for (std::size_t row = r.epochs.size() - cfg.drain_epochs; row-- > 1;) {
    entered.push_back(static_cast<std::uint64_t>(r.epochs[row].start /
                                                 cfg.epoch));
  }
  ASSERT_GT(entered.size(), kKeptCheckpoints);
  entered.resize(kKeptCheckpoints);
  EXPECT_EQ(CheckpointEpochs(cfg.durability.dir), entered);
  fs::remove_all(cfg.durability.dir);
}

TEST(CrashRecovery, PrunesFromItsListingAndKeepsAStaleNewerCheckpoint) {
  // A halted run's directory holds a corrupt newest checkpoint and, from
  // an uninterrupted run of the same stream, a newer one whose journal
  // prefix is missing. Recovery skips both and resumes from an older
  // one. The stale file names an epoch the recovering run re-enters:
  // being on disk, it is kept as it is, not rewritten. Pruning starts
  // from recovery's listing, so the corrupt and the older files go and
  // the four newest epochs stay.
  const WorkloadStream s = SmallStream(61, 40);
  const ReplayConfig base = MakeReplayConfig(
      PlacePolicy::kFirstFit, partition::SchedPolicy::kEdf, false);
  const ReplayResult plain = ReplayStream(s, base);

  ReplayConfig whole = base;
  whole.durability.dir = FreshDir("prune_whole");
  whole.durability.checkpoint_every = 1;
  ASSERT_TRUE(ReplayStream(s, whole).durability_error.ok());
  const std::vector<std::uint64_t> newest_four =
      CheckpointEpochs(whole.durability.dir);
  ASSERT_EQ(newest_four.size(), kKeptCheckpoints);
  const std::string stale_src = ListCheckpoints(whole.durability.dir).front();

  const std::string dir = MakeCrashArtifacts(s, base, 35, 1, "prune_rec");
  const std::vector<std::string> halted = ListCheckpoints(dir);
  ASSERT_GE(halted.size(), 2u);
  ASSERT_LT(CheckpointEpoch(halted.front()), newest_four.front());
  FlipByteAt(halted.front(), fs::file_size(halted.front()) / 2);
  const std::string stale =
      dir + "/" + fs::path(stale_src).filename().string();
  fs::copy_file(stale_src, stale);
  fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                 std::chrono::hours(24));
  const fs::file_time_type stale_time = fs::last_write_time(stale);

  ReplayConfig rec = base;
  rec.durability.dir = dir;
  rec.durability.checkpoint_every = 1;
  rec.durability.recover = true;
  const ReplayResult r = ReplayStream(s, rec);
  ASSERT_TRUE(r.durability_error.ok()) << r.durability_error.message;
  EXPECT_TRUE(r.recovery.recovered);
  EXPECT_EQ(r.recovery.skipped,
            (std::vector<DurabilityError::Kind>{
                DurabilityError::Kind::kNone,
                DurabilityError::Kind::kCrcMismatch}));
  EXPECT_EQ(DecisionDiff(plain, r), "");

  EXPECT_EQ(CheckpointEpochs(dir), newest_four);
  EXPECT_EQ(fs::last_write_time(stale), stale_time);
  fs::remove_all(dir);
  fs::remove_all(whole.durability.dir);
}

TEST(Durability, BatchReplayGivesEachStreamItsOwnArtifacts) {
  std::vector<WorkloadStream> streams;
  streams.push_back(SmallStream(91, 12));
  streams.push_back(SmallStream(92, 12));
  ReplayConfig cfg = MakeReplayConfig(PlacePolicy::kFirstFit,
                                      partition::SchedPolicy::kEdf, false);
  cfg.durability.dir = FreshDir("batch");
  cfg.durability.checkpoint_every = 2;
  const std::vector<ReplayResult> rs = ReplayBatch(streams, cfg, 1);
  ASSERT_EQ(rs.size(), 2u);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_TRUE(rs[i].durability_error.ok())
        << rs[i].durability_error.message;
    EXPECT_TRUE(
        fs::exists(cfg.durability.dir + "/stream-" + std::to_string(i) +
                   "/journal.wal"));
  }
  fs::remove_all(cfg.durability.dir);
}

}  // namespace
}  // namespace sps::online
