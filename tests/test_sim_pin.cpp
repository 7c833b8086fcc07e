// Pinned simulation outputs. Each case simulates a seeded partition with
// recording on and hashes everything a run reports: the per-task and
// per-core rows, the counters, the canonical trace and the metrics. The
// expected hashes were taken from the engine that ran every core group
// inside one kernel over all cores and tasks, so they check the
// per-group kernels (DESIGN.md §9) against that engine, not only against
// themselves. Every ready x sleep backend pair and several shard counts
// must reproduce the same hash. The scaled, zero-overhead and global
// pins were taken from the engines that worked out every overhead charge
// from the model on each event, so they check the per-core charge tables
// (DESIGN.md §9) against those.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "containers/queue_traits.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "rt/task.hpp"
#include "sim/engine.hpp"
#include "sim/global_engine.hpp"
#include "trace/gantt.hpp"

namespace sps::sim {
namespace {

using containers::QueueBackend;

/// FNV-1a over the bytes of integers and strings.
class Fnv {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void Add(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  void Add(const std::string& s) {
    for (const char c : s) Byte(static_cast<unsigned char>(c));
    Add(static_cast<std::uint64_t>(s.size()));
  }
  void Add(const containers::QueueOpCounters& c) {
    Add(c.pushes);
    Add(c.pops);
    Add(c.erases);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t HashResult(const SimResult& r) {
  Fnv h;
  h.Add(r.total_misses);
  h.Add(r.total_migrations);
  h.Add(r.total_preemptions);
  h.Add(r.simulated);
  h.Add(r.ready_ops);
  h.Add(r.sleep_ops);
  h.Add(r.event_ops);
  for (const TaskStats& t : r.tasks) {
    h.Add(static_cast<std::uint64_t>(t.id));
    h.Add(t.released);
    h.Add(t.completed);
    h.Add(t.deadline_misses);
    h.Add(t.shed);
    h.Add(t.preemptions);
    h.Add(t.migrations);
    h.Add(t.max_response);
    h.Add(t.avg_response);
  }
  for (const CoreStats& c : r.cores) {
    h.Add(c.busy_exec);
    h.Add(c.overhead_rls);
    h.Add(c.overhead_sch);
    h.Add(c.overhead_cnt1);
    h.Add(c.overhead_cnt2);
    h.Add(c.cpmd_charged);
    h.Add(c.context_switches);
  }
  h.Add(trace::ToCsv(r.trace_events));
  for (const obs::TaskMetrics& t : r.metrics.tasks) {
    for (const std::uint64_t b : t.response.buckets) h.Add(b);
    for (const std::uint64_t b : t.tardiness.buckets) h.Add(b);
    h.Add(t.max_tardiness);
  }
  for (const obs::CoreMetrics& c : r.metrics.cores) {
    h.Add(c.busy);
    h.Add(c.overhead);
    h.Add(c.idle);
  }
  h.Add(r.metrics.span);
  return h.value();
}

rt::TaskSet Generated(std::size_t tasks, double util, std::uint64_t seed) {
  rt::GeneratorConfig gen;
  gen.num_tasks = tasks;
  gen.total_utilization = util;
  rt::Rng rng(seed);
  return rt::GenerateTaskSet(gen, rng);
}

partition::Partition Spa2(unsigned cores, std::size_t tasks, double util,
                          std::uint64_t seed) {
  partition::SpaConfig cfg;
  cfg.num_cores = cores;
  cfg.model = overhead::OverheadModel::PaperCoreI7();
  cfg.preassign_heavy = true;
  const partition::PartitionResult r =
      partition::SpaPartition(Generated(tasks, util * cores, seed), cfg);
  EXPECT_TRUE(r.success) << r.failure_reason;
  return r.partition;
}

std::size_t SplitTasks(const partition::Partition& p) {
  std::size_t n = 0;
  for (const partition::PlacedTask& pt : p.tasks) n += pt.parts.size() > 1;
  return n;
}

/// PaperScaled(1.37) with a migration CPMD twice the local one, so that
/// a charge that takes the wrong one of the two shows.
overhead::OverheadModel CostlierMigration() {
  overhead::OverheadModel m = overhead::OverheadModel::PaperScaled(1.37);
  m.cpmd_migration = 2 * m.cpmd_local;
  return m;
}

struct PinCase {
  const char* name;
  partition::Partition partition;
  std::vector<std::uint32_t> generations;
  /// Expected hash per arrival model: periodic, jittered, bursty.
  std::uint64_t expected[3];
};

std::vector<PinCase> PinCases() {
  std::vector<PinCase> cases;
  cases.push_back({"spa2_m16", Spa2(16, 48, 0.97, 8), {}, {}});
  cases.push_back({"spa2_m64", Spa2(64, 256, 0.97, 4), {}, {}});
  {
    partition::BinPackConfig cfg;
    cfg.num_cores = 8;
    const partition::PartitionResult r =
        partition::Ffd(Generated(32, 0.6 * 8, 5), cfg);
    EXPECT_TRUE(r.success) << r.failure_reason;
    cases.push_back({"ffd_m8", r.partition, {}, {}});
  }
  {
    // Three 60% tasks on two cores: EDF-WM must split the third.
    rt::TaskSet ts;
    ts.add(rt::MakeTask(0, Millis(6), Millis(10)));
    ts.add(rt::MakeTask(1, Millis(12), Millis(20)));
    ts.add(rt::MakeTask(2, Millis(9), Millis(15)));
    ts.add(rt::MakeTask(3, Millis(1), Millis(25)));
    partition::EdfPartitionConfig cfg;
    cfg.num_cores = 2;
    const partition::PartitionResult r = partition::EdfWm(ts, cfg);
    EXPECT_TRUE(r.success) << r.failure_reason;
    cases.push_back({"edf_wm_m2", r.partition, {}, {}});
  }
  {
    partition::Partition p = Spa2(16, 48, 0.97, 8);
    std::vector<std::uint32_t> gens(p.tasks.size(), 0);
    for (std::size_t i = 0; i < gens.size(); i += 3) {
      gens[i] = static_cast<std::uint32_t>(1 + i % 4);
    }
    cases.push_back({"spa2_m16_generations", p, gens, {}});
  }
  const std::uint64_t expected[][3] = {
      {8110320402166281330ull, 7516370123497870125ull, 496492545773269341ull},
      {12423099063773324443ull, 14142742632095293108ull,
       10750259824332630599ull},
      {6077832411557743458ull, 7354988096749486228ull,
       15074739245443175675ull},
      {289279525010635986ull, 2268981898803746598ull, 1468190366727924470ull},
      {15843533083425310417ull, 11220480368808470701ull,
       15761628054613588380ull},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (int a = 0; a < 3; ++a) cases[i].expected[a] = expected[i][a];
  }
  return cases;
}

const ArrivalModel::Kind kArrivals[3] = {ArrivalModel::Kind::kPeriodic,
                                         ArrivalModel::Kind::kJittered,
                                         ArrivalModel::Kind::kBursty};

/// Simulates `c` under `model` with each arrival model, every ready x
/// sleep backend pair and shard counts 1 and 3, and expects `expected`
/// (one hash per arrival model) from each run.
void ExpectPinned(const PinCase& c, const overhead::OverheadModel& model,
                  const std::uint64_t (&expected)[3],
                  const std::string& label) {
  for (int a = 0; a < 3; ++a) {
    for (const QueueBackend ready : containers::kAllQueueBackends) {
      for (const QueueBackend sleep : containers::kAllQueueBackends) {
        for (const unsigned shards : {1u, 3u}) {
          SimConfig cfg;
          cfg.horizon = Millis(300);
          cfg.overheads = model;
          cfg.exec.kind = ExecModel::Kind::kUniform;
          cfg.arrivals.kind = kArrivals[a];
          cfg.ready_backend = ready;
          cfg.sleep_backend = sleep;
          cfg.shards = shards;
          cfg.record_trace = true;
          cfg.record_metrics = true;
          cfg.exec_generations = c.generations;
          const SimResult r = Simulate(c.partition, cfg);
          EXPECT_EQ(HashResult(r), expected[a])
              << c.name << " " << label << " arrivals=" << a
              << " ready=" << containers::to_string(ready)
              << " sleep=" << containers::to_string(sleep)
              << " shards=" << shards;
        }
      }
    }
  }
}

TEST(SimPin, OutputsMatchTheOneKernelEngine) {
  const std::vector<PinCase> cases = PinCases();
  // The partitions have the shapes the pins are meant to cover.
  EXPECT_GT(SplitTasks(cases[0].partition), 0u);
  EXPECT_GT(SplitTasks(cases[1].partition), 0u);
  EXPECT_EQ(SplitTasks(cases[2].partition), 0u);
  EXPECT_GT(SplitTasks(cases[3].partition), 0u);
  EXPECT_EQ(cases[3].partition.policy, partition::SchedPolicy::kEdf);

  for (const PinCase& c : cases) {
    ExpectPinned(c, overhead::OverheadModel::PaperCoreI7(), c.expected,
                 "PaperCoreI7");
  }
}

// The split partitions under a non-integer scale (every charge goes
// through scaled()'s rounding), under the all-zero model, and with a
// migration CPMD unlike the local one. Their split tasks reach the
// migrate and tail-finish charges.
TEST(SimPin, ScaledAndZeroOverheadsMatchTheirPins) {
  const std::vector<PinCase> cases = PinCases();
  const PinCase& spa2 = cases[0];
  const PinCase& edf_wm = cases[3];
  ASSERT_STREQ(spa2.name, "spa2_m16");
  ASSERT_STREQ(edf_wm.name, "edf_wm_m2");
  EXPECT_GT(SplitTasks(spa2.partition), 0u);
  EXPECT_GT(SplitTasks(edf_wm.partition), 0u);
  struct ModelPin {
    const PinCase* c;
    const char* label;
    overhead::OverheadModel model;
    std::uint64_t expected[3];
  };
  const ModelPin pins[] = {
      {&spa2, "PaperScaled(1.37)", overhead::OverheadModel::PaperScaled(1.37),
       {11907056222789069531ull, 3096259637750136553ull,
        5648035796625418623ull}},
      {&spa2, "Zero", overhead::OverheadModel::Zero(),
       {6117641417933661345ull, 17020092473706476069ull,
        8253329922768315579ull}},
      {&edf_wm, "PaperScaled(1.37)",
       overhead::OverheadModel::PaperScaled(1.37),
       {11453954295393444917ull, 14162047036198106440ull,
        17134624260805679253ull}},
      {&edf_wm, "Zero", overhead::OverheadModel::Zero(),
       {3525610817856524113ull, 12926365820080589458ull,
        6897021030375494848ull}},
      {&spa2, "CostlierMigration", CostlierMigration(),
       {1119755109515738731ull, 4792375942112523018ull,
        8096388183403206816ull}},
  };
  for (const ModelPin& pin : pins) {
    ExpectPinned(*pin.c, pin.model, pin.expected, pin.label);
  }
}

// The global engine: one seeded set on 4 cores under global RM and
// global EDF, with the paper's costs, with them scaled by 1.37, and
// (EDF) with a migration CPMD unlike the local one.
TEST(SimPin, GlobalEngineMatchesItsPins) {
  const rt::TaskSet ts = Generated(16, 0.75 * 4, 11);
  struct GlobalPin {
    GlobalPolicy policy;
    const char* label;
    overhead::OverheadModel model;
    std::uint64_t expected[3];
  };
  const GlobalPin pins[] = {
      {GlobalPolicy::kGlobalRm, "RM PaperCoreI7",
       overhead::OverheadModel::PaperCoreI7(),
       {1646234956714418113ull, 12662636412500277068ull,
        3684545289437327417ull}},
      {GlobalPolicy::kGlobalRm, "RM PaperScaled(1.37)",
       overhead::OverheadModel::PaperScaled(1.37),
       {7914208885807819489ull, 15342961477947176697ull,
        1063496517344871963ull}},
      {GlobalPolicy::kGlobalEdf, "EDF PaperCoreI7",
       overhead::OverheadModel::PaperCoreI7(),
       {3867532055166174108ull, 9391593602986208925ull,
        3684545289437327417ull}},
      {GlobalPolicy::kGlobalEdf, "EDF PaperScaled(1.37)",
       overhead::OverheadModel::PaperScaled(1.37),
       {10377191586547424588ull, 12742457351935560622ull,
        1063496517344871963ull}},
      {GlobalPolicy::kGlobalEdf, "EDF CostlierMigration", CostlierMigration(),
       {15736137407604664376ull, 2962795825729915835ull,
        9002635567824198737ull}},
  };
  for (const GlobalPin& pin : pins) {
    for (int a = 0; a < 3; ++a) {
      GlobalSimConfig cfg;
      cfg.num_cores = 4;
      cfg.horizon = Millis(300);
      cfg.overheads = pin.model;
      cfg.exec.kind = ExecModel::Kind::kUniform;
      cfg.arrivals.kind = kArrivals[a];
      cfg.policy = pin.policy;
      cfg.record_trace = true;
      cfg.record_metrics = true;
      const SimResult r = SimulateGlobal(ts, cfg);
      // Preemptions and migrations reach every charge the engine makes.
      EXPECT_GT(r.total_preemptions, 0u) << pin.label;
      EXPECT_GT(r.total_migrations, 0u) << pin.label;
      EXPECT_EQ(HashResult(r), pin.expected[a])
          << pin.label << " arrivals=" << a;
    }
  }
}

}  // namespace
}  // namespace sps::sim
