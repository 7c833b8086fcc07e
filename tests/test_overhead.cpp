// Tests for the overhead model: the published Table 1 numbers, the
// delta/theta condensation the paper derives from them, the log-N
// interpolation, the composite per-action costs, and the per-queue-size
// charge rows the simulators read.

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>

#include "overhead/calibrate.hpp"
#include "overhead/model.hpp"
#include "overhead/table1.hpp"

namespace sps::overhead {
namespace {

TEST(Table1, PaperValuesReproduced) {
  const Table1 t = PaperTable1();
  EXPECT_EQ(t.sleep_add.local_n4, Micros(2.5));
  EXPECT_EQ(t.sleep_add.remote_n4, Micros(2.9));
  EXPECT_EQ(t.sleep_add.local_n64, Micros(4.3));
  EXPECT_EQ(t.sleep_add.remote_n64, Micros(4.4));
  EXPECT_EQ(t.sleep_del.local_n4, Micros(3.3));
  EXPECT_EQ(t.sleep_del.local_n64, Micros(5.8));
  EXPECT_FALSE(t.sleep_del.remote_applicable);
  EXPECT_EQ(t.ready_add.local_n4, Micros(1.5));
  EXPECT_EQ(t.ready_add.remote_n4, Micros(3.3));
  EXPECT_EQ(t.ready_add.local_n64, Micros(4.4));
  EXPECT_EQ(t.ready_add.remote_n64, Micros(4.6));
  EXPECT_EQ(t.ready_del.local_n4, Micros(2.7));
  EXPECT_EQ(t.ready_del.local_n64, Micros(4.6));
}

TEST(Table1, DeltaThetaMatchPaperSection3) {
  // Paper: "when N = 4, delta = 3.3us and theta = 3.3us; when N = 64,
  // delta = 4.6us and theta = 5.8us".
  const Table1 t = PaperTable1();
  EXPECT_EQ(t.delta_n4(), Micros(3.3));
  EXPECT_EQ(t.theta_n4(), Micros(3.3));
  EXPECT_EQ(t.delta_n64(), Micros(4.6));
  EXPECT_EQ(t.theta_n64(), Micros(5.8));
}

TEST(Table1, FormatContainsAllCells) {
  const std::string s = FormatTable1(PaperTable1(), "Paper Table 1");
  EXPECT_NE(s.find("sleep queue - add"), std::string::npos);
  EXPECT_NE(s.find("ready queue - delete"), std::string::npos);
  EXPECT_NE(s.find("N/A"), std::string::npos);
  EXPECT_NE(s.find("3.30"), std::string::npos);
}

TEST(OpCost, ExactAtAnchors) {
  const OpCost c{Micros(1.5), Micros(4.4)};
  EXPECT_EQ(c.at(4), Micros(1.5));
  EXPECT_EQ(c.at(64), Micros(4.4));
}

TEST(OpCost, MonotoneInN) {
  const OpCost c{Micros(2.5), Micros(4.3)};
  Time last = 0;
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    const Time v = c.at(n);
    EXPECT_GE(v, last);
    EXPECT_GE(v, 0);
    last = v;
  }
}

TEST(OpCost, InterpolatesBetweenAnchors) {
  const OpCost c{Micros(2.0), Micros(6.0)};  // slope = 1us per doubling
  EXPECT_EQ(c.at(8), Micros(3.0));
  EXPECT_EQ(c.at(16), Micros(4.0));
  EXPECT_EQ(c.at(32), Micros(5.0));
}

TEST(OverheadModel, PaperHandlerCosts) {
  const OverheadModel m = OverheadModel::PaperCoreI7();
  EXPECT_EQ(m.release_exec, Micros(3.0));
  EXPECT_EQ(m.sched_exec, Micros(5.0));
  EXPECT_EQ(m.ctxsw_exec, Micros(1.5));
}

TEST(OverheadModel, DeltaThetaAccessors) {
  const OverheadModel m = OverheadModel::PaperCoreI7();
  EXPECT_EQ(m.delta(4), Micros(3.3));
  EXPECT_EQ(m.theta(4), Micros(3.3));
  EXPECT_EQ(m.delta(64), Micros(4.6));
  EXPECT_EQ(m.theta(64), Micros(5.8));
}

TEST(OverheadModel, CompositeCosts) {
  const OverheadModel m = OverheadModel::PaperCoreI7();
  // rls at N=4: sleep_del(3.3) + release body(3.0) + ready_add(1.5).
  EXPECT_EQ(m.release_overhead(4), Micros(7.8));
  // sch without preemption at N=4: body(5.0) + ready_del(2.7).
  EXPECT_EQ(m.sched_overhead(4, false), Micros(7.7));
  // sch with preemption adds the ready re-insert (1.5).
  EXPECT_EQ(m.sched_overhead(4, true), Micros(9.2));
  EXPECT_EQ(m.ctxsw_in_overhead(), Micros(1.5));
  // finish normal at N=4: cnt(1.5) + local sleep add(2.5).
  EXPECT_EQ(m.finish_overhead_normal(4), Micros(4.0));
  // migrate to a 4-entry core: cnt(1.5) + remote ready add(3.3).
  EXPECT_EQ(m.migrate_overhead(4), Micros(4.8));
  // tail return to a 4-entry first core: cnt(1.5) + remote sleep add(2.9).
  EXPECT_EQ(m.finish_overhead_tail(4), Micros(4.4));
}

TEST(OverheadModel, ZeroModelAllZero) {
  const OverheadModel z = OverheadModel::Zero();
  EXPECT_EQ(z.release_overhead(64), 0);
  EXPECT_EQ(z.sched_overhead(64, true), 0);
  EXPECT_EQ(z.migrate_overhead(64), 0);
  EXPECT_EQ(z.cpmd(true), 0);
  EXPECT_EQ(z.delta(64), 0);
}

TEST(OverheadModel, ScaleMultipliesEverything) {
  const OverheadModel m1 = OverheadModel::PaperCoreI7();
  const OverheadModel m2 = OverheadModel::PaperScaled(2.0);
  EXPECT_EQ(m2.release_overhead(4), 2 * m1.release_overhead(4));
  EXPECT_EQ(m2.migrate_overhead(64), 2 * m1.migrate_overhead(64));
  EXPECT_EQ(m2.cpmd(false), 2 * m1.cpmd(false));
  const OverheadModel m0 = OverheadModel::PaperScaled(0.0);
  EXPECT_EQ(m0.release_overhead(4), 0);
}

TEST(OverheadModel, MigrationVsLocalCpmdSameOrder) {
  // The paper's qualitative cache finding encoded in the defaults.
  const OverheadModel m = OverheadModel::PaperCoreI7();
  EXPECT_GT(m.cpmd(true), 0);
  EXPECT_LE(m.cpmd(true), 2 * m.cpmd(false));
  EXPECT_LE(m.cpmd(false), 2 * m.cpmd(true));
}

TEST(OverheadModel, ChargesEqualTheAccessorsTheyReplace) {
  const std::pair<const char*, OverheadModel> models[] = {
      {"Zero", OverheadModel::Zero()},
      {"PaperCoreI7", OverheadModel::PaperCoreI7()},
      {"PaperScaled(0.5)", OverheadModel::PaperScaled(0.5)},
      {"PaperScaled(1.37)", OverheadModel::PaperScaled(1.37)},
      {"PaperScaled(4.0)", OverheadModel::PaperScaled(4.0)},
  };
  for (const auto& [name, m] : models) {
    for (std::size_t n = 1; n <= 256; ++n) {
      SCOPED_TRACE(testing::Message() << name << " n=" << n);
      const QueueCharges q = m.Charges(n);
      EXPECT_EQ(q.release, m.release_overhead(n));
      EXPECT_EQ(q.sched, m.sched_overhead(n, false));
      EXPECT_EQ(q.sched_preempt, m.sched_overhead(n, true));
      EXPECT_EQ(q.sched_keep, m.scaled(m.sched_exec));
      EXPECT_EQ(q.ctxsw_in, m.ctxsw_in_overhead());
      EXPECT_EQ(q.finish_normal, m.finish_overhead_normal(n));
      EXPECT_EQ(q.finish_tail, m.finish_overhead_tail(n));
      EXPECT_EQ(q.migrate, m.migrate_overhead(n));
      EXPECT_EQ(q.cpmd_local, m.cpmd(false));
      EXPECT_EQ(q.cpmd_migration, m.cpmd(true));
    }
  }
}

// ---- live calibration (smoke: shapes, not absolute values) ---------------

TEST(Calibrate, MeasuredTableHasSaneShape) {
  CalibrationConfig cfg;
  cfg.samples = 200;  // keep the test fast
  const Table1 t = MeasureTable1(cfg);
  // All cells positive.
  for (const auto* row : {&t.ready_add, &t.sleep_add}) {
    EXPECT_GT(row->local_n4, 0);
    EXPECT_GT(row->remote_n4, 0);
    EXPECT_GT(row->local_n64, 0);
    EXPECT_GT(row->remote_n64, 0);
    // Remote (cold-cache) never beats local at the same size.
    EXPECT_GE(row->remote_n4, row->local_n4);
    EXPECT_GE(row->remote_n64, row->local_n64);
  }
  EXPECT_GT(t.ready_del.local_n4, 0);
  EXPECT_GT(t.sleep_del.local_n4, 0);
  EXPECT_FALSE(t.ready_del.remote_applicable);
  EXPECT_FALSE(t.sleep_del.remote_applicable);
}

TEST(Calibrate, HandlerCostsPositive) {
  CalibrationConfig cfg;
  cfg.samples = 200;
  const HandlerCosts h = MeasureHandlerCosts(cfg);
  EXPECT_GT(h.release_exec, 0);
  EXPECT_GT(h.sched_exec, 0);
  EXPECT_GT(h.ctxsw_exec, 0);
}

TEST(Calibrate, FullCalibrationProducesUsableModel) {
  CalibrationConfig cfg;
  cfg.samples = 100;
  const OverheadModel m = Calibrate(cfg);
  EXPECT_GT(m.release_overhead(4), 0);
  EXPECT_GT(m.sched_overhead(4, true), m.sched_overhead(4, false) - 1);
  EXPECT_GT(m.cpmd(true), 0);
}

TEST(ModelFromMeasurements, RoundTripsPaperTable) {
  const HandlerCosts h{Micros(3.0), Micros(5.0), Micros(1.5)};
  const OverheadModel m =
      ModelFromMeasurements(PaperTable1(), h, Micros(20), Micros(20));
  const OverheadModel paper = OverheadModel::PaperCoreI7();
  EXPECT_EQ(m.release_overhead(4), paper.release_overhead(4));
  EXPECT_EQ(m.migrate_overhead(64), paper.migrate_overhead(64));
  EXPECT_EQ(m.delta(4), paper.delta(4));
  EXPECT_EQ(m.theta(64), paper.theta(64));
}

}  // namespace
}  // namespace sps::overhead
