// Tests for the trace module: event formatting and the Gantt renderer on
// hand-built event streams.

#include <gtest/gtest.h>

#include <algorithm>

#include "trace/gantt.hpp"
#include "trace/trace.hpp"

namespace sps::trace {
namespace {

Event Ev(Time t, unsigned core, EventKind k, rt::TaskId task,
         OverheadKind ovh = OverheadKind::kNone, Time dur = 0) {
  Event e;
  e.time = t;
  e.core = core;
  e.kind = k;
  e.task = task;
  e.overhead = ovh;
  e.duration = dur;
  return e;
}

TEST(Format, EventStringsContainKeyFields) {
  const std::string s =
      FormatEvent(Ev(Millis(12.5), 1, EventKind::kMigrateIn, 3));
  EXPECT_NE(s.find("core1"), std::string::npos);
  EXPECT_NE(s.find("MIGRATE_IN"), std::string::npos);
  EXPECT_NE(s.find("tau3"), std::string::npos);

  const std::string o = FormatEvent(
      Ev(Millis(1), 0, EventKind::kOverheadBegin, 2, OverheadKind::kRls,
         Micros(7.8)));
  EXPECT_NE(o.find("rls"), std::string::npos);
  EXPECT_NE(o.find("7.8"), std::string::npos);
}

TEST(Format, AllKindsHaveNames) {
  for (int k = 0; k <= static_cast<int>(EventKind::kIdle); ++k) {
    EXPECT_STRNE(ToString(static_cast<EventKind>(k)), "?");
  }
  for (int k = 0; k <= static_cast<int>(OverheadKind::kCache); ++k) {
    EXPECT_STRNE(ToString(static_cast<OverheadKind>(k)), "?");
  }
}

TEST(Gantt, PaintsRunSegmentsAndOverheads) {
  std::vector<Event> ev;
  ev.push_back(Ev(0, 0, EventKind::kStart, 1));
  ev.push_back(Ev(Millis(5), 0, EventKind::kPreempt, 1));
  ev.push_back(Ev(Millis(5), 0, EventKind::kOverheadBegin, 2,
                  OverheadKind::kSch, Millis(1)));
  ev.push_back(Ev(Millis(6), 0, EventKind::kStart, 2));
  ev.push_back(Ev(Millis(10), 0, EventKind::kFinish, 2));
  GanttOptions opt;
  opt.columns = 20;
  opt.end = Millis(10);
  const std::string g = RenderGantt(ev, opt);
  EXPECT_NE(g.find('1'), std::string::npos);
  EXPECT_NE(g.find('2'), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
  EXPECT_NE(g.find("core0"), std::string::npos);
}

TEST(Gantt, EmptyTraceHandled) {
  EXPECT_EQ(RenderGantt({}, {}), "(empty trace)\n");
}

TEST(Csv, ExportsHeaderAndRows) {
  std::vector<Event> ev = {
      Ev(Millis(1), 0, EventKind::kStart, 3),
      Ev(Millis(2), 1, EventKind::kOverheadBegin, 3, OverheadKind::kRls,
         Micros(7.8))};
  const std::string csv = ToCsv(ev);
  EXPECT_NE(csv.find("time_ns,core,kind,overhead,task,job,duration_ns"),
            std::string::npos);
  EXPECT_NE(csv.find("1000000,0,START,-,3,0,0"), std::string::npos);
  EXPECT_NE(csv.find("2000000,1,OVH_BEGIN,rls,3,0,7800"),
            std::string::npos);
  // One header + one line per event.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(Gantt, EventLogFiltersWindow) {
  std::vector<Event> ev = {Ev(Millis(1), 0, EventKind::kStart, 1),
                           Ev(Millis(5), 0, EventKind::kFinish, 1),
                           Ev(Millis(9), 0, EventKind::kStart, 2)};
  const std::string log = RenderEventLog(ev, Millis(2), Millis(8));
  EXPECT_EQ(log.find("START"), log.rfind("START"));  // only one START
  EXPECT_NE(log.find("FINISH"), std::string::npos);
}

}  // namespace
}  // namespace sps::trace
