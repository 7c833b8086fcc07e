// Tests for the observability subsystem (DESIGN.md §10): log2 histogram
// semantics, stamped trace buffers and their deterministic merge, the
// streaming-metrics invariants (histogram totals == completions,
// per-core busy + overhead + idle == span), serial-vs-sharded metrics
// equality, the MetricsReport writers, and the Perfetto exporter
// (golden-file + structural checks).

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/report.hpp"
#include "obs/sink.hpp"
#include "obs/trace_buffer.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"
#include "sim/global_engine.hpp"
#include "trace/gantt.hpp"

namespace sps::obs {
namespace {

using partition::kNormalPriorityBase;
using rt::MakeTask;

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

TEST(LogHistogram, BucketsByBitWidth) {
  LogHistogram h;
  h.Add(0);    // bucket 0
  h.Add(-5);   // bucket 0 (clamped)
  h.Add(1);    // bit_width(1)=1 -> bucket 1: [1,2)
  h.Add(2);    // bucket 2: [2,4)
  h.Add(3);    // bucket 2
  h.Add(4);    // bucket 3: [4,8)
  h.Add(1023); // bucket 10
  h.Add(1024); // bucket 11
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 2u);
  EXPECT_EQ(h.buckets[3], 1u);
  EXPECT_EQ(h.buckets[10], 1u);
  EXPECT_EQ(h.buckets[11], 1u);
  EXPECT_EQ(h.count(), 8u);
}

TEST(LogHistogram, SaturatesIntoLastBucket) {
  LogHistogram h;
  h.Add(kTimeNever);
  EXPECT_EQ(h.buckets[kHistBuckets - 1], 1u);
}

TEST(LogHistogram, QuantileReturnsBucketUpperBound) {
  LogHistogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);  // empty
  for (int i = 0; i < 99; ++i) h.Add(3);  // bucket 2, upper bound 4
  h.Add(1000);                            // bucket 10, upper bound 1024
  EXPECT_EQ(h.Quantile(0.5), 4);
  EXPECT_EQ(h.Quantile(0.99), 4);
  EXPECT_EQ(h.Quantile(1.0), 1024);
}

TEST(LogHistogram, MergeIsElementwiseSum) {
  LogHistogram a, b;
  a.Add(1);
  b.Add(1);
  b.Add(100);
  a += b;
  EXPECT_EQ(a.buckets[1], 2u);
  EXPECT_EQ(a.count(), 3u);
}

// ---------------------------------------------------------------------------
// TraceBuffer + merge
// ---------------------------------------------------------------------------

trace::Event Ev(Time t, unsigned core, trace::EventKind k) {
  trace::Event e;
  e.time = t;
  e.core = core;
  e.kind = k;
  return e;
}

TEST(TraceBuffer, MergeOrdersByStampAcrossLanes) {
  // Lane 0 holds stamps {1, 5}; lane 1 holds {2, 3, 5'} where 5' ties
  // the key but loses on the tiebreak. The merge must interleave them
  // into stamp order regardless of lane layout.
  TraceBuffer l0, l1;
  l0.Append(Stamp{5, 0, 0, 0}, Ev(5, 0, trace::EventKind::kStart));
  l0.Append(Stamp{1, 0, 0, 0}, Ev(1, 0, trace::EventKind::kRelease));
  l1.Append(Stamp{2, 1, 0, 0}, Ev(2, 1, trace::EventKind::kRelease));
  l1.Append(Stamp{3, 1, 0, 0}, Ev(3, 1, trace::EventKind::kStart));
  l1.Append(Stamp{5, 1, 0, 0}, Ev(5, 1, trace::EventKind::kFinish));

  const std::vector<trace::Event> merged = MergeTraceBuffers({&l0, &l1});
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].time, 1);
  EXPECT_EQ(merged[1].time, 2);
  EXPECT_EQ(merged[2].time, 3);
  EXPECT_EQ(merged[3].time, 5);
  EXPECT_EQ(merged[3].core, 0u);  // tiebreak 0 before tiebreak 1
  EXPECT_EQ(merged[4].core, 1u);
}

TEST(TraceBuffer, ChainAndOrdinalRefineEqualKeys) {
  TraceBuffer b;
  b.Append(Stamp{7, 2, 1, 0}, Ev(7, 2, trace::EventKind::kStart));
  b.Append(Stamp{7, 2, 0, 1}, Ev(7, 2, trace::EventKind::kPreempt));
  b.Append(Stamp{7, 2, 0, 0}, Ev(7, 2, trace::EventKind::kRelease));
  const std::vector<trace::Event> merged = MergeTraceBuffers({&b});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].kind, trace::EventKind::kRelease);
  EXPECT_EQ(merged[1].kind, trace::EventKind::kPreempt);
  EXPECT_EQ(merged[2].kind, trace::EventKind::kStart);
}

TEST(TraceBuffer, SurvivesChunkGrowth) {
  TraceBuffer b;
  const int n = 5000;  // multiple chunks
  for (int i = n - 1; i >= 0; --i) {
    b.Append(Stamp{static_cast<std::uint64_t>(i), 0, 0, 0},
             Ev(i, 0, trace::EventKind::kRelease));
  }
  EXPECT_EQ(b.size(), static_cast<std::size_t>(n));
  const std::vector<trace::Event> merged = MergeTraceBuffers({&b});
  ASSERT_EQ(merged.size(), static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) EXPECT_EQ(merged[i].time, i);
}

// ---------------------------------------------------------------------------
// Streaming-metrics invariants
// ---------------------------------------------------------------------------

partition::Partition GeneratedSpa2Partition(unsigned cores,
                                            std::size_t tasks, double util,
                                            std::uint64_t seed) {
  rt::GeneratorConfig gen;
  gen.num_tasks = tasks;
  gen.total_utilization = util;
  rt::Rng rng(seed);
  const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
  partition::SpaConfig scfg;
  scfg.num_cores = cores;
  scfg.preassign_heavy = true;
  const auto pr = partition::SpaPartition(ts, scfg);
  EXPECT_TRUE(pr.success);
  return pr.partition;
}

void CheckInvariants(const sim::SimResult& r, Time horizon) {
  ASSERT_TRUE(r.metrics.enabled());
  EXPECT_EQ(r.metrics.span, horizon);
  ASSERT_EQ(r.metrics.tasks.size(), r.tasks.size());
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    // Histogram totals == job count: every completion lands in exactly
    // one response bucket; tardiness only counts late completions.
    EXPECT_EQ(r.metrics.tasks[i].response.count(), r.tasks[i].completed);
    EXPECT_LE(r.metrics.tasks[i].tardiness.count(),
              r.tasks[i].deadline_misses);
  }
  ASSERT_EQ(r.metrics.cores.size(), r.cores.size());
  for (std::size_t c = 0; c < r.metrics.cores.size(); ++c) {
    SCOPED_TRACE("core " + std::to_string(c));
    const CoreMetrics& m = r.metrics.cores[c];
    // Wall conservation: every nanosecond of the span is exactly one of
    // busy / overhead / idle.
    EXPECT_EQ(m.busy + m.overhead + m.idle, r.metrics.span);
    // Metrics busy covers at least the booked progress (it additionally
    // includes the truncated in-flight segment at the horizon).
    EXPECT_GE(m.busy, 0);
    EXPECT_GE(m.idle, 0);
  }
}

TEST(MetricsInvariants, HoldOnGeneratedWorkloadWithOverheads) {
  const partition::Partition p = GeneratedSpa2Partition(4, 24, 3.4, 2024);
  sim::SimConfig cfg;
  cfg.horizon = Millis(400);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.exec.kind = sim::ExecModel::Kind::kUniform;
  cfg.arrivals.kind = sim::ArrivalModel::Kind::kSporadicUniformDelay;
  cfg.record_metrics = true;
  const sim::SimResult r = Simulate(p, cfg);
  CheckInvariants(r, cfg.horizon);
  // The workload completes jobs and keeps cores busy.
  EXPECT_GT(r.metrics.tasks[0].response.count(), 0u);
  EXPECT_GT(r.metrics.cores[0].busy, 0);
}

TEST(MetricsInvariants, HoldUnderEveryArrivalModel) {
  const partition::Partition p = GeneratedSpa2Partition(4, 20, 3.2, 77);
  for (const sim::ArrivalModel::Kind kind :
       {sim::ArrivalModel::Kind::kPeriodic,
        sim::ArrivalModel::Kind::kSporadicUniformDelay,
        sim::ArrivalModel::Kind::kJittered,
        sim::ArrivalModel::Kind::kBursty}) {
    SCOPED_TRACE(static_cast<int>(kind));
    sim::SimConfig cfg;
    cfg.horizon = Millis(300);
    cfg.overheads = overhead::OverheadModel::PaperCoreI7();
    cfg.arrivals.kind = kind;
    cfg.record_metrics = true;
    CheckInvariants(Simulate(p, cfg), cfg.horizon);
  }
}

TEST(MetricsInvariants, TardinessRecordedOnOverload) {
  // One core, two tasks that cannot both fit: misses with tardiness.
  partition::Partition p;
  p.num_cores = 1;
  for (int i = 0; i < 2; ++i) {
    partition::PlacedTask pt;
    pt.task = MakeTask(static_cast<rt::TaskId>(i), Millis(6), Millis(10));
    pt.parts = {{0, Millis(6),
                 static_cast<rt::Priority>(i) + kNormalPriorityBase}};
    p.tasks.push_back(pt);
  }
  sim::SimConfig cfg;
  cfg.horizon = Millis(200);
  cfg.record_metrics = true;
  const sim::SimResult r = Simulate(p, cfg);
  CheckInvariants(r, cfg.horizon);
  EXPECT_GT(r.total_misses, 0u);
  const TaskMetrics& lp = r.metrics.tasks[1];
  EXPECT_GT(lp.tardiness.count(), 0u);
  EXPECT_GT(lp.max_tardiness, 0);
}

TEST(MetricsInvariants, GlobalEngineRecordsMetricsToo) {
  rt::TaskSet ts;
  ts.add(MakeTask(0, Millis(1), Millis(10)));
  ts.add(MakeTask(1, Millis(1), Millis(10)));
  ts.add(MakeTask(2, Millis(8), Millis(11)));
  rt::AssignRateMonotonic(ts);
  sim::GlobalSimConfig cfg;
  cfg.num_cores = 2;
  cfg.horizon = Millis(300);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.record_metrics = true;
  const sim::SimResult r = SimulateGlobal(ts, cfg);
  ASSERT_TRUE(r.metrics.enabled());
  for (std::size_t i = 0; i < r.tasks.size(); ++i) {
    EXPECT_EQ(r.metrics.tasks[i].response.count(), r.tasks[i].completed);
  }
  for (const CoreMetrics& m : r.metrics.cores) {
    EXPECT_EQ(m.busy + m.overhead + m.idle, r.metrics.span);
  }
}

// ---------------------------------------------------------------------------
// Serial vs sharded metrics equality (the trace differentials live in
// test_queue_concept.cpp next to the other ShardedSim suites)
// ---------------------------------------------------------------------------

TEST(MetricsSharded, IdenticalReportAcrossShardCounts) {
  const partition::Partition p = GeneratedSpa2Partition(4, 24, 3.4, 99);
  sim::SimConfig cfg;
  cfg.horizon = Millis(300);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.exec.kind = sim::ExecModel::Kind::kUniform;
  cfg.record_metrics = true;
  cfg.shards = 1;
  const sim::SimResult serial = Simulate(p, cfg);
  const MetricsReport serial_rep = BuildMetricsReport(serial);
  for (const unsigned shards : {2u, 0u}) {
    SCOPED_TRACE(shards);
    cfg.shards = shards;
    const sim::SimResult sharded = Simulate(p, cfg);
    EXPECT_TRUE(serial.metrics == sharded.metrics);
    const MetricsReport rep = BuildMetricsReport(sharded);
    EXPECT_TRUE(serial_rep == rep);
    EXPECT_EQ(serial_rep.ToJson(), rep.ToJson());
    EXPECT_EQ(serial_rep.TaskCsv(), rep.TaskCsv());
    EXPECT_EQ(serial_rep.CoreCsv(), rep.CoreCsv());
  }
}

// ---------------------------------------------------------------------------
// MetricsReport writers
// ---------------------------------------------------------------------------

TEST(MetricsReport, JsonAndCsvCarryKeyFields) {
  const partition::Partition p = GeneratedSpa2Partition(2, 8, 1.4, 5);
  sim::SimConfig cfg;
  cfg.horizon = Millis(100);
  cfg.record_metrics = true;
  const sim::SimResult r = Simulate(p, cfg);
  const MetricsReport rep = BuildMetricsReport(r);
  ASSERT_EQ(rep.tasks.size(), r.tasks.size());
  ASSERT_EQ(rep.cores.size(), 2u);

  const std::string json = rep.ToJson();
  EXPECT_NE(json.find("\"span_ns\":100000000"), std::string::npos);
  EXPECT_NE(json.find("\"response_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_ns\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  const std::string tcsv = rep.TaskCsv();
  EXPECT_NE(tcsv.find("task,released,completed"), std::string::npos);
  EXPECT_EQ(std::count(tcsv.begin(), tcsv.end(), '\n'),
            static_cast<std::ptrdiff_t>(1 + rep.tasks.size()));
  const std::string ccsv = rep.CoreCsv();
  EXPECT_NE(ccsv.find("core,busy_ns,overhead_ns,idle_ns"),
            std::string::npos);
  EXPECT_EQ(std::count(ccsv.begin(), ccsv.end(), '\n'), 3);

  // p50 <= p99 <= 2 * max (log2 bucket upper bound) on every task row.
  for (const MetricsReport::TaskRow& t : rep.tasks) {
    EXPECT_LE(t.p50_response, t.p99_response);
    if (t.completed > 0) {
      EXPECT_LE(t.p99_response, 2 * std::max<Time>(t.max_response, 1));
    }
  }
}

// ---------------------------------------------------------------------------
// Perfetto exporter
// ---------------------------------------------------------------------------

TEST(Perfetto, GoldenDocumentForHandBuiltTrace) {
  // A minimal two-core scenario: release + overhead + exec + preempt +
  // finish. The expected document is the committed golden — it pins the
  // exporter's byte-level output (ordering, field set, formatting), so
  // any change to the format is a conscious diff here.
  std::vector<trace::Event> ev;
  {
    trace::Event e;
    e.time = Millis(1);
    e.core = 0;
    e.kind = trace::EventKind::kRelease;
    e.task = 3;
    e.job = 1;
    ev.push_back(e);
    e.kind = trace::EventKind::kOverheadBegin;
    e.overhead = trace::OverheadKind::kRls;
    e.duration = Micros(10);
    ev.push_back(e);
    e = trace::Event{};
    e.time = Millis(1) + Micros(10);
    e.core = 0;
    e.kind = trace::EventKind::kStart;
    e.task = 3;
    e.job = 1;
    ev.push_back(e);
    e = trace::Event{};
    e.time = Millis(2);
    e.core = 0;
    e.kind = trace::EventKind::kFinish;
    e.task = 3;
    e.job = 1;
    ev.push_back(e);
  }
  const std::string doc = ToPerfettoJson(ev, {.num_cores = 1});
  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
      "\"args\":{\"name\":\"sps simulation\"}},"
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
      "\"args\":{\"name\":\"core 0\"}},"
      "{\"name\":\"release\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\","
      "\"ts\":1000,\"pid\":0,\"tid\":0,\"args\":{\"task\":\"tau3 job1\"}},"
      "{\"name\":\"rls\",\"cat\":\"overhead\",\"ph\":\"X\",\"ts\":1000,"
      "\"dur\":10,\"pid\":0,\"tid\":0},"
      "{\"name\":\"tau3 job1\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":1010,"
      "\"dur\":990,\"pid\":0,\"tid\":0},"
      "{\"name\":\"ready core0\",\"ph\":\"C\",\"ts\":1000,\"pid\":0,"
      "\"args\":{\"value\":1}},"
      "{\"name\":\"jobs core0\",\"ph\":\"C\",\"ts\":1000,\"pid\":0,"
      "\"args\":{\"value\":1}},"
      "{\"name\":\"ready core0\",\"ph\":\"C\",\"ts\":1010,\"pid\":0,"
      "\"args\":{\"value\":0}},"
      "{\"name\":\"jobs core0\",\"ph\":\"C\",\"ts\":2000,\"pid\":0,"
      "\"args\":{\"value\":0}}"
      "]}";
  EXPECT_EQ(doc, expected);

  // Counter tracks off restores the slice-only document.
  PerfettoOptions no_counters;
  no_counters.num_cores = 1;
  no_counters.counter_tracks = false;
  const std::string plain = ToPerfettoJson(ev, no_counters);
  EXPECT_EQ(plain.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Perfetto, CounterTracksFollowQueueAndJobLifecycles) {
  // Two releases back to back: depth climbs to 2, drains as each starts;
  // in-flight jobs only fall at the finishes.
  std::vector<trace::Event> ev;
  auto push = [&ev](Time t, trace::EventKind k, rt::TaskId task) {
    trace::Event e;
    e.time = t;
    e.kind = k;
    e.task = task;
    ev.push_back(e);
  };
  push(Millis(1), trace::EventKind::kRelease, 0);
  push(Millis(1), trace::EventKind::kRelease, 1);
  push(Millis(1), trace::EventKind::kStart, 0);
  push(Millis(2), trace::EventKind::kPreempt, 0);
  push(Millis(2), trace::EventKind::kStart, 1);
  push(Millis(3), trace::EventKind::kFinish, 1);
  push(Millis(3), trace::EventKind::kStart, 0);
  push(Millis(4), trace::EventKind::kFinish, 0);
  const std::string doc = ToPerfettoJson(ev, {.num_cores = 1});
  // Depth sequence 1,2,1,2,1,0; jobs 1,2,1,0. Spot-check the peaks and
  // the final zeros.
  EXPECT_NE(doc.find("\"name\":\"ready core0\",\"ph\":\"C\",\"ts\":1000,"
                     "\"pid\":0,\"args\":{\"value\":2}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"jobs core0\",\"ph\":\"C\",\"ts\":3000,"
                     "\"pid\":0,\"args\":{\"value\":1}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"jobs core0\",\"ph\":\"C\",\"ts\":4000,"
                     "\"pid\":0,\"args\":{\"value\":0}"),
            std::string::npos);
}

TEST(Perfetto, GlobalEngineCountersDoNotDrift) {
  // The global engine releases on the irq core, starts wherever the
  // dispatcher lands, and emits kMigrateIn with no kMigrateOut — the
  // per-TASK booking must keep every counter bounded and drain it by
  // the end of the trace (a naive per-core state machine drifts
  // upward without bound here).
  rt::TaskSet ts;
  ts.add(rt::MakeTask(0, Millis(1), Millis(10)));
  ts.add(rt::MakeTask(1, Millis(1), Millis(10)));
  ts.add(rt::MakeTask(2, Millis(8), Millis(11)));
  rt::AssignRateMonotonic(ts);
  sim::GlobalSimConfig cfg;
  cfg.num_cores = 2;
  cfg.horizon = Millis(300);
  cfg.record_trace = true;
  const sim::SimResult r = SimulateGlobal(ts, cfg);
  ASSERT_FALSE(r.trace_events.empty());
  const std::string doc = ToPerfettoJson(r.trace_events, {.num_cores = 2});
  // Every counter value in the document stays within the task count —
  // no monotone drift.
  const std::string needle = "\"value\":";
  for (std::size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + 1)) {
    const double v = std::strtod(doc.c_str() + pos + needle.size(), nullptr);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 3.0) << "counter drifted at offset " << pos;
  }
}

TEST(Perfetto, ExtraCounterSeriesAreEmitted) {
  PerfettoOptions opt;
  opt.num_cores = 1;
  CounterSeries churn;
  churn.name = "online churn";
  churn.points = {{Millis(1), 0.0}, {Millis(2), 3.0}};
  opt.extra_counters.push_back(churn);
  const std::string doc = ToPerfettoJson({}, opt);
  EXPECT_NE(doc.find("\"name\":\"online churn\",\"ph\":\"C\",\"ts\":1000,"
                     "\"pid\":0,\"args\":{\"value\":0}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"online churn\",\"ph\":\"C\",\"ts\":2000,"
                     "\"pid\":0,\"args\":{\"value\":3}"),
            std::string::npos);
}

TEST(Perfetto, RealSimulationExportIsStructurallySound) {
  const partition::Partition p = GeneratedSpa2Partition(4, 16, 2.8, 11);
  sim::SimConfig cfg;
  cfg.horizon = Millis(100);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.record_trace = true;
  const sim::SimResult r = Simulate(p, cfg);
  ASSERT_FALSE(r.trace_events.empty());
  const std::string doc = ToPerfettoJson(r.trace_events, {.num_cores = 4});
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
  EXPECT_NE(doc.find("\"core 3\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"exec\""), std::string::npos);
  EXPECT_NE(doc.find("\"cat\":\"overhead\""), std::string::npos);
  // Deterministic: exporting the same trace twice is byte-identical.
  EXPECT_EQ(doc, ToPerfettoJson(r.trace_events, {.num_cores = 4}));
}

}  // namespace
}  // namespace sps::obs
