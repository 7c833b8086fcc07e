// Tests for the service-level observability layer (DESIGN.md §15):
// the wall-clock span profiler under an injected fake clock (report
// semantics), the unified stats
// registry (delta / merge / export), the TraceBuffer streaming drain
// (prefix pop, strict watermark, chunk recycling), streaming-window
// trace export byte-identity against the full-buffer path across shard
// counts with the bounded-memory claim asserted, and differential
// profile-on/off replay identity (wall-clock must never leak into
// decisions or byte-compared artifacts).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "obs/trace_buffer.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"

namespace sps::obs {
namespace {

// ---------------------------------------------------------------------------
// SpanProfiler under a fake clock
// ---------------------------------------------------------------------------

std::uint64_t g_fake_now = 0;
std::uint64_t FakeClock() { return g_fake_now; }

TEST(SpanProfiler, ScopedSpanRecordsWallDelta) {
  SpanProfiler prof(&FakeClock);
  g_fake_now = 100;
  {
    ScopedSpan span(&prof, SpanStage::kAnalysis);
    g_fake_now = 350;
  }
  const auto rows = prof.Report();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].stage, SpanStage::kAnalysis);
  EXPECT_EQ(rows[0].count, 1u);
  EXPECT_EQ(rows[0].total_ns, 250u);
}

TEST(SpanProfiler, NullProfilerIsANoOp) {
  // The profiling-off path: a null profiler must be droppable anywhere.
  ScopedSpan span(nullptr, SpanStage::kAdmitTotal);
  EXPECT_EQ(InstalledProfiler(), nullptr);
}

TEST(SpanProfiler, ReportQuantilesMatchLogHistogram) {
  SpanProfiler prof(&FakeClock);
  LogHistogram expect;
  for (int i = 0; i < 99; ++i) {
    prof.Record(SpanStage::kAdmitTotal, 0, 3);
    expect.Add(3);
  }
  prof.Record(SpanStage::kAdmitTotal, 0, 1000);
  expect.Add(1000);
  prof.Record(SpanStage::kLeave, 0, 7);

  const auto rows = prof.Report();
  ASSERT_EQ(rows.size(), 2u);  // zero-count stages omitted, enum order
  EXPECT_EQ(rows[0].stage, SpanStage::kAdmitTotal);
  EXPECT_EQ(rows[1].stage, SpanStage::kLeave);
  EXPECT_EQ(rows[0].count, 100u);
  EXPECT_EQ(rows[0].total_ns, 99u * 3u + 1000u);
  EXPECT_EQ(rows[0].p50, expect.Quantile(0.5));
  EXPECT_EQ(rows[0].p99, expect.Quantile(0.99));
  EXPECT_EQ(rows[0].p999, expect.Quantile(0.999));
  // StageHistogram returns the merged histogram itself.
  EXPECT_TRUE(prof.StageHistogram(SpanStage::kAdmitTotal) == expect);
  // Text / JSON reports carry the stage names.
  EXPECT_NE(prof.ToText().find("admit_total"), std::string::npos);
  EXPECT_NE(prof.ToJson().find("\"stage\":\"admit_total\""),
            std::string::npos);
}

TEST(SpanProfiler, InstallationIsScopedAndNests) {
  SpanProfiler outer(&FakeClock);
  SpanProfiler inner(&FakeClock);
  EXPECT_EQ(InstalledProfiler(), nullptr);
  {
    ProfilerInstallation a(&outer);
    EXPECT_EQ(InstalledProfiler(), &outer);
    {
      ProfilerInstallation b(&inner);
      EXPECT_EQ(InstalledProfiler(), &inner);
    }
    EXPECT_EQ(InstalledProfiler(), &outer);
  }
  EXPECT_EQ(InstalledProfiler(), nullptr);
}

// ---------------------------------------------------------------------------
// StatsRegistry / StatsSnapshot
// ---------------------------------------------------------------------------

TEST(StatsRegistry, DeltaSubtractsCountersKeepsGauges) {
  StatsRegistry reg;
  reg.SetCounter("admit.accepted", 10);
  reg.SetGauge("resident.count", 4.0);
  LogHistogram h1;
  h1.Add(3);
  reg.SetHistogram("admit.latency", h1);
  const StatsSnapshot earlier = reg.TakeSnapshot();

  reg.SetCounter("admit.accepted", 17);
  reg.AddCounter("admit.rejected", 2);
  reg.SetGauge("resident.count", 9.0);
  LogHistogram h2 = h1;
  h2.Add(3);
  h2.Add(100);
  reg.SetHistogram("admit.latency", h2);

  const StatsSnapshot d = reg.snapshot().Delta(earlier);
  EXPECT_EQ(d.counters.at("admit.accepted"), 7u);
  EXPECT_EQ(d.counters.at("admit.rejected"), 2u);  // absent earlier
  EXPECT_EQ(d.gauges.at("resident.count"), 9.0);   // level, not rate
  EXPECT_EQ(d.hists.at("admit.latency").count(), 2u);

  // A counter that went backwards (restart) saturates at zero.
  StatsSnapshot later = reg.TakeSnapshot();
  later.counters["admit.accepted"] = 3;
  EXPECT_EQ(later.Delta(earlier).counters.at("admit.accepted"), 0u);
}

TEST(StatsRegistry, MergeSumsEverything) {
  StatsRegistry a, b;
  a.SetCounter("memo.hits", 5);
  a.SetGauge("resident.utilization", 1.5);
  b.SetCounter("memo.hits", 7);
  b.SetCounter("memo.misses", 1);
  b.SetGauge("resident.utilization", 0.5);
  LogHistogram h;
  h.Add(9);
  b.SetHistogram("admit.latency", h);

  StatsSnapshot merged = a.TakeSnapshot();
  merged.Merge(b.snapshot());
  EXPECT_EQ(merged.counters.at("memo.hits"), 12u);
  EXPECT_EQ(merged.counters.at("memo.misses"), 1u);
  EXPECT_EQ(merged.gauges.at("resident.utilization"), 2.0);
  EXPECT_EQ(merged.hists.at("admit.latency").count(), 1u);
}

TEST(StatsRegistry, ExportsAreDeterministicAndNameSorted) {
  StatsRegistry reg;
  reg.SetCounter("zeta", 1);
  reg.SetCounter("alpha", 2);
  reg.SetGauge("mid", 0.25);
  LogHistogram h;
  h.Add(3);
  reg.SetHistogram("lat", h);

  const std::string json = reg.snapshot().ToJson();
  const std::string expected_json =
      "{\"counters\":{\"alpha\":2,\"zeta\":1},"
      "\"gauges\":{\"mid\":0.25},"
      "\"hists\":{\"lat\":{\"count\":1,\"p50_ns\":4,\"p99_ns\":4,"
      "\"buckets\":[0,0,1]}}}";
  EXPECT_EQ(json, expected_json);

  const std::string csv = reg.snapshot().ToCsv();
  const std::string expected_csv =
      "name,kind,value\n"
      "alpha,counter,2\n"
      "zeta,counter,1\n"
      "mid,gauge,0.25\n"
      "lat.count,hist,1\n"
      "lat.p50_ns,hist,4\n"
      "lat.p99_ns,hist,4\n";
  EXPECT_EQ(csv, expected_csv);

  // Snapshots are values: equal content compares equal.
  EXPECT_TRUE(reg.TakeSnapshot() == reg.snapshot());
}

// ---------------------------------------------------------------------------
// TraceBuffer streaming drain
// ---------------------------------------------------------------------------

trace::Event Ev(Time t, unsigned core, trace::EventKind k) {
  trace::Event e;
  e.time = t;
  e.core = core;
  e.kind = k;
  return e;
}

TEST(TraceBufferDrain, DrainBelowPopsStrictPrefixOnly) {
  TraceBuffer b;
  for (std::uint64_t k = 0; k < 10; ++k) {
    b.Append(Stamp{k, 0, 0, 0}, Ev(static_cast<Time>(k), 0,
                                   trace::EventKind::kRelease));
  }
  std::vector<StampedEvent> out;
  b.DrainBelow(5, out);  // strictly below: key 5 must stay buffered
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(b.size(), 5u);
  for (std::uint64_t k = 0; k < 5; ++k) EXPECT_EQ(out[k].stamp.key, k);

  // Drains append to `out` and keep going from where they stopped.
  b.DrainBelow(kTimeNever, out);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(out[5].stamp.key, 5u);
  EXPECT_EQ(out[9].stamp.key, 9u);
}

TEST(TraceBufferDrain, SettlesSameKeyTiesByStamp) {
  TraceBuffer b;
  // Lane-local append order is key-monotone but may emit same-key
  // records out of (chain, ordinal) order; the drain sorts them.
  b.Append(Stamp{4, 2, 1, 0}, Ev(4, 2, trace::EventKind::kStart));
  b.Append(Stamp{4, 2, 0, 1}, Ev(4, 2, trace::EventKind::kPreempt));
  b.Append(Stamp{4, 2, 0, 0}, Ev(4, 2, trace::EventKind::kRelease));
  std::vector<StampedEvent> out;
  b.DrainBelow(5, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].event.kind, trace::EventKind::kRelease);
  EXPECT_EQ(out[1].event.kind, trace::EventKind::kPreempt);
  EXPECT_EQ(out[2].event.kind, trace::EventKind::kStart);
}

TEST(TraceBufferDrain, InterleavedAppendDrainRecyclesChunks) {
  // Push far past one 512-event chunk while draining behind a moving
  // watermark: the buffer must stay small and lose nothing.
  TraceBuffer b;
  std::vector<StampedEvent> all;
  std::uint64_t next = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 100; ++i, ++next) {
      b.Append(Stamp{next, 0, 0, 0},
               Ev(static_cast<Time>(next), 0, trace::EventKind::kRelease));
    }
    b.DrainBelow(next >= 150 ? next - 150 : 0, all);
    EXPECT_LE(b.size(), 250u);
  }
  b.DrainBelow(kTimeNever, all);
  EXPECT_EQ(b.size(), 0u);
  ASSERT_EQ(all.size(), 4000u);
  for (std::uint64_t k = 0; k < all.size(); ++k) {
    EXPECT_EQ(all[k].stamp.key, k);
  }
  // A fully-drained buffer accepts fresh appends (tail-chunk reset).
  b.Append(Stamp{9999, 0, 0, 0}, Ev(9999, 0, trace::EventKind::kStart));
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.Sorted()[0].stamp.key, 9999u);
}

// ---------------------------------------------------------------------------
// Streaming-window trace export: byte identity + bounded memory
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

TEST(StreamingTrace, ByteIdenticalToFullBufferAcrossShardCounts) {
  const unsigned kCores = 4;
  const std::size_t kWindow = 512;
  const partition::Partition p = GeneratedSpa2Partition(kCores, 24, 3.4, 99);

  sim::SimConfig cfg;
  cfg.horizon = Millis(300);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.exec.kind = sim::ExecModel::Kind::kUniform;
  cfg.record_trace = true;

  PerfettoOptions opt;
  opt.num_cores = kCores;  // streaming cannot infer the track count

  // Reference: the canonical full-buffer trace (serial path).
  cfg.shards = 1;
  const sim::SimResult full = Simulate(p, cfg);
  ASSERT_GT(full.trace_events.size(), 2 * kWindow)
      << "workload too small to exercise streaming";
  const std::string full_doc = ToPerfettoJson(full.trace_events, opt);

  for (const unsigned shards : {1u, 2u, 0u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    PerfettoStreamDrain drain(opt);
    sim::SimConfig scfg = cfg;
    scfg.shards = shards;
    scfg.trace_drain = &drain;
    scfg.trace_window = kWindow;
    const sim::SimResult r = Simulate(p, scfg);

    // Streaming mode hands every event to the drain instead.
    EXPECT_TRUE(r.trace_events.empty());
    EXPECT_EQ(drain.stats().events, full.trace_events.size());
    // The run actually streamed — multiple windows, not one final dump.
    EXPECT_GE(drain.stats().batches, 2u);
    // Bounded memory: peak live stamped records stay near the window
    // (the slack covers one dispatch's same-key emission burst per lane).
    EXPECT_LE(drain.stats().peak_resident, kWindow + 256);
    // And the document is byte-for-byte the full-buffer export.
    EXPECT_EQ(drain.document(), full_doc);

    // Decisions are untouched by streaming.
    EXPECT_EQ(r.total_misses, full.total_misses);
    EXPECT_EQ(r.summary(), full.summary());
  }
}

// ---------------------------------------------------------------------------
// Differential: profiling on/off replay identity
// ---------------------------------------------------------------------------

TEST(ProfiledReplay, DecisionsAndArtifactsIdenticalWithProfilerOn) {
  online::StreamConfig scfg;
  scfg.num_admits = 60;
  scfg.span = Millis(5000);
  scfg.seed = 41;
  const online::WorkloadStream stream = online::GenerateStream(scfg);

  online::ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = 4;
  rcfg.controller.admission.model = overhead::OverheadModel::PaperCoreI7();
  rcfg.epoch = Millis(500);
  const online::ReplayResult plain = online::ReplayStream(stream, rcfg);

  SpanProfiler prof;  // real clock: only decisions are compared
  std::size_t epoch_hooks = 0;
  online::ReplayConfig pcfg = rcfg;
  pcfg.obs.profiler = &prof;
  pcfg.obs.on_epoch = [&epoch_hooks](std::size_t idx,
                                     const online::EpochStats&,
                                     const online::ReplayResult&) {
    EXPECT_EQ(idx, epoch_hooks);
    ++epoch_hooks;
  };
  const online::ReplayResult profiled = online::ReplayStream(stream, pcfg);

  // Wall-clock observation must not perturb a single decision, nor the
  // byte-compared epoch table.
  EXPECT_EQ(online::DecisionDiff(plain, profiled), "");
  EXPECT_EQ(plain.Table(), profiled.Table());
  EXPECT_EQ(epoch_hooks, profiled.epochs.size());

  // The profiler saw the pipeline: every ADMIT/REJECT went through the
  // admit span (re-admission retries may add more), and the installed
  // profiler was uninstalled on the way out.
  EXPECT_GE(prof.StageHistogram(SpanStage::kAdmitTotal).count(),
            profiled.admits + profiled.rejects);
  EXPECT_GT(prof.StageHistogram(SpanStage::kUtilScreen).count(), 0u);
  EXPECT_EQ(InstalledProfiler(), nullptr);
}

TEST(ProfiledReplay, FillStatsRegistryMirrorsReplayResult) {
  online::StreamConfig scfg;
  scfg.num_admits = 40;
  scfg.span = Millis(4000);
  scfg.seed = 7;
  const online::WorkloadStream stream = online::GenerateStream(scfg);

  online::ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = 4;
  rcfg.epoch = Millis(500);
  const online::ReplayResult res = online::ReplayStream(stream, rcfg);
  ASSERT_FALSE(res.epochs.empty());

  StatsRegistry reg;
  online::FillStatsRegistry(reg, res);
  const StatsSnapshot& s = reg.snapshot();
  EXPECT_EQ(s.counters.at("admit.accepted"), res.admits);
  EXPECT_EQ(s.counters.at("admit.rejected"), res.rejects);
  EXPECT_EQ(s.counters.at("admit.leaves"), res.leaves);
  EXPECT_EQ(s.counters.at("admit.full_tests"), res.admission.full_tests);
  EXPECT_EQ(s.counters.at("memo.hits"), res.admission.memo_hits);
  EXPECT_EQ(s.counters.at("churn.moved"), res.churn.moved);
  EXPECT_EQ(s.counters.at("epochs.closed"), res.epochs.size());
  EXPECT_EQ(s.gauges.at("resident.count"),
            static_cast<double>(res.epochs.back().resident));
  // The dump round-trips deterministically.
  EXPECT_EQ(s.ToJson(), reg.TakeSnapshot().ToJson());
}

// ---------------------------------------------------------------------------
// Counter-track splice edge cases (streaming writer vs one-shot)
// ---------------------------------------------------------------------------

TEST(Perfetto, CounterSpliceManySeriesOfUnequalLengths) {
  // The streaming writer buffers counter events separately and splices
  // them into the main array at Finish via JsonWriter::Raw — comma
  // placement has to survive any mix of series lengths, including an
  // EMPTY series sandwiched between non-empty ones.
  PerfettoOptions opt;
  opt.num_cores = 2;
  opt.extra_counters = {
      CounterSeries{"churn", {{Millis(1), 1.0}, {Millis(2), 2.0},
                              {Millis(3), 3.0}}},
      CounterSeries{"sheds", {{Millis(5), 1.0}}},
      CounterSeries{"empty track", {}},
      CounterSeries{"resident", {{Millis(1), 4.0}, {Millis(9), 5.0}}},
  };

  std::vector<trace::Event> events;
  trace::Event e;
  e.kind = trace::EventKind::kRelease;
  e.task = 1;
  e.time = Millis(1);
  events.push_back(e);
  e.kind = trace::EventKind::kStart;
  e.time = Millis(2);
  events.push_back(e);
  e.kind = trace::EventKind::kFinish;
  e.time = Millis(4);
  events.push_back(e);

  const std::string oneshot = ToPerfettoJson(events, opt);

  // Stream the same events in uneven batches; the document must come
  // out byte-identical (the two paths share one serializer).
  PerfettoStreamWriter w(opt);
  w.Append({events[0]});
  w.Append({});  // an empty batch must be harmless
  w.Append({events[1], events[2]});
  EXPECT_EQ(w.Finish(), oneshot);

  // All six points landed, as counter ("ph":"C") events.
  std::size_t counters = 0;
  const std::string needle = "\"ph\":\"C\"";
  for (std::size_t pos = oneshot.find(needle); pos != std::string::npos;
       pos = oneshot.find(needle, pos + 1)) {
    ++counters;
  }
  EXPECT_GE(counters, 6u);  // derived per-core tracks may add more
  EXPECT_NE(oneshot.find("\"name\":\"sheds\""), std::string::npos);
  EXPECT_NE(oneshot.find("\"name\":\"resident\""), std::string::npos);
  EXPECT_EQ(oneshot.find("\"name\":\"empty track\""), std::string::npos);
  EXPECT_EQ(std::count(oneshot.begin(), oneshot.end(), '{'),
            std::count(oneshot.begin(), oneshot.end(), '}'));
  EXPECT_EQ(std::count(oneshot.begin(), oneshot.end(), '['),
            std::count(oneshot.begin(), oneshot.end(), ']'));
}

TEST(Perfetto, ZeroEventStreamWriterEmitsValidDocument) {
  // A run that never produced a single event must still Finish into a
  // well-formed document: metadata only, no dangling comma from the
  // never-used event array.
  PerfettoOptions opt;
  opt.num_cores = 1;
  PerfettoStreamWriter w(opt);
  const std::string doc = w.Finish();
  EXPECT_EQ(doc,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
            "\"args\":{\"name\":\"sps simulation\"}},"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"core 0\"}}]}");
  // And it is exactly what the one-shot path says about no events.
  EXPECT_EQ(doc, ToPerfettoJson({}, opt));
}

}  // namespace
}  // namespace sps::obs
