// Tests for the service-level observability layer (DESIGN.md §15):
// the wall-clock span profiler under an injected fake clock (report
// semantics), the unified stats registry (delta / merge / export),
// differential profile-on/off replay identity (wall-clock must never
// leak into decisions or byte-compared artifacts), and Perfetto export
// edge cases (counter splice, empty trace).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"

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
// StatsSnapshot
// ---------------------------------------------------------------------------

TEST(StatsSnapshot, ExportsAreDeterministicAndNameSorted) {
  StatsSnapshot snap;
  snap.counters["zeta"] = 1;
  snap.counters["alpha"] = 2;
  snap.gauges["mid"] = 0.25;

  const std::string json = snap.ToJson();
  const std::string expected_json =
      "{\"counters\":{\"alpha\":2,\"zeta\":1},"
      "\"gauges\":{\"mid\":0.25}}";
  EXPECT_EQ(json, expected_json);

  const std::string csv = snap.ToCsv();
  const std::string expected_csv =
      "name,kind,value\n"
      "alpha,counter,2\n"
      "zeta,counter,1\n"
      "mid,gauge,0.25\n";
  EXPECT_EQ(csv, expected_csv);

  // Snapshots are values: equal content compares equal.
  const StatsSnapshot copy = snap;
  EXPECT_TRUE(copy == snap);
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

  // Validated: the hook still fires at close, once per row in order.
  // The validation fields are filled once the row's batch has run, so
  // they are read from the returned result, where every row with
  // residents is validated.
  online::ReplayConfig vcfg = rcfg;
  vcfg.epoch = Millis(250);
  vcfg.validate_by_simulation = true;
  vcfg.validate_sim.horizon = Millis(100);
  const online::ReplayResult vplain = online::ReplayStream(stream, vcfg);
  vcfg.obs = pcfg.obs;
  epoch_hooks = 0;
  const online::ReplayResult validated = online::ReplayStream(stream, vcfg);
  EXPECT_EQ(online::DecisionDiff(vplain, validated), "");
  EXPECT_EQ(epoch_hooks, validated.epochs.size());
  std::size_t resident_rows = 0;
  for (const online::EpochStats& e : validated.epochs) {
    if (e.resident == 0) continue;
    ++resident_rows;
    EXPECT_TRUE(e.validated);
  }
  EXPECT_GT(resident_rows, 8u);  // more than one batch
  EXPECT_GT(prof.StageHistogram(SpanStage::kEpochValidate).count(), 0u);
}

TEST(ProfiledReplay, ReplayStatsSnapshotMirrorsReplayResult) {
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

  const StatsSnapshot s = online::ReplayStatsSnapshot(res);
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
  EXPECT_EQ(s.ToJson(), online::ReplayStatsSnapshot(res).ToJson());
}

// ---------------------------------------------------------------------------
// Perfetto export edge cases
// ---------------------------------------------------------------------------

TEST(Perfetto, CounterSpliceManySeriesOfUnequalLengths) {
  // The exporter buffers counter events separately and splices them
  // into the main array at the end via JsonWriter::Raw — comma
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
  // A run that never produced a single event must still export a
  // well-formed document: metadata only, no dangling comma from the
  // never-used event array.
  PerfettoOptions opt;
  opt.num_cores = 1;
  const std::string doc = ToPerfettoJson({}, opt);
  EXPECT_EQ(doc,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
            "\"args\":{\"name\":\"sps simulation\"}},"
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
            "\"args\":{\"name\":\"core 0\"}}]}");
}

}  // namespace
}  // namespace sps::obs
