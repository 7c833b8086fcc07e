// Tests for request-scoped tracing, tail-based sampling, and the
// crash-dump flight recorder (DESIGN.md §16):
//
//  * request-tracing semantics under a fake clock — parent-linked span
//    trees, stage attributes, deterministic trace ids;
//  * the tail-sampling rule — slowest-K by root duration (heap
//    eviction order), "interesting" retention for ladder / fallback /
//    diverged requests, the O(K·depth) retained-memory bound held at
//    100k+ requests;
//  * the flight ring — wraparound, epoch records, dump-to-JSON, and a
//    DumpFlight racing live tracing threads (the TSan lane runs this
//    file);
//  * the §15/§16 wall-clock firewall, differentially: tracing ON vs
//    OFF must leave every decision, the stats registry dump, the
//    per-epoch table, and the durability artifacts (journal +
//    checkpoints) byte-identical — across shard counts and job counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/memo.hpp"
#include "obs/flight.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "util/rng.hpp"

namespace sps::obs {
namespace {

std::uint64_t g_fake_now = 0;
std::uint64_t FakeClock() { return g_fake_now; }

// ---------------------------------------------------------------------------
// Span trees under a fake clock
// ---------------------------------------------------------------------------

TEST(RequestTracer, RecordsParentLinkedTreeWithAttrs) {
  SpanProfiler prof({.top_k = 4}, &FakeClock);
  ProfilerInstallation pi(&prof);

  g_fake_now = 1000;
  prof.BeginTrace(/*trace_id=*/77, /*seq=*/5, /*is_admit=*/true);
  {
    ScopedSpan root(&prof, SpanStage::kAdmitTotal);
    {
      ScopedSpan place(&prof, SpanStage::kPlacement);
      TraceAttr(3);  // cores probed
      {
        ScopedSpan screen(&prof, SpanStage::kUtilScreen);
        g_fake_now = 1100;
      }
      {
        ScopedSpan memo(&prof, SpanStage::kMemoProbe);
        TraceAttr(1);  // memo hit
        g_fake_now = 1250;
      }
      g_fake_now = 1300;
    }
    g_fake_now = 1500;
  }
  prof.EndTrace(false, false, false);

  const std::vector<RequestTrace> traces = prof.Retained();
  ASSERT_EQ(traces.size(), 1u);
  const RequestTrace& t = traces[0];
  EXPECT_EQ(t.trace_id, 77u);
  EXPECT_EQ(t.seq, 5u);
  EXPECT_TRUE(t.is_admit);
  EXPECT_TRUE(t.slow);  // first K traces always land in the top-K heap
  EXPECT_EQ(t.root_dur_ns, 500u);
  ASSERT_EQ(t.spans.size(), 4u);
  // Open order: admit_total(0) → placement(1) → util_screen(2) →
  // memo_probe(3); parents link the tree, children index above parents.
  EXPECT_EQ(t.spans[0].stage, SpanStage::kAdmitTotal);
  EXPECT_EQ(t.spans[0].parent, -1);
  EXPECT_EQ(t.spans[1].stage, SpanStage::kPlacement);
  EXPECT_EQ(t.spans[1].parent, 0);
  EXPECT_EQ(t.spans[1].attr, 3);
  EXPECT_EQ(t.spans[2].stage, SpanStage::kUtilScreen);
  EXPECT_EQ(t.spans[2].parent, 1);
  EXPECT_EQ(t.spans[2].dur_ns, 100u);
  EXPECT_EQ(t.spans[3].stage, SpanStage::kMemoProbe);
  EXPECT_EQ(t.spans[3].parent, 1);
  EXPECT_EQ(t.spans[3].attr, 1);
  EXPECT_EQ(t.spans[3].dur_ns, 150u);
}

TEST(RequestTracer, SampledStagesCountEveryCallAndTimeOneInN) {
  // SampledSpan counts every occurrence, reads the clock on one in
  // kSampleEvery (per thread and stage) and charges each occurrence the
  // latest timed duration; it writes no tree node and no flight record.
  const std::string dir = ::testing::TempDir() + "sps_sampled";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SpanProfiler prof({.top_k = 4, .flight_dir = dir},
                    &FakeClock);
  ProfilerInstallation pi(&prof);
  constexpr std::uint64_t kN = SampledSpan::kSampleEvery;
  g_fake_now = 1000;
  prof.BeginTrace(/*trace_id=*/9, /*seq=*/1, /*is_admit=*/true);
  {
    ScopedSpan root(&prof, SpanStage::kAdmitTotal);
    for (std::uint64_t i = 0; i < 2 * kN + 2; ++i) {
      SampledSpan screen(&prof, SpanStage::kUtilScreen);
      // Timed occurrences (i = 0, kN, 2kN) take 10, 20, 30 ns; the
      // untimed ones take 1 ns, which the profiler never sees.
      g_fake_now += i % kN == 0 ? 10 * (i / kN + 1) : 1;
    }
    {
      SampledSpan memo(&prof, SpanStage::kMemoProbe);
      g_fake_now += 7;
    }
  }
  prof.EndTrace(false, false, false);
  { SampledSpan off(nullptr, SpanStage::kUtilScreen); }  // a no-op

  std::uint64_t screen_count = 0, screen_ns = 0, memo_count = 0,
                memo_ns = 0;
  for (const SpanProfiler::StageReport& r : prof.Report()) {
    if (r.stage == SpanStage::kUtilScreen) {
      screen_count = r.count;
      screen_ns = r.total_ns;
    } else if (r.stage == SpanStage::kMemoProbe) {
      memo_count = r.count;
      memo_ns = r.total_ns;
    }
  }
  EXPECT_EQ(screen_count, 2 * kN + 2);
  EXPECT_EQ(screen_ns, kN * 10 + kN * 20 + 2 * 30);
  EXPECT_EQ(memo_count, 1u);
  EXPECT_EQ(memo_ns, 7u);
  const std::vector<RequestTrace> traces = prof.Retained();
  ASSERT_EQ(traces.size(), 1u);
  ASSERT_EQ(traces[0].spans.size(), 1u);  // the root only
  std::string path, err;
  ASSERT_TRUE(prof.DumpFlight("sampled", &path, &err)) << err;
  std::ifstream in(path);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_EQ(doc.find("util_screen"), std::string::npos);
  EXPECT_EQ(doc.find("memo_probe"), std::string::npos);
  EXPECT_NE(doc.find("admit_total"), std::string::npos);
}

TEST(RequestTracer, SpansOutsideATraceAreDroppedFromTrees) {
  SpanProfiler prof({.top_k = 4}, &FakeClock);
  ProfilerInstallation pi(&prof);
  {
    ScopedSpan orphan(&prof, SpanStage::kEpochApply);  // no BeginTrace
    g_fake_now += 10;
  }
  EXPECT_TRUE(prof.Retained().empty());
  EXPECT_EQ(prof.retain_stats().traces_seen, 0u);
}

TEST(RequestTracer, UntracedProfilerIsANoOpForTraceHooks) {
  SpanProfiler prof(&FakeClock);
  ProfilerInstallation pi(&prof);
  ASSERT_FALSE(prof.tracing());
  ScopedSpan span(&prof, SpanStage::kAnalysis);
  TraceAttr(42);  // must not crash with tracing off
}

TEST(RequestTracer, TraceIdsDeriveFromSeqDeterministically) {
  // The replay loop derives trace ids as DeriveSeed(seed, seq, axis) —
  // pure, so the same (seed, seq) always names the same trace across
  // runs, recoveries, and machines.
  const std::uint64_t a = util::DeriveSeed(42, 812404, kTraceIdAxis);
  EXPECT_EQ(a, util::DeriveSeed(42, 812404, kTraceIdAxis));
  EXPECT_NE(a, util::DeriveSeed(42, 812405, kTraceIdAxis));
  EXPECT_NE(a, util::DeriveSeed(43, 812404, kTraceIdAxis));
}

// ---------------------------------------------------------------------------
// Tail-based sampling
// ---------------------------------------------------------------------------

/// Drive one whole trace through the traced profiler: `spans` nested spans, the
/// root lasting `root_ns`.
void OneTrace(SpanProfiler& prof, std::uint64_t seq, std::uint64_t root_ns,
              bool interesting = false, int depth = 2) {
  prof.BeginTrace(util::DeriveSeed(1, seq, kTraceIdAxis), seq, true);
  {
    ScopedSpan root(&prof, SpanStage::kAdmitTotal);
    for (int d = 1; d < depth; ++d) {
      ScopedSpan inner(&prof, SpanStage::kAnalysis);
      g_fake_now += 1;
    }
    g_fake_now += root_ns - static_cast<std::uint64_t>(depth - 1);
  }
  prof.EndTrace(/*via_ladder=*/interesting, false, false);
}

TEST(RequestTracer, TopKKeepsTheSlowestAndEvictsTheFastest) {
  SpanProfiler prof({.top_k = 3}, &FakeClock);
  ProfilerInstallation pi(&prof);
  // Durations 10,20,...,80 — only {60,70,80} may survive with K=3.
  for (std::uint64_t i = 1; i <= 8; ++i) OneTrace(prof, i, i * 10);

  const std::vector<RequestTrace> kept = prof.Retained();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].root_dur_ns, 60u);
  EXPECT_EQ(kept[1].root_dur_ns, 70u);
  EXPECT_EQ(kept[2].root_dur_ns, 80u);
  const SpanProfiler::RetainStats rs = prof.retain_stats();
  EXPECT_EQ(rs.traces_seen, 8u);
  EXPECT_EQ(rs.retained_slow, 3u);
  EXPECT_EQ(rs.retained_interesting, 0u);
}

TEST(RequestTracer, InterestingTracesSurviveEvenWhenFast) {
  SpanProfiler prof({.top_k = 2}, &FakeClock);
  ProfilerInstallation pi(&prof);
  OneTrace(prof, 1, 1000);
  OneTrace(prof, 2, 2000);
  OneTrace(prof, 3, 5, /*interesting=*/true);  // fast but laddered

  const std::vector<RequestTrace> kept = prof.Retained();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_TRUE(kept[2].via_ladder);
  EXPECT_FALSE(kept[2].slow);
  EXPECT_EQ(kept[2].root_dur_ns, 5u);
}

TEST(RequestTracer, InterestingReservoirKeepsTheMostRecentK) {
  SpanProfiler prof({.top_k = 2}, &FakeClock);
  ProfilerInstallation pi(&prof);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    OneTrace(prof, i, 10, /*interesting=*/true);
  }
  const std::vector<RequestTrace> kept = prof.Retained();
  // 5 interesting traces, reservoir of 2: seqs 4 and 5 survive (plus
  // nothing in the top-K heap — interesting traces never land there).
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].seq, 4u);
  EXPECT_EQ(kept[1].seq, 5u);
  EXPECT_EQ(prof.retain_stats().retained_slow, 0u);
}

TEST(RequestTracer, TopKZeroRetainsNothingButCounts) {
  SpanProfiler prof({.top_k = 0}, &FakeClock);
  ProfilerInstallation pi(&prof);
  OneTrace(prof, 1, 100);
  OneTrace(prof, 2, 100, /*interesting=*/true);
  EXPECT_TRUE(prof.Retained().empty());
  EXPECT_EQ(prof.retain_stats().traces_seen, 2u);
}

TEST(RequestTracer, RetainedMemoryStaysBoundedAt100kRequests) {
  // The tail-sampling promise, asserted at scale: 100'000 finished
  // traces of depth `kDepth` through a K=16 profiler must never hold more
  // than (2K+1)·depth span records — K slow trees + K interesting trees
  // + the one in-flight tree being decided. That is the O(K·depth)
  // bound; with everything retained it would be 100'000·depth.
  constexpr std::uint32_t kK = 16;
  constexpr int kDepth = 8;
  constexpr std::uint64_t kRequests = 100'000;
  SpanProfiler prof({.top_k = kK}, &FakeClock);
  ProfilerInstallation pi(&prof);
  util::SplitMix64 rng(7);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const std::uint64_t dur = 20 + rng() % 1000;
    OneTrace(prof, i, dur, /*interesting=*/i % 97 == 0, kDepth);
  }
  const SpanProfiler::RetainStats rs = prof.retain_stats();
  EXPECT_EQ(rs.traces_seen, kRequests);
  EXPECT_EQ(rs.retained_slow, kK);
  EXPECT_EQ(rs.retained_interesting, kK);
  const std::uint64_t bound = (2u * kK + 1u) * kDepth;
  EXPECT_LE(rs.peak_retained_spans, bound);
  // In bytes, with generous slack for the vectors' own bookkeeping:
  // far below what retain-everything would cost (100k·depth records).
  EXPECT_LE(rs.peak_retained_spans * sizeof(SpanRecord),
            bound * sizeof(SpanRecord) + 4096u);
}

// ---------------------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------------------

TEST(RequestTracer, GoldenPerfettoAsyncSliceDocument) {
  SpanProfiler prof({.top_k = 2}, &FakeClock);
  ProfilerInstallation pi(&prof);
  g_fake_now = 2000;
  prof.BeginTrace(9, 1, true);
  {
    ScopedSpan root(&prof, SpanStage::kAdmitTotal);
    {
      ScopedSpan inner(&prof, SpanStage::kUtilScreen);
      TraceAttr(2);
      g_fake_now = 2500;
    }
    g_fake_now = 3000;
  }
  prof.EndTrace(false, false, false);

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"sps request traces\"}},"
      "{\"name\":\"admit_total\",\"cat\":\"request\",\"ph\":\"b\","
      "\"id\":\"9\",\"ts\":2,\"pid\":1,"
      "\"args\":{\"seq\":1,\"span\":0,\"parent\":-1,\"attr\":-1}},"
      "{\"name\":\"util_screen\",\"cat\":\"request\",\"ph\":\"b\","
      "\"id\":\"9\",\"ts\":2,\"pid\":1,"
      "\"args\":{\"seq\":1,\"span\":1,\"parent\":0,\"attr\":2}},"
      "{\"name\":\"util_screen\",\"cat\":\"request\",\"ph\":\"e\","
      "\"id\":\"9\",\"ts\":2.5,\"pid\":1},"
      "{\"name\":\"admit_total\",\"cat\":\"request\",\"ph\":\"e\","
      "\"id\":\"9\",\"ts\":3,\"pid\":1},"
      "{\"name\":\"pool stolen\",\"ph\":\"C\",\"ts\":0,\"pid\":1,"
      "\"args\":{\"value\":5}}"
      "],\"sps_reqtrace\":{\"k\":2,\"traces_seen\":1,"
      "\"peak_retained_spans\":2,\"traces\":["
      "{\"trace_id\":9,\"seq\":1,\"kind\":\"admit\",\"root_dur_ns\":1000,"
      "\"sampled\":\"slow\",\"via_ladder\":false,\"via_fallback\":false,"
      "\"diverged\":false,\"spans\":["
      "{\"stage\":\"admit_total\",\"parent\":-1,\"t0\":2000,"
      "\"dur_ns\":1000,\"attr\":-1},"
      "{\"stage\":\"util_screen\",\"parent\":0,\"t0\":2000,"
      "\"dur_ns\":500,\"attr\":2}"
      "]}]}}";
  CounterSeries pool{"pool stolen", {{0, 5.0}}};
  EXPECT_EQ(prof.ToPerfettoJson({pool}), expected);
}

// ---------------------------------------------------------------------------
// Flight ring + dumps
// ---------------------------------------------------------------------------

TEST(FlightRing, WrapsKeepingTheMostRecentRecords) {
  FlightRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    FlightRecord r;
    r.seq = i;
    r.t0 = i * 100;
    ring.Push(r);
  }
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.capacity(), 4u);
  const std::vector<FlightRecord> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Oldest-first among the surviving tail: 6,7,8,9.
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[i].seq, 6u + i);
    EXPECT_EQ(snap[i].t0, (6u + i) * 100u);
  }
}

TEST(FlightRing, RoundTripsEveryRecordField) {
  FlightRing ring(2);
  FlightRecord r;
  r.kind = FlightRecord::Kind::kEpoch;
  r.stage = 7;
  r.trace_id = 0xABCDEF;
  r.seq = 3;
  r.t0 = 123;
  r.dur_ns = 456;
  r.attr = -9;
  r.aux0 = 11;
  r.aux1 = 22;
  ring.Push(r);
  const std::vector<FlightRecord> snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].kind, FlightRecord::Kind::kEpoch);
  EXPECT_EQ(snap[0].stage, 7u);
  EXPECT_EQ(snap[0].trace_id, 0xABCDEFu);
  EXPECT_EQ(snap[0].seq, 3u);
  EXPECT_EQ(snap[0].t0, 123u);
  EXPECT_EQ(snap[0].dur_ns, 456u);
  EXPECT_EQ(snap[0].attr, -9);
  EXPECT_EQ(snap[0].aux0, 11u);
  EXPECT_EQ(snap[0].aux1, 22u);
}

TEST(RequestTracer, DumpFlightWritesSpanAndEpochRecords) {
  const std::string dir = ::testing::TempDir() + "sps_flight_dump";
  std::filesystem::create_directories(dir);
  SpanProfiler prof({.top_k = 4, .flight_dir = dir},
                    &FakeClock);
  ProfilerInstallation pi(&prof);
  OneTrace(prof, 12, 300);
  prof.NoteEpoch(/*epoch=*/2, /*admits=*/10, /*rejects=*/3, /*leaves=*/1,
                   /*resident=*/7);

  std::string path, err;
  ASSERT_TRUE(prof.DumpFlight("unit_test", &path, &err)) << err;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(doc.find("\"reason\":\"unit_test\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"span\""), std::string::npos);
  EXPECT_NE(doc.find("\"stage\":\"admit_total\""), std::string::npos);
  EXPECT_NE(doc.find("\"kind\":\"epoch\",\"epoch\":2,\"admits\":10,"
                     "\"rejects\":3,\"leaves\":1,\"resident\":7"),
            std::string::npos);
  // Balanced JSON (the CI smoke json.load()s real dumps; keep the unit
  // check structural).
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  std::filesystem::remove_all(dir);
}

TEST(RequestTracer, CrashDumpRegistrationClearsOnDestruction) {
  ASSERT_EQ(CrashDumpProfiler(), nullptr);
  {
    SpanProfiler prof({.top_k = 2});
    SetCrashDumpProfiler(&prof);
    EXPECT_EQ(CrashDumpProfiler(), &prof);
  }  // dtor must deregister — a dangling crash-dump pointer would be UB
  EXPECT_EQ(CrashDumpProfiler(), nullptr);
}

TEST(RequestTracer, DumpFlightRacesLiveTracingThreads) {
  // TSan target: concurrent per-thread tracing while another thread
  // snapshots and dumps the rings. Seqlock torn reads may DROP records,
  // never tear or race them. Each thread pushes 1000 records, so every
  // ring wraps several times past SpanProfiler::kFlightSlots.
  const std::string dir = ::testing::TempDir() + "sps_flight_race";
  std::filesystem::create_directories(dir);
  // Real clock: the race needs real interleaving.
  SpanProfiler prof({.top_k = 8, .flight_dir = dir});

  std::vector<std::thread> workers;
  for (int w = 0; w < 3; ++w) {
    workers.emplace_back([&, w] {
      ProfilerInstallation pi(&prof);
      for (std::uint64_t i = 0; i < 500; ++i) {
        prof.BeginTrace(util::DeriveSeed(9, i, kTraceIdAxis),
                          i * 4 + static_cast<std::uint64_t>(w), true);
        {
          ScopedSpan root(&prof, SpanStage::kAdmitTotal);
          ScopedSpan inner(&prof, SpanStage::kAnalysis);
          TraceAttr(static_cast<std::int64_t>(i));
        }
        prof.EndTrace(i % 7 == 0, false, false);
      }
    });
  }
  std::string err;
  for (int d = 0; d < 10; ++d) {
    ASSERT_TRUE(prof.DumpFlight("race", nullptr, &err)) << err;
  }
  for (std::thread& t : workers) t.join();
  ASSERT_TRUE(prof.DumpFlight("race_final", nullptr, &err)) << err;
  EXPECT_EQ(prof.retain_stats().traces_seen, 1500u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// One record, three consumers
// ---------------------------------------------------------------------------

/// Per-thread fake clock: every read advances this thread's time, so two
/// threads stay deterministic without sharing a variable.
thread_local std::uint64_t t_tick_now = 0;
std::uint64_t TickClock() { return t_tick_now += 10; }

/// One flight-dump span record, as (stage, trace_id, t0, dur_ns).
struct FlightSpan {
  std::string stage;
  std::uint64_t trace_id = 0, t0 = 0, dur_ns = 0;
};

std::vector<FlightSpan> ParseFlightSpans(const std::string& doc) {
  static const std::regex kSpan(
      "\\{\"kind\":\"span\",\"stage\":\"(\\w+)\",\"trace_id\":(\\d+),"
      "\"seq\":\\d+,\"t0\":(\\d+),\"dur_ns\":(\\d+),\"attr\":-?\\d+\\}");
  std::vector<FlightSpan> out;
  for (auto it = std::sregex_iterator(doc.begin(), doc.end(), kSpan);
       it != std::sregex_iterator(); ++it) {
    out.push_back({(*it)[1].str(), std::stoull((*it)[2].str()),
                   std::stoull((*it)[3].str()), std::stoull((*it)[4].str())});
  }
  return out;
}

/// Two threads of nested traced requests plus spans outside any trace.
void RunTwoTracingThreads(SpanProfiler& prof) {
  std::vector<std::thread> workers;
  for (std::uint64_t w = 0; w < 2; ++w) {
    workers.emplace_back([&prof, w] {
      ProfilerInstallation pi(&prof);
      for (std::uint64_t i = 0; i < 40; ++i) {
        const std::uint64_t seq = i * 2 + w;
        const bool admit = i % 3 != 0;
        prof.BeginTrace(util::DeriveSeed(3, seq, kTraceIdAxis), seq, admit);
        {
          ScopedSpan root(&prof,
                          admit ? SpanStage::kAdmitTotal : SpanStage::kLeave);
          for (std::uint64_t k = 0; k < i % 4; ++k) {
            ScopedSpan place(&prof, SpanStage::kPlacement);
            TraceAttr(static_cast<std::int64_t>(k));
            ScopedSpan screen(&prof, SpanStage::kUtilScreen);
            if (k % 2 == 1) {
              ScopedSpan memo(&prof, SpanStage::kMemoProbe);
            }
          }
        }
        prof.EndTrace(/*via_ladder=*/i % 5 == 0, false, false);
        if (i % 10 == 9) {
          ScopedSpan epoch(&prof, SpanStage::kEpochApply);  // no trace open
          prof.NoteEpoch(i / 10, i, 0, 0, i);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
}

TEST(RequestTracer, OneRecordFeedsHistogramsTreesAndFlightRing) {
  const std::string dir = ::testing::TempDir() + "sps_one_record";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  // Each thread records fewer spans than SpanProfiler::kFlightSlots, so
  // no ring wraps and the dump holds every record.
  SpanProfiler prof({.top_k = 4, .flight_dir = dir},
                    &TickClock);
  RunTwoTracingThreads(prof);

  std::string path, err;
  ASSERT_TRUE(prof.DumpFlight("consumers", &path, &err)) << err;
  std::ifstream in(path);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  const std::vector<FlightSpan> flight = ParseFlightSpans(doc);
  ASSERT_FALSE(flight.empty());

  // (1) Histograms and the ring saw the same records, stage by stage.
  std::uint64_t hist_total = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanStage::kCount);
       ++i) {
    const SpanStage stage = static_cast<SpanStage>(i);
    const auto in_ring = std::count_if(
        flight.begin(), flight.end(),
        [&](const FlightSpan& f) { return f.stage == ToString(stage); });
    const std::uint64_t count = prof.StageHistogram(stage).count();
    EXPECT_EQ(count, static_cast<std::uint64_t>(in_ring)) << ToString(stage);
    hist_total += count;
  }
  EXPECT_EQ(hist_total, flight.size());

  // (2) Every retained tree is exactly its trace id's ring records.
  const std::vector<RequestTrace> kept = prof.Retained();
  ASSERT_FALSE(kept.empty());
  using Tuple = std::tuple<std::string, std::uint64_t, std::uint64_t>;
  for (const RequestTrace& t : kept) {
    std::vector<Tuple> tree, ring;
    for (const SpanRecord& r : t.spans) {
      tree.emplace_back(ToString(r.stage), r.t0, r.dur_ns);
    }
    for (const FlightSpan& f : flight) {
      if (f.trace_id == t.trace_id) ring.emplace_back(f.stage, f.t0, f.dur_ns);
    }
    std::sort(tree.begin(), tree.end());
    std::sort(ring.begin(), ring.end());
    EXPECT_EQ(tree, ring) << "trace " << t.trace_id;
  }

  // (3) Without tracing the same run retains nothing and dumps no ring.
  SpanProfiler untraced(&TickClock);
  RunTwoTracingThreads(untraced);
  EXPECT_EQ(untraced.StageHistogram(SpanStage::kAdmitTotal).count(),
            prof.StageHistogram(SpanStage::kAdmitTotal).count());
  EXPECT_TRUE(untraced.Retained().empty());
  EXPECT_EQ(untraced.retain_stats().traces_seen, 0u);
  EXPECT_TRUE(untraced.ToPerfettoJson({}).empty());
  std::string off_path;
  EXPECT_FALSE(untraced.DumpFlight("consumers", &off_path, &err));
  EXPECT_TRUE(off_path.empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sps::obs

// ---------------------------------------------------------------------------
// Differential: the wall-clock firewall on the replay surface
// ---------------------------------------------------------------------------

namespace sps::online {
namespace {

WorkloadStream DiffStream(std::uint64_t seed) {
  StreamConfig cfg;
  cfg.num_admits = 120;
  cfg.leave_fraction = 0.5;
  cfg.soft_fraction = 0.4;
  cfg.seed = seed;
  return GenerateStream(cfg);
}

ReplayConfig DiffConfig(unsigned shards) {
  ReplayConfig cfg;
  cfg.controller.admission.num_cores = 4;
  cfg.epoch = Millis(500);
  cfg.seed = 11;
  if (shards > 0) {
    cfg.validate_by_simulation = true;
    cfg.validate_sim.horizon = Millis(100);
    cfg.validate_sim.shards = shards;
  }
  return cfg;
}

/// Everything a replay DECIDES, as comparable text: the per-epoch table
/// plus the unified stats snapshot dump (what --stats-out writes).
std::string DecisionFingerprint(const ReplayResult& r) {
  return r.Table() + "\n" + ReplayStatsSnapshot(r).ToJson() + "\n" +
         r.final_partition.summary();
}

TEST(ReqtraceDifferential, TracingLeavesDecisionsByteIdenticalAcrossShards) {
  const WorkloadStream stream = DiffStream(31);
  // shards: 0 = hardware, 1 = serial, 2 = two sim threads; shards==0 in
  // DiffConfig means no epoch validation at all (the cheap lane).
  for (const unsigned shards : {1u, 2u, 0u}) {
    // Each replay gets its OWN cold memo table: the process-wide shared
    // cache would stay warm into the second replay and shift the
    // memo.* counters for reasons unrelated to tracing.
    analysis::AnalysisMemo memo_plain(1u << 12);
    analysis::AnalysisMemo memo_traced(1u << 12);
    ReplayConfig cfg = DiffConfig(shards);
    cfg.controller.admission.memo.table = &memo_plain;
    const ReplayResult plain = ReplayStream(stream, cfg);

    obs::SpanProfiler prof({.top_k = 8});
    ReplayConfig traced_cfg = cfg;
    traced_cfg.controller.admission.memo.table = &memo_traced;
    traced_cfg.obs.profiler = &prof;
    const ReplayResult traced = ReplayStream(stream, traced_cfg);

    EXPECT_EQ(DecisionFingerprint(plain), DecisionFingerprint(traced))
        << "shards=" << shards;
    EXPECT_GT(prof.retain_stats().traces_seen, 0u);
  }
}

TEST(ReqtraceDifferential, TracedBatchBitIdenticalForAnyJobCount) {
  std::vector<WorkloadStream> streams;
  for (std::uint64_t i = 0; i < 6; ++i) streams.push_back(DiffStream(40 + i));
  ReplayConfig cfg = DiffConfig(/*shards=*/0);
  // Memo off for this comparison: concurrent probes against a shared
  // table race benignly (DESIGN.md §12), so the memo.* counters are
  // interleaving-dependent and would differ between jobs=1 and jobs=8
  // with tracing completely out of the picture.
  cfg.controller.admission.memo.enabled = false;

  const std::vector<ReplayResult> serial = ReplayBatch(streams, cfg, 1);

  obs::SpanProfiler prof({.top_k = 8});
  ReplayConfig traced_cfg = cfg;
  traced_cfg.obs.profiler = &prof;
  const std::vector<ReplayResult> traced8 = ReplayBatch(streams, traced_cfg, 8);

  ASSERT_EQ(serial.size(), traced8.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(DecisionFingerprint(serial[i]), DecisionFingerprint(traced8[i]))
        << "stream " << i;
  }
  // The parallel batch exercised per-thread profiler shards.
  EXPECT_GT(prof.retain_stats().traces_seen, 0u);
}

TEST(ReqtraceDifferential, DurabilityArtifactsByteIdenticalWithTracingOn) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "sps_reqtrace_dur";
  const std::string dir_off = base + "_off";
  const std::string dir_on = base + "_on";
  fs::remove_all(dir_off);
  fs::remove_all(dir_on);

  const WorkloadStream stream = DiffStream(77);
  analysis::AnalysisMemo memo_plain(1u << 12);
  analysis::AnalysisMemo memo_traced(1u << 12);
  ReplayConfig cfg = DiffConfig(/*shards=*/0);
  cfg.durability.checkpoint_every = 2;
  cfg.durability.fsync = FsyncPolicy::kOff;

  cfg.controller.admission.memo.table = &memo_plain;
  cfg.durability.dir = dir_off;
  const ReplayResult plain = ReplayStream(stream, cfg);
  ASSERT_TRUE(plain.durability_error.ok());

  obs::SpanProfiler prof({.top_k = 8, .flight_dir = dir_on});
  ReplayConfig traced_cfg = cfg;
  traced_cfg.controller.admission.memo.table = &memo_traced;
  traced_cfg.durability.dir = dir_on;
  traced_cfg.obs.profiler = &prof;
  const ReplayResult traced = ReplayStream(stream, traced_cfg);
  ASSERT_TRUE(traced.durability_error.ok());

  // Same artifact set, byte-identical files: the journal and every
  // checkpoint. (Flight dumps would only appear on crash/divergence.)
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir_off)) {
    names.push_back(e.path().filename().string());
  }
  ASSERT_FALSE(names.empty());
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    std::ifstream a(dir_off + "/" + name, std::ios::binary);
    std::ifstream b(dir_on + "/" + name, std::ios::binary);
    ASSERT_TRUE(a.good() && b.good()) << name;
    const std::string ab((std::istreambuf_iterator<char>(a)),
                         std::istreambuf_iterator<char>());
    const std::string bb((std::istreambuf_iterator<char>(b)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(ab, bb) << "durability artifact diverged: " << name;
  }
  fs::remove_all(dir_off);
  fs::remove_all(dir_on);
}

}  // namespace
}  // namespace sps::online
