// Tests for the analysis layer: utilization bounds, exact RTA (with
// jitter and release costs), and the overhead-aware inflation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/edf.hpp"
#include "analysis/overhead_aware.hpp"
#include "analysis/rta.hpp"
#include "overhead/model.hpp"
#include "rt/task.hpp"

namespace sps::analysis {
namespace {

using overhead::OverheadModel;

TEST(Bounds, LiuLaylandKnownValues) {
  EXPECT_DOUBLE_EQ(LiuLaylandBound(1), 1.0);
  EXPECT_NEAR(LiuLaylandBound(2), 0.8284, 1e-4);
  EXPECT_NEAR(LiuLaylandBound(3), 0.7798, 1e-4);
  EXPECT_NEAR(LiuLaylandBound(4), 0.7568, 1e-4);
  EXPECT_NEAR(LiuLaylandBound(1000), kLiuLaylandLimit, 1e-3);
}

TEST(Bounds, LiuLaylandMonotoneDecreasing) {
  for (std::size_t n = 1; n < 64; ++n) {
    EXPECT_GT(LiuLaylandBound(n), LiuLaylandBound(n + 1));
  }
}

TEST(Bounds, HyperbolicDominatesLiuLayland) {
  // A set accepted by L&L is always accepted by the hyperbolic bound.
  const std::vector<double> u = {0.25, 0.25, 0.25};  // sum 0.75 < 0.7798
  EXPECT_TRUE(LiuLaylandTest(u));
  EXPECT_TRUE(HyperbolicTest(u));
  // The classic case hyperbolic accepts but L&L rejects.
  const std::vector<double> v = {0.5, 0.5};  // sum 1.0 > 0.8284
  EXPECT_FALSE(LiuLaylandTest(v));
  // prod(1.5 * 1.5) = 2.25 > 2 -> also rejected; pick asymmetric instead:
  const std::vector<double> w = {0.6, 0.25};  // sum 0.85 > 0.8284
  EXPECT_FALSE(LiuLaylandTest(w));
  EXPECT_TRUE(HyperbolicTest(w));  // 1.6 * 1.25 = 2.0
}

// ---- exact RTA ------------------------------------------------------------

RtaTask T(Time c, Time t, rt::Priority p, Time d = 0) {
  RtaTask x;
  x.wcet = c;
  x.period = t;
  x.deadline = d == 0 ? t : d;
  x.priority = p;
  return x;
}

TEST(Rta, TextbookExample) {
  // Classic: C=(1,2,3), T=(4,6,10): R1=1, R2=3, R3=10 (schedulable).
  std::vector<RtaTask> ts = {T(1, 4, 0), T(2, 6, 1), T(3, 10, 2)};
  const RtaResult r = AnalyzeCore(ts);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.response[0], 1);
  EXPECT_EQ(r.response[1], 3);
  EXPECT_EQ(r.response[2], 10);
}

TEST(Rta, DetectsUnschedulable) {
  // Overload: C=(2,3,4), T=(4,6,8) -> U = 1.5. Already tau1 fails:
  // R = 3 + 2*ceil(R/4) -> 7 > 6.
  std::vector<RtaTask> ts = {T(2, 4, 0), T(3, 6, 1), T(4, 8, 2)};
  const RtaResult r = AnalyzeCore(ts);
  EXPECT_FALSE(r.schedulable);
  EXPECT_EQ(r.first_failure, 1u);
  EXPECT_EQ(r.response[1], kTimeNever);
  EXPECT_EQ(r.response[2], kTimeNever);
}

TEST(Rta, ExactlyFullUtilizationHarmonicIsSchedulable) {
  // Harmonic periods reach U=1: C=(1,1,2), T=(2,4,8).
  std::vector<RtaTask> ts = {T(1, 2, 0), T(1, 4, 1), T(2, 8, 2)};
  const RtaResult r = AnalyzeCore(ts);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.response[2], 8);
}

TEST(Rta, JitterIncreasesInterferenceOnOthers) {
  // Higher-priority task with jitter can hit twice in a short window.
  std::vector<RtaTask> ts = {T(2, 10, 0), T(7, 12, 1)};
  EXPECT_TRUE(AnalyzeCore(ts).schedulable);
  ts[0].jitter = 9;  // arrivals at R+9 -> two hits within R2's window
  const RtaResult r = AnalyzeCore(ts);
  EXPECT_EQ(r.response[1], 11);  // 7 + 2*2
}

TEST(Rta, JitterCountsAgainstOwnDeadline) {
  std::vector<RtaTask> ts = {T(5, 10, 0)};
  ts[0].jitter = 6;  // R + J = 11 > D = 10
  EXPECT_FALSE(AnalyzeCore(ts).schedulable);
  ts[0].jitter = 5;
  EXPECT_TRUE(AnalyzeCore(ts).schedulable);
}

TEST(Rta, ReleaseCostChargedForLowerPriorityTasksToo) {
  // tau0 (high prio) is delayed by tau1's release overhead even though
  // tau1 cannot preempt it.
  std::vector<RtaTask> ts = {T(5, 10, 0), T(1, 10, 1)};
  EXPECT_EQ(AnalyzeCore(ts).response[0], 5);
  ts[1].release_cost = 2;
  EXPECT_EQ(AnalyzeCore(ts).response[0], 7);
}

TEST(Rta, InterferenceOnlyEntriesAreNotChecked) {
  // An interference-only entry with an impossible deadline must not fail
  // the analysis, but must still delay others.
  std::vector<RtaTask> ts = {T(4, 10, 0), T(5, 10, 1)};
  ts[0].check = false;
  ts[0].deadline = 1;  // would fail if checked
  const RtaResult r = AnalyzeCore(ts);
  EXPECT_TRUE(r.schedulable);
  EXPECT_EQ(r.response[1], 9);
}

TEST(Rta, ResponseMonotoneInWcet) {
  for (Time c = 1; c <= 6; ++c) {
    std::vector<RtaTask> ts = {T(c, 10, 0), T(3, 15, 1)};
    const Time prev_c = c - 1;
    if (prev_c >= 1) {
      std::vector<RtaTask> prev = {T(prev_c, 10, 0), T(3, 15, 1)};
      EXPECT_LE(AnalyzeCore(prev).response[1], AnalyzeCore(ts).response[1]);
    }
  }
}

// ---- arbitrary-deadline (busy-window) RTA ---------------------------------

TEST(RtaArbitrary, MatchesSingleJobAnalysisForConstrainedSets) {
  std::vector<RtaTask> ts = {T(1, 4, 0), T(2, 6, 1), T(3, 10, 2)};
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ResponseTimeArbitrary(ts, i, Millis(1)),
              ResponseTime(ts, i, Millis(1)));
  }
}

TEST(RtaArbitrary, LehoczkyExample) {
  // THE classic busy-window example: (C=26,T=70) + (C=62,T=100,D=118).
  // The level-2 busy window is 694 long and holds SEVEN jobs of tau2 with
  // responses 114, 102, 116, 104, 118, 106, 94 — the worst (118) is the
  // FIFTH instance; any single-job analysis underestimates at 114.
  std::vector<RtaTask> ts = {T(26, 70, 0), T(62, 100, 1, 118)};
  EXPECT_EQ(ResponseTimeArbitrary(ts, 1, Millis(1)), 118);
  EXPECT_TRUE(AnalyzeCore(ts).schedulable);  // exactly meets D = 118
  ts[1].deadline = 117;
  EXPECT_FALSE(AnalyzeCore(ts).schedulable);
}

TEST(RtaArbitrary, BacklogCarriesAcrossPeriodBoundary) {
  // (C=52,T=100) hp + (C=52,T=140,D=300) lp: the first job finishes at
  // 156 — after its own period — so the second job starts backlogged
  // (window 260, responses 156 and 120).
  std::vector<RtaTask> ts = {T(52, 100, 0), T(52, 140, 1, 300)};
  const Time r = ResponseTimeArbitrary(ts, 1, Millis(10));
  EXPECT_EQ(r, 156);
  EXPECT_GT(r, ts[1].period);
  const RtaResult res = AnalyzeCore(ts);
  EXPECT_TRUE(res.schedulable);
  EXPECT_EQ(res.response[1], 156);
}

TEST(RtaArbitrary, DetectsOverloadByWindowDivergence) {
  std::vector<RtaTask> ts = {T(60, 100, 0), T(60, 100, 1, 500)};
  EXPECT_EQ(ResponseTimeArbitrary(ts, 1, Millis(1)), kTimeNever);
  EXPECT_FALSE(AnalyzeCore(ts).schedulable);
}

TEST(RtaArbitrary, DeadlineBeyondPeriodAcceptsWhatConstrainedCannot) {
  // U = 1.0 exactly, non-harmonic: tau2's busy window spans 3 jobs with
  // responses (11, 12, 10) — infeasible under D = T = 10, fine at D = 20.
  std::vector<RtaTask> ts = {T(3, 6, 0), T(5, 10, 1, 20)};
  const RtaResult res = AnalyzeCore(ts);
  EXPECT_TRUE(res.schedulable) << res.response[1];
  EXPECT_EQ(res.response[1], 12);
  EXPECT_GT(res.response[1], ts[1].period);  // genuinely arbitrary
}

// ---- overhead-aware inflation ----------------------------------------------

CoreEntry E(Time exec, Time period, rt::Priority prio,
            EntryKind kind = EntryKind::kNormal) {
  CoreEntry e;
  e.exec = exec;
  e.period = period;
  e.deadline = period;
  e.priority = prio;
  e.kind = kind;
  return e;
}

TEST(OverheadAware, ZeroModelIsIdentity) {
  const OverheadModel zero = OverheadModel::Zero();
  std::vector<CoreEntry> entries = {E(Millis(1), Millis(10), 0),
                                    E(Millis(2), Millis(20), 1)};
  const auto inflated = InflateCore(entries, zero);
  ASSERT_EQ(inflated.size(), 2u);
  EXPECT_EQ(inflated[0].wcet, Millis(1));
  EXPECT_EQ(inflated[0].release_cost, 0);
  EXPECT_EQ(inflated[1].wcet, Millis(2));
}

TEST(OverheadAware, PaperModelInflatesEverything) {
  const OverheadModel m = OverheadModel::PaperCoreI7();
  std::vector<CoreEntry> entries = {E(Millis(1), Millis(10), 0)};
  const auto inflated = InflateCore(entries, m);
  EXPECT_GT(inflated[0].wcet, Millis(1));
  EXPECT_GT(inflated[0].release_cost, 0);
  // Inflation must contain at least the start path (sch + cnt1) and the
  // finish path (sch + cnt2).
  const Time floor = m.sched_overhead(1, true) + m.ctxsw_in_overhead() +
                     m.sched_overhead(1, false) +
                     m.finish_overhead_normal(1);
  EXPECT_GE(inflated[0].wcet - Millis(1), floor);
}

TEST(OverheadAware, MigratedEntriesPayMigrationCpmd) {
  const OverheadModel m = OverheadModel::PaperCoreI7();
  const Time normal = InflatedExec(E(Millis(1), Millis(10), 0), m, 4);
  CoreEntry tail = E(Millis(1), Millis(10), 0, EntryKind::kTail);
  const Time tail_cost = InflatedExec(tail, m, 4);
  // Tail pays migration CPMD on top and a remote (not local) sleep insert.
  EXPECT_GT(tail_cost, normal);
}

TEST(OverheadAware, BodyChargesRemoteInsertAtDestinationSize) {
  const OverheadModel m = OverheadModel::PaperCoreI7();
  CoreEntry small = E(Millis(1), Millis(10), 0, EntryKind::kBodyFirst);
  small.dest_queue_size = 4;
  CoreEntry big = small;
  big.dest_queue_size = 64;
  EXPECT_LT(InflatedExec(small, m, 4), InflatedExec(big, m, 4));
}

TEST(OverheadAware, ReleaseCostDiffersByArrivalType) {
  const OverheadModel m = OverheadModel::PaperCoreI7();
  std::vector<CoreEntry> entries = {
      E(Millis(1), Millis(10), 0),                        // timer release
      E(Millis(1), Millis(10), 1, EntryKind::kTail)};     // migration
  const auto inflated = InflateCore(entries, m);
  EXPECT_EQ(inflated[0].release_cost, m.release_overhead(2));
  EXPECT_EQ(inflated[1].release_cost, m.sched_overhead(2, true));
}

TEST(OverheadAware, ScaledModelScalesMonotonically) {
  std::vector<CoreEntry> entries = {E(Millis(1), Millis(5), 0),
                                    E(Millis(1), Millis(8), 1),
                                    E(Millis(2), Millis(20), 2)};
  Time last_response = 0;
  for (const double scale : {0.0, 1.0, 2.0, 5.0}) {
    const OverheadModel m = OverheadModel::PaperScaled(scale);
    const RtaResult r = AnalyzeCore(InflateCore(entries, m));
    ASSERT_TRUE(r.schedulable) << "scale " << scale;
    EXPECT_GE(r.response[2], last_response);
    last_response = r.response[2];
  }
}

// The per-entry sum InflatedExec computed before the local charges were
// shared per core, written out term by term from the model.
Time PerEntrySum(const CoreEntry& e, const OverheadModel& m,
                 std::size_t n) {
  Time c = e.exec;
  c += m.sched_overhead(n, true);
  c += m.ctxsw_in_overhead();
  c += m.sched_overhead(n, false);
  switch (e.kind) {
    case EntryKind::kNormal:
      c += m.finish_overhead_normal(n);
      break;
    case EntryKind::kBodyFirst:
    case EntryKind::kBodyMiddle:
      c += m.migrate_overhead(e.dest_queue_size);
      break;
    case EntryKind::kTail:
      c += m.finish_overhead_tail(e.first_core_queue_size);
      break;
  }
  c += m.cpmd(false);
  c += m.sched_overhead(n, false);
  c += m.ctxsw_in_overhead();
  const bool migrated =
      e.kind == EntryKind::kBodyMiddle || e.kind == EntryKind::kTail;
  if (migrated) c += m.cpmd(true);
  return c;
}

TEST(OverheadAware, PerCoreChargesEqualPerEntrySums) {
  const EntryKind kinds[] = {EntryKind::kNormal, EntryKind::kBodyFirst,
                             EntryKind::kBodyMiddle, EntryKind::kTail};
  const OverheadModel models[] = {OverheadModel::Zero(),
                                  OverheadModel::PaperCoreI7(),
                                  OverheadModel::PaperScaled(2.5)};
  for (const OverheadModel& m : models) {
    for (std::size_t n = 1; n <= 70; ++n) {
      std::vector<CoreEntry> entries;
      std::vector<EdfCoreEntry> edf_entries;
      for (std::size_t i = 0; i < 12; ++i) {
        CoreEntry e = E(Micros(100 + 37 * static_cast<Time>(i)), Millis(10),
                        static_cast<rt::Priority>(i), kinds[i % 4]);
        e.dest_queue_size = 1 + (n * 7 + i * 13) % 90;
        e.first_core_queue_size = 1 + (n * 11 + i * 5) % 90;
        entries.push_back(e);
        EdfCoreEntry x;
        x.exec = e.exec;
        x.period = e.period;
        x.deadline = e.deadline;
        x.kind = static_cast<int>(e.kind);
        x.dest_queue_size = e.dest_queue_size;
        x.first_core_queue_size = e.first_core_queue_size;
        x.id = e.id;
        edf_entries.push_back(x);
      }
      const auto fp = InflateCore(entries, m, n);
      const auto edf = InflateEdfCore(edf_entries, m, n);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const CoreEntry& e = entries[i];
        const bool migrated =
            e.kind == EntryKind::kBodyMiddle || e.kind == EntryKind::kTail;
        const Time release =
            migrated ? m.sched_overhead(n, true) : m.release_overhead(n);
        const Time want = PerEntrySum(e, m, n);
        EXPECT_EQ(InflatedExec(e, m, n), want) << n << " " << i;
        EXPECT_EQ(fp[i].wcet, want) << n << " " << i;
        EXPECT_EQ(fp[i].release_cost, release) << n << " " << i;
        EXPECT_EQ(edf[i].wcet, want + release) << n << " " << i;
      }
    }
  }
}

// ---- prepared FP admission probe ------------------------------------------

// One seeded core of residents plus fresh candidates for it, everything
// drawn independently: all four entry kinds, jitter, D < T, D = T and
// D > T (the busy-window path), interference-only (check == false)
// entries and random priorities, unique on the core (residents take odd
// values, candidates even ones, so a candidate can rank anywhere). Every
// fourth case is built at raw U == 1 exactly, from harmonic periods with
// one 1000 s entry nudged by -1, 0 or +1 ns, so raw U is 1 - 1e-12, 1 or
// 1 + 1e-12. Every candidate of a case has the same share of raw U, so
// the case's raw U is the same for each.
struct ProbeCase {
  std::vector<CoreEntry> residents;
  bool near_one = false;
  Time cand_share = 0;     ///< the candidates' raw U, in thousandths
  bool cand_long = false;  ///< near-one: the candidates are the 1000 s entry
  int nudge = 0;  ///< near-one cases: the sign of raw U - 1, exactly
};

Time Pick(std::mt19937_64& rng, Time lo, Time hi) {
  return lo + static_cast<Time>(rng() % static_cast<std::uint64_t>(
                                          hi - lo + 1));
}

CoreEntry DrawEntry(std::mt19937_64& rng, bool near_one, Time share,
                    bool long_period) {
  CoreEntry e;
  e.kind = static_cast<EntryKind>(rng() % 4);
  e.dest_queue_size = 1 + rng() % 64;
  e.first_core_queue_size = 1 + rng() % 64;
  if (near_one) {
    // Harmonic: 1/2/4/8 ms and 1000 s (a multiple of 8 ms), D = T,
    // no jitter, all checked.
    e.period = long_period ? Time{1'000'000'000'000}
                           : Millis(Time{1} << (rng() % 4));
    e.exec = share * e.period / 1000;
    e.deadline = e.period;
  } else {
    e.period = Micros(Pick(rng, 500, 100'000));
    e.exec = std::max<Time>(1, share * e.period / 1000);
    switch (rng() % 3) {
      case 0: e.deadline = e.period; break;
      case 1: e.deadline = Pick(rng, e.exec, e.period); break;
      default: e.deadline = Pick(rng, e.period + 1, 3 * e.period); break;
    }
    if (rng() % 3 == 0) e.jitter = Pick(rng, 0, (e.deadline - e.exec) / 2);
    e.check = rng() % 6 != 0;
  }
  return e;
}

ProbeCase DrawProbeCase(std::mt19937_64& rng, bool near_one) {
  const std::size_t n = 1 + rng() % 7;
  std::vector<rt::Priority> prio(n);
  std::iota(prio.begin(), prio.end(), rt::Priority{0});
  std::shuffle(prio.begin(), prio.end(), rng);
  // Shares of raw U in thousandths (each >= 10, so every entry matters);
  // the last is the candidates'.
  const Time total = near_one ? 1000 : Pick(rng, 300, 1100);
  std::vector<Time> share(n + 1, 10);
  for (Time left = total - 10 * static_cast<Time>(n + 1); left > 0; --left) {
    ++share[rng() % (n + 1)];
  }
  ProbeCase pc;
  pc.near_one = near_one;
  pc.cand_share = share[n];
  // Any entry may hold the 1000 s period, a candidate included.
  const std::size_t long_one = rng() % (n + 1);
  pc.cand_long = near_one && long_one == n;
  if (near_one) pc.nudge = static_cast<int>(rng() % 3) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    CoreEntry e = DrawEntry(rng, near_one, share[i], i == long_one);
    if (near_one && i == long_one) e.exec += pc.nudge;
    e.priority = 2 * prio[i] + 1;
    e.id = static_cast<rt::TaskId>(i);
    pc.residents.push_back(e);
  }
  return pc;
}

CoreEntry FreshCandidate(std::mt19937_64& rng, const ProbeCase& pc) {
  CoreEntry e = DrawEntry(rng, pc.near_one, pc.cand_share, pc.cand_long);
  if (pc.cand_long) e.exec += pc.nudge;
  const std::size_t n = pc.residents.size();
  e.priority = 2 * static_cast<rt::Priority>(rng() % (n + 1));
  e.id = static_cast<rt::TaskId>(n);
  return e;
}

TEST(AdmissionProbe, MatchesFullCoreAnalysis) {
  std::mt19937_64 rng(20110318);
  const OverheadModel models[] = {OverheadModel::Zero(),
                                  OverheadModel::PaperCoreI7()};
  constexpr int kCandidates = 8;
  int accepts = 0, rejects = 0, screened = 0, full_accepts = 0;
  // The checks each path of PassesCheck settles, over every checked
  // D <= T entry of every probed core: one demand evaluation, the
  // fixpoint after it passing or missing, and the least fixed point
  // exactly at the budget (a one-shot pass at f(B) == B).
  int one_shot = 0, fallback_passes = 0, fallback_misses = 0, at_budget = 0;
  for (int iter = 0; iter < 6000; ++iter) {
    const bool near_one = iter % 4 == 0;
    const ProbeCase pc = DrawProbeCase(rng, near_one);
    std::vector<CoreEntry> cands;
    for (int k = 0; k < kCandidates; ++k) {
      cands.push_back(FreshCandidate(rng, pc));
    }
    for (const OverheadModel& m : models) {
      // One probe for the resident set, reused for every candidate.
      FpCoreProbe probe(pc.residents, m);
      for (int k = 0; k < kCandidates; ++k) {
        std::vector<CoreEntry> all = pc.residents;
        all.push_back(cands[k]);
        RtaResult oracle = AnalyzeCore(InflateCore(all, m));
        // The last candidate's deadline is pulled in to J + R, so its
        // least fixed point sits exactly at its budget. R does not
        // depend on the candidate's own deadline, nor does any other
        // entry's check.
        if (k == kCandidates - 1 && all.back().check &&
            all.back().deadline <= all.back().period &&
            oracle.response.back() != kTimeNever) {
          all.back().deadline = all.back().jitter + oracle.response.back();
          oracle = AnalyzeCore(InflateCore(all, m));
        }
        const CoreEntry& cand = all.back();
        // Either call may be the first to see this candidate.
        bool admits = false;
        Time r = kTimeNever;
        if (k % 2 == 0) {
          admits = probe.Admits(cand);
          r = probe.Response(cand);
        } else {
          r = probe.Response(cand);
          admits = probe.Admits(cand);
        }
        ASSERT_EQ(admits, oracle.schedulable)
            << "case " << iter << " candidate " << k;
        ASSERT_EQ(r != kTimeNever, oracle.schedulable)
            << "case " << iter << " candidate " << k;
        if (oracle.schedulable) {
          EXPECT_EQ(r, oracle.response.back()) << "case " << iter;
          ++accepts;
        } else {
          ++rejects;
        }
        double raw_u = 0.0;
        bool all_checked = true;
        for (const CoreEntry& e : all) {
          raw_u += static_cast<double>(e.exec) / static_cast<double>(e.period);
          all_checked = all_checked && e.check;
        }
        // The partitioners' O(1) screen is exact: a fully checked core
        // over raw U 1 never passes RTA, not even at 1 + 1e-12.
        if (all_checked && (raw_u > 1.0 + 1e-12 || pc.nudge > 0)) {
          EXPECT_FALSE(oracle.schedulable) << "case " << iter;
          ++screened;
        }
        if (near_one && pc.nudge == 0 && oracle.schedulable) ++full_accepts;

        const std::vector<RtaTask> core = InflateCore(all, m);
        for (std::size_t i = 0; i < core.size(); ++i) {
          const RtaTask& t = core[i];
          const Time budget = t.deadline - t.jitter;
          if (!t.check || t.deadline > t.period || budget < t.wcet) continue;
          const Time ri = oracle.response[i];
          const bool passes = ri != kTimeNever && ri <= budget;
          if (RtaDemand(core, i, budget) <= budget) {
            // The lemma: one evaluation at the budget settles a pass.
            EXPECT_TRUE(passes) << "case " << iter << " entry " << i;
            ++one_shot;
            if (ri == budget) ++at_budget;
          } else if (passes) {
            ++fallback_passes;
          } else {
            ++fallback_misses;
          }
        }
      }
    }
  }
  // Both verdicts, the screen, RTA's accepts at U == 1 and every path
  // of the check are well represented (23845, 72155, 11910 and 582 at
  // this seed; the paths 184817, 2321, 130967 and 5689).
  EXPECT_GT(accepts, 20000);
  EXPECT_GT(rejects, 60000);
  EXPECT_GT(screened, 10000);
  EXPECT_GT(full_accepts, 400);
  EXPECT_GT(one_shot, 150000);
  EXPECT_GT(fallback_passes, 1500);
  EXPECT_GT(fallback_misses, 100000);
  EXPECT_GT(at_budget, 4000);
}

}  // namespace
}  // namespace sps::analysis
