// Tests for the analysis transposition table (analysis/memo.hpp):
// Zobrist maintenance, the lock-free table itself, forced-collision
// safety, and the memo contract — cached analysis is DECISION-IDENTICAL
// to uncached under every partitioner, policy and table size, down to
// the AdmitStats decision counters. The concurrent hammer runs in the
// TSan CI lane.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "analysis/memo.hpp"
#include "exp/acceptance.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "rt/generator.hpp"
#include "rt/taskset.hpp"
#include "util/rng.hpp"

namespace sps {
namespace {

using overhead::OverheadModel;

/// Deterministic task from a small parameter space, so independent
/// threads / steps regularly rebuild the SAME analysis questions.
rt::Task SmallTask(rt::TaskId id, std::uint64_t v) {
  const Time periods[] = {Millis(10), Millis(20), Millis(50)};
  const Time period = periods[v % 3];
  const Time wcet =
      std::max<Time>(1, period / static_cast<Time>(4 + (v >> 8) % 7));
  return rt::MakeTask(id, wcet, period);
}

rt::TaskSet RandomSet(std::uint64_t seed, double norm_util, unsigned cores,
                      std::size_t n) {
  rt::GeneratorConfig gen;
  gen.num_tasks = n;
  gen.total_utilization = norm_util * cores;
  rt::Rng rng(seed);
  return rt::GenerateTaskSet(gen, rng);
}

// ---- Zobrist maintenance ---------------------------------------------------

TEST(MemoZobrist, EdfIncrementalMatchesScratch) {
  util::SplitMix64 rng(1);
  partition::EdfCoreState core;
  std::vector<rt::TaskId> resident;
  rt::TaskId next_id = 0;
  for (int step = 0; step < 200; ++step) {
    if (resident.empty() || rng() % 3 != 0) {
      const rt::TaskId id = next_id++;
      const rt::Task t = SmallTask(id, rng());
      if (rng() % 4 == 0) {
        core.Commit(partition::MakeEdfWindowEntry(
            t, std::max<Time>(1, t.wcet / 2), t.deadline / 2,
            static_cast<analysis::EntryKind>(1 + rng() % 3)));
      } else {
        core.Commit(partition::MakeEdfEntry(t));
      }
      resident.push_back(id);
    } else {
      const std::size_t k = rng() % resident.size();
      core.RemoveTask(resident[k]);
      resident.erase(resident.begin() +
                     static_cast<std::ptrdiff_t>(k));
    }
    EXPECT_EQ(core.zobrist, analysis::ZobristOfEdfEntries(core.entries));
  }
  for (const rt::TaskId id : resident) core.RemoveTask(id);
  EXPECT_EQ(core.zobrist, analysis::MemoKey{});  // empty set hashes to 0
}

TEST(MemoZobrist, FpIncrementalMatchesScratch) {
  util::SplitMix64 rng(2);
  partition::FpCoreState core;
  std::vector<rt::TaskId> resident;
  rt::TaskId next_id = 0;
  for (int step = 0; step < 200; ++step) {
    if (resident.empty() || rng() % 3 != 0) {
      const rt::TaskId id = next_id++;
      core.Commit(SmallTask(id, rng()));
      resident.push_back(id);
    } else {
      const std::size_t k = rng() % resident.size();
      EXPECT_TRUE(core.RemoveTask(resident[k]));
      resident.erase(resident.begin() +
                     static_cast<std::ptrdiff_t>(k));
    }
    EXPECT_EQ(core.zobrist, analysis::ZobristOfFpTasks(core.tasks));
  }
}

TEST(MemoZobrist, CodesDependOnEveryField) {
  const rt::Task a = rt::MakeTask(1, Millis(2), Millis(10));
  rt::Task b = a;
  EXPECT_EQ(analysis::FpTaskCode(a), analysis::FpTaskCode(b));
  b.wcet += 1;
  EXPECT_NE(analysis::FpTaskCode(a), analysis::FpTaskCode(b));
  b = a;
  b.id = 2;  // id is hashed: equal-parameter tasks never cancel
  EXPECT_NE(analysis::FpTaskCode(a), analysis::FpTaskCode(b));
}

// ---- the table itself ------------------------------------------------------

TEST(MemoTable, RoundtripReplaceAndEvictCounters) {
  analysis::AnalysisMemo t(1);  // rounds up to exactly one slot
  EXPECT_EQ(t.capacity(), 1u);
  const analysis::MemoKey a{11, 0x100};
  const analysis::MemoKey b{22, 0x200};

  EXPECT_FALSE(t.Lookup(a.lo, a).has_value());
  EXPECT_FALSE(t.Store(a.lo, a, {.admitted = true, .via_density = false}));
  const auto ha = t.Lookup(a.lo, a);
  ASSERT_TRUE(ha.has_value());
  EXPECT_TRUE(ha->admitted);
  EXPECT_FALSE(ha->via_density);

  // Same (only) slot, different key: a verified miss, never a false hit.
  EXPECT_FALSE(t.Lookup(b.lo, b).has_value());
  EXPECT_TRUE(t.Store(b.lo, b, {.admitted = false, .via_density = true}));
  EXPECT_FALSE(t.Lookup(a.lo, a).has_value());  // a was displaced
  const auto hb = t.Lookup(b.lo, b);
  ASSERT_TRUE(hb.has_value());
  EXPECT_FALSE(hb->admitted);
  EXPECT_TRUE(hb->via_density);

  // Overwriting the SAME key is not an eviction.
  EXPECT_FALSE(t.Store(b.lo, b, {.admitted = false, .via_density = true}));

  const analysis::MemoStats st = t.stats();
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.misses, 3u);
  EXPECT_EQ(st.stores, 3u);
  EXPECT_EQ(st.evicts, 1u);
}

TEST(MemoTable, DegenerateSlotHashVerifiesFullKey) {
  // All queries forced into slot 0 of a large table: only the 128-bit
  // verification key may decide, and it must.
  analysis::AnalysisMemo t(64);
  std::vector<analysis::MemoKey> keys;
  for (std::uint64_t i = 0; i < 8; ++i) {
    keys.push_back({i * 977 + 1, i * 131071 + 4});
  }
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // Slot 0 holds at most the previously stored key: every other key
    // must read as a verified miss, never a false hit.
    for (std::size_t j = 0; j < keys.size(); ++j) {
      if (i > 0 && j == i - 1) continue;  // the one live key
      EXPECT_FALSE(t.Lookup(0, keys[j]).has_value());
    }
    (void)t.Store(0, keys[i], {.admitted = (i % 2) != 0});
    const auto h = t.Lookup(0, keys[i]);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->admitted, (i % 2) != 0);
  }
}

TEST(MemoTable, VerificationIgnoresPackedVerdictBits) {
  // The verdict lives in the low 2 bits of key.hi; keys differing only
  // there are the same 126-bit key by design (CombineQuery keys are
  // full-width hashes, so this costs 2 bits of discrimination, not
  // correctness).
  analysis::AnalysisMemo t(16);
  const analysis::MemoKey a{5, 0x40};
  analysis::MemoKey a2 = a;
  a2.hi |= 3;
  (void)t.Store(a.lo, a, {.admitted = true, .via_density = true});
  const auto h = t.Lookup(a2.lo, a2);
  ASSERT_TRUE(h.has_value());
  EXPECT_TRUE(h->admitted);
  EXPECT_TRUE(h->via_density);
}

// ---- differentials: cached == uncached, bit for bit ------------------------

TEST(MemoDifferential, EdfOfflinePartitioners) {
  const OverheadModel model = OverheadModel::PaperCoreI7();
  const partition::FitPolicy policies[] = {
      partition::FitPolicy::kFirstFit, partition::FitPolicy::kBestFit,
      partition::FitPolicy::kWorstFit, partition::FitPolicy::kNextFit};
  for (const double u : {0.6, 0.8, 0.95}) {
    for (std::uint64_t s = 0; s < 3; ++s) {
      const rt::TaskSet ts = RandomSet(100 + s, u, 4, 12);

      partition::EdfPartitionConfig off;
      off.num_cores = 4;
      off.model = model;
      off.memo.enabled = false;

      analysis::AnalysisMemo table(std::size_t{1} << 12);
      partition::EdfPartitionConfig on = off;
      on.memo.enabled = true;
      on.memo.table = &table;

      analysis::AnalysisMemo tiny(1);  // every store collides
      partition::EdfPartitionConfig forced = off;
      forced.memo.enabled = true;
      forced.memo.table = &tiny;

      const auto r0 = partition::EdfWm(ts, off);
      const auto r1 = partition::EdfWm(ts, on);  // cold
      const auto r2 = partition::EdfWm(ts, on);  // warm (hits)
      const auto r3 = partition::EdfWm(ts, forced);
      for (const auto* r : {&r1, &r2, &r3}) {
        EXPECT_EQ(r0.success, r->success);
        EXPECT_EQ(r0.partition.summary(), r->partition.summary());
      }
      EXPECT_GT(table.stats().hits, 0u);

      for (const partition::FitPolicy p : policies) {
        const auto b0 = partition::EdfBinPack(ts, p, off);
        const auto b1 = partition::EdfBinPack(ts, p, on);
        const auto b2 = partition::EdfBinPack(ts, p, forced);
        EXPECT_EQ(b0.success, b1.success);
        EXPECT_EQ(b0.partition.summary(), b1.partition.summary());
        EXPECT_EQ(b0.success, b2.success);
        EXPECT_EQ(b0.partition.summary(), b2.partition.summary());
      }
    }
  }
}

TEST(MemoDifferential, FpBinPackAllTestsAllPolicies) {
  const OverheadModel model = OverheadModel::PaperCoreI7();
  const partition::AdmissionTest tests[] = {
      partition::AdmissionTest::kLiuLayland,
      partition::AdmissionTest::kHyperbolic,
      partition::AdmissionTest::kRta};
  const partition::FitPolicy policies[] = {
      partition::FitPolicy::kFirstFit, partition::FitPolicy::kBestFit,
      partition::FitPolicy::kWorstFit, partition::FitPolicy::kNextFit};
  for (const double u : {0.5, 0.7}) {
    const rt::TaskSet ts = RandomSet(7, u, 4, 12);
    for (const partition::AdmissionTest at : tests) {
      for (const partition::FitPolicy p : policies) {
        partition::BinPackConfig off;
        off.num_cores = 4;
        off.admission = at;
        off.model = model;
        off.memo.enabled = false;

        analysis::AnalysisMemo table(std::size_t{1} << 10);
        partition::BinPackConfig on = off;
        on.memo.enabled = true;
        on.memo.table = &table;

        analysis::AnalysisMemo tiny(1);
        partition::BinPackConfig forced = off;
        forced.memo.enabled = true;
        forced.memo.table = &tiny;

        const auto r0 = partition::BinPackDecreasing(ts, p, off);
        const auto r1 = partition::BinPackDecreasing(ts, p, on);
        const auto r2 = partition::BinPackDecreasing(ts, p, on);
        const auto r3 = partition::BinPackDecreasing(ts, p, forced);
        for (const auto* r : {&r1, &r2, &r3}) {
          EXPECT_EQ(r0.success, r->success);
          EXPECT_EQ(r0.partition.summary(), r->partition.summary());
        }
      }
    }
  }
}

TEST(MemoDifferential, OnlineReplayAllPoliciesAndTableSizes) {
  online::StreamConfig scfg;
  scfg.num_admits = 48;
  const online::WorkloadStream stream = online::GenerateStream(scfg);

  struct Combo {
    partition::SchedPolicy policy;
    online::PlacePolicy place;
    bool allow_split;
    bool unsplit_on_leave;
  };
  const Combo combos[] = {
      {partition::SchedPolicy::kEdf, online::PlacePolicy::kFirstFit, true,
       false},
      {partition::SchedPolicy::kEdf, online::PlacePolicy::kWorstFit, false,
       true},
      {partition::SchedPolicy::kEdf, online::PlacePolicy::kSpaOrder, true,
       true},
      {partition::SchedPolicy::kFixedPriority,
       online::PlacePolicy::kFirstFit, false, false},
      {partition::SchedPolicy::kFixedPriority,
       online::PlacePolicy::kWorstFit, false, false},
  };
  for (const Combo& c : combos) {
    online::ReplayConfig rcfg;
    rcfg.controller.admission.num_cores = 4;
    rcfg.controller.admission.policy = c.policy;
    rcfg.controller.admission.model = OverheadModel::PaperCoreI7();
    rcfg.controller.place = c.place;
    rcfg.controller.allow_split = c.allow_split;
    rcfg.controller.unsplit_on_leave = c.unsplit_on_leave;
    rcfg.controller.repartition_fallback = true;

    rcfg.controller.admission.memo.enabled = false;
    const online::ReplayResult r0 = online::ReplayStream(stream, rcfg);

    analysis::AnalysisMemo table(std::size_t{1} << 12);
    analysis::AnalysisMemo tiny(16);  // heavy forced collisions
    for (analysis::AnalysisMemo* t : {&table, &tiny}) {
      rcfg.controller.admission.memo.enabled = true;
      rcfg.controller.admission.memo.table = t;
      const online::ReplayResult r1 = online::ReplayStream(stream, rcfg);
      // The stage-recording contract: decisions and decision counters
      // are cache-oblivious; only memo_* counters may differ.
      EXPECT_EQ(online::DecisionDiff(r0, r1), "");
      EXPECT_EQ(r0.admission.memo_hits, 0u);
      EXPECT_GT(r1.admission.memo_hits + r1.admission.memo_misses, 0u);
    }
  }
}

TEST(MemoDifferential, AcceptanceSweepSharedTableAcrossPool) {
  exp::AcceptanceConfig a;
  a.num_cores = 4;
  a.num_tasks = 10;
  a.sets_per_point = 8;
  a.norm_util_points = {0.65, 0.85, 1.0};
  a.model = OverheadModel::PaperCoreI7();
  a.jobs = 4;  // units share the table across pool threads
  exp::AcceptanceConfig b = a;
  a.memo.enabled = false;
  analysis::AnalysisMemo table(std::size_t{1} << 12);
  b.memo.enabled = true;
  b.memo.table = &table;

  const exp::AcceptanceResult ra = exp::RunAcceptance(a);
  const exp::AcceptanceResult rb = exp::RunAcceptance(b);
  ASSERT_EQ(ra.points.size(), rb.points.size());
  for (std::size_t i = 0; i < ra.points.size(); ++i) {
    EXPECT_EQ(ra.points[i].acceptance, rb.points[i].acceptance);
    EXPECT_EQ(ra.points[i].mean_splits, rb.points[i].mean_splits);
  }
  EXPECT_GT(table.stats().stores, 0u);
}

// ---- concurrency (the TSan lane runs this binary) --------------------------

TEST(MemoConcurrent, HammerSharedTableStaysDecisionIdentical) {
  // Threads race EdfCoreAdmits on one small shared table (constant
  // collision + eviction pressure) and check every cached answer
  // against an uncached recompute. The tiny parameter space makes
  // cross-thread hits common, so hit / miss / evict / torn-read paths
  // all execute under TSan.
  analysis::AnalysisMemo table(std::size_t{1} << 8);
  const OverheadModel model = OverheadModel::PaperCoreI7();
  analysis::MemoConfig mc;
  mc.table = &table;
  const analysis::MemoContext ctx = analysis::MakeEdfMemoContext(mc, model);

  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      util::SplitMix64 rng(util::DeriveSeed(99, ti, 7));
      for (int i = 0; i < kIters; ++i) {
        partition::EdfCoreState core;
        // Distinct ids per core — a legal resident set holds one entry
        // per task, which is what makes XOR cancellation unreachable.
        const std::uint64_t n = rng() % 4;
        for (std::uint64_t k = 0; k < n; ++k) {
          core.Commit(partition::MakeEdfEntry(
              SmallTask(static_cast<rt::TaskId>(k), rng())));
        }
        const analysis::EdfCoreEntry cand = partition::MakeEdfEntry(
            SmallTask(static_cast<rt::TaskId>(8 + rng() % 4), rng()));
        const bool cached =
            partition::EdfCoreAdmits(core, cand, model, nullptr, &ctx);
        const bool plain =
            partition::EdfCoreAdmits(core, cand, model, nullptr, nullptr);
        if (cached != plain) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const analysis::MemoStats st = table.stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.evicts, 0u);  // the small table really was contended
}

TEST(MemoConcurrency, StatsEqualTheExactTotals) {
  // Each thread owns disjoint slots, so no Store races another writer
  // and every Lookup's outcome is known: per slot a miss on the empty
  // slot, a store, a hit, a miss on an absent key, an evicting store, a
  // hit and a miss on the displaced key. The threads count into their
  // own counter shards at the same time; stats() must sum them exactly.
  constexpr std::uint64_t kThreads = 8;
  constexpr std::uint64_t kSlotsPerThread = 512;
  analysis::AnalysisMemo table(kThreads * kSlotsPerThread);
  ASSERT_EQ(table.capacity(), kThreads * kSlotsPerThread);

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> evicts_seen{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint64_t ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t evicts = 0;
      for (std::uint64_t k = 0; k < kSlotsPerThread; ++k) {
        const std::uint64_t slot = ti * kSlotsPerThread + k;
        const analysis::MemoKey a{slot, (slot + 1) << 2};
        const analysis::MemoKey b{slot, (slot + 1) << 3};
        EXPECT_FALSE(table.Lookup(slot, a).has_value());
        evicts += table.Store(slot, a, {.admitted = true}) ? 1 : 0;
        EXPECT_TRUE(table.Lookup(slot, a).has_value());
        EXPECT_FALSE(table.Lookup(slot, b).has_value());
        evicts += table.Store(slot, b, {.admitted = false}) ? 1 : 0;
        EXPECT_TRUE(table.Lookup(slot, b).has_value());
        EXPECT_FALSE(table.Lookup(slot, a).has_value());
      }
      evicts_seen.fetch_add(evicts);
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  constexpr std::uint64_t kSlots = kThreads * kSlotsPerThread;
  const analysis::MemoStats st = table.stats();
  EXPECT_EQ(st.hits, 2 * kSlots);
  EXPECT_EQ(st.misses, 3 * kSlots);
  EXPECT_EQ(st.stores, 2 * kSlots);
  EXPECT_EQ(st.evicts, kSlots);
  EXPECT_EQ(evicts_seen.load(), kSlots);
}

TEST(MemoConcurrency, ThreadsSharingAShardStillCountExactly) {
  // More threads over the process's life than there are counter
  // shards, four at a time: later threads share shards with earlier
  // ones, and every count must still land.
  analysis::AnalysisMemo table(16);
  constexpr int kWaves = 20;
  constexpr int kPerWave = 4;
  constexpr std::uint64_t kLookups = 100;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::vector<std::thread> threads;
    threads.reserve(kPerWave);
    for (int i = 0; i < kPerWave; ++i) {
      threads.emplace_back([&] {
        for (std::uint64_t k = 0; k < kLookups; ++k) {
          (void)table.Lookup(k, analysis::MemoKey{k, ~k});
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const analysis::MemoStats st = table.stats();
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.misses, kWaves * kPerWave * kLookups);
  EXPECT_EQ(st.stores, 0u);
}

}  // namespace
}  // namespace sps
