#pragma once
// Internal to partition/: the placement path that the partitioners
// (binpack.cpp, edf_wm.cpp, spa.cpp) share, coded once — the verdict-memo
// protocol of a per-core admission test (MemoizedAdmits), the split-budget
// search of SPA and EDF-WM (LargestAdmitted), the decreasing-utilization
// loop (PackDecreasing) that BinPackDecreasing, EdfBinPack and EdfWm all
// run, and the verifier gate every partitioner ends in (FinishPartition).
// The public pieces (ProbeOrder, AdmitStats, TaskPlacement, PlaceFpTask)
// are in binpack.hpp.

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/memo.hpp"
#include "obs/spans.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/placement.hpp"
#include "rt/taskset.hpp"

namespace sps::partition {

/// The verdict-memo protocol of a per-core admission test
/// (analysis/memo.hpp): the O(1) screen rejects when `utilization`, the
/// raw utilization of residents plus candidate, exceeds 1 (never
/// cached); then the query key of `resident_hash` and `cand_code()` is
/// looked up, and on a miss `test()` decides and its verdict is stored.
/// Each decision is credited to the stage that made it, on a hit too
/// (util_rejects, or density_accepts / full_tests by the verdict's
/// stage), so only the memo_* counters depend on the cache. The screen
/// and the probe are sampled spans (obs::SampledSpan); the test runs in
/// the kAnalysis span. Always inlined, so each admission test compiles
/// to one function as it did before the protocol was shared.
template <class CandCode, class Test>
[[gnu::always_inline]] inline bool MemoizedAdmits(
    double utilization, const analysis::MemoKey& resident_hash,
    CandCode cand_code, Test test, AdmitStats* stats,
    const analysis::MemoContext* memo) {
  AdmitStats local;
  AdmitStats& s = stats != nullptr ? *stats : local;
  obs::SpanProfiler* const prof = obs::InstalledProfiler();
  {
    obs::SampledSpan span(prof, obs::SpanStage::kUtilScreen);
    if (utilization > 1.0 + 1e-12) {
      ++s.util_rejects;
      return false;
    }
  }
  const bool use_memo = memo != nullptr && memo->active();
  analysis::MemoKey qk;
  if (use_memo) {
    obs::SampledSpan span(prof, obs::SpanStage::kMemoProbe);
    qk = analysis::CombineQuery(resident_hash, cand_code(), *memo);
    if (const auto hit = memo->table->Lookup(qk.lo, qk)) {
      ++s.memo_hits;
      ++(hit->via_density ? s.density_accepts : s.full_tests);
      return hit->admitted;
    }
    ++s.memo_misses;
  }
  obs::ScopedSpan analysis_span(prof, obs::SpanStage::kAnalysis);
  const analysis::AnalysisMemo::Verdict v = test();
  ++(v.via_density ? s.density_accepts : s.full_tests);
  if (use_memo && memo->table->Store(qk.lo, qk, v)) ++s.memo_evicts;
  return v.admitted;
}

/// The split-budget search of SPA's body subtasks and EDF-WM's windows:
/// the largest budget in [lo, hi] that `admits(budget)` accepts, or 0 if
/// it accepts none. Admission must be monotone in the budget. A binary
/// search: each probe is the midpoint rounded down to kBudgetGranularity
/// (never below kMinBudget), and an admit moves lo one granularity step
/// above it, a reject moves hi one step below it. Always inlined, as
/// MemoizedAdmits is: EDF-WM's search makes most of the online
/// service's placement probes.
template <class Admits>
[[gnu::always_inline]] inline Time LargestAdmitted(Time lo, Time hi,
                                                   Admits admits) {
  Time best = 0;
  while (lo <= hi) {
    const Time mid_raw = lo + (hi - lo) / 2;
    const Time mid =
        std::max(kMinBudget, mid_raw - mid_raw % kBudgetGranularity);
    if (admits(mid)) {
      best = mid;
      lo = mid + kBudgetGranularity;
    } else {
      hi = mid - kBudgetGranularity;
    }
  }
  return best;
}

/// Assemble the partition from each task's parts (indexed like `ts`) and
/// gate it through the full verifier (verify.hpp) under `model` — it is
/// the acceptance criterion of the experiments.
PartitionResult FinishPartition(
    std::vector<std::vector<SubtaskPlacement>> parts, const rt::TaskSet& ts,
    unsigned num_cores, SchedPolicy policy,
    const overhead::OverheadModel& model, std::string algorithm);

/// The one decreasing-utilization packing loop: tasks in order of
/// decreasing utilization, each placed by `place(cores, task, order)`
/// over fresh per-core states `Core` with the ProbeOrder of `fit` (the
/// next-fit cursor follows the last placement's first core), its parts
/// recorded, then FinishPartition. Fails with "tau<id> (u=<u>)<why>" at
/// the first task `place` cannot place.
template <class Core, class Place>
PartitionResult PackDecreasing(const rt::TaskSet& ts, FitPolicy fit,
                               unsigned num_cores, SchedPolicy policy,
                               const overhead::OverheadModel& model,
                               std::string algorithm, const char* why,
                               Place place) {
  std::vector<Core> cores(num_cores);
  std::vector<std::vector<SubtaskPlacement>> parts(ts.size());
  std::vector<unsigned> order;
  unsigned cursor = 0;
  const auto utilization = [&cores](unsigned c) {
    return cores[c].utilization;
  };
  for (const std::size_t ti : rt::OrderByDecreasingUtilization(ts)) {
    TaskPlacement placed = place(
        cores, ts[ti], ProbeOrder(fit, num_cores, cursor, utilization, order));
    if (!placed.placed) {
      char reason[96];
      std::snprintf(reason, sizeof(reason), "tau%u (u=%.3f)%s", ts[ti].id,
                    ts[ti].utilization(), why);
      PartitionResult fail;
      fail.algorithm = std::move(algorithm);
      fail.failure_reason = reason;
      return fail;
    }
    cursor = placed.parts.front().core;
    parts[ti] = std::move(placed.parts);
  }
  return FinishPartition(std::move(parts), ts, num_cores, policy, model,
                         std::move(algorithm));
}

}  // namespace sps::partition
