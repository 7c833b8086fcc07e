#pragma once
// Internal to partition/: the placement path that the partitioners
// (binpack.cpp, edf_wm.cpp, spa.cpp) share, coded once — the screen and
// stage-counting protocol of a per-core admission test (ScreenedAdmits;
// EDF runs it with its verdict cache, FP without one), the split-budget
// search of SPA and EDF-WM (LargestAdmitted), the decreasing-utilization
// loop (PackDecreasing) that BinPackDecreasing, EdfBinPack and EdfWm all
// run, and the verifier gate every partitioner ends in (FinishPartition).
// The public pieces (ProbeOrder, AdmitStats, TaskPlacement, PlaceFpTask)
// are in binpack.hpp.

#include <algorithm>
#include <cstdio>
#include <optional>
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

/// A per-core admission verdict and the stage that reached it.
using Verdict = analysis::AnalysisMemo::Verdict;

/// The protocol of a per-core admission test, shared by FP and EDF: the
/// O(1) screen rejects when `utilization`, the raw utilization of
/// residents plus candidate, exceeds 1; then `cache.Lookup` may serve
/// the verdict, and otherwise `test()` decides and `cache.Store` keeps
/// its verdict. Each decision is credited to the stage that made it, a
/// served one too (util_rejects, or density_accepts / full_tests by the
/// verdict's stage), so only the memo_* counters, which the cache keeps,
/// depend on it. The screen is a sampled span (obs::SampledSpan); the
/// test and the store run in the kAnalysis span. Always inlined, so each
/// admission test compiles to one function.
template <class Cache, class Test>
[[gnu::always_inline]] inline bool ScreenedAdmits(double utilization,
                                                  Cache&& cache, Test test,
                                                  AdmitStats* stats) {
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
  if (const std::optional<Verdict> hit = cache.Lookup(prof, s)) {
    ++(hit->via_density ? s.density_accepts : s.full_tests);
    return hit->admitted;
  }
  obs::ScopedSpan analysis_span(prof, obs::SpanStage::kAnalysis);
  const Verdict v = test();
  ++(v.via_density ? s.density_accepts : s.full_tests);
  cache.Store(v, s);
  return v.admitted;
}

/// The cache of a test whose verdicts are never kept: fixed priority,
/// where a verdict is one prepared FpCoreProbe call (DESIGN.md §12).
struct NoVerdictCache {
  static std::optional<Verdict> Lookup(obs::SpanProfiler*, AdmitStats&) {
    return std::nullopt;
  }
  static void Store(const Verdict&, AdmitStats&) {}
};

/// The split-budget search of SPA's body subtasks and EDF-WM's windows:
/// the largest budget in [lo, hi] that `admits(budget)` accepts, or 0 if
/// it accepts none. Admission must be monotone in the budget. A binary
/// search: each probe is the midpoint rounded down to kBudgetGranularity
/// (never below kMinBudget), and an admit moves lo one granularity step
/// above it, a reject moves hi one step below it. Always inlined, as
/// ScreenedAdmits is: EDF-WM's search makes most of the online
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
