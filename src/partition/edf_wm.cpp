#include "partition/edf_wm.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "analysis/edf.hpp"
#include "analysis/overhead_aware.hpp"
#include "obs/spans.hpp"
#include "partition/verify.hpp"

namespace sps::partition {

namespace {

PartitionResult Finish(std::vector<std::vector<SubtaskPlacement>> parts,
                       const rt::TaskSet& ts, unsigned num_cores,
                       const overhead::OverheadModel& model,
                       std::string algorithm) {
  PartitionResult result;
  result.algorithm = std::move(algorithm);
  Partition p;
  p.num_cores = num_cores;
  p.policy = SchedPolicy::kEdf;
  for (std::size_t ti = 0; ti < ts.size(); ++ti) {
    PlacedTask pt;
    pt.task = ts[ti];
    pt.parts = std::move(parts[ti]);
    p.tasks.push_back(std::move(pt));
  }
  const PartitionAnalysis verdict = AnalyzePartition(p, model);
  if (!verdict.schedulable) {
    result.failure_reason = "verifier rejected: " + verdict.failure_reason;
    return result;
  }
  result.success = true;
  result.partition = std::move(p);
  return result;
}

}  // namespace

void EdfCoreState::Commit(const analysis::EdfCoreEntry& e) {
  entries.push_back(e);
  utilization +=
      static_cast<double>(e.exec) / static_cast<double>(e.period);
  zobrist ^= analysis::EdfEntryCode(e);
}

std::size_t EdfCoreState::RemoveTask(rt::TaskId id) {
  std::size_t removed = 0;
  for (auto it = entries.begin(); it != entries.end();) {
    if (it->id == id) {
      utilization -=
          static_cast<double>(it->exec) / static_cast<double>(it->period);
      zobrist ^= analysis::EdfEntryCode(*it);
      it = entries.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  if (entries.empty()) utilization = 0.0;  // flush float residue
  return removed;
}

analysis::EdfCoreEntry MakeEdfEntry(const rt::Task& t) {
  analysis::EdfCoreEntry e;
  e.exec = t.wcet;
  e.period = t.period;
  e.deadline = t.deadline;
  e.kind = static_cast<int>(analysis::EntryKind::kNormal);
  e.id = t.id;
  return e;
}

analysis::EdfCoreEntry MakeEdfWindowEntry(const rt::Task& t, Time budget,
                                          Time window_len, bool first,
                                          bool last) {
  analysis::EdfCoreEntry e;
  e.exec = budget;
  e.period = t.period;
  e.deadline = window_len;
  e.kind = static_cast<int>(
      last ? analysis::EntryKind::kTail
           : (first ? analysis::EntryKind::kBodyFirst
                    : analysis::EntryKind::kBodyMiddle));
  e.dest_queue_size = kConservativeQueueSize;
  e.first_core_queue_size = kConservativeQueueSize;
  e.id = t.id;
  return e;
}

bool EdfCoreAdmits(const EdfCoreState& core,
                   const analysis::EdfCoreEntry& cand,
                   const overhead::OverheadModel& model,
                   AdmitStats* stats,
                   const analysis::MemoContext* memo) {
  AdmitStats local;
  AdmitStats& s = stats != nullptr ? *stats : local;
  obs::SpanProfiler* const prof = obs::InstalledProfiler();

  // O(1) reject: raw utilization already over 1 — inflation only adds,
  // and the demand test opens by rejecting U > 1 (same epsilon). This
  // screen and the memo probe are too cheap to time on every call
  // (obs::SampledSpan).
  {
    obs::SampledSpan span(prof, obs::SpanStage::kUtilScreen);
    const double cand_util =
        static_cast<double>(cand.exec) / static_cast<double>(cand.period);
    if (core.utilization + cand_util > 1.0 + 1e-12) {
      ++s.util_rejects;
      return false;
    }
  }

  // Transposition table: everything past the (never-cached, O(1))
  // utilization screen is a pure function of (resident multiset,
  // candidate, model) — the query key. The cached verdict carries its
  // deciding stage so the density/full counters below stay
  // bit-identical to an uncached run.
  const bool use_memo = memo != nullptr && memo->active();
  analysis::MemoKey qk;
  if (use_memo) {
    obs::SampledSpan span(prof, obs::SpanStage::kMemoProbe);
    qk = analysis::CombineQuery(core.zobrist, analysis::EdfEntryCode(cand),
                                *memo);
    if (const auto hit = memo->table->Lookup(qk.lo, qk)) {
      ++s.memo_hits;
      if (hit->via_density) {
        ++s.density_accepts;
      } else {
        ++s.full_tests;
      }
      return hit->admitted;
    }
    ++s.memo_misses;
  }

  obs::ScopedSpan analysis_span(prof, obs::SpanStage::kAnalysis);
  std::vector<analysis::EdfCoreEntry> probe = core.entries;
  probe.push_back(cand);
  const auto inflated = analysis::InflateEdfCore(probe, model);

  // O(n) accept: inflated density sum C'/min(D,T) <= 1 implies
  // dbf(t) <= t everywhere, and an inflated utilization strictly below 1
  // keeps the test off its U==1 conservative-cap branch — so the full
  // test would accept.
  double density = 0.0;
  double inflated_util = 0.0;
  for (const analysis::EdfTask& t : inflated) {
    const Time d = t.deadline < t.period ? t.deadline : t.period;
    density += static_cast<double>(t.wcet) / static_cast<double>(d);
    inflated_util +=
        static_cast<double>(t.wcet) / static_cast<double>(t.period);
  }
  if (density <= 1.0 && inflated_util < 1.0 - 1e-9) {
    ++s.density_accepts;
    if (use_memo &&
        memo->table->Store(qk.lo, qk,
                           {.admitted = true, .via_density = true})) {
      ++s.memo_evicts;
    }
    return true;
  }

  ++s.full_tests;
  const bool ok = analysis::EdfSchedulable(inflated);
  if (use_memo &&
      memo->table->Store(qk.lo, qk,
                         {.admitted = ok, .via_density = false})) {
    ++s.memo_evicts;
  }
  return ok;
}

EdfPlacement PlaceEdfTask(std::vector<EdfCoreState>& cores, const rt::Task& t,
                          std::span<const unsigned> whole_core_order,
                          bool allow_split, const EdfPartitionConfig& cfg,
                          AdmitStats* stats,
                          const analysis::MemoContext* memo) {
  EdfPlacement out;

  // 1) Whole task on the first admitting core of the given order.
  const analysis::EdfCoreEntry whole = MakeEdfEntry(t);
  for (const unsigned c : whole_core_order) {
    ++out.probes;
    if (EdfCoreAdmits(cores[c], whole, cfg.model, stats, memo)) {
      cores[c].Commit(whole);
      out.placed = true;
      out.parts.push_back(
          SubtaskPlacement{static_cast<CoreId>(c), t.wcet, 0, t.deadline});
      return out;
    }
  }
  if (!allow_split) return out;

  // 2) Window splitting: K equal windows, K = 2..m. Window j may land
  //    on any core not already used by this task; take the core granting
  //    the largest admissible budget (binary-searched per core).
  const unsigned num_cores = static_cast<unsigned>(cores.size());
  for (unsigned k = 2; k <= num_cores; ++k) {
    const Time window = t.deadline / k;
    if (window <= kMinBudget) break;
    std::vector<SubtaskPlacement> trial;
    std::vector<analysis::EdfCoreEntry> trial_entries;
    std::vector<unsigned> used;
    Time remaining = t.wcet;
    for (unsigned j = 0; j < k && remaining > 0; ++j) {
      const Time wstart = static_cast<Time>(j) * window;
      const Time wlen = (j + 1 == k)
                            ? t.deadline - wstart  // absorb rounding
                            : window;
      const bool last_window = (j + 1 == k);
      const Time want = std::min(remaining, wlen);
      Time best = 0;
      unsigned best_core = 0;
      for (unsigned c = 0; c < num_cores; ++c) {
        if (std::find(used.begin(), used.end(), c) != used.end()) {
          continue;
        }
        ++out.probes;
        // Largest admissible budget on this core for this window.
        Time lo = kMinBudget;
        Time hi = want;
        Time got = 0;
        while (lo <= hi) {
          const Time mid_raw = lo + (hi - lo) / 2;
          const Time mid =
              std::max(kMinBudget, mid_raw - mid_raw % kBudgetGranularity);
          const analysis::EdfCoreEntry e = MakeEdfWindowEntry(
              t, mid, wlen, j == 0, last_window || mid == remaining);
          if (EdfCoreAdmits(cores[c], e, cfg.model, stats, memo)) {
            got = mid;
            lo = mid + kBudgetGranularity;
          } else {
            hi = mid - kBudgetGranularity;
          }
        }
        if (got > best) {
          best = got;
          best_core = c;
          if (best == want) break;  // cannot do better
        }
      }
      if (best < kMinBudget) continue;  // this window contributes 0
      const analysis::EdfCoreEntry e = MakeEdfWindowEntry(
          t, best, wlen, j == 0, last_window || best == remaining);
      trial_entries.push_back(e);
      trial.push_back(SubtaskPlacement{best_core, best, 0, wstart + wlen});
      used.push_back(best_core);
      remaining -= best;
    }
    if (remaining == 0) {
      // Make the final part's window end exactly at the deadline (valid()
      // requires it) and commit everything.
      trial.back().rel_deadline = t.deadline;
      for (std::size_t i = 0; i < trial.size(); ++i) {
        cores[trial[i].core].Commit(trial_entries[i]);
      }
      out.parts = std::move(trial);
      out.placed = true;
      return out;
    }
  }
  return out;
}

PartitionResult EdfBinPack(const rt::TaskSet& ts, FitPolicy policy,
                           const EdfPartitionConfig& cfg) {
  PartitionResult fail;
  fail.algorithm = std::string("EDF-") + ToString(policy);

  std::vector<EdfCoreState> cores(cfg.num_cores);
  std::vector<std::vector<SubtaskPlacement>> parts(ts.size());
  const auto order = rt::OrderByDecreasingUtilization(ts);
  const analysis::MemoContext memo =
      analysis::MakeEdfMemoContext(cfg.memo, cfg.model);
  unsigned next_fit_cursor = 0;

  for (const std::size_t ti : order) {
    const rt::Task& t = ts[ti];
    std::vector<unsigned> core_order(cfg.num_cores);
    std::iota(core_order.begin(), core_order.end(), 0u);
    if (policy == FitPolicy::kBestFit || policy == FitPolicy::kWorstFit) {
      std::stable_sort(core_order.begin(), core_order.end(),
                       [&](unsigned a, unsigned b) {
                         return policy == FitPolicy::kBestFit
                                    ? cores[a].utilization >
                                          cores[b].utilization
                                    : cores[a].utilization <
                                          cores[b].utilization;
                       });
    } else if (policy == FitPolicy::kNextFit) {
      core_order.erase(core_order.begin(),
                       core_order.begin() + next_fit_cursor);
    }
    const EdfPlacement placed = PlaceEdfTask(
        cores, t, core_order, /*allow_split=*/false, cfg, nullptr, &memo);
    if (!placed.placed) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "tau%u (u=%.3f) fits no core", t.id,
                    t.utilization());
      fail.failure_reason = buf;
      return fail;
    }
    if (policy == FitPolicy::kNextFit) {
      // Never revisit cores before the one that admitted.
      next_fit_cursor =
          std::max(next_fit_cursor, placed.parts.front().core);
    }
    parts[ti] = placed.parts;
  }
  return Finish(std::move(parts), ts, cfg.num_cores, cfg.model,
                fail.algorithm);
}

PartitionResult EdfWm(const rt::TaskSet& ts, const EdfPartitionConfig& cfg) {
  PartitionResult fail;
  fail.algorithm = "EDF-WM";

  std::vector<EdfCoreState> cores(cfg.num_cores);
  std::vector<std::vector<SubtaskPlacement>> parts(ts.size());
  const auto order = rt::OrderByDecreasingUtilization(ts);
  const analysis::MemoContext memo =
      analysis::MakeEdfMemoContext(cfg.memo, cfg.model);
  std::vector<unsigned> first_fit(cfg.num_cores);
  std::iota(first_fit.begin(), first_fit.end(), 0u);

  for (const std::size_t ti : order) {
    const rt::Task& t = ts[ti];
    const EdfPlacement placed = PlaceEdfTask(
        cores, t, first_fit, /*allow_split=*/true, cfg, nullptr, &memo);
    if (!placed.placed) {
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "tau%u (u=%.3f): no window split fits", t.id,
                    t.utilization());
      fail.failure_reason = buf;
      return fail;
    }
    parts[ti] = placed.parts;
  }
  return Finish(std::move(parts), ts, cfg.num_cores, cfg.model, "EDF-WM");
}

}  // namespace sps::partition
