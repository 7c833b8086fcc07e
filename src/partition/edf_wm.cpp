#include "partition/edf_wm.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "analysis/edf.hpp"
#include "analysis/overhead_aware.hpp"
#include "partition/packing.hpp"

namespace sps::partition {

void EdfCoreState::Commit(const analysis::EdfCoreEntry& e) {
  entries.push_back(e);
  utilization +=
      static_cast<double>(e.exec) / static_cast<double>(e.period);
  zobrist ^= analysis::EdfEntryCode(e);
}

std::size_t EdfCoreState::RemoveTask(
    rt::TaskId id, std::vector<analysis::EdfCoreEntry>* removed_entries) {
  std::size_t removed = 0;
  for (auto it = entries.begin(); it != entries.end();) {
    if (it->id == id) {
      utilization -=
          static_cast<double>(it->exec) / static_cast<double>(it->period);
      zobrist ^= analysis::EdfEntryCode(*it);
      if (removed_entries != nullptr) removed_entries->push_back(*it);
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
                                          Time window_len,
                                          analysis::EntryKind kind) {
  analysis::EdfCoreEntry e;
  e.exec = budget;
  e.period = t.period;
  e.deadline = window_len;
  e.kind = static_cast<int>(kind);
  e.dest_queue_size = kConservativeQueueSize;
  e.first_core_queue_size = kConservativeQueueSize;
  e.id = t.id;
  return e;
}

namespace {

/// The verdict cache of one EDF probe (analysis/memo.hpp): the query key
/// of the resident hash and the candidate, looked up in a sampled
/// kMemoProbe span and stored after a miss. Inert without an active
/// `memo` context. The out-of-line table calls get local copies of the
/// key, so that no member's address escapes and this object stays in
/// registers on the cached replays' hot path.
struct EdfVerdictCache {
  const analysis::MemoContext* memo;
  const analysis::MemoKey& resident;
  const analysis::EdfCoreEntry& cand;
  analysis::MemoKey key{};
  bool probed = false;

  std::optional<Verdict> Lookup(obs::SpanProfiler* prof, AdmitStats& s) {
    if (memo == nullptr || !memo->active()) return std::nullopt;
    probed = true;
    obs::SampledSpan span(prof, obs::SpanStage::kMemoProbe);
    const analysis::MemoKey k = analysis::CombineQuery(
        resident, analysis::EdfEntryCode(cand), *memo);
    key = k;
    const std::optional<Verdict> hit = memo->table->Lookup(k.lo, k);
    ++(hit ? s.memo_hits : s.memo_misses);
    return hit;
  }

  void Store(const Verdict& v, AdmitStats& s) {
    const analysis::MemoKey k = key;
    if (probed && memo->table->Store(k.lo, k, v)) ++s.memo_evicts;
  }
};

}  // namespace

bool EdfCoreAdmits(const EdfCoreState& core,
                   const analysis::EdfCoreEntry& cand,
                   const overhead::OverheadModel& model,
                   AdmitStats* stats,
                   const analysis::MemoContext* memo) {
  // The screen: inflation only adds demand, and the demand test opens by
  // rejecting U > 1 (same epsilon).
  return ScreenedAdmits(
      core.utilization +
          static_cast<double>(cand.exec) / static_cast<double>(cand.period),
      EdfVerdictCache{memo, core.zobrist, cand},
      [&]() -> Verdict {
        std::vector<analysis::EdfCoreEntry> probe = core.entries;
        probe.push_back(cand);
        const auto inflated = analysis::InflateEdfCore(probe, model);
        // O(n) accept: inflated density sum C'/min(D,T) <= 1 implies
        // dbf(t) <= t everywhere, and an inflated utilization strictly
        // below 1 keeps the test off its U==1 conservative-cap branch —
        // so the full test would accept.
        double density = 0.0;
        double inflated_util = 0.0;
        for (const analysis::EdfTask& t : inflated) {
          const Time d = t.deadline < t.period ? t.deadline : t.period;
          density += static_cast<double>(t.wcet) / static_cast<double>(d);
          inflated_util +=
              static_cast<double>(t.wcet) / static_cast<double>(t.period);
        }
        if (density <= 1.0 && inflated_util < 1.0 - 1e-9) {
          return {.admitted = true, .via_density = true};
        }
        return {.admitted = analysis::EdfSchedulable(inflated)};
      },
      stats);
}

TaskPlacement PlaceEdfTask(std::vector<EdfCoreState>& cores,
                           const rt::Task& t,
                           std::span<const unsigned> whole_core_order,
                           bool allow_split, const EdfPartitionConfig& cfg,
                           AdmitStats* stats,
                           const analysis::MemoContext* memo) {
  TaskPlacement out;

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
      // The nominal window's entry: a budget that leaves nothing for
      // later windows makes it the tail.
      const auto window_entry = [&](Time budget) {
        const bool tail = last_window || budget == remaining;
        return MakeEdfWindowEntry(t, budget, wlen,
                                  tail     ? analysis::EntryKind::kTail
                                  : j == 0 ? analysis::EntryKind::kBodyFirst
                                           : analysis::EntryKind::kBodyMiddle);
      };
      Time best = 0;
      unsigned best_core = 0;
      for (unsigned c = 0; c < num_cores; ++c) {
        if (std::find(used.begin(), used.end(), c) != used.end()) {
          continue;
        }
        ++out.probes;
        // Largest admissible budget on this core for this window.
        const Time got = LargestAdmitted(kMinBudget, want, [&](Time budget) {
          return EdfCoreAdmits(cores[c], window_entry(budget), cfg.model,
                               stats, memo);
        });
        if (got > best) {
          best = got;
          best_core = c;
          if (best == want) break;  // cannot do better
        }
      }
      if (best < kMinBudget) continue;  // this window contributes 0
      trial_entries.push_back(window_entry(best));
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
  const analysis::MemoContext memo =
      analysis::MakeEdfMemoContext(cfg.memo, cfg.model);
  return PackDecreasing<EdfCoreState>(
      ts, policy, cfg.num_cores, SchedPolicy::kEdf, cfg.model,
      std::string("EDF-") + ToString(policy), " fits no core",
      [&](std::vector<EdfCoreState>& cores, const rt::Task& t,
          std::span<const unsigned> order) {
        return PlaceEdfTask(cores, t, order, /*allow_split=*/false, cfg,
                            nullptr, &memo);
      });
}

PartitionResult EdfWm(const rt::TaskSet& ts, const EdfPartitionConfig& cfg) {
  const analysis::MemoContext memo =
      analysis::MakeEdfMemoContext(cfg.memo, cfg.model);
  return PackDecreasing<EdfCoreState>(
      ts, FitPolicy::kFirstFit, cfg.num_cores, SchedPolicy::kEdf, cfg.model,
      "EDF-WM", ": no window split fits",
      [&](std::vector<EdfCoreState>& cores, const rt::Task& t,
          std::span<const unsigned> order) {
        return PlaceEdfTask(cores, t, order, /*allow_split=*/true, cfg,
                            nullptr, &memo);
      });
}

}  // namespace sps::partition
