#include "partition/binpack.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/overhead_aware.hpp"
#include "obs/spans.hpp"
#include "partition/verify.hpp"

namespace sps::partition {

const char* ToString(FitPolicy p) {
  switch (p) {
    case FitPolicy::kFirstFit: return "FFD";
    case FitPolicy::kBestFit: return "BFD";
    case FitPolicy::kWorstFit: return "WFD";
    case FitPolicy::kNextFit: return "NFD";
  }
  return "?";
}

const char* ToString(AdmissionTest t) {
  switch (t) {
    case AdmissionTest::kLiuLayland: return "LL";
    case AdmissionTest::kHyperbolic: return "HYP";
    case AdmissionTest::kRta: return "RTA";
  }
  return "?";
}

void FpCoreState::Commit(const rt::Task& t) {
  tasks.push_back(t);
  utilization += t.utilization();
  zobrist ^= analysis::FpTaskCode(t);
}

bool FpCoreState::RemoveTask(rt::TaskId id) {
  for (auto it = tasks.begin(); it != tasks.end(); ++it) {
    if (it->id == id) {
      utilization -= it->utilization();
      zobrist ^= analysis::FpTaskCode(*it);
      tasks.erase(it);
      if (tasks.empty()) utilization = 0.0;  // flush float residue
      return true;
    }
  }
  return false;
}

AdmitStats& AdmitStats::operator+=(const AdmitStats& o) {
  util_rejects += o.util_rejects;
  density_accepts += o.density_accepts;
  full_tests += o.full_tests;
  memo_hits += o.memo_hits;
  memo_misses += o.memo_misses;
  memo_evicts += o.memo_evicts;
  return *this;
}

bool FpCoreAdmits(const FpCoreState& bin, const rt::Task& cand,
                  const BinPackConfig& cfg, AdmitStats* stats,
                  const analysis::MemoContext* memo) {
  AdmitStats local;
  AdmitStats& s = stats != nullptr ? *stats : local;
  obs::SpanProfiler* const prof = obs::InstalledProfiler();
  // O(1) reject: no FP admission test passes a core over utilization 1
  // (LL and hyperbolic bounds are below it; RTA diverges past it for
  // constrained deadlines). This screen and the memo probe are too cheap
  // to time on every call (obs::SampledSpan).
  {
    obs::SampledSpan span(prof, obs::SpanStage::kUtilScreen);
    if (bin.utilization + cand.utilization() > 1.0 + 1e-12) {
      ++s.util_rejects;
      return false;
    }
  }
  // Transposition table: everything past the (never-cached, O(1)) screen
  // is a pure function of (resident multiset, candidate, model, test
  // kind) — exactly what the query key covers.
  const bool use_memo = memo != nullptr && memo->active();
  analysis::MemoKey qk;
  if (use_memo) {
    obs::SampledSpan span(prof, obs::SpanStage::kMemoProbe);
    qk = analysis::CombineQuery(bin.zobrist, analysis::FpTaskCode(cand),
                                *memo);
    if (const auto hit = memo->table->Lookup(qk.lo, qk)) {
      ++s.memo_hits;
      ++s.full_tests;  // the stage the cached verdict came from
      return hit->admitted;
    }
    ++s.memo_misses;
  }
  obs::ScopedSpan analysis_span(prof, obs::SpanStage::kAnalysis);
  ++s.full_tests;
  const bool ok = [&] {
    if (cfg.admission != AdmissionTest::kRta) {
      std::vector<double> utils;
      utils.reserve(bin.tasks.size() + 1);
      for (const rt::Task& t : bin.tasks) utils.push_back(t.utilization());
      utils.push_back(cand.utilization());
      return cfg.admission == AdmissionTest::kLiuLayland
                 ? analysis::LiuLaylandTest(utils)
                 : analysis::HyperbolicTest(utils);
    }
    // Overhead-aware exact RTA on this core with the candidate added.
    auto entry = [](const rt::Task& t) {
      analysis::CoreEntry e;
      e.exec = t.wcet;
      e.period = t.period;
      e.deadline = t.deadline;
      e.priority = t.priority + kNormalPriorityBase;
      e.kind = analysis::EntryKind::kNormal;
      e.id = t.id;
      return e;
    };
    std::vector<analysis::CoreEntry> residents;
    residents.reserve(bin.tasks.size());
    for (const rt::Task& t : bin.tasks) residents.push_back(entry(t));
    return analysis::CandidateResponse(residents, entry(cand), cfg.model) !=
           kTimeNever;
  }();
  if (use_memo &&
      memo->table->Store(qk.lo, qk,
                         {.admitted = ok, .via_density = false})) {
    ++s.memo_evicts;
  }
  return ok;
}

PartitionResult BinPackDecreasing(const rt::TaskSet& ts, FitPolicy policy,
                                  const BinPackConfig& cfg) {
  PartitionResult result;
  result.algorithm = std::string(ToString(policy)) + "/" +
                     ToString(cfg.admission);

  std::vector<FpCoreState> bins(cfg.num_cores);
  const std::vector<std::size_t> order = rt::OrderByDecreasingUtilization(ts);
  unsigned next_fit_cursor = 0;
  const analysis::MemoContext memo =
      analysis::MakeFpMemoContext(cfg.memo, cfg.model,
                                  static_cast<int>(cfg.admission));

  for (const std::size_t ti : order) {
    const rt::Task& t = ts[ti];
    int chosen = -1;

    switch (policy) {
      case FitPolicy::kFirstFit: {
        for (unsigned c = 0; c < cfg.num_cores; ++c) {
          if (FpCoreAdmits(bins[c], t, cfg, nullptr, &memo)) {
            chosen = static_cast<int>(c);
            break;
          }
        }
        break;
      }
      case FitPolicy::kNextFit: {
        while (next_fit_cursor < cfg.num_cores) {
          if (FpCoreAdmits(bins[next_fit_cursor], t, cfg, nullptr, &memo)) {
            chosen = static_cast<int>(next_fit_cursor);
            break;
          }
          ++next_fit_cursor;
        }
        break;
      }
      case FitPolicy::kBestFit:
      case FitPolicy::kWorstFit: {
        // Probe cores in utilization order (best fit: fullest first;
        // worst fit: emptiest first), ties by core id for determinism.
        std::vector<unsigned> core_order(cfg.num_cores);
        std::iota(core_order.begin(), core_order.end(), 0u);
        std::stable_sort(
            core_order.begin(), core_order.end(),
            [&](unsigned a, unsigned b) {
              return policy == FitPolicy::kBestFit
                         ? bins[a].utilization > bins[b].utilization
                         : bins[a].utilization < bins[b].utilization;
            });
        for (unsigned c : core_order) {
          if (FpCoreAdmits(bins[c], t, cfg, nullptr, &memo)) {
            chosen = static_cast<int>(c);
            break;
          }
        }
        break;
      }
    }

    if (chosen < 0) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "tau%u (u=%.3f) fits no core", t.id,
                    t.utilization());
      result.failure_reason = buf;
      return result;
    }
    bins[static_cast<unsigned>(chosen)].Commit(t);
  }

  // Assemble the partition (original task order, never split).
  Partition p;
  p.num_cores = cfg.num_cores;
  for (const rt::Task& t : ts) {
    for (unsigned c = 0; c < cfg.num_cores; ++c) {
      const bool here = std::any_of(
          bins[c].tasks.begin(), bins[c].tasks.end(),
          [&](const rt::Task& x) { return x.id == t.id; });
      if (!here) continue;
      PlacedTask pt;
      pt.task = t;
      pt.parts.push_back(SubtaskPlacement{
          c, t.wcet, t.priority + kNormalPriorityBase});
      p.tasks.push_back(std::move(pt));
      break;
    }
  }

  // Final gate: the full verifier must agree (it is the acceptance
  // criterion of the experiments).
  const PartitionAnalysis verdict = AnalyzePartition(p, cfg.model);
  if (!verdict.schedulable &&
      cfg.admission == AdmissionTest::kRta) {
    // Cannot happen: per-core RTA admission equals the verifier for
    // unsplit partitions. Guard anyway.
    result.failure_reason = "verifier rejected: " + verdict.failure_reason;
    return result;
  }
  if (!verdict.schedulable) {
    // Utilization-bound admissions are sufficient tests; the verifier can
    // only be MORE permissive than them when overheads are zero. With a
    // non-zero model the bounds are not overhead-aware, so reject here.
    result.failure_reason = "verifier rejected: " + verdict.failure_reason;
    return result;
  }
  result.success = true;
  result.partition = std::move(p);
  return result;
}

}  // namespace sps::partition
