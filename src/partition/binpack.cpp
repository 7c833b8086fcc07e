#include "partition/binpack.hpp"

#include <optional>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/overhead_aware.hpp"
#include "partition/packing.hpp"
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
}

bool FpCoreState::RemoveTask(rt::TaskId id) {
  for (auto it = tasks.begin(); it != tasks.end(); ++it) {
    if (it->id == id) {
      utilization -= it->utilization();
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

FpProbeSlots::FpProbeSlots(const overhead::OverheadModel& model,
                           unsigned num_cores)
    : model_(&model), slots_(num_cores, Slot{analysis::FpCoreProbe(model)}) {}

const analysis::LocalCharges& FpProbeSlots::Charges(std::size_t n) {
  if (n >= rows_.size()) rows_.resize(n + 1);
  if (!rows_[n]) rows_[n].emplace(*model_, n);
  return *rows_[n];
}

bool FpCoreAdmits(const FpCoreState& bin, unsigned c, const rt::Task& cand,
                  const BinPackConfig& cfg, FpProbeSlots& slots,
                  AdmitStats* stats) {
  // The screen holds for every FP test: the LL and hyperbolic bounds are
  // below 1, and RTA diverges past it for constrained deadlines.
  return ScreenedAdmits(
      bin.utilization + cand.utilization(), NoVerdictCache{},
      [&]() -> Verdict {
        if (cfg.admission != AdmissionTest::kRta) {
          std::vector<double> utils;
          utils.reserve(bin.tasks.size() + 1);
          for (const rt::Task& t : bin.tasks) utils.push_back(t.utilization());
          utils.push_back(cand.utilization());
          return {.admitted = cfg.admission == AdmissionTest::kLiuLayland
                                  ? analysis::LiuLaylandTest(utils)
                                  : analysis::HyperbolicTest(utils)};
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
        analysis::FpCoreProbe& probe =
            slots.Probe(c, [&](std::vector<analysis::CoreEntry>& out) {
              for (const rt::Task& t : bin.tasks) out.push_back(entry(t));
            });
        return {.admitted = probe.Admits(entry(cand))};
      },
      stats);
}

TaskPlacement PlaceFpTask(std::vector<FpCoreState>& cores, const rt::Task& t,
                          std::span<const unsigned> core_order,
                          const BinPackConfig& cfg, AdmitStats* stats,
                          FpProbeSlots* slots) {
  std::optional<FpProbeSlots> own;
  if (slots == nullptr) {
    slots = &own.emplace(cfg.model, static_cast<unsigned>(cores.size()));
  }
  TaskPlacement out;
  for (const unsigned c : core_order) {
    ++out.probes;
    if (FpCoreAdmits(cores[c], c, t, cfg, *slots, stats)) {
      cores[c].Commit(t);
      slots->Empty(c);
      out.placed = true;
      out.parts.push_back(
          SubtaskPlacement{c, t.wcet, t.priority + kNormalPriorityBase, 0});
      return out;
    }
  }
  return out;
}

PartitionResult FinishPartition(
    std::vector<std::vector<SubtaskPlacement>> parts, const rt::TaskSet& ts,
    unsigned num_cores, SchedPolicy policy,
    const overhead::OverheadModel& model, std::string algorithm) {
  PartitionResult result;
  result.algorithm = std::move(algorithm);
  Partition p;
  p.num_cores = num_cores;
  p.policy = policy;
  for (std::size_t ti = 0; ti < ts.size(); ++ti) {
    PlacedTask pt;
    pt.task = ts[ti];
    pt.parts = std::move(parts[ti]);
    p.tasks.push_back(std::move(pt));
  }
  // Per-core RTA admission equals the verifier for unsplit partitions;
  // the utilization-bound admissions are not overhead-aware, so with a
  // non-zero model the verifier can reject what they admitted.
  const PartitionAnalysis verdict = AnalyzePartition(p, model);
  if (!verdict.schedulable) {
    result.failure_reason = "verifier rejected: " + verdict.failure_reason;
    return result;
  }
  result.success = true;
  result.partition = std::move(p);
  return result;
}

PartitionResult BinPackDecreasing(const rt::TaskSet& ts, FitPolicy policy,
                                  const BinPackConfig& cfg) {
  FpProbeSlots slots(cfg.model, cfg.num_cores);
  return PackDecreasing<FpCoreState>(
      ts, policy, cfg.num_cores, SchedPolicy::kFixedPriority, cfg.model,
      std::string(ToString(policy)) + "/" + ToString(cfg.admission),
      " fits no core",
      [&](std::vector<FpCoreState>& cores, const rt::Task& t,
          std::span<const unsigned> order) {
        return PlaceFpTask(cores, t, order, cfg, nullptr, &slots);
      });
}

}  // namespace sps::partition
