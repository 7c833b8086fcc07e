#include "online/admission.hpp"

#include <algorithm>

#include "partition/verify.hpp"

namespace sps::online {

partition::EdfPartitionConfig DeriveEdfPartitionConfig(
    const AdmissionConfig& cfg) {
  partition::EdfPartitionConfig out;
  out.num_cores = cfg.num_cores;
  out.model = cfg.model;
  out.memo = cfg.memo;
  return out;
}

partition::BinPackConfig DeriveBinPackConfig(const AdmissionConfig& cfg) {
  partition::BinPackConfig out;
  out.num_cores = cfg.num_cores;
  out.model = cfg.model;
  out.memo = cfg.memo;
  return out;
}

AdmissionState::AdmissionState(const AdmissionConfig& cfg)
    : cfg_(cfg),
      edf_cfg_(DeriveEdfPartitionConfig(cfg)),
      fp_cfg_(DeriveBinPackConfig(cfg)) {
  if (cfg.policy == partition::SchedPolicy::kEdf) {
    memo_ = analysis::MakeEdfMemoContext(cfg.memo, cfg.model);
    edf_cores_.resize(cfg.num_cores);
  } else {
    memo_ = analysis::MakeFpMemoContext(
        cfg.memo, cfg.model, static_cast<int>(fp_cfg_.admission));
    fp_cores_.resize(cfg.num_cores);
  }
}

partition::TaskPlacement AdmissionState::Place(
    const rt::Task& t, std::span<const unsigned> core_order,
    bool allow_split) {
  if (cfg_.policy == partition::SchedPolicy::kEdf) {
    return partition::PlaceEdfTask(edf_cores_, t, core_order, allow_split,
                                   edf_cfg_, &stats_, &memo_);
  }
  // Fixed priority: whole-task placement only (splitting in this repo is
  // the EDF-WM window mechanism; FP splitting is the offline SPA
  // preassignment, which is not an incremental step).
  return partition::PlaceFpTask(fp_cores_, t, core_order, fp_cfg_, &stats_,
                                &memo_);
}

void AdmissionState::Remove(
    rt::TaskId id, std::span<const partition::SubtaskPlacement> parts) {
  for (const partition::SubtaskPlacement& p : parts) {
    if (cfg_.policy == partition::SchedPolicy::kEdf) {
      edf_cores_[p.core].RemoveTask(id);
    } else {
      fp_cores_[p.core].RemoveTask(id);
    }
  }
}

std::vector<AdmissionState::TakenEntry> AdmissionState::TakeEdf(
    rt::TaskId id, std::span<const partition::SubtaskPlacement> parts) {
  std::vector<TakenEntry> taken;
  std::vector<analysis::EdfCoreEntry> lifted;
  for (const partition::SubtaskPlacement& p : parts) {
    lifted.clear();
    edf_cores_[p.core].RemoveTask(id, &lifted);
    for (const analysis::EdfCoreEntry& e : lifted) {
      taken.push_back(TakenEntry{p.core, e});
    }
  }
  return taken;
}

void AdmissionState::RestoreEdf(std::span<const TakenEntry> taken) {
  for (const TakenEntry& t : taken) edf_cores_[t.core].Commit(t.entry);
}

void AdmissionState::Adopt(const partition::Partition& p) {
  const partition::AdmitStats kept = stats_;
  *this = AdmissionState(cfg_);
  stats_ = kept;
  for (const partition::PlacedTask& pt : p.tasks) CommitPlaced(pt);
}

void AdmissionState::CommitPlaced(const partition::PlacedTask& pt) {
  if (cfg_.policy != partition::SchedPolicy::kEdf) {
    fp_cores_[pt.parts[0].core].Commit(pt.task);
    return;
  }
  if (!pt.split()) {
    edf_cores_[pt.parts[0].core].Commit(partition::MakeEdfEntry(pt.task));
    return;
  }
  for (std::size_t k = 0; k < pt.parts.size(); ++k) {
    const partition::PartWindow w = partition::WindowOfPart(pt, k);
    edf_cores_[pt.parts[k].core].Commit(partition::MakeEdfWindowEntry(
        pt.task, pt.parts[k].budget, w.length, w.kind));
  }
}

AdmissionSnapshot AdmissionState::ExportState() const {
  AdmissionSnapshot snap;
  snap.edf_cores = edf_cores_;
  snap.fp_cores = fp_cores_;
  snap.stats = stats_;
  return snap;
}

bool AdmissionState::ImportState(AdmissionSnapshot snap) {
  const bool edf = cfg_.policy == partition::SchedPolicy::kEdf;
  if (edf && (snap.edf_cores.size() != cfg_.num_cores ||
              !snap.fp_cores.empty())) {
    return false;
  }
  if (!edf && (snap.fp_cores.size() != cfg_.num_cores ||
               !snap.edf_cores.empty())) {
    return false;
  }
  edf_cores_ = std::move(snap.edf_cores);
  fp_cores_ = std::move(snap.fp_cores);
  stats_ = snap.stats;
  return true;
}

double AdmissionState::core_utilization(unsigned c) const {
  return cfg_.policy == partition::SchedPolicy::kEdf
             ? edf_cores_[c].utilization
             : fp_cores_[c].utilization;
}

std::size_t AdmissionState::entries_on(unsigned c) const {
  return cfg_.policy == partition::SchedPolicy::kEdf
             ? edf_cores_[c].entries.size()
             : fp_cores_[c].tasks.size();
}

double AdmissionState::total_utilization() const {
  double u = 0.0;
  for (unsigned c = 0; c < cfg_.num_cores; ++c) u += core_utilization(c);
  return u;
}

}  // namespace sps::online
