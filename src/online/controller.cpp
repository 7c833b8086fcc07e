#include "online/controller.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/spans.hpp"

namespace sps::online {

namespace {

partition::FitPolicy ToFitPolicy(PlacePolicy p) {
  switch (p) {
    case PlacePolicy::kFirstFit: return partition::FitPolicy::kFirstFit;
    case PlacePolicy::kWorstFit: return partition::FitPolicy::kWorstFit;
    case PlacePolicy::kSpaOrder: return partition::FitPolicy::kBestFit;
  }
  return partition::FitPolicy::kFirstFit;
}

/// Shed re-admission retry backoff, in epochs: the first retry comes
/// after kRetryBackoffMin, the wait doubles per failed retry, capped at
/// kRetryBackoffMax.
constexpr std::uint32_t kRetryBackoffMin = 1;
constexpr std::uint32_t kRetryBackoffMax = 16;

/// Repartition-fallback hysteresis: after an adopted repartition,
/// further adoptions are suppressed until kFallbackCooldownEpochs
/// epochs pass OR total utilization moves by more than
/// kFallbackUtilBand.
constexpr std::uint64_t kFallbackCooldownEpochs = 4;
constexpr double kFallbackUtilBand = 0.10;

/// Importance guard of the admission-path ladder: a candidate may only
/// displace residents strictly less important than itself — a hard
/// candidate outranks every soft resident; a soft candidate outranks
/// only lower-value soft residents (equal value never thrashes). The
/// epoch reaction (for_admit == nullptr) may pick any soft resident.
bool VictimEligible(const rt::Task& victim, const rt::Task* for_admit) {
  if (!victim.soft()) return false;
  if (for_admit == nullptr) return true;
  if (for_admit->crit == rt::Criticality::kHard) return true;
  return victim.value < for_admit->value;
}

}  // namespace

const char* ToString(PlacePolicy p) {
  switch (p) {
    case PlacePolicy::kFirstFit: return "first-fit";
    case PlacePolicy::kWorstFit: return "worst-fit";
    case PlacePolicy::kSpaOrder: return "spa-order";
  }
  return "?";
}

ChurnStats& ChurnStats::operator+=(const ChurnStats& o) {
  moved += o.moved;
  split += o.split;
  unsplit += o.unsplit;
  repartitions += o.repartitions;
  return *this;
}

ChurnStats& ChurnStats::operator-=(const ChurnStats& o) {
  moved -= o.moved;
  split -= o.split;
  unsplit -= o.unsplit;
  repartitions -= o.repartitions;
  return *this;
}

OverloadStats& OverloadStats::operator+=(const OverloadStats& o) {
  degrades += o.degrades;
  degrade_restores += o.degrade_restores;
  sheds += o.sheds;
  shed_restores += o.shed_restores;
  retry_attempts += o.retry_attempts;
  hysteresis_blocks += o.hysteresis_blocks;
  return *this;
}

OverloadStats& OverloadStats::operator-=(const OverloadStats& o) {
  degrades -= o.degrades;
  degrade_restores -= o.degrade_restores;
  sheds -= o.sheds;
  shed_restores -= o.shed_restores;
  retry_attempts -= o.retry_attempts;
  hysteresis_blocks -= o.hysteresis_blocks;
  return *this;
}

Controller::Controller(const ControllerConfig& cfg)
    : cfg_(cfg), state_(cfg.admission) {}

std::vector<unsigned> Controller::CoreOrder(
    const AdmissionState& state) const {
  std::vector<unsigned> order;
  partition::ProbeOrder(
      ToFitPolicy(cfg_.place), state.num_cores(), 0,
      [&state](unsigned c) { return state.core_utilization(c); }, order);
  return order;
}

AdmitOutcome Controller::TryPlace(const rt::Task& t) {
  obs::ScopedSpan span(obs::InstalledProfiler(), obs::SpanStage::kPlacement);
  AdmitOutcome out;
  const std::vector<unsigned> order = CoreOrder(state_);
  const bool allow_split =
      cfg_.allow_split &&
      cfg_.admission.policy == partition::SchedPolicy::kEdf;
  partition::TaskPlacement placed = state_.Place(t, order, allow_split);
  // kPlacement span attribute: cores probed during the walk.
  obs::TraceAttr(static_cast<std::int64_t>(placed.probes));
  if (!placed.placed) return out;
  out.accepted = true;
  out.parts = static_cast<unsigned>(placed.parts.size());
  if (out.parts > 1) ++churn_.split;
  residents_.emplace(
      t.id, Resident{{t, std::move(placed.parts)}, admit_seq_++, {}});
  NoteAdmission(t.id);
  return out;
}

void Controller::NoteAdmission(rt::TaskId id) {
  // Admission generation: 0 on the first admission of this id (so pure
  // admit streams match the legacy RNG derivation bit-for-bit), bumped
  // on every re-admission so a returning id never resumes its previous
  // incarnation's exec/arrival RNG position.
  if (!admitted_.insert(id).second) ++generation_of_[id];
}

AdmitOutcome Controller::Admit(const rt::Task& t) {
  obs::ScopedSpan span(obs::InstalledProfiler(), obs::SpanStage::kAdmitTotal);
  AdmitOutcome out;
  if (!t.valid() || residents_.contains(t.id)) return out;
  for (const ShedRecord& r : shed_) {
    if (r.task.id == t.id) return out;  // id still logically in-system
  }

  out = TryPlace(t);
  if (out.accepted) return out;

  // Ladder (DESIGN.md §13): make room by degrading, then shedding,
  // strictly less important residents — retrying the incremental
  // placement after each step. All steps are logged; a candidate the
  // ladder still cannot place rolls every step back exactly.
  if (cfg_.overload.ladder) {
    std::vector<LadderAction> log;
    while (DegradeOne(&t, log) || ShedOne(&t, log)) {
      out = TryPlace(t);
      if (out.accepted) {
        out.via_ladder = true;
        // kAdmitTotal span attribute: ladder rung reached (steps taken).
        obs::TraceAttr(static_cast<std::int64_t>(log.size()));
        CommitLadder(log);
        return out;
      }
    }
    UndoLadder(log);
  }
  if (cfg_.repartition_fallback) return FallbackRepartition(t);
  return out;
}

bool Controller::FallbackAllowed() {
  if (!cfg_.overload.hysteresis || !any_fallback_) return true;
  if (epoch_ - last_fallback_epoch_ >= kFallbackCooldownEpochs) return true;
  if (std::abs(state_.total_utilization() - last_fallback_util_) >
      kFallbackUtilBand) {
    return true;
  }
  ++overload_.hysteresis_blocks;
  return false;
}

AdmitOutcome Controller::FallbackRepartition(const rt::Task& t) {
  obs::ScopedSpan span(obs::InstalledProfiler(), obs::SpanStage::kFallback);
  AdmitOutcome out;
  // O(1) hopelessness guard: no partitioner can place a set whose total
  // utilization exceeds the core count — skip the offline run entirely.
  // (Checked before the hysteresis gate: a hopeless request is not a
  // suppressed repartition, it is an unplaceable one.)
  if (state_.total_utilization() + t.utilization() >
      static_cast<double>(cfg_.admission.num_cores) + 1e-12) {
    return out;
  }
  if (!FallbackAllowed()) return out;
  // Resident set + candidate, in ascending id order (the offline
  // partitioners impose their own heuristic order internally).
  std::vector<rt::Task> tasks;
  tasks.reserve(residents_.size() + 1);
  for (const auto& [id, r] : residents_) tasks.push_back(r.placed.task);
  tasks.insert(std::ranges::upper_bound(tasks, t.id, {}, &rt::Task::id), t);
  const rt::TaskSet ts(std::move(tasks));

  // Shared derived-config builders (admission.hpp): the fallback runs
  // the offline partitioner under EXACTLY the config the incremental
  // state uses — no hand-copied knobs to drift.
  partition::PartitionResult pr;
  if (cfg_.admission.policy == partition::SchedPolicy::kEdf) {
    const partition::EdfPartitionConfig ecfg =
        DeriveEdfPartitionConfig(cfg_.admission);
    pr = cfg_.allow_split
             ? partition::EdfWm(ts, ecfg)
             : partition::EdfBinPack(ts, ToFitPolicy(cfg_.place), ecfg);
  } else {
    pr = partition::BinPackDecreasing(
        ts, ToFitPolicy(cfg_.place), DeriveBinPackConfig(cfg_.admission));
  }
  if (!pr.success) return out;

  // Adopted: charge the churn — every RESIDENT task whose placement
  // changed moved; residents newly split (and the candidate if split)
  // count as splits.
  state_.Adopt(pr.partition);
  for (partition::PlacedTask& pt : pr.partition.tasks) {
    const auto [it, candidate] = residents_.try_emplace(pt.task.id);
    const partition::PlacedTask& old_pt = it->second.placed;
    if (candidate) {
      if (pt.split()) ++churn_.split;
    } else if (old_pt.parts != pt.parts) {
      ++churn_.moved;
      if (!old_pt.split() && pt.split()) ++churn_.split;
      if (old_pt.split() && !pt.split()) ++churn_.unsplit;
    }
    it->second.placed = std::move(pt);
  }
  ++churn_.repartitions;
  Resident& admitted = residents_.at(t.id);
  admitted.admit_seq = admit_seq_++;
  NoteAdmission(t.id);
  any_fallback_ = true;
  last_fallback_epoch_ = epoch_;
  last_fallback_util_ = state_.total_utilization();
  out.accepted = true;
  out.via_fallback = true;
  out.parts = static_cast<unsigned>(admitted.placed.parts.size());
  // kFallback span attribute: size of the repartitioned set.
  obs::TraceAttr(static_cast<std::int64_t>(ts.size()));
  return out;
}

bool Controller::Leave(rt::TaskId id) {
  obs::ScopedSpan span(obs::InstalledProfiler(), obs::SpanStage::kLeave);
  const auto it = residents_.find(id);
  if (it == residents_.end()) {
    // A currently-shed task leaving for good: drop its retry record (no
    // capacity to reclaim — it holds none).
    return std::erase_if(shed_, [id](const ShedRecord& r) {
             return r.task.id == id;
           }) != 0;
  }
  state_.Remove(id, it->second.placed.parts);
  residents_.erase(it);
  if (cfg_.unsplit_on_leave &&
      cfg_.admission.policy == partition::SchedPolicy::kEdf) {
    ConsolidateSplits();
  }
  return true;
}

template <typename Pred>
std::map<rt::TaskId, Resident>::iterator Controller::PickVictim(Pred&& pred) {
  // Minimum (value, then NEWEST admission): a total order over residents
  // (admission sequences are unique).
  auto best = residents_.end();
  for (auto it = residents_.begin(); it != residents_.end(); ++it) {
    const Resident& r = it->second;
    if (!r.placed.task.soft() || !pred(r)) continue;
    if (best == residents_.end()) {
      best = it;
      continue;
    }
    const std::uint32_t v = r.placed.task.value;
    const std::uint32_t best_value = best->second.placed.task.value;
    if (v < best_value ||
        (v == best_value && r.admit_seq > best->second.admit_seq)) {
      best = it;
    }
  }
  return best;
}

bool Controller::DegradeOne(const rt::Task* for_admit,
                            std::vector<LadderAction>& log) {
  obs::ScopedSpan span(obs::InstalledProfiler(),
                       obs::SpanStage::kLadderDegrade);
  const auto it = PickVictim([&](const Resident& r) {
    return r.placed.task.can_degrade() && !r.placed.split() && !r.full &&
           VictimEligible(r.placed.task, for_admit);
  });
  if (it == residents_.end()) return false;

  Resident& r = it->second;
  log.push_back(LadderAction{LadderAction::Kind::kDegrade, r});
  state_.Remove(it->first, r.placed.parts);
  r.full = r.placed.task;
  r.placed.task.wcet = r.placed.task.degraded_wcet;
  r.placed.parts[0].budget = r.placed.task.wcet;
  // Commit without an admission test: a smaller C on the very core that
  // admitted the larger C is monotonically safe.
  state_.CommitPlaced(r.placed);
  return true;
}

bool Controller::ShedOne(const rt::Task* for_admit,
                         std::vector<LadderAction>& log) {
  obs::ScopedSpan span(obs::InstalledProfiler(), obs::SpanStage::kLadderShed);
  const auto it = PickVictim([&](const Resident& r) {
    return VictimEligible(r.placed.task, for_admit);
  });
  if (it == residents_.end()) return false;

  state_.Remove(it->first, it->second.placed.parts);
  log.push_back(
      LadderAction{LadderAction::Kind::kShed, std::move(it->second)});
  residents_.erase(it);
  return true;
}

void Controller::CommitLadder(std::vector<LadderAction>& log) {
  for (LadderAction& a : log) {
    if (a.kind == LadderAction::Kind::kDegrade) {
      ++overload_.degrades;
      continue;
    }
    ++overload_.sheds;
    // The shed record keeps the FULL task: a degraded victim is shed as
    // a whole and retried for re-admission at full service.
    const Resident& r = a.before;
    shed_.push_back(ShedRecord{r.full.value_or(r.placed.task), r.admit_seq,
                               kRetryBackoffMin, kRetryBackoffMin});
  }
  log.clear();
}

void Controller::UndoLadder(std::vector<LadderAction>& log) {
  // Reverse order: each undo returns the state to one that existed (and
  // had passed admission) just before the action, so CommitPlaced needs
  // no re-test. A degraded victim is still resident; a shed one is not.
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    Resident& before = it->before;
    const rt::TaskId id = before.placed.task.id;
    const auto [entry, shed] = residents_.try_emplace(id);
    if (!shed) state_.Remove(id, entry->second.placed.parts);
    state_.CommitPlaced(before.placed);
    entry->second = std::move(before);
  }
  log.clear();
}

bool Controller::InflatedSchedulable(double magnitude) const {
  partition::Partition p = CurrentPartition();
  std::vector<double> core_util(p.num_cores, 0.0);
  for (partition::PlacedTask& pt : p.tasks) {
    Time inflated_wcet = 0;
    for (partition::SubtaskPlacement& sp : pt.parts) {
      sp.budget = std::max<Time>(
          1, static_cast<Time>(magnitude * static_cast<double>(sp.budget)));
      inflated_wcet += sp.budget;
      core_util[sp.core] += static_cast<double>(sp.budget) /
                            static_cast<double>(pt.task.period);
    }
    pt.task.wcet = inflated_wcet;
  }
  // Screen before the full analysis: an over-unit core can never pass,
  // and skipping it keeps the analysis' busy-period fixpoints off
  // pathological inputs.
  for (const double u : core_util) {
    if (u > 1.0) return false;
  }
  return partition::AnalyzePartition(p, cfg_.admission.model).schedulable;
}

unsigned Controller::ReactToOverload(double spike_magnitude) {
  if (!cfg_.overload.ladder || residents_.empty()) return 0;
  unsigned actions = 0;
  while (!InflatedSchedulable(spike_magnitude)) {
    std::vector<LadderAction> log;
    if (!DegradeOne(nullptr, log) && !ShedOne(nullptr, log)) break;
    CommitLadder(log);  // epoch-path actions commit immediately
    ++actions;
  }
  return actions;
}

void Controller::AdvanceEpoch(bool overloaded) {
  ++epoch_;
  if (overloaded) return;  // freeze retries/restores during the storm

  // Shed re-admission retries, in shed order. A failed probe doubles the
  // record's backoff (capped); a successful one is a normal incremental
  // admission (new admission generation, new admit sequence).
  std::vector<ShedRecord> still;
  still.reserve(shed_.size());
  bool restored_any = false;
  for (ShedRecord& r : shed_) {
    if (r.retry_in > 1) {
      --r.retry_in;
      still.push_back(std::move(r));
      continue;
    }
    if (TryPlace(r.task).accepted) {
      ++overload_.shed_restores;
      restored_any = true;
      continue;
    }
    ++overload_.retry_attempts;
    r.backoff = std::min(std::max(1u, r.backoff) * 2, kRetryBackoffMax);
    r.retry_in = r.backoff;
    still.push_back(std::move(r));
  }
  shed_ = std::move(still);

  // Degraded-service restores: in place (same core — no migration
  // churn), ascending id order, each guarded by a real admission probe
  // with the degraded entry lifted.
  for (auto& [id, r] : residents_) {
    if (!r.full) continue;
    const unsigned core[] = {r.placed.parts[0].core};
    state_.Remove(id, r.placed.parts);
    partition::TaskPlacement placed =
        state_.Place(*r.full, core, /*allow_split=*/false);
    if (placed.placed) {
      r.placed.task = *r.full;
      r.placed.parts = std::move(placed.parts);
      r.full.reset();
      ++overload_.degrade_restores;
      restored_any = true;
    } else {
      state_.CommitPlaced(r.placed);  // keep degraded: exact re-commit
    }
  }

  // Restore-time consolidation: a shed-retry re-admission may have come
  // back SPLIT (TryPlace probes the split search); the same multi-task
  // unsplit pass a LEAVE runs cleans that up once capacity allows —
  // recovery-time re-admission and normal leaves share one code path.
  if (restored_any && cfg_.unsplit_on_leave &&
      cfg_.admission.policy == partition::SchedPolicy::kEdf) {
    ConsolidateSplits();
  }
}

partition::Partition Controller::CurrentPartition() const {
  partition::Partition p;
  p.num_cores = cfg_.admission.num_cores;
  p.policy = cfg_.admission.policy;
  p.tasks.reserve(residents_.size());
  for (const auto& [id, r] : residents_) p.tasks.push_back(r.placed);
  return p;
}

std::vector<std::uint32_t> Controller::ExecGenerations() const {
  std::vector<std::uint32_t> gens;
  gens.reserve(residents_.size());
  for (const auto& [id, r] : residents_) {
    const auto it = generation_of_.find(id);
    gens.push_back(it == generation_of_.end() ? 0u : it->second);
  }
  return gens;
}

unsigned Controller::ConsolidateSplits() {
  // Deterministic multi-task pass: scan resident split tasks in
  // ascending id order and consolidate EVERY one that now fits whole
  // somewhere, repeating until a full pass makes no progress — one
  // consolidation frees its window reservations, which can be exactly
  // the capacity the next split task needs.
  unsigned total = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& [id, r] : residents_) {
      partition::PlacedTask& pt = r.placed;
      if (!pt.split()) continue;
      // Probe: would the whole task fit on some core once its own window
      // reservations are lifted? Lift exactly the task's entries (and
      // the core order is ranked with them lifted — what the policy
      // should see), place, and restore on failure: O(task entries), no
      // state copies.
      const std::vector<AdmissionState::TakenEntry> taken =
          state_.TakeEdf(id, pt.parts);
      const std::vector<unsigned> order = CoreOrder(state_);
      partition::TaskPlacement whole =
          state_.Place(pt.task, order, /*allow_split=*/false);
      if (!whole.placed) {
        state_.RestoreEdf(taken);
        continue;
      }
      pt.parts = std::move(whole.parts);
      ++churn_.unsplit;
      ++total;
      progress = true;
    }
  }
  return total;
}

std::size_t Controller::degraded_resident() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      residents_, [](const auto& e) { return e.second.full.has_value(); }));
}

ControllerSnapshot Controller::ExportState() const {
  return ControllerSnapshot{.residents = residents_,
                            .generation_of = generation_of_,
                            .shed = shed_,
                            .churn = churn_,
                            .overload = overload_,
                            .admit_seq = admit_seq_,
                            .epoch = epoch_,
                            .last_fallback_epoch = last_fallback_epoch_,
                            .last_fallback_util = last_fallback_util_,
                            .any_fallback = any_fallback_,
                            .admission = state_.ExportState()};
}

bool Controller::ImportState(ControllerSnapshot snap,
                             std::span<const rt::TaskId> admitted) {
  admitted_.clear();
  admitted_.insert(admitted.begin(), admitted.end());
  const auto was_admitted = [&](rt::TaskId id) {
    return admitted_.count(id) != 0;
  };
  for (const auto& [id, gen] : snap.generation_of) {
    if (gen == 0 || !was_admitted(id)) return false;
  }
  for (const auto& [id, r] : snap.residents) {
    if (!was_admitted(id)) return false;
  }
  for (const ShedRecord& r : snap.shed) {
    if (!was_admitted(r.task.id)) return false;
  }
  if (!state_.ImportState(std::move(snap.admission))) return false;
  residents_ = std::move(snap.residents);
  generation_of_ = std::move(snap.generation_of);
  shed_ = std::move(snap.shed);
  churn_ = snap.churn;
  overload_ = snap.overload;
  admit_seq_ = snap.admit_seq;
  epoch_ = snap.epoch;
  last_fallback_epoch_ = snap.last_fallback_epoch;
  last_fallback_util_ = snap.last_fallback_util;
  any_fallback_ = snap.any_fallback;
  return true;
}

// ---- epoch replay ----------------------------------------------------------

const SpikeEpoch* FaultPlan::SpikeAt(Time start, Time end) const {
  for (const SpikeEpoch& s : spikes) {
    if (s.start < end && start < s.end) return &s;
  }
  return nullptr;
}

const BurstStorm* FaultPlan::StormAt(Time start, Time end) const {
  for (const BurstStorm& s : storms) {
    if (s.start < end && start < s.end) return &s;
  }
  return nullptr;
}

// ReplayStream / ReplayBatch live in durability.cpp: the epoch-replay
// loop is the surface the checkpoint/journal engine hooks into (the
// plain and durable paths share ONE loop, so they cannot drift).

std::string ReplayResult::Table() const {
  std::string out =
      "epoch      [ms, ms)   admit reject leave resident   util"
      "   moved split unsplit  shed degr flt  sim-miss hard\n";
  char buf[200];
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const EpochStats& e = epochs[i];
    const std::string miss =
        e.validated ? std::to_string(e.sim_misses) : std::string("-");
    const std::string hard =
        e.validated ? std::to_string(e.hard_misses) : std::string("-");
    std::snprintf(buf, sizeof(buf),
                  "%5zu %7.0f %7.0f %7u %6u %5u %8zu %6.3f %7llu %5llu"
                  " %7llu %5zu %4zu %3s %9s %4s\n",
                  i, ToMillis(e.start), ToMillis(e.end), e.admits,
                  e.rejects, e.leaves, e.resident, e.utilization,
                  static_cast<unsigned long long>(e.churn.moved),
                  static_cast<unsigned long long>(e.churn.split),
                  static_cast<unsigned long long>(e.churn.unsplit),
                  e.shed_resident, e.degraded_resident,
                  e.fault_active ? "*" : "-", miss.c_str(), hard.c_str());
    out += buf;
  }
  return out;
}

obs::StatsSnapshot ReplayStatsSnapshot(const ReplayResult& r) {
  obs::StatsSnapshot s;
  auto& c = s.counters;
  c["admit.accepted"] = r.admits;
  c["admit.rejected"] = r.rejects;
  c["admit.leaves"] = r.leaves;
  c["admit.util_rejects"] = r.admission.util_rejects;
  c["admit.density_accepts"] = r.admission.density_accepts;
  c["admit.full_tests"] = r.admission.full_tests;
  c["memo.hits"] = r.admission.memo_hits;
  c["memo.misses"] = r.admission.memo_misses;
  c["memo.evicts"] = r.admission.memo_evicts;
  c["churn.moved"] = r.churn.moved;
  c["churn.split"] = r.churn.split;
  c["churn.unsplit"] = r.churn.unsplit;
  c["churn.repartitions"] = r.churn.repartitions;
  c["overload.degrades"] = r.overload.degrades;
  c["overload.degrade_restores"] = r.overload.degrade_restores;
  c["overload.sheds"] = r.overload.sheds;
  c["overload.shed_restores"] = r.overload.shed_restores;
  c["overload.retry_attempts"] = r.overload.retry_attempts;
  c["overload.hysteresis_blocks"] = r.overload.hysteresis_blocks;
  c["epochs.closed"] = r.epochs.size();
  s.gauges["overload.shed_outstanding"] =
      static_cast<double>(r.shed_outstanding);
  if (!r.epochs.empty()) {
    const EpochStats& last = r.epochs.back();
    s.gauges["resident.count"] = static_cast<double>(last.resident);
    s.gauges["resident.utilization"] = last.utilization;
    s.gauges["resident.degraded"] =
        static_cast<double>(last.degraded_resident);
  }
  c["recovery.attempted"] = r.recovery.attempted ? 1 : 0;
  c["recovery.recovered"] = r.recovery.recovered ? 1 : 0;
  c["recovery.journal_records"] = r.recovery.journal_records;
  c["recovery.journal_truncated_bytes"] = r.recovery.journal_truncated_bytes;
  c["recovery.checkpoints_skipped"] = r.recovery.checkpoints_skipped();
  c["recovery.resume_seq"] = r.recovery.resume_seq;
  return s;
}

}  // namespace sps::online
