#include "analysis/overhead_aware.hpp"

namespace sps::analysis {

namespace {

bool ArrivesByMigration(EntryKind k) {
  return k == EntryKind::kBodyMiddle || k == EntryKind::kTail;
}

}  // namespace

LocalCharges::LocalCharges(const overhead::OverheadModel& m,
                           std::size_t n_local)
    // Start-path scheduling (with possible preemption handling) + switch
    // in, and finish-path scheduling. This entry's arrival can preempt a
    // lower-priority task, which then pays a local CPMD on resume and is
    // re-dispatched later (one extra scheduler pass + switch-in); charge
    // both to the preemptor (conservative, charged per arrival via the
    // RTA interference sum).
    : per_job(m.sched_overhead(n_local, /*preemption=*/true) +
              m.ctxsw_in_overhead() +
              m.sched_overhead(n_local, /*preemption=*/false) +
              m.cpmd(/*migration=*/false) +
              m.sched_overhead(n_local, /*preemption=*/false) +
              m.ctxsw_in_overhead()),
      finish_normal(m.finish_overhead_normal(n_local)),
      migration_cpmd(m.cpmd(/*migration=*/true)),
      timer_release(m.release_overhead(n_local)),
      migration_release(m.sched_overhead(n_local, /*preemption=*/true)) {}

Time ChargedExec(Time exec, EntryKind kind, std::size_t dest_queue_size,
                 std::size_t first_core_queue_size, const LocalCharges& lc,
                 const overhead::OverheadModel& m) {
  Time c = exec + lc.per_job;
  // The finish path's cnt2 case.
  switch (kind) {
    case EntryKind::kNormal:
      c += lc.finish_normal;
      break;
    case EntryKind::kBodyFirst:
    case EntryKind::kBodyMiddle:
      c += m.migrate_overhead(dest_queue_size);
      break;
    case EntryKind::kTail:
      c += m.finish_overhead_tail(first_core_queue_size);
      break;
  }
  // A migrated-in subtask resumes with a cold private cache.
  if (ArrivesByMigration(kind)) c += lc.migration_cpmd;
  return c;
}

Time ReleaseCharge(EntryKind kind, const LocalCharges& lc) {
  // Timer releases run release() + a local ready-queue insert here;
  // migration arrivals were inserted by the source core but still
  // trigger this core's scheduler.
  return ArrivesByMigration(kind) ? lc.migration_release : lc.timer_release;
}

Time InflatedExec(const CoreEntry& e, const overhead::OverheadModel& m,
                  std::size_t n_local) {
  return ChargedExec(e.exec, e.kind, e.dest_queue_size,
                     e.first_core_queue_size, LocalCharges(m, n_local), m);
}

namespace {

RtaTask Inflate(const CoreEntry& e, const LocalCharges& lc,
                const overhead::OverheadModel& model) {
  RtaTask t;
  t.wcet = ChargedExec(e.exec, e.kind, e.dest_queue_size,
                       e.first_core_queue_size, lc, model);
  t.period = e.period;
  t.deadline = e.deadline;
  t.jitter = e.jitter;
  t.priority = e.priority;
  t.release_cost = ReleaseCharge(e.kind, lc);
  t.check = e.check;
  t.id = e.id;
  return t;
}

}  // namespace

std::vector<RtaTask> InflateCore(std::span<const CoreEntry> entries,
                                 const overhead::OverheadModel& model,
                                 std::size_t n_local) {
  if (n_local == 0) n_local = entries.size();
  const LocalCharges lc(model, n_local);
  std::vector<RtaTask> out;
  out.reserve(entries.size());
  for (const CoreEntry& e : entries) out.push_back(Inflate(e, lc, model));
  return out;
}

FpCoreProbe::FpCoreProbe(std::span<const CoreEntry> residents,
                         const overhead::OverheadModel& model)
    : model_(&model), charges_(model, residents.size() + 1) {
  core_.reserve(residents.size() + 1);
  for (const CoreEntry& e : residents) {
    core_.push_back(Inflate(e, charges_, model));
  }
  core_.emplace_back();
}

// The verdict is the AND of independent per-task checks, so the order
// cannot change it: the candidate goes first, as it is the likeliest to
// miss, and the first miss ends the probe.
bool FpCoreProbe::Admits(const CoreEntry& cand) {
  core_.back() = Inflate(cand, charges_, *model_);
  return PassesCheck(core_, core_.size() - 1) && ResidentsPass();
}

Time FpCoreProbe::Response(const CoreEntry& cand) {
  core_.back() = Inflate(cand, charges_, *model_);
  const Time r = CheckedResponse(core_, core_.size() - 1);
  if (r == kTimeNever || !ResidentsPass()) return kTimeNever;
  return r;
}

bool FpCoreProbe::ResidentsPass() const {
  for (std::size_t i = 0; i + 1 < core_.size(); ++i) {
    if (!PassesCheck(core_, i)) return false;
  }
  return true;
}

}  // namespace sps::analysis
