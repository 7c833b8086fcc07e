#pragma once
// Overhead-aware schedulability analysis — the paper's methodological
// contribution (§4): "we integrate the obtained overhead into the
// state-of-the-art partitioned and semi-partitioned scheduling algorithms".
//
// Every scheduler action of the paper's implementation (Figure 1) is
// charged to the analysis as follows, with queue-operation costs taken at
// the actual per-core queue size N (the paper's delta/theta depend on N):
//
//   rls  (release() + ready-queue insert)
//        Charged once per arrival of EVERY entry on the core — a release
//        delays whatever is running regardless of relative priority.
//        -> RtaTask::release_cost, summed over all entries by the RTA.
//        For subtasks that ARRIVE BY MIGRATION the insert was already paid
//        by the source core (part of its cnt2); the destination still runs
//        its scheduler, so such entries carry the sch() cost instead.
//
//   sch  (scheduler invocation: ready-queue pop, preemption handling)
//        Charged to each job twice: once when it starts (release-path
//        sch(), including the possible re-insert of a preempted task) and
//        once when it finishes (finish-path sch()).
//
//   cnt1 (context-switch in: store + load contexts)
//        Charged once per job.
//
//   cnt2 (finish-path context switch; three paper cases)
//        kNormal:     cnt_swth() + LOCAL  sleep-queue insert
//        kBody*:      cnt_swth() + REMOTE ready-queue insert at the
//                     migration destination (destination queue size)
//        kTail:       cnt_swth() + REMOTE sleep-queue insert at the core
//                     hosting the first subtask
//
//   cache (CPMD)
//        A preemption makes the PREEMPTED task reload working set on
//        resume: charged per higher-priority arrival, i.e. added to every
//        interfering entry's inflated cost (standard conservative
//        accounting). Subtasks that arrive by migration additionally pay
//        the migration CPMD once themselves.
//
// With OverheadModel::Zero() all charges vanish and the analysis reduces
// to exact overhead-oblivious RTA — that is how the "theoretical" curves
// of the acceptance-ratio experiment are produced.
//
// Admission asks one question many times per core: does it stay
// schedulable with this candidate added? FpCoreProbe answers it with the
// core's residents inflated once (at N = residents + 1, the queue size
// with the candidate) and each resident's check settled, where it can
// be, by one demand evaluation at its budget (rta.hpp PassesCheck).

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/rta.hpp"
#include "overhead/model.hpp"
#include "rt/task.hpp"
#include "rt/time.hpp"

namespace sps::analysis {

/// How one entry on a core begins and ends its per-period execution there.
enum class EntryKind {
  kNormal,      ///< timer-released here, finishes here (not split)
  kBodyFirst,   ///< first subtask: timer-released here, migrates out
  kBodyMiddle,  ///< arrives by migration, migrates out again
  kTail,        ///< arrives by migration, finishes here
};

/// One task or subtask placed on the core under analysis.
struct CoreEntry {
  Time exec = 0;            ///< uninflated budget (subtask) or WCET (task)
  Time period = 0;
  Time deadline = 0;        ///< full task deadline (chain slack handled by caller)
  rt::Priority priority = 0;  ///< resolved per-core priority, unique
  Time jitter = 0;          ///< release jitter (subtask chains; else 0)
  EntryKind kind = EntryKind::kNormal;
  /// Queue size at the migration destination (kBody* only) — remote
  /// ready-add cost depends on it.
  std::size_t dest_queue_size = 4;
  /// Queue size at the first subtask's core (kTail only) — remote
  /// sleep-add cost depends on it.
  std::size_t first_core_queue_size = 4;
  bool check = true;
  rt::TaskId id = 0;
};

/// The charges of the accounting above that depend only on the core's
/// own queue size N: computed once per core and shared by its entries,
/// so only the remote finish terms are per entry.
struct LocalCharges {
  LocalCharges(const overhead::OverheadModel& m, std::size_t n_local);

  /// Every job: start and finish sch(), switch-in, and the preempted
  /// victim's local CPMD, extra sch() and switch-in.
  Time per_job = 0;
  Time finish_normal = 0;     ///< cnt2 of a kNormal entry
  Time migration_cpmd = 0;    ///< cold-cache resume of a migrated-in subtask
  Time timer_release = 0;     ///< rls of a timer-released entry
  Time migration_release = 0; ///< sch() run by a migration arrival
};

/// Inflated cost of one entry on a core with local charges `lc`.
Time ChargedExec(Time exec, EntryKind kind, std::size_t dest_queue_size,
                 std::size_t first_core_queue_size, const LocalCharges& lc,
                 const overhead::OverheadModel& model);

/// Release-path cost of one arrival of an entry of `kind`.
Time ReleaseCharge(EntryKind kind, const LocalCharges& lc);

/// Inflate a core's entries per the accounting above. `n_local` is the
/// core's own queue-size parameter N (defaults to the number of entries).
std::vector<RtaTask> InflateCore(std::span<const CoreEntry> entries,
                                 const overhead::OverheadModel& model,
                                 std::size_t n_local = 0);

/// The fixed-priority admission probe of one core: its residents, as
/// they stand, inflated once with the charges of N = residents + 1
/// entries, plus one slot that each probe refills with its candidate.
/// Admits and Response give AnalyzeCore(InflateCore(residents + cand))'s
/// verdict and stop at the first miss, checking the candidate first; a
/// resident's check runs through PassesCheck, which settles it with one
/// demand evaluation where it can. The residents' responses are never
/// kept. A probe is
/// rebuilt whenever its core's residents change; `model` must outlive it.
class FpCoreProbe {
 public:
  FpCoreProbe(std::span<const CoreEntry> residents,
              const overhead::OverheadModel& model);

  /// Would the core stay schedulable with `cand` added?
  [[nodiscard]] bool Admits(const CoreEntry& cand);

  /// The candidate's exact response time (AnalyzeCore's
  /// response.back()) if the core stays schedulable with it, else
  /// kTimeNever. SPA's split chain needs the value.
  [[nodiscard]] Time Response(const CoreEntry& cand);

 private:
  bool ResidentsPass() const;

  const overhead::OverheadModel* model_;
  LocalCharges charges_;
  std::vector<RtaTask> core_;  ///< the residents, then the candidate slot
};

/// Inflated cost of one entry (exposed for the Figure-1 bench and tests);
/// computes the core's local charges for this one entry.
Time InflatedExec(const CoreEntry& e, const overhead::OverheadModel& model,
                  std::size_t n_local);

}  // namespace sps::analysis
