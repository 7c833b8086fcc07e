#pragma once
// EDF schedulability analysis — the dynamic-priority counterpart of
// rta.hpp. The paper (§2) notes its scheduler "can be easily extended to
// support a wide range of semi-partitioned algorithms based on both
// fixed-priority and EDF scheduling"; this module provides the analysis
// side of that extension (the runtime side is sim/'s EDF policy, the
// partitioning side is partition/edf_wm.hpp).
//
// Tooling:
//   * demand bound function dbf(tau, t) — the standard sporadic-task
//     demand of jobs released AND due within an interval of length t
//     (Baruah/Mok/Rosier);
//   * the processor-demand criterion: a constrained-deadline task set is
//     EDF-schedulable on one core iff sum dbf_i(t) <= t for all t up to a
//     bounded horizon (the utilization-slack bound, or the hyperperiod
//     at U == 1), walked over deadline points by QPA;
//   * split-task windows are modeled per EDF-WM's ORIGINAL per-window
//     analysis: window j is a plain sporadic (B_j, T, window length) task
//     with no release jitter (partition/edf_wm.hpp documents the
//     assume-guarantee induction that makes this sound). Nothing on an
//     EDF core is jittered, so the tasks and entries carry no jitter;
//   * overhead-aware inflation mirroring overhead_aware.hpp: per-job
//     release, scheduling, context-switch, finish and CPMD charges are
//     folded into the demand.

#include <cstddef>
#include <span>
#include <vector>

#include "overhead/model.hpp"
#include "rt/task.hpp"
#include "rt/time.hpp"

namespace sps::analysis {

/// One task (or split-task window) on an EDF core.
struct EdfTask {
  Time wcet = 0;      ///< possibly inflated C'
  Time period = 0;    ///< minimum inter-arrival
  Time deadline = 0;  ///< relative deadline (constrained: D <= T)
  rt::TaskId id = 0;
};

/// Demand of one task in any interval of length t: jobs that are both
/// released and due inside the interval, worst case over alignments:
/// floor((t - D)/T) + 1 jobs (clamped at 0).
Time Dbf(const EdfTask& task, Time t);

struct EdfResult {
  bool schedulable = false;
  /// First interval length where demand exceeded supply (diagnostics);
  /// 0 when schedulable.
  Time violation_at = 0;
  /// The horizon up to which demand was checked.
  Time horizon = 0;
};

/// Processor-demand test for constrained-deadline sporadic tasks on one
/// EDF core. Returns unschedulable immediately if utilization > 1.
/// Demand is checked at the deadline points up to the horizon
/// min(L, max_horizon), where L is the utilization-slack bound L_a (or,
/// at U == 1, the hyperperiod bound when it fits) and at least the
/// largest D. QPA (Zhang & Burns, IEEE TC 2009) visits few of
/// those points; `violation_at` is still the FIRST violating one.
/// When L exceeds `max_horizon` (default 1s) the test rejects
/// conservatively only at U >= 1 - 1e-9; below that it checks [0,
/// max_horizon] and accepts if demand fits there, which is unsound for
/// sets whose first violation lies past the cap (ROADMAP direction 2).
EdfResult EdfDemandTest(std::span<const EdfTask> tasks,
                        Time max_horizon = kSecond);

/// EdfDemandTest's verdict alone: a reject skips the forward walk to the
/// first violating point. The admission path's test.
bool EdfSchedulable(std::span<const EdfTask> tasks,
                    Time max_horizon = kSecond);

/// Overhead-aware inflation for an EDF core. Every job is charged its
/// release path (timer variant: sleep-del + release() + ready-add, or the
/// scheduler trigger for migrated-in subtasks), two scheduler passes, a
/// context-switch in, the matching finish path (normal sleep / remote
/// ready insert / remote sleep insert), and CPMD exactly as in the
/// fixed-priority inflation (overhead_aware.hpp); under EDF a job arrival
/// preempts at most one running job, so the same per-arrival victim
/// charges are sound.
struct EdfCoreEntry {
  Time exec = 0;
  Time period = 0;
  Time deadline = 0;  ///< window deadline for split parts, else task D
  /// Reuses the fixed-priority entry kinds (normal/body/tail semantics
  /// are policy-independent).
  int kind = 0;  ///< static_cast<int>(EntryKind)
  std::size_t dest_queue_size = 4;
  std::size_t first_core_queue_size = 4;
  rt::TaskId id = 0;

  friend bool operator==(const EdfCoreEntry&, const EdfCoreEntry&) = default;
};

std::vector<EdfTask> InflateEdfCore(std::span<const EdfCoreEntry> entries,
                                    const overhead::OverheadModel& model,
                                    std::size_t n_local = 0);

}  // namespace sps::analysis
