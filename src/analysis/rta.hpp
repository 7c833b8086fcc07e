#pragma once
// Exact response-time analysis (RTA) for preemptive fixed-priority
// scheduling on one core (Joseph & Pandya / Audsley et al.), extended with
// the two features the semi-partitioned setting needs:
//
//   * release jitter — subtasks of a split task are released when the
//     previous subtask exhausts its budget on another core, which wanders
//     within a bounded window; jitter J models that (interference term
//     ceil((R + J_j)/T_j), deadline condition R + J_i <= D_i);
//
//   * per-task release overhead — in the paper's scheduler EVERY job
//     release on a core (even of a lower-priority task) executes
//     release() + a ready-queue insert on that core, delaying whatever
//     runs. RtaTask::release_cost is charged once per arrival of every
//     task on the core, regardless of priority, mirroring how release
//     interrupts behave (Figure 1's "rls" segment).

#include <cstddef>
#include <span>
#include <vector>

#include "rt/task.hpp"
#include "rt/time.hpp"

namespace sps::analysis {

struct RtaTask {
  Time wcet = 0;      ///< possibly overhead-inflated C'
  Time period = 0;
  Time deadline = 0;  ///< relative, measured from nominal release
  Time jitter = 0;    ///< release jitter J
  rt::Priority priority = 0;  ///< lower value = higher priority
  Time release_cost = 0;  ///< charged per arrival to every analysis below
  /// Interference-only entries (e.g. a subtask budget that merely steals
  /// time on this core) contribute interference but are not themselves
  /// checked against a deadline here.
  bool check = true;
  rt::TaskId id = 0;
};

struct RtaResult {
  bool schedulable = false;
  /// Worst-case response times (from actual release), one per input task;
  /// kTimeNever where the fixpoint exceeded the deadline and was abandoned.
  std::vector<Time> response;
  /// Index of the first task that failed, or SIZE_MAX if none.
  std::size_t first_failure = SIZE_MAX;
};

/// The RTA demand f(x) of tasks[index] in a window of length x: its own
/// cost and release cost, plus each other task's arrivals within x (its
/// jitter included) times its release cost, and times its WCET too if it
/// has higher priority. f is monotone in x, and ResponseTime returns its
/// least fixed point.
Time RtaDemand(std::span<const RtaTask> tasks, std::size_t index, Time x);

/// Worst-case response time of tasks[index] among all tasks on the core.
/// Returns kTimeNever if the fixpoint exceeds `limit` (divergence guard;
/// pass the deadline budget: D_i - J_i).
/// Precondition: single-job analysis is only exact while a job finishes
/// before its successor arrives (D <= T); use ResponseTimeArbitrary for
/// arbitrary deadlines.
Time ResponseTime(std::span<const RtaTask> tasks, std::size_t index,
                  Time limit);

/// Worst-case response time for ARBITRARY deadlines (D may exceed T):
/// Lehoczky's busy-window analysis. Examines every job instance inside
/// the level-i busy window; successive jobs of the same task can overlap
/// in backlog, which the single-job fixpoint misses. Falls back to the
/// same result as ResponseTime when the busy window contains one job.
/// Returns kTimeNever if the busy window (or any instance's response)
/// exceeds `limit` — pass a generous cap, e.g. 64 * period.
/// The paper's reference [1] (Andersson/Bletsas/Baruah 2008) is exactly
/// semi-partitioning for this task class, so the analysis layer supports
/// it even though the PPES evaluation sticks to implicit deadlines.
Time ResponseTimeArbitrary(std::span<const RtaTask> tasks,
                           std::size_t index, Time limit);

/// Full-core analysis: every task with check=true must satisfy
/// R_i + J_i <= D_i.
RtaResult AnalyzeCore(std::span<const RtaTask> tasks);

/// AnalyzeCore's check of tasks[i] alone: its response time if it meets
/// R_i + J_i <= D_i, else kTimeNever; 0 for a check=false entry.
Time CheckedResponse(std::span<const RtaTask> tasks, std::size_t i);

/// CheckedResponse(tasks, i) != kTimeNever, settled by one demand
/// evaluation where it can be: for D <= T, f(B) <= B at the budget
/// B = D_i - J_i means the least fixed point is <= B (iterating the
/// monotone f from below never passes a point where f(x) <= x), so the
/// check passes. Otherwise it runs CheckedResponse.
bool PassesCheck(std::span<const RtaTask> tasks, std::size_t i);

}  // namespace sps::analysis
