#pragma once
// Placement model: the output of every partitioning algorithm and the
// input of both the verifier (verify.hpp) and the scheduler simulator
// (sim/). Captures exactly what the paper's runtime needs per task: which
// core(s) it lives on, the per-core time budget of each subtask (stored in
// task_struct in the paper's kernel patch), and the subtask's priority on
// its core.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rt/task.hpp"
#include "rt/taskset.hpp"
#include "rt/time.hpp"

namespace sps::partition {

using CoreId = std::uint32_t;

/// Per-core scheduling policy of a partition. The paper's scheduler is
/// fixed-priority (RM); §2 notes the design extends to EDF — the EDF
/// variants live in edf_wm.hpp and the simulator honours the policy.
enum class SchedPolicy {
  kFixedPriority,  ///< jobs ordered by SubtaskPlacement::local_priority
  kEdf,            ///< jobs ordered by absolute (window) deadline
};

/// Priority offset separating "elevated" split subtasks (which must beat
/// every normal task on their core) from normal tasks. Normal tasks use
/// task.priority + kNormalPriorityBase; elevated subtasks use the raw task
/// priority, which is always below this base.
inline constexpr rt::Priority kNormalPriorityBase = 1u << 20;

/// Split-budget search of SPA and EDF-WM: budgets are binary-searched at
/// this resolution, and no subtask gets less than kMinBudget (a smaller
/// sliver costs more overhead than the work it carries).
inline constexpr Time kBudgetGranularity = Micros(10);
inline constexpr Time kMinBudget = Micros(100);

/// Queue-size assumption for remote costs while the final layout is still
/// unknown; the paper's own N=64 anchor. Conservative: the verifier later
/// uses the (smaller or equal) actual sizes.
inline constexpr std::size_t kConservativeQueueSize = 64;

/// One subtask of a (possibly split) task.
struct SubtaskPlacement {
  CoreId core = 0;
  Time budget = 0;  ///< execution budget on this core; paper: "recording
                    ///< the time budget in the split task's task_struct"
  rt::Priority local_priority = 0;  ///< resolved priority on `core` (FP)
  /// EDF split tasks: this part's window deadline, relative to the TASK's
  /// release (cumulative; the last part's value equals the task deadline).
  /// 0 means "the task's own deadline" (normal tasks, FP partitions).
  Time rel_deadline = 0;

  friend bool operator==(const SubtaskPlacement&,
                         const SubtaskPlacement&) = default;
};

/// A task together with its placement. parts.size() == 1 for normal
/// tasks; split tasks execute parts in order, migrating between them.
struct PlacedTask {
  rt::Task task;
  std::vector<SubtaskPlacement> parts;

  [[nodiscard]] bool split() const { return parts.size() > 1; }

  /// Sum of part budgets; valid placements have this equal to task.wcet.
  [[nodiscard]] Time total_budget() const;

  /// Index of the part placed on `core`, or SIZE_MAX.
  [[nodiscard]] std::size_t part_on(CoreId core) const;

  friend bool operator==(const PlacedTask&, const PlacedTask&) = default;
};

/// A complete mapping of a task set onto `num_cores` cores.
struct Partition {
  unsigned num_cores = 0;
  SchedPolicy policy = SchedPolicy::kFixedPriority;
  std::vector<PlacedTask> tasks;

  /// Number of entries (normal tasks + subtasks) on each core — the
  /// queue size parameter N of the overhead model — in one pass.
  [[nodiscard]] std::vector<std::size_t> entries_per_core() const;

  /// Utilization assigned to a core (subtasks contribute budget/period).
  [[nodiscard]] double core_utilization(CoreId core) const;

  [[nodiscard]] unsigned num_split_tasks() const;

  /// Total number of migrations per hyperperiod-normalized job: subtask
  /// transitions per period summed over split tasks.
  [[nodiscard]] unsigned migrations_per_period() const;

  /// Structural sanity: budgets sum to WCETs, cores in range, split parts
  /// on pairwise distinct cores, per-core priorities unique.
  [[nodiscard]] bool valid() const;

  /// For display: lossy (budgets rounded, priorities and deadlines
  /// dropped), so exact equality is operator==.
  [[nodiscard]] std::string summary() const;

  friend bool operator==(const Partition&, const Partition&) = default;
};

/// Outcome of a partitioning attempt.
struct PartitionResult {
  bool success = false;
  Partition partition;     ///< meaningful only when success
  std::string algorithm;   ///< e.g. "FFD", "WFD", "FP-TS(SPA2)"
  std::string failure_reason;  ///< empty on success
};

}  // namespace sps::partition
