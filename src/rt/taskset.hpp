#pragma once
// Task set: an ordered collection of tasks plus the whole-set queries the
// partitioning and analysis layers need (total utilization, hyperperiod,
// priority assignment, orderings).

#include <cstdint>
#include <optional>
#include <vector>

#include "rt/task.hpp"
#include "rt/time.hpp"

namespace sps::rt {

class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {}

  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] const Task& operator[](std::size_t i) const {
    return tasks_[i];
  }
  [[nodiscard]] Task& operator[](std::size_t i) { return tasks_[i]; }

  [[nodiscard]] auto begin() const { return tasks_.begin(); }
  [[nodiscard]] auto end() const { return tasks_.end(); }
  [[nodiscard]] auto begin() { return tasks_.begin(); }
  [[nodiscard]] auto end() { return tasks_.end(); }

  void add(Task t) { tasks_.push_back(t); }

  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// Sum of C_i / T_i.
  [[nodiscard]] double total_utilization() const;

  /// Largest single-task utilization (0 for an empty set).
  [[nodiscard]] double max_utilization() const;

  /// Least common multiple of all periods. Returns nullopt on overflow —
  /// callers (the simulator) then fall back to a fixed horizon.
  [[nodiscard]] std::optional<Time> hyperperiod() const;

  /// Find a task by id; nullptr if absent.
  [[nodiscard]] const Task* find(TaskId id) const;

  /// All tasks well-formed and ids unique?
  [[nodiscard]] bool valid() const;

  /// True if every task has a priority and no two tasks share one.
  [[nodiscard]] bool priorities_assigned() const;

 private:
  std::vector<Task> tasks_;
};

/// Assign unique Rate-Monotonic priorities: shorter period = higher
/// priority (lower number), ties broken by task id for determinism.
void AssignRateMonotonic(TaskSet& ts);

/// Indices of tasks sorted by decreasing utilization (the "decreasing
/// size" order of FFD/WFD in the paper), ties by id.
std::vector<std::size_t> OrderByDecreasingUtilization(const TaskSet& ts);

/// Indices sorted by increasing priority value (highest priority first).
/// Requires priorities_assigned().
std::vector<std::size_t> OrderByPriority(const TaskSet& ts);

}  // namespace sps::rt
