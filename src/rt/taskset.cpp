#include "rt/taskset.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_set>

#include "rt/task.hpp"

namespace sps::rt {

std::string ToString(const Task& t) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "tau%u(C=%.3fms, T=%.3fms, U=%.3f)",
                t.id, ToMillis(t.wcet), ToMillis(t.period), t.utilization());
  return buf;
}

double TaskSet::total_utilization() const {
  double u = 0.0;
  for (const Task& t : tasks_) u += t.utilization();
  return u;
}

double TaskSet::max_utilization() const {
  double u = 0.0;
  for (const Task& t : tasks_) u = std::max(u, t.utilization());
  return u;
}

std::optional<Time> TaskSet::hyperperiod() const {
  Time lcm = 1;
  for (const Task& t : tasks_) {
    const Time g = std::gcd(lcm, t.period);
    const Time quotient = t.period / g;
    if (lcm > kTimeNever / quotient) return std::nullopt;  // would overflow
    lcm *= quotient;
  }
  return lcm;
}

const Task* TaskSet::find(TaskId id) const {
  for (const Task& t : tasks_) {
    if (t.id == id) return &t;
  }
  return nullptr;
}

bool TaskSet::valid() const {
  std::unordered_set<TaskId> seen;
  for (const Task& t : tasks_) {
    if (!t.valid()) return false;
    if (!seen.insert(t.id).second) return false;
  }
  return true;
}

bool TaskSet::priorities_assigned() const {
  std::unordered_set<Priority> seen;
  for (const Task& t : tasks_) {
    if (t.priority == kPriorityUnassigned) return false;
    if (!seen.insert(t.priority).second) return false;
  }
  return true;
}

namespace {

/// Assign priorities 0..n-1 following the given strict-weak order.
template <typename Less>
void AssignByOrder(TaskSet& ts, Less less) {
  std::vector<std::size_t> idx(ts.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return less(ts[a], ts[b]); });
  for (std::size_t rank = 0; rank < idx.size(); ++rank) {
    ts[idx[rank]].priority = static_cast<Priority>(rank);
  }
}

}  // namespace

void AssignRateMonotonic(TaskSet& ts) {
  AssignByOrder(ts, [](const Task& a, const Task& b) {
    if (a.period != b.period) return a.period < b.period;
    return a.id < b.id;
  });
}

std::vector<std::size_t> OrderByDecreasingUtilization(const TaskSet& ts) {
  std::vector<std::size_t> idx(ts.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    const double ua = ts[a].utilization();
    const double ub = ts[b].utilization();
    if (ua != ub) return ua > ub;
    return ts[a].id < ts[b].id;
  });
  return idx;
}

std::vector<std::size_t> OrderByPriority(const TaskSet& ts) {
  std::vector<std::size_t> idx(ts.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ts[a].priority < ts[b].priority;
  });
  return idx;
}

}  // namespace sps::rt
