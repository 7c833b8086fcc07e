#include "partition/placement.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace sps::partition {

Time PlacedTask::total_budget() const {
  Time sum = 0;
  for (const SubtaskPlacement& p : parts) sum += p.budget;
  return sum;
}

std::size_t PlacedTask::part_on(CoreId core) const {
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i].core == core) return i;
  }
  return SIZE_MAX;
}

std::vector<std::size_t> Partition::entries_per_core() const {
  std::vector<std::size_t> n(num_cores, 0);
  for (const PlacedTask& pt : tasks) {
    for (std::size_t k = 0; k < pt.parts.size(); ++k) {
      // Only an invalid partition has two parts of a task on one core
      // (counted once) or a part on an out-of-range core (not counted).
      const CoreId c = pt.parts[k].core;
      if (c < num_cores && pt.part_on(c) == k) ++n[c];
    }
  }
  return n;
}

double Partition::core_utilization(CoreId core) const {
  double u = 0.0;
  for (const PlacedTask& pt : tasks) {
    const std::size_t k = pt.part_on(core);
    if (k == SIZE_MAX) continue;
    u += static_cast<double>(pt.parts[k].budget) /
         static_cast<double>(pt.task.period);
  }
  return u;
}

unsigned Partition::num_split_tasks() const {
  unsigned n = 0;
  for (const PlacedTask& pt : tasks) {
    if (pt.split()) ++n;
  }
  return n;
}

unsigned Partition::migrations_per_period() const {
  unsigned n = 0;
  for (const PlacedTask& pt : tasks) {
    if (pt.split()) n += static_cast<unsigned>(pt.parts.size() - 1);
  }
  return n;
}

bool Partition::valid() const {
  // (core, priority) of every FP part; sorted below, a repeat is two
  // parts sharing a priority on one core.
  std::vector<std::pair<CoreId, rt::Priority>> fp_slots;
  if (policy == SchedPolicy::kFixedPriority) fp_slots.reserve(tasks.size());
  for (const PlacedTask& pt : tasks) {
    if (pt.parts.empty()) return false;
    if (pt.total_budget() != pt.task.wcet) return false;
    Time last_window = 0;
    for (std::size_t k = 0; k < pt.parts.size(); ++k) {
      const SubtaskPlacement& p = pt.parts[k];
      if (p.core >= num_cores) return false;
      if (p.budget <= 0) return false;
      if (pt.part_on(p.core) != k) return false;  // dup core
      if (policy == SchedPolicy::kFixedPriority) {
        fp_slots.emplace_back(p.core, p.local_priority);
      } else if (pt.split()) {
        // EDF split parts need strictly increasing window deadlines that
        // end exactly at the task deadline.
        if (p.rel_deadline <= last_window) return false;
        last_window = p.rel_deadline;
      }
    }
    if (policy == SchedPolicy::kEdf && pt.split() &&
        pt.parts.back().rel_deadline != pt.task.deadline) {
      return false;
    }
  }
  // FP needs unique per-core priorities.
  std::sort(fp_slots.begin(), fp_slots.end());
  return std::adjacent_find(fp_slots.begin(), fp_slots.end()) ==
         fp_slots.end();
}

std::string Partition::summary() const {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%u cores, %zu tasks (%u split, %u migrations/period)\n",
                num_cores, tasks.size(), num_split_tasks(),
                migrations_per_period());
  out += buf;
  const std::vector<std::size_t> entries = entries_per_core();
  for (CoreId c = 0; c < num_cores; ++c) {
    std::snprintf(buf, sizeof(buf), "  core %u: U=%.3f, %zu entries:", c,
                  core_utilization(c), entries[c]);
    out += buf;
    for (const PlacedTask& pt : tasks) {
      const std::size_t k = pt.part_on(c);
      if (k == SIZE_MAX) continue;
      if (pt.split()) {
        std::snprintf(buf, sizeof(buf), " tau%u[%zu/%zu,B=%.1fus]",
                      pt.task.id, k + 1, pt.parts.size(),
                      ToMicros(pt.parts[k].budget));
      } else {
        std::snprintf(buf, sizeof(buf), " tau%u", pt.task.id);
      }
      out += buf;
    }
    out += '\n';
  }
  return out;
}

}  // namespace sps::partition
