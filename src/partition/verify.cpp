#include "partition/verify.hpp"

#include <algorithm>
#include <cstdio>
#include <span>

#include "analysis/edf.hpp"
#include "analysis/overhead_aware.hpp"
#include "analysis/rta.hpp"

namespace sps::partition {

PartWindow WindowOfPart(const PlacedTask& pt, std::size_t k) {
  const auto window_end = [&pt](std::size_t part) {
    const Time d = pt.parts[part].rel_deadline;
    return d > 0 ? d : pt.task.deadline;
  };
  PartWindow w;
  w.length = window_end(k) - (k == 0 ? 0 : window_end(k - 1));
  if (pt.split()) {
    const bool last = k + 1 == pt.parts.size();
    w.kind = k == 0 ? analysis::EntryKind::kBodyFirst
             : last ? analysis::EntryKind::kTail
                    : analysis::EntryKind::kBodyMiddle;
  }
  return w;
}

namespace {

/// EDF partitions: per-core processor-demand test over window subtasks,
/// per EDF-WM's original per-window analysis. Split part k is a plain
/// sporadic (B_k, T, window length) task — NO jitter widening: the window
/// reservation bounds the release wandering, and the assume-guarantee
/// induction (edf_wm.hpp header) makes the jitter-free model sound. A
/// release triggered by early budget exhaustion only ever lands AT or
/// BEFORE the window start with the deadline fixed at the window end, and
/// earlier releases strictly shrink the set of (release, deadline) pairs
/// any demand interval can trap. Window satisfaction implies the chain
/// meets the task deadline, so no fixpoint is needed.
PartitionAnalysis AnalyzeEdf(const Partition& p,
                             const overhead::OverheadModel& model) {
  PartitionAnalysis out;
  const std::vector<std::size_t> core_n = p.entries_per_core();

  std::vector<std::vector<analysis::EdfCoreEntry>> cores(p.num_cores);
  for (const PlacedTask& pt : p.tasks) {
    for (std::size_t k = 0; k < pt.parts.size(); ++k) {
      const SubtaskPlacement& sp = pt.parts[k];
      const PartWindow w = WindowOfPart(pt, k);
      analysis::EdfCoreEntry e;
      e.exec = sp.budget;
      e.period = pt.task.period;
      e.deadline = w.length;
      e.kind = static_cast<int>(w.kind);
      if (k + 1 < pt.parts.size()) {
        e.dest_queue_size =
            std::max<std::size_t>(core_n[pt.parts[k + 1].core], 1);
      }
      e.first_core_queue_size =
          std::max<std::size_t>(core_n[pt.parts[0].core], 1);
      e.id = pt.task.id;
      cores[sp.core].push_back(e);
    }
  }

  out.schedulable = true;
  std::vector<bool> task_ok(p.tasks.size(), true);
  for (CoreId c = 0; c < p.num_cores; ++c) {
    const auto inflated = analysis::InflateEdfCore(cores[c], model);
    const analysis::EdfResult res = analysis::EdfDemandTest(inflated);
    if (!res.schedulable) {
      out.schedulable = false;
      if (out.failure_reason.empty()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "core %u: EDF demand exceeds supply at %.1fus", c,
                      res.violation_at == 0 ? -1.0
                                            : ToMicros(res.violation_at));
        out.failure_reason = buf;
      }
      // Demand violation implicates every task on the core.
      for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
        if (p.tasks[ti].part_on(c) != SIZE_MAX) task_ok[ti] = false;
      }
    }
  }
  for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
    const PlacedTask& pt = p.tasks[ti];
    out.verdicts.push_back(TaskVerdict{
        pt.task.id, task_ok[ti],
        task_ok[ti] ? pt.task.deadline : kTimeNever, pt.task.deadline});
  }
  return out;
}

/// The per-core analysis entries of a fixed-priority partition, with the
/// given per-(task, part) jitters (outer index = task position in
/// p.tasks) and `core_n` = p.entries_per_core().
std::vector<std::vector<analysis::CoreEntry>> BuildCoreEntries(
    const Partition& p, const std::vector<std::vector<Time>>& jitters,
    std::span<const std::size_t> core_n) {
  std::vector<std::vector<analysis::CoreEntry>> cores(p.num_cores);
  for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
    const PlacedTask& pt = p.tasks[ti];
    for (std::size_t k = 0; k < pt.parts.size(); ++k) {
      const SubtaskPlacement& sp = pt.parts[k];
      analysis::CoreEntry e;
      e.exec = sp.budget;
      e.period = pt.task.period;
      e.deadline = pt.task.deadline;
      e.priority = sp.local_priority;
      e.jitter = jitters[ti][k];
      e.kind = WindowOfPart(pt, k).kind;
      if (k + 1 < pt.parts.size()) {
        e.dest_queue_size = std::max<std::size_t>(
            core_n[pt.parts[k + 1].core], 1);
      }
      if (e.kind == analysis::EntryKind::kTail) {
        e.first_core_queue_size =
            std::max<std::size_t>(core_n[pt.parts[0].core], 1);
      }
      e.check = true;
      e.id = pt.task.id;
      cores[sp.core].push_back(e);
    }
  }
  return cores;
}

}  // namespace

PartitionAnalysis AnalyzePartition(const Partition& p,
                                   const overhead::OverheadModel& model) {
  PartitionAnalysis out;
  if (!p.valid()) {
    out.failure_reason = "structurally invalid partition";
    return out;
  }
  if (p.policy == SchedPolicy::kEdf) return AnalyzeEdf(p, model);

  // Per-(task, part) jitters, refined by fixpoint iteration.
  std::vector<std::vector<Time>> jitters(p.tasks.size());
  for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
    jitters[ti].assign(p.tasks[ti].parts.size(), 0);
  }

  const std::vector<std::size_t> core_n = p.entries_per_core();
  constexpr int kMaxIterations = 32;
  std::vector<std::vector<Time>> responses(p.tasks.size());
  bool converged = false;
  bool diverged = false;

  for (int iter = 0; iter < kMaxIterations && !converged; ++iter) {
    const auto cores = BuildCoreEntries(p, jitters, core_n);

    // Inflate each core once, then pull per-entry responses out.
    std::vector<std::vector<analysis::RtaTask>> inflated(p.num_cores);
    for (CoreId c = 0; c < p.num_cores; ++c) {
      inflated[c] = analysis::InflateCore(cores[c], model);
    }
    // Map (task, part) -> (core, index) by re-walking in the same order
    // BuildCoreEntries used.
    std::vector<std::size_t> cursor(p.num_cores, 0);
    for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
      responses[ti].assign(p.tasks[ti].parts.size(), 0);
    }
    for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
      const PlacedTask& pt = p.tasks[ti];
      for (std::size_t k = 0; k < pt.parts.size(); ++k) {
        const CoreId c = pt.parts[k].core;
        const std::size_t idx = cursor[c]++;
        const Time limit = pt.task.deadline;  // divergence guard
        responses[ti][k] =
            analysis::ResponseTime(inflated[c], idx, limit);
      }
    }

    // Jitter update: J_k = sum of predecessors' responses.
    converged = true;
    for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
      const PlacedTask& pt = p.tasks[ti];
      Time acc = 0;
      for (std::size_t k = 0; k < pt.parts.size(); ++k) {
        if (jitters[ti][k] != acc) {
          jitters[ti][k] = acc;
          converged = false;
        }
        if (responses[ti][k] == kTimeNever) {
          acc = kTimeNever;
          break;
        }
        acc = std::min<Time>(kTimeNever, acc + responses[ti][k]);
      }
    }
    // A diverged response never recovers (jitter only grows): bail early.
    bool any_diverged = false;
    for (std::size_t ti = 0; ti < p.tasks.size() && !any_diverged; ++ti) {
      for (Time r : responses[ti]) {
        if (r == kTimeNever) {
          any_diverged = true;
          break;
        }
      }
    }
    if (any_diverged) {
      diverged = true;
      converged = true;  // verdicts below will report the failure
    }
  }

  if (!converged && !diverged) {
    // Jitter fixpoint did not stabilize: reject conservatively.
    out.schedulable = false;
    out.failure_reason = "jitter fixpoint did not converge";
    for (const PlacedTask& pt : p.tasks) {
      out.verdicts.push_back(TaskVerdict{pt.task.id, false, kTimeNever,
                                         pt.task.deadline});
    }
    return out;
  }

  // Verdicts.
  out.schedulable = true;
  for (std::size_t ti = 0; ti < p.tasks.size(); ++ti) {
    const PlacedTask& pt = p.tasks[ti];
    TaskVerdict v;
    v.id = pt.task.id;
    v.deadline = pt.task.deadline;
    const std::size_t last = pt.parts.size() - 1;
    if (responses[ti][last] == kTimeNever ||
        jitters[ti][last] == kTimeNever) {
      v.completion = kTimeNever;
    } else {
      v.completion = responses[ti][last] + jitters[ti][last];
    }
    v.ok = v.completion <= v.deadline;
    // Intermediate subtasks must also complete within the deadline window
    // (they feed the chain).
    for (std::size_t k = 0; k < pt.parts.size(); ++k) {
      if (responses[ti][k] == kTimeNever) v.ok = false;
    }
    if (!v.ok) {
      out.schedulable = false;
      if (out.failure_reason.empty()) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "tau%u misses: completion %.1fus > D %.1fus", v.id,
                      v.completion == kTimeNever ? -1.0
                                                 : ToMicros(v.completion),
                      ToMicros(v.deadline));
        out.failure_reason = buf;
      }
    }
    out.verdicts.push_back(v);
  }
  return out;
}

}  // namespace sps::partition
