#pragma once
// Partition verifier: the single source of truth for whether a placement
// is schedulable under a given overhead model. Every partitioner runs this
// as its final acceptance gate, and the acceptance-ratio experiment (E5)
// counts exactly these verdicts.
//
// Normal tasks: overhead-aware exact RTA on their core (analysis/).
//
// Split tasks: subtask k is released when subtask k-1 exhausts its budget
// on the previous core, so its release wanders within a window bounded by
// the predecessors' worst-case response times. We verify the chain with a
// jitter fixpoint:
//     J_k = sum_{j<k} R_j          (release jitter of subtask k)
//     R_k = RTA on k's core, with every subtask's interference on others
//           computed using its jitter
// iterated until stable; the task meets its deadline iff the last
// subtask's R + J <= D. This is the standard sound treatment of budget-
// triggered migration chains; with OverheadModel::Zero() it degenerates to
// the overhead-oblivious analysis used for the "theoretical" curves.

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/overhead_aware.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "rt/time.hpp"

namespace sps::partition {

struct TaskVerdict {
  rt::TaskId id = 0;
  bool ok = false;
  /// Worst-case completion of the task (last subtask's R + J for split
  /// tasks), relative to its release.
  Time completion = 0;
  Time deadline = 0;
};

struct PartitionAnalysis {
  bool schedulable = false;
  std::vector<TaskVerdict> verdicts;
  std::string failure_reason;
};

PartitionAnalysis AnalyzePartition(const Partition& p,
                                   const overhead::OverheadModel& model);

/// Part k of a placed task as the analysis sees it. `length` is its EDF
/// window: from the previous part's window end (0 for the first part) to
/// its own, which is its rel_deadline, or the task deadline where that
/// is 0. `kind` is kNormal for an unsplit task, else kBodyFirst for the
/// first part, kTail for the last and kBodyMiddle between. The verifier
/// and the online state's CommitPlaced derive every entry from it; each
/// sets its own queue sizes.
struct PartWindow {
  Time length = 0;
  analysis::EntryKind kind = analysis::EntryKind::kNormal;
};
PartWindow WindowOfPart(const PlacedTask& pt, std::size_t k);

}  // namespace sps::partition
