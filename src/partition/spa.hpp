#pragma once
// FP-TS — semi-partitioned fixed-priority scheduling with task splitting
// (Guan, Stigge, Yi, Yu: "Fixed-priority multiprocessor scheduling with
// Liu & Layland's utilization bound", RTAS 2010 — reference [4] of the
// reproduced paper, which adopts it as its scheduler).
//
// Structure of the SPA algorithms, which this implementation follows:
//
//   * Tasks are assigned in DECREASING priority order (RM: shortest period
//     first), filling one core at a time. A core is "full" when the next
//     task fails the admission test there.
//   * The overflowing task is SPLIT: the largest budget that still keeps
//     the core schedulable stays as a subtask; the remainder moves to the
//     next core, possibly splitting again (a split chain across several
//     cores). The last piece is the TAIL subtask; earlier pieces are BODY
//     subtasks (the paper's runtime terms).
//   * Because assignment is highest-priority-first, a subtask that lands
//     on a fresh core precedes every task assigned to that core later, so
//     split subtasks sit at the top of their cores' priority order — the
//     property the SPA utilization-bound proof relies on. kElevated mode
//     enforces this explicitly (subtasks outrank all normal tasks on their
//     core); kNative keeps raw RM priorities (ablation).
//   * SPA2 additionally PRE-ASSIGNS heavy tasks (utilization above
//     Theta/(1+Theta), Theta = Liu & Layland bound) to dedicated cores,
//     starting from the last core, so heavy tasks are never split — the
//     refinement that lifts SPA1's light-task restriction.
//
// Two fill modes are provided:
//
//   * kLiuLaylandFill reproduces the ORIGINAL SPA fill literally: cores
//     are filled one at a time up to the Liu & Layland utilization
//     threshold, the overflowing task is split, closed cores are never
//     revisited. This is the variant the utilization-bound proof covers.
//
//   * kExactRta (default) is the engineering-strength variant the
//     acceptance experiments use: whole tasks are placed FIRST-FIT over
//     all cores under exact overhead-aware RTA, and only a task that fits
//     NOWHERE whole is split, with per-core budgets sized by binary
//     search. This strictly dominates FFD (same placements plus
//     splitting) — the property the paper's evaluation exhibits — while
//     keeping the paper's runtime split semantics (body budgets, ordered
//     migration, tail return). A literal threshold fill would cap every
//     core at ~69-78% utilization, which an exact test beats by a wide
//     margin; DESIGN.md discusses the substitution.
//
// Both modes run one chain step per core: the task's remainder whole,
// or else the largest body budget the core admits, found by the split-
// budget search EDF-WM's windows use too (LargestAdmitted, the internal
// partition/packing.hpp). SPA's admission test stays its own (utilization
// bound, or exact RTA through one FpCoreProbe per core that each commit
// rebuilds; unspanned). Every produced partition passes
// the full verifier (verify.hpp, through FinishPartition as the packers
// do), including migration-chain conditions and all run-time overheads,
// so acceptance verdicts are sound in both modes.

#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "rt/taskset.hpp"

namespace sps::partition {

/// Priority of split subtasks on their host cores.
enum class SplitPriorityMode {
  /// Subtasks outrank every normal task on their core (ordered among
  /// themselves by their tasks' RM priority). Default; matches the SPA
  /// property and keeps migration chains tight.
  kElevated,
  /// Subtasks keep their task's RM priority (ablation).
  kNative,
};

/// How a core is declared full / budgets are sized.
enum class FillMode {
  /// Exact overhead-aware RTA + binary-searched budgets (default).
  kExactRta,
  /// Fill each core to the Liu & Layland utilization threshold, as in the
  /// original SPA1/SPA2 proofs (overhead-oblivious; final verification
  /// still applies the overhead model).
  kLiuLaylandFill,
};

struct SpaConfig {
  unsigned num_cores = 4;
  overhead::OverheadModel model = overhead::OverheadModel::Zero();
  SplitPriorityMode split_mode = SplitPriorityMode::kElevated;
  FillMode fill = FillMode::kExactRta;
  /// SPA2: pre-assign heavy tasks to dedicated cores. Off = SPA1.
  /// A task is heavy above HeavyThreshold(0) = Theta(inf)/(1+Theta(inf))
  /// ~= 0.4093, the asymptotic SPA2 threshold.
  bool preassign_heavy = false;
};

/// Run FP-TS (SPA1 when !cfg.preassign_heavy, SPA2 otherwise). On success
/// the partition passed AnalyzePartition under cfg.model.
PartitionResult SpaPartition(const rt::TaskSet& ts, const SpaConfig& cfg);

/// Convenience wrappers.
inline PartitionResult Spa1(const rt::TaskSet& ts, SpaConfig cfg) {
  cfg.preassign_heavy = false;
  return SpaPartition(ts, cfg);
}
inline PartitionResult Spa2(const rt::TaskSet& ts, SpaConfig cfg) {
  cfg.preassign_heavy = true;
  return SpaPartition(ts, cfg);
}

/// The SPA2 heavy-task threshold for a given per-core task count bound.
double HeavyThreshold(std::size_t n);

}  // namespace sps::partition
