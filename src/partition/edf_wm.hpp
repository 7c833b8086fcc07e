#pragma once
// EDF partitioning — the dynamic-priority counterpart of binpack.hpp and
// spa.hpp, following the paper's remark (§2) that its scheduler design
// extends to EDF-based semi-partitioned algorithms (the Kato & Yamasaki
// line of work: references [5]-[7] of the paper).
//
//   * EdfBinPack: partitioned EDF with decreasing-utilization first/best/
//     worst fit, admission by the exact processor-demand test with the
//     full overhead model charged (analysis/edf.hpp).
//
//   * EdfWm: semi-partitioned EDF with WINDOW-BASED splitting in the
//     style of EDF-WM (Kato et al.): a task that fits nowhere whole has
//     its deadline divided into K equal windows; window j becomes a
//     sporadic (B_j, T, D/K) "subtask" on its own core, released when the
//     previous window's budget is exhausted and due at its window end.
//     Budgets are sized per core by binary search under the demand test,
//     at the fixed kBudgetGranularity resolution and never below
//     kMinBudget (placement.hpp) — the one split-budget search SPA's body
//     subtasks use too (LargestAdmitted, packing.hpp); K is grown from 2 to
//     num_cores until the budgets cover C. The runtime semantics are
//     exactly the paper's (body budgets, migration to the next core's
//     ready queue, tail returning to the first core's sleep queue) —
//     only the queue ordering key changes to absolute window deadlines,
//     which the simulator implements as SchedPolicy::kEdf.
//
// Both partitioners gate their result through the EDF partition verifier
// (verify.hpp / AnalyzePartition dispatches on Partition::policy).
//
// Split-window analysis (tightened, ROADMAP item): window j of a split
// task is analyzed as an independent sporadic task (B_j, T, D_j) with NO
// release jitter — EDF-WM's original per-window analysis. Soundness is the
// standard assume-guarantee induction: if every core passes its demand
// test under the window model, then at the earliest hypothetical window
// violation every earlier window was met, so no subtask was ever released
// AFTER its window start; releases at or before the window start with the
// (fixed) window-end deadline only ever contribute LESS demand to any
// interval than the modeled release at the window start. The previous
// treatment (jitter = cumulative earlier windows, widening the dbf) was
// strictly conservative — it double-counted the wandering the window
// reservation already bounds. With it gone no EDF entry is jittered, so
// analysis::EdfCoreEntry has no jitter field at all.
//
// The per-task placement step (whole-task fit, then K-window split search)
// is exposed as PlaceEdfTask over EdfCoreState so the ONLINE admission
// controller (online/admission.*) runs the exact same step incrementally —
// the differential guarantee "ADMIT-only replay == offline partition"
// (tests/test_online.cpp) holds by construction. Both partitioners run
// the one decreasing-utilization loop (PackDecreasing, packing.hpp)
// with the shared probe order (ProbeOrder, binpack.hpp); EdfCoreAdmits
// runs the shared admission protocol (ScreenedAdmits, packing.hpp) with
// the analysis memo as its verdict cache. The fixed-priority twin of the
// step is PlaceFpTask (binpack.hpp).

#include <span>
#include <vector>

#include "analysis/edf.hpp"
#include "analysis/memo.hpp"
#include "analysis/overhead_aware.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/placement.hpp"
#include "rt/taskset.hpp"

namespace sps::partition {

struct EdfPartitionConfig {
  unsigned num_cores = 4;
  overhead::OverheadModel model = overhead::OverheadModel::Zero();
  /// Admission-verdict transposition table (analysis/memo.hpp).
  analysis::MemoConfig memo;
};

/// Partitioned EDF (no splitting) with the given fit policy.
PartitionResult EdfBinPack(const rt::TaskSet& ts, FitPolicy policy,
                           const EdfPartitionConfig& cfg);

/// Semi-partitioned EDF with window-based splitting (EDF-WM style).
PartitionResult EdfWm(const rt::TaskSet& ts, const EdfPartitionConfig& cfg);

// ---- incremental placement machinery ---------------------------------------
// The state + per-task step the offline partitioners iterate, exposed so
// the online admission controller can run one step per ADMIT request and
// reclaim capacity per LEAVE without re-partitioning anything.

/// Analysis state of one EDF core: the resident (uninflated) entries,
/// their cached raw utilization, and the incrementally maintained
/// Zobrist hash of the resident set. The utilization cache makes the
/// O(1) reject filter free; the hash is the memo-key half that
/// Commit/RemoveTask keep current in O(1) per entry; the entries are the
/// input of the full demand test.
struct EdfCoreState {
  std::vector<analysis::EdfCoreEntry> entries;
  double utilization = 0.0;
  analysis::MemoKey zobrist;

  void Commit(const analysis::EdfCoreEntry& e);
  /// Remove every entry of task `id`, appending them (in core order) to
  /// `removed` when given; returns how many were removed and restores
  /// the utilization cache.
  std::size_t RemoveTask(rt::TaskId id,
                         std::vector<analysis::EdfCoreEntry>* removed =
                             nullptr);

  friend bool operator==(const EdfCoreState&, const EdfCoreState&) = default;
};

/// Would `cand` be schedulable on `core` under `model`? Decision-identical
/// to inflating core+cand and running the demand test, but screened by two
/// filters that settle most requests without it: raw utilization > 1
/// rejects (inflation only adds demand), inflated density <= 1 with total
/// utilization strictly below 1 accepts (the density bound implies
/// dbf(t) <= t at every point, and staying off the U==1 branch keeps the
/// demand test's conservative horizon cap out of play).
/// With an active `memo` context the post-screen verdict (density accept
/// or full demand test, stage recorded) is served from / published to
/// the transposition table — decision- and counter-identical to the
/// uncached path.
bool EdfCoreAdmits(const EdfCoreState& core,
                   const analysis::EdfCoreEntry& cand,
                   const overhead::OverheadModel& model,
                   AdmitStats* stats = nullptr,
                   const analysis::MemoContext* memo = nullptr);

/// Analysis entry for a whole (unsplit) task.
analysis::EdfCoreEntry MakeEdfEntry(const rt::Task& t);

/// Analysis entry for one window of a split task per the tightened
/// per-window analysis (header comment): sporadic (budget, T, window_len)
/// of the given kind. The online state builds a placed task's entries
/// from partition::WindowOfPart (verify.hpp).
analysis::EdfCoreEntry MakeEdfWindowEntry(const rt::Task& t, Time budget,
                                          Time window_len,
                                          analysis::EntryKind kind);

/// One EDF-WM placement step: try the task whole on the cores in
/// `whole_core_order` (first admitting core wins), then — if allowed — the
/// K-equal-window split search of EdfWm (K = 2..num cores, largest
/// admissible budget per window, binary-searched per core at
/// kBudgetGranularity, no window below kMinBudget). Commits into
/// `cores` on success. This IS the loop body of EdfWm()/EdfBinPack(); the
/// online controller calls it per ADMIT.
TaskPlacement PlaceEdfTask(std::vector<EdfCoreState>& cores,
                           const rt::Task& t,
                           std::span<const unsigned> whole_core_order,
                           bool allow_split, const EdfPartitionConfig& cfg,
                           AdmitStats* stats = nullptr,
                           const analysis::MemoContext* memo = nullptr);

}  // namespace sps::partition
