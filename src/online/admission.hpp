#pragma once
// Incremental admission-control state (DESIGN.md §11): the per-core
// schedulability bookkeeping that lets an ADMIT request be decided by
// testing only candidate cores — never by re-analyzing the whole system —
// and a LEAVE reclaim capacity by subtracting exactly the leaver's
// entries.
//
// Per core this caches what the offline partitioners recompute from
// scratch on every run: the resident analysis entries (whole tasks and
// split-window reservations), their raw utilization sum (the O(1) reject
// filter), and — through partition::EdfCoreAdmits — the density screen
// that settles most EDF admissions in O(resident-on-core) without the
// full demand test. The placement step itself IS the offline one
// (partition::PlaceEdfTask / partition::PlaceFpTask), probed in the
// offline packers' order (partition::ProbeOrder, via the controller), so
// an ADMIT-only replay reproduces the offline partition bit-for-bit
// under every placement policy (tests/test_online.cpp differentials).

#include <cstdint>
#include <span>
#include <vector>

#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "partition/placement.hpp"
#include "rt/task.hpp"
#include "rt/time.hpp"

namespace sps::online {

struct AdmissionConfig {
  unsigned num_cores = 4;
  partition::SchedPolicy policy = partition::SchedPolicy::kEdf;
  overhead::OverheadModel model = overhead::OverheadModel::Zero();
  /// Admission-verdict transposition table (analysis/memo.hpp), shared
  /// with the offline configs the builders below derive.
  analysis::MemoConfig memo;
};

/// The offline partitioner configs an AdmissionConfig implies — ONE
/// builder pair shared by AdmissionState (incremental steps) and the
/// controller's repartition fallback, so no knob (model, memo, ...) can
/// drift between the online and offline paths. The fixed-priority
/// admission test is BinPackConfig's default, exact RTA.
[[nodiscard]] partition::EdfPartitionConfig DeriveEdfPartitionConfig(
    const AdmissionConfig& cfg);
[[nodiscard]] partition::BinPackConfig DeriveBinPackConfig(
    const AdmissionConfig& cfg);

/// The complete LOGICAL state of an AdmissionState, detached from its
/// memo context — what the durability checkpoint serializes (DESIGN.md
/// §14). Per-core entry vectors are captured VERBATIM (order included):
/// the utilization caches are floating-point accumulation histories, so
/// re-deriving them from placements would reproduce the same value only
/// up to rounding — and the controller's worst-fit/SPA orderings and
/// hysteresis band compare those doubles. Restoring the exact bits is
/// what makes recovery decision-identical.
struct AdmissionSnapshot {
  std::vector<partition::EdfCoreState> edf_cores;
  std::vector<partition::FpCoreState> fp_cores;
  partition::AdmitStats stats;

  friend bool operator==(const AdmissionSnapshot&,
                         const AdmissionSnapshot&) = default;
};

/// The mutable analysis state of all cores plus the admission primitives.
/// Owns no task registry — that is the controller's job; this layer is
/// purely "would it fit / it now occupies / it no longer occupies".
class AdmissionState {
 public:
  explicit AdmissionState(const AdmissionConfig& cfg);

  /// Try to place `t`, probing whole-task placement on the cores in
  /// `core_order` and then (EDF with allow_split) the window-split
  /// search. Commits the winning entries. Only probed cores are ever
  /// analyzed.
  [[nodiscard]] partition::TaskPlacement Place(
      const rt::Task& t, std::span<const unsigned> core_order,
      bool allow_split);

  /// Reclaim the capacity of a departed task: subtract its entries from
  /// exactly the cores in `parts`.
  void Remove(rt::TaskId id,
              std::span<const partition::SubtaskPlacement> parts);

  /// An entry lifted by TakeEdf, remembering its core, so a failed probe
  /// restores the state exactly — no full-state copies.
  struct TakenEntry {
    unsigned core = 0;
    analysis::EdfCoreEntry entry;
  };

  /// EDF only: remove AND return the task's committed entries (from the
  /// cores in `parts`). Pair with RestoreEdf to undo a hypothetical
  /// probe (the controller's unsplit-on-leave) in O(task entries).
  [[nodiscard]] std::vector<TakenEntry> TakeEdf(
      rt::TaskId id, std::span<const partition::SubtaskPlacement> parts);
  void RestoreEdf(std::span<const TakenEntry> taken);

  /// Drop everything and re-host the state of a full repartition (the
  /// controller's fallback path).
  void Adopt(const partition::Partition& p);

  /// Commit a task's entries for a KNOWN placement without re-running
  /// the admission test — the single entry-materialization step shared
  /// by Adopt and the overload ladder's exact undo path (restoring a
  /// degraded or shed task to the cores it occupied is always safe: the
  /// state is returned to one that passed admission before).
  void CommitPlaced(const partition::PlacedTask& pt);

  [[nodiscard]] double core_utilization(unsigned c) const;
  [[nodiscard]] std::size_t entries_on(unsigned c) const;
  [[nodiscard]] double total_utilization() const;
  [[nodiscard]] unsigned num_cores() const { return cfg_.num_cores; }
  [[nodiscard]] const AdmissionConfig& config() const { return cfg_; }

  /// How admissions were decided (EDF fast/full counters; the bench
  /// reports these).
  [[nodiscard]] const partition::AdmitStats& stats() const {
    return stats_;
  }

  /// Snapshot / restore the logical state (durability checkpoints). The
  /// memo context is NOT part of the snapshot — cache contents are not
  /// logical state (decision counters are cache-independent by §12's
  /// contract; only memo_hits/misses/evicts depend on it). ImportState
  /// returns false (state untouched) if the snapshot's core counts do
  /// not match this state's config.
  [[nodiscard]] AdmissionSnapshot ExportState() const;
  [[nodiscard]] bool ImportState(AdmissionSnapshot snap);

 private:
  AdmissionConfig cfg_;
  partition::EdfPartitionConfig edf_cfg_;  // derived from cfg_
  partition::BinPackConfig fp_cfg_;        // derived from cfg_
  analysis::MemoContext memo_;             // resolved once from cfg_.memo
  std::vector<partition::EdfCoreState> edf_cores_;
  std::vector<partition::FpCoreState> fp_cores_;
  partition::AdmitStats stats_;
};

}  // namespace sps::online
