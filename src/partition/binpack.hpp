#pragma once
// Partitioned fixed-priority bin-packing — the paper's baselines (§4):
// FFD ("first-fit decreasing size") and WFD ("worst-fit decreasing size"),
// plus best-fit and next-fit variants for the ablation.
//
// Tasks are considered in order of decreasing utilization ("size"); each
// task is placed whole on a core chosen by the fit policy, where "fits"
// means the chosen admission test accepts the core's tasks plus the
// candidate. No task is ever split — that is exactly what semi-partitioned
// scheduling relaxes.
//
// The probe order of a fit policy (ProbeOrder) and the FP whole-task step
// (PlaceFpTask) are the ones every partitioned placement uses, offline
// and online; partition/packing.hpp holds the rest of the shared path.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/overhead_aware.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "rt/taskset.hpp"

namespace sps::partition {

enum class AdmissionTest {
  kLiuLayland,  ///< sum u <= n(2^{1/n}-1), overhead-oblivious
  kHyperbolic,  ///< prod(u+1) <= 2, overhead-oblivious
  kRta,         ///< exact overhead-aware RTA (the model may be Zero())
};

enum class FitPolicy {
  kFirstFit,  ///< lowest-numbered core that admits
  kBestFit,   ///< admitting core with the highest current utilization
  kWorstFit,  ///< admitting core with the lowest current utilization
  kNextFit,   ///< current core, else move on (never revisits)
};

struct BinPackConfig {
  unsigned num_cores = 4;
  AdmissionTest admission = AdmissionTest::kRta;
  /// Overheads charged by the kRta admission test and the final verifier.
  overhead::OverheadModel model = overhead::OverheadModel::Zero();
};

const char* ToString(FitPolicy p);
const char* ToString(AdmissionTest t);

/// Run decreasing-utilization bin packing with the given fit policy.
/// On success the result's partition has passed the full verifier
/// (verify.hpp) under cfg.model.
PartitionResult BinPackDecreasing(const rt::TaskSet& ts, FitPolicy policy,
                                  const BinPackConfig& cfg);

/// The paper's baselines.
inline PartitionResult Ffd(const rt::TaskSet& ts, const BinPackConfig& cfg) {
  return BinPackDecreasing(ts, FitPolicy::kFirstFit, cfg);
}
inline PartitionResult Wfd(const rt::TaskSet& ts, const BinPackConfig& cfg) {
  return BinPackDecreasing(ts, FitPolicy::kWorstFit, cfg);
}

/// The order in which a placement step probes `num_cores` cores under
/// `policy`, written into `order` (one buffer per run, so no probe
/// allocates): first fit 0..m-1; next fit `cursor`..m-1, where the
/// cursor is the core of the previous placement; best fit fullest
/// first and worst fit emptiest first by `utilization(c)`, ties by
/// ascending core id. The one probe order of the FP and EDF packers and
/// the online controller.
template <class Utilization>
std::span<const unsigned> ProbeOrder(FitPolicy policy, unsigned num_cores,
                                     unsigned cursor,
                                     Utilization utilization,
                                     std::vector<unsigned>& order) {
  const unsigned first = policy == FitPolicy::kNextFit ? cursor : 0;
  order.resize(num_cores - first);
  std::iota(order.begin(), order.end(), first);
  if (policy == FitPolicy::kBestFit || policy == FitPolicy::kWorstFit) {
    const bool fullest_first = policy == FitPolicy::kBestFit;
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
      const double ua = utilization(a);
      const double ub = utilization(b);
      if (ua != ub) return fullest_first ? ua > ub : ua < ub;
      return a < b;
    });
  }
  return order;
}

// ---- incremental placement machinery ---------------------------------------
// The per-core bin state + admission test the offline packer iterates,
// exposed (mirroring partition/edf_wm.hpp's EdfCoreState) so the online
// admission controller can run one fixed-priority step per ADMIT request.

/// One fixed-priority core: resident whole tasks + cached utilization
/// (the O(1) reject filter).
struct FpCoreState {
  std::vector<rt::Task> tasks;
  double utilization = 0.0;

  void Commit(const rt::Task& t);
  /// Remove the task with this id (if resident); returns true if removed.
  bool RemoveTask(rt::TaskId id);

  friend bool operator==(const FpCoreState&, const FpCoreState&) = default;
};

/// Counters of how admission decisions were reached, shared by the EDF
/// and fixed-priority per-core tests (the online bench reports them;
/// the filters are what keep per-admit cost flat). density_accepts is
/// EDF-only, and so are the memo_* counters (FP verdicts are never
/// cached).
struct AdmitStats {
  std::uint64_t util_rejects = 0;     ///< O(1): raw utilization > 1
  std::uint64_t density_accepts = 0;  ///< O(n): inflated density <= 1 (EDF)
  std::uint64_t full_tests = 0;       ///< full demand test / RTA / bound

  // Transposition-table counters (analysis/memo.hpp). A memo hit still
  // bumps the decision counter of the stage the cached verdict came
  // from, so util_rejects/density_accepts/full_tests are bit-identical
  // to an uncached run; only these three depend on cache state.
  std::uint64_t memo_hits = 0;    ///< decisions served from the table
  std::uint64_t memo_misses = 0;  ///< lookups that had to compute
  std::uint64_t memo_evicts = 0;  ///< stores displacing a different key

  AdmitStats& operator+=(const AdmitStats& o);
  [[nodiscard]] std::uint64_t decisions() const {
    return util_rejects + density_accepts + full_tests;
  }
  friend bool operator==(const AdmitStats&, const AdmitStats&) = default;
};

/// One packing run's prepared fixed-priority RTA state (DESIGN.md §11):
/// a probe slot per core, built on the core's first full test after a
/// commit and emptied by the commit that changes the core, and one
/// LocalCharges row per queue size N, built on first use. It is only
/// right while every change to the run's cores empties its slot: the
/// packers empty it in each commit, and the online controller, whose
/// cores also change between requests, takes a fresh one per request.
class FpProbeSlots {
 public:
  FpProbeSlots(const overhead::OverheadModel& model, unsigned num_cores);

  /// Core c's prepared probe. An empty slot is built first, from the
  /// residents `append(out)` adds to `out`.
  template <class Append>
  analysis::FpCoreProbe& Probe(unsigned c, Append append) {
    Slot& slot = slots_[c];
    if (!slot.ready) {
      residents_.clear();
      append(residents_);
      slot.probe.Prepare(residents_, Charges(residents_.size() + 1));
      slot.ready = true;
    }
    return slot.probe;
  }

  /// Core c's residents changed: its next Probe rebuilds.
  void Empty(unsigned c) { slots_[c].ready = false; }

 private:
  struct Slot {
    analysis::FpCoreProbe probe;
    bool ready = false;
  };

  /// LocalCharges(model, n), built once per n.
  const analysis::LocalCharges& Charges(std::size_t n);

  const overhead::OverheadModel* model_;
  std::vector<Slot> slots_;
  std::vector<std::optional<analysis::LocalCharges>> rows_;  ///< by N
  std::vector<analysis::CoreEntry> residents_;  ///< Probe's build buffer
};

/// Would `cand` be schedulable on core c (state `core`) under
/// cfg.admission — exactly the offline packer's per-core test
/// (utilization bounds, or the overhead-aware exact RTA with cfg.model
/// charged, through slot c of `slots`). Screened by the O(1)
/// utilization filter (U > 1 cannot pass any of the three tests). The
/// verdict is never cached (DESIGN.md §12).
bool FpCoreAdmits(const FpCoreState& core, unsigned c, const rt::Task& cand,
                  const BinPackConfig& cfg, FpProbeSlots& slots,
                  AdmitStats* stats = nullptr);

/// Outcome of placing one task: its subtask placements (entries already
/// committed into the core states) or placed == false with states
/// untouched.
struct TaskPlacement {
  bool placed = false;
  std::vector<SubtaskPlacement> parts;
  /// Cores probed during the placement walk: whole-task admission tests
  /// plus split-search per-core budget searches. Deterministic (pure
  /// function of the placement inputs); surfaced as the kPlacement span
  /// attribute by the online controller (DESIGN.md §16).
  unsigned probes = 0;
};

/// One fixed-priority placement step, the FP twin of PlaceEdfTask's
/// whole-task step: the task goes whole onto the first core of
/// `core_order` that admits it (FpCoreAdmits) and is committed there,
/// emptying that core's slot. This IS the loop body of
/// BinPackDecreasing, which passes its run's `slots`; the online
/// controller calls it per ADMIT without, and each call then probes
/// through slots of its own.
TaskPlacement PlaceFpTask(std::vector<FpCoreState>& cores, const rt::Task& t,
                          std::span<const unsigned> core_order,
                          const BinPackConfig& cfg,
                          AdmitStats* stats = nullptr,
                          FpProbeSlots* slots = nullptr);

}  // namespace sps::partition
