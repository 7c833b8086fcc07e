#pragma once
// Online admission controller (DESIGN.md §11): the component that turns a
// stream of ADMIT/LEAVE requests into a continuously valid partition.
//
//   * Placement policy slot: first-fit (the EDF-WM default), worst-fit
//     (load spreading), or SPA ordering (fill the busiest admitting core
//     first, the paper's fill-one-core-at-a-time spirit). Whole-task
//     placement first; EDF controllers then try the window-split search.
//   * Churn accounting: moved / split / unsplit task counts are reported
//     metrics, not accidents. A plain incremental admit moves nothing; a
//     full-repartition fallback charges every resident task whose
//     placement changed.
//   * Full-repartition fallback: when the incremental step cannot place a
//     request, the matching OFFLINE partitioner runs on the resident set
//     plus the candidate. Success adopts the new placement (and pays the
//     churn); failure rejects the request and leaves the resident system
//     untouched.
//   * Epoch replay: requests are folded in timestamp order; at each epoch
//     boundary the controller snapshots per-epoch stats and can validate
//     the current partition by simulating it (validate_by_simulation).
//     The replay queues each epoch's simulation and runs them in batches
//     of a fixed width on the shared pool (DESIGN.md §14), so rows are
//     the same for any core count. Batches of independent streams fan
//     out over util/thread_pool bit-identically for any job count.
//   * Fallback hysteresis: after an adopted repartition the next one
//     waits a fixed cooldown or a fixed utilization swing (constants in
//     controller.cpp; only the on/off switch is configurable).
//   * Stats: ReplayStatsSnapshot folds a replay's scattered counters into
//     one obs::StatsSnapshot (the --stats-out dump).

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "obs/registry.hpp"
#include "online/admission.hpp"
#include "online/durability.hpp"
#include "online/workload_stream.hpp"
#include "partition/placement.hpp"
#include "partition/verify.hpp"
#include "sim/engine.hpp"

namespace sps::obs {
class SpanProfiler;
}  // namespace sps::obs

namespace sps::online {

enum class PlacePolicy {
  kFirstFit,  ///< lowest-numbered admitting core
  kWorstFit,  ///< emptiest admitting core (spreads load)
  kSpaOrder,  ///< fullest admitting core (SPA's fill-up ordering)
};

const char* ToString(PlacePolicy p);

/// Overload / graceful-degradation policy (DESIGN.md §13). The ladder is
/// strictly ordered: degrade soft tasks (reduced-service WCET), then
/// shed the lowest-value soft tasks (LIFO within a value class), and
/// only then run the full repartition — each rung is cheaper in churn
/// than the next. Every decision is deterministic: victims are chosen by
/// (value asc, admission sequence desc), both total orders.
struct OverloadConfig {
  /// Walk the degrade/shed ladder when an admission fails or an epoch
  /// signals overload. Off = PR 6 behavior (reject / fallback only).
  bool ladder = true;
  /// Repartition-fallback hysteresis: after an adopted repartition,
  /// further adoptions are suppressed until 4 epochs pass OR total
  /// utilization moves by more than 0.10 (kFallbackCooldownEpochs,
  /// kFallbackUtilBand in controller.cpp) — the near-saturation
  /// adopt-thrash damper. Default-on (the CLI escape is
  /// --no-hysteresis).
  bool hysteresis = true;
  /// Exec-spike multiplier the overload reaction plans for: the epoch
  /// reaction sheds/degrades until the partition with every WCET
  /// inflated by this factor re-analyzes schedulable.
  double spike_magnitude = 1.3;
};

struct ControllerConfig {
  AdmissionConfig admission;
  PlacePolicy place = PlacePolicy::kFirstFit;
  /// EDF only: allow window-splitting a request that fits nowhere whole.
  bool allow_split = true;
  /// Re-partition the resident set + candidate offline when the
  /// incremental step fails (churn is charged; failure still rejects).
  bool repartition_fallback = true;
  /// After a LEAVE (and after an epoch's shed/degrade restores), run the
  /// multi-task consolidation pass: every resident split task that now
  /// fits whole somewhere is unsplit (migration churn down; each charged
  /// as an unsplit).
  bool unsplit_on_leave = false;
  /// Overload ladder + hysteresis knobs (DESIGN.md §13).
  OverloadConfig overload;
};

/// Tasks whose placement changed, split, or consolidated — the online
/// subsystem's headline cost metric next to acceptance.
struct ChurnStats {
  std::uint64_t moved = 0;    ///< resident tasks whose placement changed
  std::uint64_t split = 0;    ///< tasks split (admission or fallback)
  std::uint64_t unsplit = 0;  ///< split tasks consolidated onto one core
  std::uint64_t repartitions = 0;  ///< fallback runs that were adopted

  ChurnStats& operator+=(const ChurnStats& o);
  ChurnStats& operator-=(const ChurnStats& o);  ///< epoch deltas
  [[nodiscard]] std::uint64_t total() const {
    return moved + split + unsplit;
  }
  friend bool operator==(const ChurnStats&, const ChurnStats&) = default;
};

/// Counted degradation-ladder decisions (DESIGN.md §13) — like ChurnStats,
/// these are reported metrics, not accidents.
struct OverloadStats {
  std::uint64_t degrades = 0;         ///< soft tasks switched to degraded mode
  std::uint64_t degrade_restores = 0; ///< degraded tasks back at full service
  std::uint64_t sheds = 0;            ///< soft tasks evicted from the system
  std::uint64_t shed_restores = 0;    ///< shed tasks re-admitted by a retry
  std::uint64_t retry_attempts = 0;   ///< failed shed re-admission probes
  std::uint64_t hysteresis_blocks = 0;  ///< fallback runs suppressed

  OverloadStats& operator+=(const OverloadStats& o);
  OverloadStats& operator-=(const OverloadStats& o);  ///< epoch deltas
  friend bool operator==(const OverloadStats&, const OverloadStats&) =
      default;
};

struct AdmitOutcome {
  bool accepted = false;
  bool via_fallback = false;  ///< placed by the full repartition
  bool via_ladder = false;    ///< placed after degrading/shedding residents
  unsigned parts = 0;         ///< subtask count of the accepted placement
};

/// One resident task's entry in the controller's ledger.
struct Resident {
  /// Current placement (parts) + the task itself: a degraded resident
  /// carries its degraded WCET here, so CurrentPartition and the
  /// analyses see the service actually provided.
  partition::PlacedTask placed;
  /// Admission sequence number (LIFO tie-break within a value class;
  /// assigned per successful admission).
  std::uint64_t admit_seq = 0;
  /// The ORIGINAL full-service task while the resident is degraded.
  std::optional<rt::Task> full;

  friend bool operator==(const Resident&, const Resident&) = default;
};

/// A shed task awaiting re-admission (the record keeps the FULL task; a
/// degraded victim is shed at full service and retried as such).
struct ShedRecord {
  rt::Task task;
  std::uint64_t admit_seq = 0;  ///< LIFO order within a value class
  std::uint32_t retry_in = 0;   ///< epochs until the next retry
  std::uint32_t backoff = 0;    ///< current backoff width (epochs)

  friend bool operator==(const ShedRecord&, const ShedRecord&) = default;
};

/// The live logical state of a Controller, in the controller's own types
/// — what the durability checkpoint serializes (DESIGN.md §14) and what
/// ImportState restores bit-identically, given the ids admitted before
/// the snapshot. The maps are id-ordered (so equal states serialize
/// equally); the shed ledger keeps its SHED ORDER (AdvanceEpoch drains
/// it in that order). Nothing here grows with the history: departed ids
/// appear only if they were admitted more than once.
struct ControllerSnapshot {
  std::map<rt::TaskId, Resident> residents;
  /// Admission generations >= 1 only (ids admitted more than once);
  /// every other admitted id is at generation 0.
  std::map<rt::TaskId, std::uint32_t> generation_of;
  std::vector<ShedRecord> shed;
  ChurnStats churn;
  OverloadStats overload;
  std::uint64_t admit_seq = 0;
  std::uint64_t epoch = 0;
  std::uint64_t last_fallback_epoch = 0;
  double last_fallback_util = 0.0;
  bool any_fallback = false;
  AdmissionSnapshot admission;

  friend bool operator==(const ControllerSnapshot&,
                         const ControllerSnapshot&) = default;
};

class Controller {
 public:
  explicit Controller(const ControllerConfig& cfg);

  /// Decide one ADMIT. Touches only candidate cores unless the ladder or
  /// the fallback runs. Rejection leaves every resident task untouched
  /// (ladder actions taken for an ultimately rejected candidate are
  /// rolled back exactly).
  AdmitOutcome Admit(const rt::Task& t);

  /// Retire a resident task, reclaiming its capacity on exactly the
  /// cores it occupied. A LEAVE for a currently-shed task drops it from
  /// the shed set (the stream says it is gone for good). Returns false
  /// (and does nothing) for unknown ids.
  bool Leave(rt::TaskId id);

  /// Epoch tick (the replay calls this once per closed epoch): advances
  /// the hysteresis cooldown and — when the system is NOT overloaded —
  /// retries due shed tasks for re-admission (incremental placement
  /// only; a failed retry doubles the task's backoff, capped) and
  /// restores degraded residents to full service where capacity allows.
  void AdvanceEpoch(bool overloaded);

  /// Overload reaction (DESIGN.md §13): walk the degrade-then-shed
  /// ladder until the resident partition with every WCET inflated by
  /// `spike_magnitude` re-analyzes schedulable, or no eligible soft
  /// victims remain. Hard tasks are never touched. Returns the number
  /// of ladder actions taken.
  unsigned ReactToOverload(double spike_magnitude);

  /// The resident system as a simulatable/verifiable partition. Tasks
  /// appear in ascending id order, so equal resident sets compare equal.
  [[nodiscard]] partition::Partition CurrentPartition() const;

  /// Per-task admission generations aligned with CurrentPartition()'s
  /// task order — plumb into sim::SimConfig::exec_generations so a
  /// re-admitted id never resumes its old incarnation's RNG streams.
  [[nodiscard]] std::vector<std::uint32_t> ExecGenerations() const;

  [[nodiscard]] std::size_t resident() const { return residents_.size(); }
  [[nodiscard]] double total_utilization() const {
    return state_.total_utilization();
  }
  [[nodiscard]] const ChurnStats& churn() const { return churn_; }
  [[nodiscard]] const OverloadStats& overload_stats() const {
    return overload_;
  }
  /// Tasks currently shed (evicted, awaiting re-admission retries).
  [[nodiscard]] std::size_t shed_resident() const { return shed_.size(); }
  /// Residents currently running in degraded mode.
  [[nodiscard]] std::size_t degraded_resident() const;
  [[nodiscard]] const partition::AdmitStats& admission_stats() const {
    return state_.stats();
  }
  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }

  /// Snapshot / restore the logical state (durability checkpoints,
  /// DESIGN.md §14). ExportState copies the live state: the generation-0
  /// ids stay out of it. ImportState replaces everything — including the
  /// admission state's per-core entry vectors and utilization caches
  /// VERBATIM, so a restored controller's subsequent decisions (and
  /// ExecGenerations) are bit-identical to the original's — taking the
  /// ids admitted before the snapshot from `admitted` (the durable
  /// replay reads them off the journal's accepted ADMIT records).
  /// Returns false (state unspecified) if the snapshot's core layout
  /// does not match this controller's config, or if a resident, shed or
  /// generation entry names an id outside `admitted`: every one of them
  /// was created by an accepted admission.
  [[nodiscard]] ControllerSnapshot ExportState() const;
  [[nodiscard]] bool ImportState(ControllerSnapshot snap,
                                 std::span<const rt::TaskId> admitted);

 private:
  /// Placement probe order per the configured policy, ranked by the
  /// utilizations of `state` (pass the probe copy when testing
  /// hypothetical states, e.g. TryUnsplit's entries-removed view).
  std::vector<unsigned> CoreOrder(const AdmissionState& state) const;
  /// Offline repartition of resident + cand; adopts + charges churn on
  /// success.
  AdmitOutcome FallbackRepartition(const rt::Task& t);
  /// Multi-task unsplit pass (unsplit_on_leave): consolidate EVERY
  /// resident split task that fits whole, looping until a full pass
  /// makes no progress (one consolidation can free the window capacity
  /// the next needs). Shared by Leave and AdvanceEpoch's restore phase;
  /// returns consolidations made (each charged to churn.unsplit).
  unsigned ConsolidateSplits();

  /// Hysteresis gate for FallbackRepartition (counts blocks).
  [[nodiscard]] bool FallbackAllowed();
  /// Plain incremental placement of `t`; on success registers the
  /// placement and bumps the id's admission generation.
  AdmitOutcome TryPlace(const rt::Task& t);
  /// Record one admission of `id`: generation 0 the first time, one
  /// more on every re-admission.
  void NoteAdmission(rt::TaskId id);

  /// One reversible ladder step, logged so a rejected candidate's
  /// actions can be undone EXACTLY (reverse order), or committed (stats
  /// counted, shed records created) once the candidate is placed.
  struct LadderAction {
    enum class Kind : std::uint8_t { kDegrade, kShed };
    Kind kind = Kind::kDegrade;
    Resident before;  ///< the victim's exact pre-action ledger entry
  };
  /// Ladder rung 1: switch one eligible resident (soft, whole-placed,
  /// has a degraded mode, not yet degraded) to degraded service.
  /// `for_admit` restricts victims to those less important than the
  /// candidate; nullptr (epoch reaction) allows any soft resident.
  bool DegradeOne(const rt::Task* for_admit,
                  std::vector<LadderAction>& log);
  /// Ladder rung 2: shed the least-valuable eligible soft resident
  /// (LIFO within a value class).
  bool ShedOne(const rt::Task* for_admit, std::vector<LadderAction>& log);
  void CommitLadder(std::vector<LadderAction>& log);
  void UndoLadder(std::vector<LadderAction>& log);
  /// Victim choice shared by both rungs: minimum (value, then NEWEST
  /// admission) over eligible soft residents — a total order, so the
  /// decision is deterministic. residents_.end() when none is eligible.
  template <typename Pred>
  [[nodiscard]] std::map<rt::TaskId, Resident>::iterator PickVictim(
      Pred&& pred);
  /// Would the resident partition survive every WCET inflating by
  /// `magnitude`? O(1)-screened (per-core inflated utilization > 1 can
  /// never pass) before the full analysis.
  [[nodiscard]] bool InflatedSchedulable(double magnitude) const;

  ControllerConfig cfg_;
  AdmissionState state_;
  /// The resident ledger, in ascending id order: every pass over the
  /// residents (partition export, restores, consolidation) walks it in
  /// that order, so equal resident sets behave equally.
  std::map<rt::TaskId, Resident> residents_;
  /// Every id ever admitted (the RNG-generation counter's domain; first
  /// admission = generation 0).
  std::unordered_set<rt::TaskId> admitted_;
  /// id -> admission generation, for the ids admitted more than once
  /// (generation >= 1). Ordered, so a checkpoint exports it as is.
  std::map<rt::TaskId, std::uint32_t> generation_of_;
  /// Shed set in shed order (drained by AdvanceEpoch retries).
  std::vector<ShedRecord> shed_;
  ChurnStats churn_;
  OverloadStats overload_;
  std::uint64_t admit_seq_ = 0;
  std::uint64_t epoch_ = 0;
  /// Hysteresis state: epoch/utilization at the last adopted fallback.
  std::uint64_t last_fallback_epoch_ = 0;
  double last_fallback_util_ = 0.0;
  bool any_fallback_ = false;
};

// ---- epoch replay ----------------------------------------------------------

/// Injected fault windows over the replay timeline (DESIGN.md §13). The
/// replay treats a window's onset as the overload ALARM: the controller
/// reacts at the first epoch boundary at or inside the window, and the
/// epoch validation simulates under the faulted exec/arrival model — so
/// "zero hard misses" is proven against the fault, not the nominal load.
struct SpikeEpoch {
  Time start = 0;
  Time end = 0;  ///< half-open [start, end)
  double prob = 0.2;
  double magnitude = 1.3;
};

struct BurstStorm {
  Time start = 0;
  Time end = 0;
  double burst_prob = 0.9;  ///< ArrivalModel::kBursty burst probability
};

struct FaultPlan {
  std::vector<SpikeEpoch> spikes;
  std::vector<BurstStorm> storms;

  [[nodiscard]] bool any() const {
    return !spikes.empty() || !storms.empty();
  }
  /// The spike/storm overlapping [start, end), if any (first wins).
  [[nodiscard]] const SpikeEpoch* SpikeAt(Time start, Time end) const;
  [[nodiscard]] const BurstStorm* StormAt(Time start, Time end) const;
};

struct EpochStats;
struct ReplayResult;

/// Observability side-channel for a replay (DESIGN.md §15/§16): a
/// wall-clock span profiler installed for the replay thread's duration
/// (built with tracing on, it also keeps request span trees, tail
/// sampling and flight rings), and an optional per-epoch hook (the
/// CLI's heartbeat / augmented table).
/// Deliberately OUTSIDE the durability fingerprint and never
/// decision-relevant — wall-clock data must stay off stdout and out of
/// every byte-compared artifact.
struct ReplayObserver {
  obs::SpanProfiler* profiler = nullptr;
  /// Called once per row, in epoch order, as each epoch closes, with the
  /// epoch's index, its stats, and the accumulating result. With
  /// validation on, `validated`, `sim_misses` and `hard_misses` are
  /// filled only when the epoch's batch has run, after this call; read
  /// them from the returned ReplayResult. Must not mutate anything the
  /// replay reads.
  std::function<void(std::size_t, const EpochStats&, const ReplayResult&)>
      on_epoch;
};

struct ReplayConfig {
  ControllerConfig controller;
  /// Epoch length; stats snapshot per epoch. 0 = one epoch spanning the
  /// whole stream.
  Time epoch = Millis(1000);
  /// Simulate the partition standing at each epoch boundary and record
  /// its deadline misses (0 expected — the admission analysis is
  /// sound). The simulations run in batches on the shared pool.
  bool validate_by_simulation = false;
  sim::SimConfig validate_sim;
  /// Seed for the validation simulations' derived RNG streams.
  std::uint64_t seed = 20110318;
  /// Injected overload windows (exec spikes / arrival storms).
  FaultPlan faults;
  /// Keep closing (empty) epochs after the last request for this many
  /// epochs — gives shed-re-admission retries room to drain when the
  /// stream ends right after a fault window. 0 = PR 6 behavior.
  std::uint32_t drain_epochs = 0;
  /// Durable-service knobs (DESIGN.md §14): checkpoint + journal dir,
  /// fsync policy, recovery. Default-off (dir empty) — the replay then
  /// runs exactly the PR 7 path.
  DurabilityConfig durability;
  /// Observability side-channel (DESIGN.md §15). NOT fingerprinted.
  ReplayObserver obs;
};

struct EpochStats {
  Time start = 0;
  Time end = 0;
  std::uint32_t admits = 0;
  std::uint32_t rejects = 0;
  std::uint32_t leaves = 0;
  ChurnStats churn;              ///< churn incurred within this epoch
  OverloadStats overload;        ///< ladder decisions within this epoch
  std::size_t resident = 0;      ///< at epoch end
  std::size_t shed_resident = 0;     ///< shed set size at epoch end
  std::size_t degraded_resident = 0; ///< degraded residents at epoch end
  double utilization = 0.0;      ///< at epoch end
  bool validated = false;
  bool fault_active = false;     ///< a fault window overlapped this epoch
  std::uint64_t sim_misses = 0;
  std::uint64_t hard_misses = 0;  ///< misses attributed to HARD tasks

  friend bool operator==(const EpochStats&, const EpochStats&) = default;
};

struct ReplayResult {
  std::vector<EpochStats> epochs;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t leaves = 0;
  ChurnStats churn;
  OverloadStats overload;
  /// Shed tasks still awaiting re-admission when the replay ended.
  std::size_t shed_outstanding = 0;
  partition::AdmitStats admission;
  partition::Partition final_partition;
  /// Durability outcome (only meaningful when cfg.durability.enabled()).
  /// A non-ok error means the replay ABORTED — the stats above cover
  /// only what ran before the failure, and the rows of the batch that
  /// had not flushed yet are left unvalidated (as after a halt).
  RecoveryInfo recovery;
  DurabilityError durability_error;

  [[nodiscard]] double acceptance_ratio() const {
    const std::uint64_t n = admits + rejects;
    return n == 0 ? 1.0 : static_cast<double>(admits) /
                              static_cast<double>(n);
  }
  /// Fixed-width per-epoch table for the CLI.
  [[nodiscard]] std::string Table() const;
};

/// Decision identity (DESIGN.md §12): the name of the first decision
/// field in which `a` and `b` differ, or empty when the two replays
/// decided the same. Compared: epochs, admits, rejects, leaves, churn,
/// overload, shed_outstanding, the admission decision counters
/// (util_rejects, density_accepts, full_tests) and the exact
/// final_partition. Memo counters are cache state and recovery /
/// durability_error describe the run, not its decisions; all are
/// excluded. Defined in its own source file: only tests and benches
/// call it, so no product binary links it.
std::string_view DecisionDiff(const ReplayResult& a, const ReplayResult& b);

/// Fold one stream through a fresh controller. Pure in (stream, cfg).
ReplayResult ReplayStream(const WorkloadStream& s, const ReplayConfig& cfg);

/// The replay's scattered counters (admission, overload ladder, churn,
/// durability recovery) as one stats snapshot (obs/registry.hpp) under
/// stable names. Deterministic: identical results produce identical
/// snapshots — `--stats-out` is byte-compared across profile on/off in
/// CI.
obs::StatsSnapshot ReplayStatsSnapshot(const ReplayResult& r);

/// Replay independent streams over the worker pool (jobs as in
/// util::ParallelFor: 1 = serial, 0 = hardware). Stream i's result is
/// identical for every job count — each replay owns its controller and
/// derives its validation seeds from (cfg.seed, i).
std::vector<ReplayResult> ReplayBatch(std::span<const WorkloadStream> streams,
                                      const ReplayConfig& cfg,
                                      unsigned jobs = 1);

}  // namespace sps::online
