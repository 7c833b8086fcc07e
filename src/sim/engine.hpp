#pragma once
// Discrete-event multicore scheduler simulator — the user-space stand-in
// for the paper's Linux 2.6.32 kernel patch (§2). It executes exactly the
// scheduler design the paper describes:
//
//   * per-core READY queue (priority-ordered; binomial heap by default)
//     and SLEEP queue (keyed by wake-up time; red-black tree by default)
//     — the very container implementations from src/containers. Either
//     role takes either structure via SimConfig::ready_backend /
//     sleep_backend: 2 x 2 pairs x 2 sinks = 8 engine instantiations
//     (the DESIGN.md §6 ablation runs whole simulations per backend);
//   * normal tasks released / executed / put to sleep on one fixed core;
//   * split tasks carrying a per-core budget: when a BODY subtask's budget
//     runs out, the job is inserted into the NEXT core's ready queue and
//     that core's scheduler is triggered; when the TAIL subtask finishes,
//     the task returns to the sleep queue of the core hosting the FIRST
//     subtask (paper §2, last paragraph, verbatim behaviour);
//   * every scheduler action burns core time per the OverheadModel:
//     rls (sleep-del + release() + ready-add), sch (selection, requeue on
//     preemption), cnt1 (switch-in), cnt2 (three finish cases), and CPMD
//     charged as extra execution when a preempted/migrated job resumes
//     (Figure 1's "cache" segment).
//
// Every run proceeds to its horizon: a deadline miss is counted, never
// a reason to stop, so all shard counts share one code path.
//
// The engine is fully deterministic: integer nanosecond time, seeded
// execution-time model, stable event ordering — and, because every queue
// backend implements the same FIFO-among-ties total order, the results
// are bit-identical across backends (tests/test_queue_concept.cpp).
//
// The event-processing machinery itself (event queue, overhead charging,
// statistics) lives in sim/kernel.hpp and is shared with the global
// engine; this engine contributes the semi-partitioned POLICY. The
// kernel's event queue is one fixed sorted vector (kernel::EventQueue),
// not a backend knob: only the per-core ready/sleep queues — the paper's
// Table-1 subjects — are selectable. Events pop in a total order (packed
// time/kind key, then insertion order), so any correct FIFO-stable queue
// would replay the same run (DESIGN.md §5, §9).

#include <cstdint>
#include <string>
#include <vector>

#include "containers/queue_traits.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "rt/time.hpp"
#include "sim/kernel.hpp"
#include "trace/trace.hpp"

namespace sps::sim {

struct SimConfig {
  Time horizon = Millis(1000);
  overhead::OverheadModel overheads = overhead::OverheadModel::Zero();
  ExecModel exec = {};
  ArrivalModel arrivals = {};
  /// Record the scheduler event stream (DESIGN.md §10). The canonical
  /// trace lands in SimResult::trace_events — byte-identical for every
  /// shard count (each core group records into its own buffer, merged by
  /// the deterministic stamped k-way merge).
  bool record_trace = false;
  /// Record streaming metrics (SimResult::metrics): per-task log2
  /// response/tardiness histograms, per-core busy/overhead/idle wall
  /// accounting. Alloc-free accumulation, shard-invariant like the
  /// trace. obs::BuildMetricsReport turns the result into an exportable
  /// JSON/CSV report.
  bool record_metrics = false;
  /// Queue backends (DESIGN.md §6 ablation): which container implements
  /// each per-core queue. Defaults are the paper's choices.
  containers::QueueBackend ready_backend =
      containers::QueueBackend::kBinomialHeap;
  containers::QueueBackend sleep_backend = containers::QueueBackend::kRbTree;
  /// Maximum threads for ONE simulation (DESIGN.md §9): each of the
  /// partition's core groups — cores joined by split tasks — runs as its
  /// own kernel, and at most this many threads claim groups. 1 = the
  /// groups one after another on the caller, 0 = one thread per
  /// hardware thread, N = at most N threads (the caller counts as one).
  /// Results are BIT-IDENTICAL for every value
  /// (tests/test_queue_concept.cpp) — including recorded traces and
  /// metrics (DESIGN.md §10).
  unsigned shards = 1;
  /// Per-task admission generations, indexed by the task's position in
  /// the partition (ascending id for online-controller partitions;
  /// missing entries = 0). Generation g != 0 salts that task's
  /// exec/arrival RNG streams so a departed-and-readmitted task never
  /// resumes its old incarnation's draw position; generation 0 is
  /// bit-identical to leaving the field empty (DESIGN.md §13).
  std::vector<std::uint32_t> exec_generations;
};

/// Run the partition under the config. The canonical trace / metrics
/// land in SimResult (record_trace / record_metrics).
SimResult Simulate(const partition::Partition& p, const SimConfig& cfg);

/// One core group (DESIGN.md §9): cores joined by split tasks (a
/// connected component over PlacedTask::parts) and the tasks placed on
/// them. No event ever crosses between groups, so Simulate runs each as
/// its own kernel.
struct CoreGroup {
  std::vector<partition::CoreId> cores;  ///< ascending
  /// Indices into Partition::tasks, ascending.
  std::vector<std::size_t> tasks;
};

/// The partition's core groups, ordered by lowest core. Every core is in
/// exactly one group (a core without tasks is a group of its own); the
/// result is a pure function of the partition.
std::vector<CoreGroup> CoreGroups(const partition::Partition& p);

}  // namespace sps::sim
