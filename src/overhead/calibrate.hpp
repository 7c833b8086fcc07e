#pragma once
// Live calibration: measure THIS library's queue single-operation
// latencies, reproducing the measurement protocol behind Table 1 of the
// paper. The measured containers default to the paper's choices (binomial
// heap ready queue, red-black-tree sleep queue) and are selectable per
// CalibrationConfig::ready_backend / sleep_backend; measurement goes
// through the same queue concept the simulator schedules with, so the
// timed code path IS the scheduler's code path.
//
// Protocol (mirrors §3 of the paper):
//   * For each operation kind, queue size N is held at 4 or 64; one
//     add/delete is timed in isolation; the MAXIMUM over `samples`
//     repetitions is reported (the paper reports "maximal measured
//     duration").
//   * "local"  — the queue's nodes are warm in this core's cache, the
//     normal case of a core operating on its own queues.
//   * "remote" — in the kernel the cost of touching ANOTHER core's queue is
//     cache-coherence misses on the queue nodes (plus lock transfer). In
//     user space (and on a single-core CI box) we reproduce the dominant
//     term by evicting the queue's nodes from the private cache levels
//     before the timed op, so every pointer chase misses to shared
//     cache/DRAM exactly as a cross-core access would.
//   * Deletes are only measured locally (a core never pops a remote
//     queue), matching the N/A cells of the paper's table.
//
// Absolute numbers will differ from the paper's kernel-space Core-i7
// values; what must reproduce is the SHAPE: costs grow ~log N, remote >=
// local, and everything stays in the handful-of-microseconds band that
// makes semi-partitioning cheap. EXPERIMENTS.md E1 records both.

#include <cstddef>

#include "containers/queue_traits.hpp"
#include "overhead/model.hpp"
#include "overhead/table1.hpp"

namespace sps::overhead {

struct CalibrationConfig {
  /// Repetitions per (operation, size, locality) cell; the max is kept
  /// after the top 1% are dropped as timer outliers (interrupts etc.).
  int samples = 2000;
  /// Which containers to measure. Defaults are the paper's choices; the
  /// ablation sweeps these. Measurement goes through the same queue
  /// concept (containers/queue_traits.hpp) the simulator schedules with.
  containers::QueueBackend ready_backend =
      containers::QueueBackend::kBinomialHeap;
  containers::QueueBackend sleep_backend = containers::QueueBackend::kRbTree;
};

/// Measure the queue-operation half of Table 1 on this machine.
Table1 MeasureTable1(const CalibrationConfig& cfg = {});

/// Measured pure handler costs of this library's simulator handlers
/// (release / schedule / context switch bodies, queue access excluded),
/// the analog of the paper's 3 / 5 / 1.5 µs.
struct HandlerCosts {
  Time release_exec = 0;
  Time sched_exec = 0;
  Time ctxsw_exec = 0;
};

HandlerCosts MeasureHandlerCosts(const CalibrationConfig& cfg = {});

/// Full calibration: Table 1 measurement + handler costs folded into an
/// OverheadModel ready for the analysis layer. CPMD fields are filled from
/// the analytical cache model's default working set (see cache/cpmd.hpp).
OverheadModel Calibrate(const CalibrationConfig& cfg = {});

/// Build an OverheadModel from an arbitrary Table1 + handler costs
/// (used both by Calibrate() and to reconstruct the paper's model).
OverheadModel ModelFromMeasurements(const Table1& t, const HandlerCosts& h,
                                    Time cpmd_local, Time cpmd_migration);

}  // namespace sps::overhead
