#pragma once
// Run-time overhead model (paper §3).
//
// The paper measures, on an Intel Core-i7 quad-core running the patched
// Linux 2.6.32 scheduler:
//
//   Table 1 — maximal duration of a single queue operation (µs):
//     operation            local(N=4) remote(N=4) local(N=64) remote(N=64)
//     sleep queue  add        2.5        2.9         4.3         4.4
//     sleep queue  delete     3.3        N/A         5.8         N/A
//     ready queue  add        1.5        3.3         4.4         4.6
//     ready queue  delete     2.7        N/A         4.6         N/A
//
//   "delete" is only ever local: a core pops work from its *own* queues.
//   "remote add" happens when a split task's body subtask migrates (insert
//   into the destination core's ready queue) or a tail subtask finishes
//   (insert into the first core's sleep queue).
//
//   Pure handler execution times: release() = 3 µs, sch() = 5 µs,
//   cnt_swth() = 1.5 µs.
//
//   The paper condenses Table 1 into two parameters: delta = worst ready-
//   queue op, theta = worst sleep-queue op (N=4: delta = theta = 3.3 µs;
//   N=64: delta = 4.6 µs, theta = 5.8 µs).
//
// This model reproduces all of that and interpolates between the two
// published queue sizes with an a + b*log2(N) law (both queue structures
// are O(log N)). `OverheadModel::PaperCoreI7()` is the paper's machine;
// `Calibrate()` (calibrate.hpp) fills the same structure from live
// measurements of this library's own queue implementations.
//
// Each `OpCost::at` works out a log2 and two roundings, so the
// simulators do not call the accessors per event: a core's queue size N
// is static, and `OverheadModel::Charges(N)` builds the `QueueCharges`
// row each kernel reads from (DESIGN.md §9). The analysis calls the
// accessors directly.

#include <cstddef>

#include "rt/time.hpp"

namespace sps::overhead {

/// Cost of one queue operation at the two queue sizes the paper reports.
/// Interpolated/extrapolated log-linearly elsewhere.
struct OpCost {
  Time at_n4 = 0;
  Time at_n64 = 0;

  /// Cost at queue size n, clamped to be non-negative; log-linear in n
  /// through the two anchors (exact at n = 4 and n = 64).
  [[nodiscard]] Time at(std::size_t n) const;
};

/// Every charge the simulators make at one queue size n, each with the
/// exact bits of the accessor named beside it. A kernel builds one row
/// per core (per shared queue pair in the global engine) when it is
/// constructed; its event loop reads only these.
struct QueueCharges {
  Time release = 0;         ///< release_overhead(n)
  Time sched = 0;           ///< sched_overhead(n, false)
  Time sched_preempt = 0;   ///< sched_overhead(n, true)
  Time sched_keep = 0;      ///< scaled(sched_exec): sch() kept its job
  Time ctxsw_in = 0;        ///< ctxsw_in_overhead()
  Time finish_normal = 0;   ///< finish_overhead_normal(n)
  Time finish_tail = 0;     ///< finish_overhead_tail(n): n of the first core
  Time migrate = 0;         ///< migrate_overhead(n): n of the destination
  Time cpmd_local = 0;      ///< cpmd(false)
  Time cpmd_migration = 0;  ///< cpmd(true)
};

struct OverheadModel {
  // Queue operations (Table 1).
  OpCost ready_add_local;
  OpCost ready_add_remote;
  OpCost ready_del_local;
  OpCost sleep_add_local;
  OpCost sleep_add_remote;
  OpCost sleep_del_local;

  // Pure handler execution times (§3 text).
  Time release_exec = 0;  ///< release() body, excluding queue access
  Time sched_exec = 0;    ///< sch() body
  Time ctxsw_exec = 0;    ///< cnt_swth() body

  // Cache-related preemption/migration delay (§3 "cache"). The paper's
  // finding: local and migration delays are the same order of magnitude
  // for realistic working sets (shared L3 backstop).
  Time cpmd_local = 0;      ///< resume after a local preemption
  Time cpmd_migration = 0;  ///< resume on a different core

  /// Uniform scale factor, used by the overhead-sensitivity experiment
  /// (E6). All accessors below apply it.
  double scale = 1.0;

  // -- Derived quantities (all scaled) -----------------------------------

  /// delta of the paper: worst-case single ready-queue operation at size n.
  [[nodiscard]] Time delta(std::size_t n) const;
  /// theta of the paper: worst-case single sleep-queue operation at size n.
  [[nodiscard]] Time theta(std::size_t n) const;

  /// rls: the full timer-release path = sleep-queue delete (the timer
  /// handler pops the task from this core's sleep queue) + release() body
  /// + local ready-queue insert.
  [[nodiscard]] Time release_overhead(std::size_t n) const;

  /// sch: scheduling overhead = sch() body + ready-queue pop, plus a
  /// ready-queue re-insert when the decision preempts a running task.
  [[nodiscard]] Time sched_overhead(std::size_t n, bool preemption) const;

  /// cnt1: context-switch-in overhead (store + load contexts).
  [[nodiscard]] Time ctxsw_in_overhead() const;

  /// cnt2 for a normal task that finished: switch + local sleep insert.
  [[nodiscard]] Time finish_overhead_normal(std::size_t n) const;

  /// cnt2 for a body subtask whose budget ran out: switch + insert into
  /// the *destination* core's ready queue (remote add).
  [[nodiscard]] Time migrate_overhead(std::size_t n_dest) const;

  /// cnt2 for a tail subtask that finished: switch + insert into the
  /// *first* core's sleep queue (remote add).
  [[nodiscard]] Time finish_overhead_tail(std::size_t n_first) const;

  [[nodiscard]] Time cpmd(bool migration) const;

  [[nodiscard]] Time scaled(Time t) const {
    return static_cast<Time>(static_cast<double>(t) * scale + 0.5);
  }

  /// Every simulator charge at queue size n, from the accessors above.
  [[nodiscard]] QueueCharges Charges(std::size_t n) const;

  // -- Factories ----------------------------------------------------------

  /// The paper's published measurements (Intel Core-i7, Linux 2.6.32).
  static OverheadModel PaperCoreI7();

  /// All-zero model: recovers overhead-oblivious (purely theoretical)
  /// schedulability analysis.
  static OverheadModel Zero();

  /// PaperCoreI7 scaled by `factor` (sensitivity experiment E6).
  static OverheadModel PaperScaled(double factor);
};

}  // namespace sps::overhead
