#pragma once
// Global multiprocessor scheduler — the paper's introduction contrasts
// semi-partitioned scheduling with the GLOBAL approach ("each task can
// execute on any available processor at run time"); this engine makes the
// comparison executable. One shared ready queue feeds all cores; at any
// instant the m highest-key ready/running jobs occupy the m cores, and
// jobs migrate freely at dispatch time. Inactive tasks wait in one shared
// sleep queue keyed by next release, mirroring the partitioned engine's
// structure (and the release_overhead charge, which already prices the
// sleep-queue delete).
//
// Policies: global RM (fixed priorities) and global EDF (absolute
// deadlines). Overheads use the same model as the partitioned engine;
// a job that resumes on a different core than it last ran pays the
// migration CPMD, matching §3's local-vs-migration distinction. Release
// interrupts are handled by a fixed per-task core (task id mod m), the
// usual staggered-timer-affinity arrangement.
//
// Like the partitioned engine, this one is a thin POLICY on the shared
// kernel (sim/kernel.hpp). Its queues are the paper's fixed pair
// (binomial-heap ready queue, RB-tree sleep queue): the DESIGN.md §6 queue
// ablation concerns the partitioned engine's per-core queues, and this
// engine exists only for the contrast with global scheduling.
//
// The Dhall effect (tests/test_global.cpp, bench_global_vs_partitioned)
// falls straight out of this engine: m tiny tasks + one heavy task miss
// deadlines under global RM on every m, while any partitioned placement
// is trivially schedulable — the paper's opening argument.

#include "overhead/model.hpp"
#include "rt/taskset.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"

namespace sps::sim {

enum class GlobalPolicy {
  kGlobalRm,   ///< fixed RM priorities, globally highest-priority-first
  kGlobalEdf,  ///< earliest absolute deadline first
};

struct GlobalSimConfig {
  unsigned num_cores = 4;
  Time horizon = Millis(1000);
  overhead::OverheadModel overheads = overhead::OverheadModel::Zero();
  ExecModel exec = {};
  ArrivalModel arrivals = {};
  GlobalPolicy policy = GlobalPolicy::kGlobalRm;
  bool record_trace = false;
  /// Streaming metrics, as in SimConfig (DESIGN.md §10): per-task
  /// response/tardiness histograms + per-core busy/overhead/idle rows in
  /// SimResult::metrics.
  bool record_metrics = false;
};

/// Run the task set under global scheduling. Requires assigned priorities
/// for kGlobalRm. Returns the same statistics structure as the
/// partitioned engine (migrations here count every resume on a different
/// core than the job last ran on). The canonical trace / metrics land
/// in SimResult (record_trace / record_metrics), as in Simulate.
SimResult SimulateGlobal(const rt::TaskSet& ts, const GlobalSimConfig& cfg);

}  // namespace sps::sim
