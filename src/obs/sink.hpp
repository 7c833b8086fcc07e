#pragma once
// The kernel's observability policy slot (DESIGN.md §10). Like the event
// queue, the sink is a compile-time template parameter of KernelBase:
//
//   * NullSink — every hook is an empty inline function and
//     kActive == false lets the kernel's call sites compile away
//     entirely (`if constexpr`), so a non-recording simulation pays
//     EXACTLY what it paid before the subsystem existed. This is the
//     path every sweep/bench/acceptance run takes.
//   * RecordSink — instantiated only when a run asks for a trace or for
//     metrics. Appends stamped events to a TraceBuffer
//     (obs/trace_buffer.hpp) and accumulates streaming metrics
//     (obs/metrics.hpp) into fixed preallocated storage. One sink per
//     kernel: a partitioned run gives each core group's kernel its own
//     and merges afterwards, so recording needs no locks.
//
// Trace and metrics recording are independent runtime switches WITHIN
// RecordSink (one extra branch per hook on the already-recording path);
// only the null/recording split is compile-time, keeping the engines'
// instantiation count at 2x instead of 4x.

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_buffer.hpp"
#include "rt/time.hpp"
#include "trace/trace.hpp"

namespace sps::obs {

struct SinkConfig {
  bool trace = false;
  bool metrics = false;
  std::size_t num_tasks = 0;
  std::uint32_t num_cores = 1;
  Time horizon = 0;
};

/// The zero-overhead default. Methods mirror RecordSink's; kActive lets
/// the kernel skip even argument evaluation.
class NullSink {
 public:
  static constexpr bool kActive = false;
  explicit NullSink(const SinkConfig&) {}
  [[nodiscard]] static constexpr bool tracing() { return false; }
  [[nodiscard]] static constexpr bool metrics() { return false; }
  void BeginDispatch(std::uint64_t, bool, std::size_t, std::uint64_t) {}
  void Record(const trace::Event&) {}
  void OnExec(std::uint32_t, Time, Time) {}
  void OnOverhead(std::uint32_t, Time, Time) {}
  void OnCompletion(std::size_t, Time, Time) {}
  void CloseSpan() {}
};

class RecordSink {
 public:
  static constexpr bool kActive = true;

  explicit RecordSink(const SinkConfig& cfg) : cfg_(cfg) {
    if (cfg_.trace) {
      core_chain_.resize(cfg.num_cores);
      task_chain_.resize(cfg.num_tasks);
    }
    if (cfg_.metrics) {
      met_.tasks.resize(cfg.num_tasks);
      met_.cores.resize(cfg.num_cores);
      core_clock_.resize(cfg.num_cores, 0);
    }
  }

  [[nodiscard]] bool tracing() const { return cfg_.trace; }
  [[nodiscard]] bool metrics() const { return cfg_.metrics; }

  // ---- trace pillar ------------------------------------------------------

  /// Called by the kernel before every traced Dispatch. `core_keyed`
  /// selects the tiebreak space, `local` the kernel's own index of the
  /// subject (its chain counter) and `global` the subject's index in the
  /// whole run (the stamp's tiebreak; see obs/trace_buffer.hpp for why
  /// the stamp is a shard-invariant total order).
  void BeginDispatch(std::uint64_t key, bool core_keyed, std::size_t local,
                     std::uint64_t global) {
    Chain& c = core_keyed ? core_chain_[local] : task_chain_[local];
    if (c.last_key == key) {
      ++c.chain;
    } else {
      c.last_key = key;
      c.chain = 0;
    }
    cur_ = Stamp{key, global, c.chain, 0};
  }

  void Record(const trace::Event& e) {
    buffer_.Append(cur_, e);
    ++cur_.ordinal;
  }

  [[nodiscard]] TraceBuffer&& TakeBuffer() { return std::move(buffer_); }

  // ---- metrics pillar ----------------------------------------------------

  /// An execution interval [t0, t1] on `core` (task code, CPMD included).
  void OnExec(std::uint32_t core, Time t0, Time t1) {
    AddInterval(core, t0, t1, &CoreMetrics::busy);
  }

  /// An overhead window of length `dur` starting at t0 on `core`.
  void OnOverhead(std::uint32_t core, Time t0, Time dur) {
    AddInterval(core, t0, t0 + dur, &CoreMetrics::overhead);
  }

  void OnCompletion(std::size_t task, Time response, Time tardiness) {
    if (!cfg_.metrics) return;
    TaskMetrics& t = met_.tasks[task];
    t.response.Add(response);
    if (tardiness > 0) {
      t.tardiness.Add(tardiness);
      t.max_tardiness = std::max(t.max_tardiness, tardiness);
    }
  }

  /// Close the per-core accounting: fill trailing idle up to the
  /// horizon, so that busy + overhead + idle == span holds.
  void CloseSpan() {
    if (!cfg_.metrics) return;
    const Time span = cfg_.horizon;
    for (std::size_t i = 0; i < core_clock_.size(); ++i) {
      if (span > core_clock_[i]) {
        met_.cores[i].idle += span - core_clock_[i];
        core_clock_[i] = span;
      }
    }
    met_.span = span;
  }

  [[nodiscard]] RunMetrics&& TakeMetrics() { return std::move(met_); }

 private:
  struct Chain {
    std::uint64_t last_key = ~0ull;
    std::uint32_t chain = 0;
  };

  /// Book a clamped interval into `field`, accumulating the idle gap
  /// since the previous activity. Intervals arrive begin-ordered and
  /// non-overlapping per core (the kernel's per-core timeline is a
  /// chain of exec segments and overhead windows); booking the FULL
  /// interval — rather than only the part past the core clock — is what
  /// makes the conservation invariant a real check of hook placement.
  void AddInterval(std::uint32_t core, Time t0, Time t1,
                   Time CoreMetrics::*field) {
    if (!cfg_.metrics) return;
    const Time b = std::min(t0, cfg_.horizon);
    const Time e = std::min(t1, cfg_.horizon);
    Time& clock = core_clock_[core];
    assert(b >= clock && "overlapping per-core activity intervals");
    if (b > clock) met_.cores[core].idle += b - clock;
    if (e > b) met_.cores[core].*field += e - b;
    clock = std::max(clock, e);
  }

  SinkConfig cfg_;
  TraceBuffer buffer_;
  Stamp cur_;
  std::vector<Chain> core_chain_;
  std::vector<Chain> task_chain_;
  RunMetrics met_;
  std::vector<Time> core_clock_;  ///< end of the last booked activity
};

}  // namespace sps::obs
