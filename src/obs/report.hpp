#pragma once
// MetricsReport (DESIGN.md §10): the exportable assembly of one run's
// observability data — SimResult counters joined with the streaming
// metrics (histograms, occupancy rows) into a flat document with JSON
// and CSV writers. This is the layer above the kernel: obs/metrics.hpp
// stays sim-free so SimResult can embed RunMetrics; this header depends
// on the kernel types and nothing depends back on it.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "rt/task.hpp"
#include "rt/time.hpp"
#include "sim/kernel.hpp"

namespace sps::obs {

struct MetricsReport {
  struct TaskRow {
    rt::TaskId id = 0;
    std::uint64_t released = 0;
    std::uint64_t completed = 0;
    std::uint64_t deadline_misses = 0;
    std::uint64_t shed = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t migrations = 0;
    Time max_response = 0;
    double avg_response = 0.0;
    /// Log2-histogram quantiles (bucket upper bounds; factor-of-two
    /// resolution — see LogHistogram::Quantile).
    Time p50_response = 0;
    Time p99_response = 0;
    Time max_tardiness = 0;
    LogHistogram response;
    LogHistogram tardiness;

    bool operator==(const TaskRow&) const = default;
  };
  struct CoreRow {
    std::uint32_t core = 0;
    Time busy = 0;      ///< wall occupancy by task code (CPMD included)
    Time overhead = 0;  ///< wall occupancy by scheduler overhead
    Time idle = 0;      ///< busy + overhead + idle == span
    Time cpmd = 0;      ///< CPMD portion inside busy (booked progress)
    std::uint64_t context_switches = 0;

    bool operator==(const CoreRow&) const = default;
  };

  /// The span the per-core rows cover: the horizon (see
  /// obs::RunMetrics::span).
  Time span = 0;
  std::uint64_t total_misses = 0;
  std::vector<TaskRow> tasks;
  std::vector<CoreRow> cores;

  [[nodiscard]] std::string ToJson() const;
  /// One row per task / per core; headers included. Two tables because
  /// the row schemas differ.
  [[nodiscard]] std::string TaskCsv() const;
  [[nodiscard]] std::string CoreCsv() const;

  bool operator==(const MetricsReport&) const = default;
};

/// Join a SimResult that carries metrics (SimConfig::record_metrics)
/// into a report. Requires r.metrics.enabled().
[[nodiscard]] MetricsReport BuildMetricsReport(const sim::SimResult& r);

}  // namespace sps::obs
