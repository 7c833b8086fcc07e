#pragma once
// Streaming per-run metrics (DESIGN.md §10): fixed-bucket log2 histograms
// of response time and tardiness per task, and wall-occupancy accounting
// (busy / overhead / idle) per core. Everything here is accumulated
// ONLINE by the recording sink (obs/sink.hpp) — plain integer adds into
// fixed-size storage, no allocation on the simulation hot path. A
// partitioned run takes every core's and task's rows from the kernel of
// its core group, so it reports the same metrics for every shard count
// (the same determinism contract as SimResult itself).
//
// This header is layering-bottom: it depends only on rt/time.hpp so the
// kernel can embed RunMetrics in SimResult without a cycle. Assembly of
// metrics + SimResult stats into an exportable document lives in
// obs/report.hpp.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "rt/time.hpp"

namespace sps::obs {

/// Number of log2 buckets. Bucket i holds values v with bit_width(v) == i
/// (v in nanoseconds), i.e. v in [2^(i-1), 2^i); bucket 0 holds v <= 0.
/// 2^(kHistBuckets-1) ns ≈ 9.1 minutes — far past any response time a
/// bounded-horizon simulation can produce; larger values saturate into
/// the last bucket rather than being dropped.
inline constexpr std::size_t kHistBuckets = 40;

/// Fixed-storage log2 histogram. Add() is a shift + increment; merging is
/// element-wise addition (order-insensitive, hence shard-safe).
struct LogHistogram {
  std::array<std::uint64_t, kHistBuckets> buckets{};

  void Add(Time v) {
    const std::size_t b =
        v <= 0 ? 0
               : std::min<std::size_t>(
                     std::bit_width(static_cast<std::uint64_t>(v)),
                     kHistBuckets - 1);
    ++buckets[b];
  }

  [[nodiscard]] std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const std::uint64_t b : buckets) n += b;
    return n;
  }

  /// Upper bound of the bucket holding the q-quantile sample (q in
  /// [0,1]). Log2 resolution: the answer is exact to within a factor of
  /// two, which is what a schedulability dashboard needs (orders of
  /// magnitude, not microseconds). Returns 0 for an empty histogram.
  [[nodiscard]] Time Quantile(double q) const;

  LogHistogram& operator+=(const LogHistogram& o) {
    for (std::size_t i = 0; i < kHistBuckets; ++i) buckets[i] += o.buckets[i];
    return *this;
  }
  /// Delta against an earlier snapshot of the SAME monotone histogram
  /// (sps_cli's per-epoch and heartbeat --profile columns); saturates
  /// at zero so a mismatched pair cannot underflow.
  LogHistogram& operator-=(const LogHistogram& o) {
    for (std::size_t i = 0; i < kHistBuckets; ++i) {
      buckets[i] -= std::min(buckets[i], o.buckets[i]);
    }
    return *this;
  }
  bool operator==(const LogHistogram&) const = default;
};

/// Per-task streaming metrics: one Add() per completed job.
struct TaskMetrics {
  LogHistogram response;   ///< completion - release, every completed job
  LogHistogram tardiness;  ///< completion - deadline, late completions only
  Time max_tardiness = 0;

  TaskMetrics& operator+=(const TaskMetrics& o) {
    response += o.response;
    tardiness += o.tardiness;
    max_tardiness = std::max(max_tardiness, o.max_tardiness);
    return *this;
  }
  bool operator==(const TaskMetrics&) const = default;
};

/// Per-core wall-occupancy over the observed span (the horizon): every
/// nanosecond of the span is exactly one of busy (task code incl. CPMD — including the
/// truncated in-flight segment at the span end, which SimResult's
/// booked-progress busy_exec excludes), overhead (rls/sch/cnt1/cnt2
/// windows, clamped to the span), or idle (gap-accumulated between
/// activities). busy + overhead + idle == span is the §10 conservation
/// invariant, checked in tests/test_obs.cpp.
struct CoreMetrics {
  Time busy = 0;
  Time overhead = 0;
  Time idle = 0;

  bool operator==(const CoreMetrics&) const = default;
};

/// The metrics slice of a run, surfaced in sim::SimResult. Empty (both
/// vectors) unless the run was configured to record metrics.
struct RunMetrics {
  std::vector<TaskMetrics> tasks;
  std::vector<CoreMetrics> cores;
  /// The observed span the per-core accounting covers: the horizon.
  Time span = 0;

  [[nodiscard]] bool enabled() const { return !tasks.empty(); }
  bool operator==(const RunMetrics&) const = default;
};

}  // namespace sps::obs
