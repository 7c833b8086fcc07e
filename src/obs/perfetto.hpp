#pragma once
// Chrome trace-event exporter (DESIGN.md §10): turns a simulator trace
// into the JSON array format that Perfetto (ui.perfetto.dev) and
// chrome://tracing load directly — one named track per core, execution
// and overhead slices as complete ("X") events, scheduler happenings
// (release / deadline miss / migration / shed) as instants, and COUNTER
// ("C") tracks: per-core ready-queue depth and in-flight job count
// (approximating the job arena's occupancy) derived deterministically
// from the event stream, plus any caller-supplied series (the online
// subsystem exports churn / resident-count / utilization per epoch this
// way). The third way to look at a run, next to the ASCII Gantt and the
// CSV dump (trace/gantt.hpp), and the one that survives zooming into a
// million-event trace.

#include <string>
#include <utility>
#include <vector>

#include "rt/time.hpp"
#include "trace/trace.hpp"

namespace sps::obs {

/// One counter track: (timestamp, value) points, emitted in order as
/// Chrome counter events. The exporter derives the per-core tracks
/// itself; this is the vehicle for EXTRA series (e.g. the online
/// controller's churn per epoch).
struct CounterSeries {
  std::string name;
  std::vector<std::pair<Time, double>> points;
};

struct PerfettoOptions {
  /// Number of core tracks to declare; 0 = infer from the events.
  unsigned num_cores = 0;
  /// Process name shown in the UI.
  std::string process_name = "sps simulation";
  /// Derive per-core "ready depth" / "jobs in flight" counter tracks
  /// from the event stream (ROADMAP observability item). Depth counts
  /// jobs that are ready but not running (release / migrate-in /
  /// preempt add one; start removes one); jobs-in-flight counts
  /// released-but-unfinished jobs on the core — the arena-occupancy
  /// proxy (the kernel recycles a job's slab slot at the task's next
  /// release).
  bool counter_tracks = true;
  /// Extra counter tracks appended verbatim (points must be
  /// time-ordered for a deterministic document).
  std::vector<CounterSeries> extra_counters;
};

/// Serialize the (dispatch-ordered) event stream to Chrome trace-event
/// JSON. Deterministic: a byte-identical event stream yields a
/// byte-identical document (golden-file tested). The track count is
/// max(opt.num_cores, highest event core + 1, 1). Derived counter events
/// are buffered beside the slices and spliced after them, then the
/// extra series follow.
[[nodiscard]] std::string ToPerfettoJson(
    const std::vector<trace::Event>& events,
    const PerfettoOptions& opt = {});

/// Convenience: serialize and write to `path`. Returns success; on
/// failure a non-null `error` receives the failing path and errno.
[[nodiscard]] bool WritePerfettoJson(const std::vector<trace::Event>& events,
                                     const std::string& path,
                                     const PerfettoOptions& opt = {},
                                     std::string* error = nullptr);

}  // namespace sps::obs
