#pragma once
// Wall-clock span profiler for the online service pipeline (DESIGN.md
// §15-§16). A span wraps one stage of real work — a demand test, a
// ladder step, an epoch phase — and its record feeds every consumer
// from one per-thread shard (stages too cheap to time on every call are
// sampled, see SampledSpan):
//
//   * per-stage log2 histograms (always): "where does a million-request
//     replay spend its milliseconds" (p50/p99/p999 per stage), which the
//     deterministic sim-time metrics of §10 cannot see;
//   * when the profiler is built with TraceOptions (request tracing,
//     §16): the open request's parent-linked span tree, tail-sampled at
//     EndTrace — a finished trace is retained only when it is among the
//     K slowest by root duration (streaming bounded min-heap) or
//     "interesting" (walked the overload ladder, fell back to a full
//     repartition, or diverged from the journal; the K most recent) —
//     and the thread's flight ring (obs/flight.hpp), the black box a
//     crash dumps.
//
// The determinism firewall: wall-clock readings NEVER feed decision
// logic and never reach stdout or any byte-compared artifact — reports
// and trace exports go to stderr / their own files only. Trace ids
// derive from the request seq (DeriveSeed(seed, seq, kTraceIdAxis)), but
// retained membership depends on wall durations. The instrumented code
// reads the profiler through one thread-local install slot
// (InstalledProfiler()), so the analysis layer needs no config plumbing
// and nothing observability-related enters a fingerprinted config; with
// no profiler installed a span costs that load plus two branches (gated
// by bench_online's calm-path section).
//
// Threading: Record() is safe from any thread — each thread lazily
// claims its own shard under a mutex taken once per (thread, profiler)
// pair; the merged report is a commutative sum over shards. The same
// mutex guards the shared top-K / interesting reservoirs, touched once
// per FINISHED trace, not per span. The clock is injectable (ClockFn) so
// tests pin the output byte-for-byte under a fake clock.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace sps::obs {

/// The instrumented stages of the online pipeline. Histogram storage is
/// indexed by this enum; keep kCount last.
enum class SpanStage : std::uint8_t {
  kUtilScreen = 0,   ///< O(1) per-core utilization screen (sampled)
  kMemoProbe,        ///< analysis-memo key combine + lookup (sampled)
  kAnalysis,         ///< density screen + demand test (EDF) / LL/HYP/RTA (FP)
  kPlacement,        ///< controller placement walk for one admit
  kAdmitTotal,       ///< one ADMIT request end to end
  kLeave,            ///< one LEAVE request end to end
  kLadderDegrade,    ///< overload ladder: degrade step
  kLadderShed,       ///< overload ladder: shed step
  kFallback,         ///< full repartition fallback
  kEpochApply,       ///< epoch entry: retries, restores, overload react
  kEpochValidate,    ///< validation simulations of the standing partition
  kCheckpointWrite,  ///< durability checkpoint serialize + write
  kRecoveryRedo,     ///< recovery: checkpoint load + journal redo
  kCount
};

[[nodiscard]] const char* ToString(SpanStage s);

/// Seed-derivation axis for trace ids: trace_id =
/// util::DeriveSeed(replay seed, request seq, kTraceIdAxis).
inline constexpr std::uint64_t kTraceIdAxis = 0x7ACEull;

/// One node of a request's span tree. `parent` indexes the owning
/// trace's span array (-1 = root); children always have larger indices
/// (spans are appended in open order).
struct SpanRecord {
  std::uint64_t t0 = 0;
  std::uint64_t dur_ns = 0;
  std::int64_t attr = -1;  ///< stage-local attribute, -1 = none
  std::int32_t parent = -1;
  SpanStage stage = SpanStage::kCount;
};

/// One retained request trace (span tree + outcome).
struct RequestTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t seq = 0;
  bool is_admit = true;
  bool via_ladder = false;
  bool via_fallback = false;
  bool diverged = false;
  bool slow = false;  ///< retained by the top-K rule (else: interesting)
  std::uint64_t root_dur_ns = 0;  ///< admit_total / leave wall duration
  std::vector<SpanRecord> spans;  ///< index 0 is the root
};

struct CounterSeries;  // obs/perfetto.hpp

class SpanProfiler {
 public:
  /// Nanosecond wall clock; nullptr = std::chrono::steady_clock.
  using ClockFn = std::uint64_t (*)();

  /// Flight-ring slots per tracing thread.
  static constexpr std::uint32_t kFlightSlots = 256;

  /// Request tracing, fixed at construction.
  struct TraceOptions {
    /// Tail-sampling K: slowest-K traces retained, and at most K most
    /// recent "interesting" ones. 0 disables retention (spans still
    /// feed the flight ring).
    std::uint32_t top_k = 32;
    /// Directory flight-<pid>.json dumps land in.
    std::string flight_dir = ".";
  };

  /// Histograms only.
  explicit SpanProfiler(ClockFn clock = nullptr);
  /// Histograms plus request trees and flight rings.
  explicit SpanProfiler(TraceOptions trace, ClockFn clock = nullptr);
  ~SpanProfiler();

  [[nodiscard]] std::uint64_t NowNs() const { return clock_(); }
  [[nodiscard]] bool tracing() const { return tracing_; }

  /// Record one completed span that started at `t0`. `slot` is the
  /// span's tree slot from ScopedSpan (-1 = not in a tree); with tracing
  /// on, every record also reaches this thread's flight ring.
  void Record(SpanStage stage, std::uint64_t t0, std::uint64_t dur_ns,
              int slot = -1);

  struct StageReport {
    SpanStage stage = SpanStage::kCount;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    Time p50 = 0, p99 = 0, p999 = 0;  ///< log2-bucket upper bounds
  };

  /// Merged per-stage rows (stages with zero records omitted), in enum
  /// order — deterministic given deterministic inputs.
  [[nodiscard]] std::vector<StageReport> Report() const;

  /// Merged histogram of one stage (for delta-based per-epoch columns).
  [[nodiscard]] LogHistogram StageHistogram(SpanStage stage) const;

  /// Human table / flat JSON of Report(). Wall-clock data: stderr and
  /// --profile-out only, never a byte-compared artifact.
  [[nodiscard]] std::string ToText() const;
  [[nodiscard]] std::string ToJson() const;

  // --- request tracing: no-ops / empty unless tracing() ---------------

  /// Open a trace on this thread; every span closing on this thread
  /// until EndTrace is recorded into its tree.
  void BeginTrace(std::uint64_t trace_id, std::uint64_t seq, bool is_admit);

  /// Close this thread's trace and run the tail-sampling decision.
  void EndTrace(bool via_ladder, bool via_fallback, bool diverged);

  /// Epoch-boundary registry delta for the flight ring (cumulative
  /// admits/rejects/leaves + resident gauge).
  void NoteEpoch(std::uint64_t epoch_index, std::uint64_t admits,
                 std::uint64_t rejects, std::uint64_t leaves,
                 std::uint64_t resident);

  struct RetainStats {
    std::uint64_t traces_seen = 0;
    std::uint64_t retained_slow = 0;         ///< current top-K size
    std::uint64_t retained_interesting = 0;  ///< current, ≤ K
    /// High-water mark of span records held across both reservoirs —
    /// the O(K·depth) bound the tail-sampling rule promises.
    std::uint64_t peak_retained_spans = 0;
  };
  [[nodiscard]] RetainStats retain_stats() const;

  /// All retained traces, sorted by (seq, trace_id) — deterministic
  /// given deterministic durations (fake clock), export-stable always.
  [[nodiscard]] std::vector<RequestTrace> Retained() const;

  /// Chrome trace-event document: every retained span tree as async
  /// ("b"/"e") slices on a per-request track keyed by trace id, plus
  /// caller-supplied counter tracks (the CLI adds thread-pool gauges),
  /// plus a structured "sps_reqtrace" top-level key that
  /// tools/trace_summary.py consumes. Wall-clock data: never a
  /// byte-compared artifact.
  [[nodiscard]] std::string ToPerfettoJson(
      const std::vector<CounterSeries>& extra_counters) const;

  /// Dump every thread's flight ring to <flight_dir>/flight-<pid>.json
  /// (atomic write). Safe concurrently with tracing threads. Writes
  /// nothing and returns false when tracing is off.
  bool DumpFlight(const std::string& reason, std::string* path_out = nullptr,
                  std::string* error = nullptr);

 private:
  friend class ScopedSpan;
  friend class SampledSpan;
  friend void TraceAttr(std::int64_t v);

  static constexpr std::size_t kStages =
      static_cast<std::size_t>(SpanStage::kCount);

  /// Everything one thread records into this profiler.
  struct Shard {
    LogHistogram hist[kStages];
    std::uint64_t total_ns[kStages] = {};
    // SampledSpan state: occurrences so far and the last timed duration.
    std::uint64_t sample_tick[kStages] = {};
    std::uint64_t held_ns[kStages] = {};
    // The open request trace (tracing only).
    bool active = false;
    std::uint64_t trace_id = 0;
    std::uint64_t seq = 0;
    bool is_admit = true;
    std::vector<SpanRecord> spans;
    std::vector<std::int32_t> stack;  ///< open span slots, innermost last
    std::unique_ptr<FlightRing> ring;  ///< tracing only
  };

  [[nodiscard]] Shard* ShardForThisThread();
  /// The span's slot in this thread's open trace, or -1 when none.
  [[nodiscard]] int OpenSpan(SpanStage stage);
  /// Set the attribute of the innermost open span on this thread.
  void AttrInnermost(std::int64_t v);

  ClockFn clock_;
  const bool tracing_;
  const TraceOptions trace_;
  const std::uint64_t serial_;  ///< distinguishes address-reused profilers
  mutable std::mutex mu_;       ///< guards shards_ growth + reservoirs
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<RequestTrace> slow_;  ///< min-heap by root_dur_ns, ≤ top_k
  std::deque<RequestTrace> interesting_;  ///< most recent ≤ top_k
  std::uint64_t traces_seen_ = 0;
  std::uint64_t retained_spans_ = 0;
  std::uint64_t peak_retained_spans_ = 0;
};

/// RAII span: reads the clock on entry and records on exit. A null
/// profiler costs two branches — the profiling-off path. With tracing
/// on, the span also opens a node in this thread's request tree.
class ScopedSpan {
 public:
  ScopedSpan(SpanProfiler* p, SpanStage stage) : p_(p), stage_(stage) {
    if (p_ != nullptr) {
      t0_ = p_->NowNs();
      if (p_->tracing_) slot_ = p_->OpenSpan(stage_);
    }
  }
  ~ScopedSpan() {
    if (p_ != nullptr) p_->Record(stage_, t0_, p_->NowNs() - t0_, slot_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanProfiler* p_;
  SpanStage stage_;
  std::uint64_t t0_ = 0;
  int slot_ = -1;
};

/// RAII span for O(1) stages (the utilization screen, the memo probe)
/// whose two clock reads would cost more than the work they wrap. Every
/// occurrence is counted; one in kSampleEvery per thread and stage reads
/// the clock, and each occurrence is charged the latest timed duration
/// (sample and hold). The stage's count is exact, its total and
/// quantiles are estimates. Writes no tree node or flight-ring record.
/// A null profiler costs two branches.
class SampledSpan {
 public:
  static constexpr std::uint64_t kSampleEvery = 64;

  SampledSpan(SpanProfiler* p, SpanStage stage)
      : p_(p), i_(static_cast<std::size_t>(stage)) {
    if (p_ == nullptr) return;
    shard_ = p_->ShardForThisThread();
    timed_ = shard_->sample_tick[i_]++ % kSampleEvery == 0;
    if (timed_) t0_ = p_->NowNs();
  }
  ~SampledSpan() {
    if (p_ == nullptr) return;
    if (timed_) shard_->held_ns[i_] = p_->NowNs() - t0_;
    shard_->hist[i_].Add(static_cast<Time>(shard_->held_ns[i_]));
    shard_->total_ns[i_] += shard_->held_ns[i_];
  }
  SampledSpan(const SampledSpan&) = delete;
  SampledSpan& operator=(const SampledSpan&) = delete;

 private:
  SpanProfiler* p_;
  std::size_t i_;
  SpanProfiler::Shard* shard_ = nullptr;
  bool timed_ = false;
  std::uint64_t t0_ = 0;
};

/// Stage-local attribute on the innermost OPEN traced span of this
/// thread — cores probed, ladder rung reached. A cheap no-op unless the
/// installed profiler traces; attributes are trace export data only and
/// never feed decisions.
void TraceAttr(std::int64_t v);

/// The thread-local install slot. ReplayStream installs its configured
/// profiler for the duration of the replay; the admission/analysis/
/// controller layers read it here instead of threading a pointer through
/// every config struct (nothing observability-related may enter the
/// fingerprinted configs — DESIGN.md §15).
[[nodiscard]] SpanProfiler* InstalledProfiler();

class ProfilerInstallation {
 public:
  explicit ProfilerInstallation(SpanProfiler* p);
  ~ProfilerInstallation();
  ProfilerInstallation(const ProfilerInstallation&) = delete;
  ProfilerInstallation& operator=(const ProfilerInstallation&) = delete;

 private:
  SpanProfiler* prev_;
};

}  // namespace sps::obs
