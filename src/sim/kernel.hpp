#pragma once
// Shared discrete-event scheduler kernel — the single implementation of
// everything the partitioned engine (sim/engine.cpp) and the global
// engine (sim/global_engine.cpp) used to duplicate: the event queue and
// its same-instant ordering, per-core run state, overhead charging and
// accounting, execution-time / inter-arrival sampling, job lifecycle
// bookkeeping, completion statistics, and end-of-run finalization.
//
// The kernel is policy-based (CRTP): an engine derives from
// KernelBase<Engine, Job, TaskRt, PerCore, Sink> and supplies
//
//   Boot()                    initial releases / timers
//   Dispatch(event)           event handlers (the scheduling POLICY:
//                             where jobs queue, who preempts whom, how
//                             split budgets migrate)
//   WcetOf / PeriodOf / DeadlineOf / TaskIdOf(task_idx)
//   CollectQueueStats(result) fold per-queue op counters into the result
//
// and a Job type derived from JobBase with a charge(progress) method
// (how execution progress is booked — the partitioned engine also burns
// the split-subtask budget, the global engine only the remaining WCET).
// Run() drains the event queue up to the horizon; nothing stops a run
// early (a deadline miss is only counted).
//
// Ready/sleep queue backends are template parameters OF THE ENGINES,
// not of the kernel: the kernel never touches a ready/sleep queue
// directly — it only prices their operations through the OverheadModel.
// The kernel's own EVENT queue is not a policy slot: it is always
// EventQueue below, a descending sorted vector called directly from the
// event loop (DESIGN.md §5, §9). The loop only ever pushes, pops the
// minimum and peeks its key — no handles, no erase — and the order
// (packed t<<2 | kind key, then insertion order) is total, so ANY
// correct FIFO-stable priority queue replays the same event sequence
// bit for bit.
//
// Hot-path memory (DESIGN.md §9): job objects live in per-core
// SlabArenas and are RECYCLED — a task's dead job is destroyed and its
// slot reused when the next release of that task is created, on the
// same core — and the event queue's storage only ever grows, so a run of
// millions of events performs O(1) steady-state allocations.
//
// Determinism: all random sampling draws from PER-TASK SplitMix64
// streams seeded by (config seed, task index) — never from a shared
// generator whose draw order would depend on the global event
// interleaving. So a kernel over only SOME cores and tasks — a set
// closed under sharing a core — replays exactly the events those tasks
// have in the full run. That is what lets the partitioned engine run
// each independent core group as its own kernel, one after another or
// on separate threads, and still produce bit-identical SimResults
// (sim/engine.cpp, SimConfig::shards, DESIGN.md §9).
//
// Such a kernel indexes its cores and tasks locally, 0..k-1, and keeps
// the global index of each (Core::id, TaskRunBase::index). The global
// index is what seeds the RNG streams, selects the exec generation and
// labels trace records and their stamps; the caller maps the local
// result rows back (sim/engine.cpp).
//
// Observability (DESIGN.md §10): the kernel's third policy slot is the
// SINK (obs/sink.hpp) — obs::NullSink compiles every trace/metrics hook
// away (the default, perf-guarded path), obs::RecordSink appends stamped
// trace events to an arena buffer and accumulates streaming metrics.
// The caller turns the stamped buffer(s) into the canonical trace
// (obs::MergeTraceBuffers), so runs split over several kernels merge
// into the same bytes as one kernel.
//
// This header also hosts the public simulation types shared by both
// engines (ExecModel, ArrivalModel, TaskStats, CoreStats, SimResult);
// sim/engine.hpp re-exports them, so existing includes keep working.

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "containers/op_counters.hpp"
#include "containers/queue_traits.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/trace_buffer.hpp"
#include "rt/task.hpp"
#include "rt/time.hpp"
#include "trace/trace.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace sps::sim {

/// How much of its WCET a job actually executes.
///
/// kSpiky is the overload-injection model (DESIGN.md §13): each job runs
/// exactly C, except that with probability spike_prob it OVERRUNS to
/// spike_magnitude * C — i.e. the declared WCET was wrong for that job.
/// The engines absorb overruns through their shed path (releases that
/// pass while a job still runs are skipped and counted in
/// TaskStats::shed; split tails execute past their nominal budget), so a
/// spiky run never UBs — it just misses deadlines, which is the point.
/// Draws come from the same per-task DeriveSeed streams as kUniform, so
/// spiky runs stay bit-identical across backends and shard counts.
struct ExecModel {
  enum class Kind {
    kAlwaysWcet,  ///< every job runs exactly C (worst case; default)
    kFraction,    ///< every job runs fraction * C
    kUniform,     ///< uniform in [0.5, 1] * C, seeded
    kSpiky,       ///< C, but spike_prob of the jobs run spike_magnitude*C
  };
  Kind kind = Kind::kAlwaysWcet;
  double fraction = 1.0;
  /// kSpiky: per-job overrun probability / execution-time multiplier.
  double spike_prob = 0.1;
  double spike_magnitude = 1.3;
  std::uint64_t seed = 1;
};

/// Inter-arrival behaviour. The task model is sporadic: the period is
/// only a MINIMUM separation. kPeriodic releases exactly every T (the
/// analysis' worst case); kSporadicUniformDelay adds a uniform random
/// slack of up to `max_delay_fraction * T` to each inter-arrival, the
/// usual way to exercise non-critical-instant behaviour.
///
/// Scenario-diversity kinds (ROADMAP):
///   kJittered — releases stay on the nominal k*T grid but each is
///   displaced by an independent uniform jitter in [0, 0.1*T]
///   (release_k = k*T + j_k). No long-term drift; consecutive releases
///   may be closer than T (interrupt-latency-style jitter), which the
///   engines absorb through their overrun/shed paths.
///   kBursty — runs of releases at the MINIMUM inter-arrival T (a burst)
///   separated by idle gaps: each inter-arrival is T with probability
///   burst_prob, else T * (1 + uniform(0, 1)): idle gaps up to T.
struct ArrivalModel {
  enum class Kind {
    kPeriodic,
    kSporadicUniformDelay,
    kJittered,
    kBursty,
  };
  Kind kind = Kind::kPeriodic;
  double max_delay_fraction = 0.2;
  /// kBursty: probability the next inter-arrival continues a burst.
  double burst_prob = 0.5;
  std::uint64_t seed = 2;
};

struct TaskStats {
  rt::TaskId id = 0;
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t shed = 0;  ///< releases skipped because the job overran
  std::uint64_t preemptions = 0;
  std::uint64_t migrations = 0;
  Time max_response = 0;
  double avg_response = 0.0;  ///< over completed jobs
};

struct CoreStats {
  Time busy_exec = 0;      ///< time spent running task code (incl. CPMD)
  Time overhead_rls = 0;
  Time overhead_sch = 0;
  Time overhead_cnt1 = 0;
  Time overhead_cnt2 = 0;
  Time cpmd_charged = 0;   ///< CPMD portion inside busy_exec
  std::uint64_t context_switches = 0;
};

struct SimResult {
  std::vector<TaskStats> tasks;
  std::vector<CoreStats> cores;
  std::uint64_t total_misses = 0;
  std::uint64_t total_migrations = 0;
  std::uint64_t total_preemptions = 0;
  Time simulated = 0;
  /// Aggregated queue-operation counts over every ready / sleep queue
  /// instance the run touched (all cores). Backend-independent: the op
  /// SEQUENCE is fixed by the scheduling policy, only per-op cost varies.
  containers::QueueOpCounters ready_ops;
  containers::QueueOpCounters sleep_ops;
  /// Operation counts of the kernel's own event queue (same invariance:
  /// the event sequence is fixed by the policy, not the backend — and,
  /// since PR 3, not by the shard count either).
  containers::QueueOpCounters event_ops;
  /// Canonical trace of the run (SimConfig::record_trace): the stamped,
  /// deterministically merged event stream — byte-identical for every
  /// shard count and backend (DESIGN.md §10). Empty when not recording.
  std::vector<trace::Event> trace_events;
  /// Streaming metrics (SimConfig::record_metrics): per-task response /
  /// tardiness histograms and per-core busy/overhead/idle accounting.
  /// Empty (metrics.enabled() == false) when not recording.
  obs::RunMetrics metrics;

  [[nodiscard]] Time total_overhead() const;
  [[nodiscard]] std::string summary() const;
};

namespace kernel {

enum class CoreState : std::uint8_t { kIdle, kExec, kOvh };

/// Same-instant ordering matters twice over: a segment that completes
/// exactly when a timer fires must finish BEFORE the release is handled
/// (otherwise the done job is "preempted" with zero work left and its
/// completion slips past the boundary), and all releases/arrivals must
/// land in the ready queues BEFORE any dispatch (overhead end) at the
/// same instant, or the scheduler briefly starts a job it immediately
/// preempts. The enum value IS the same-instant rank; ties break by
/// insertion order.
enum class EvKind : std::uint8_t {
  kSegmentEnd = 0,        // running segment ended (core, epoch)
  kTimer = 1,             // task release (task_idx)
  kMigrationArrival = 2,  // job lands on destination core (core, job)
  kOverheadEnd = 3,       // core finished its overhead window (core, epoch)
};

/// Number of EvKind values. EventKey packs the kind into kEvKindBits
/// bits and static_asserts against this count — when adding an event
/// kind, bump it here and widen the shift.
inline constexpr unsigned kNumEvKinds = 4;
inline constexpr unsigned kEvKindBits = 2;

template <typename JobT>
struct Event {
  Time t = 0;
  EvKind kind = EvKind::kTimer;
  std::uint32_t core = 0;
  std::size_t task_idx = 0;
  std::uint64_t epoch = 0;
  JobT* job = nullptr;
};

/// The event queue's ordering is (t, kind-rank, insertion order).
/// Packing (t, kind) into one integer key and popping equal keys in
/// insertion order (EventQueue is FIFO-stable) makes that a strict total
/// order. Packing needs t < 2^61 (an ~73-year horizon in ns).
template <typename JobT>
[[nodiscard]] inline std::uint64_t EventKey(const Event<JobT>& e) {
  static_assert(kNumEvKinds <= (1u << kEvKindBits),
                "EventKey packs EvKind into kEvKindBits bits; widen the "
                "shift when adding event kinds");
  assert(e.t >= 0 &&
         static_cast<std::uint64_t>(e.t) < (1ull << (63 - kEvKindBits)));
  return (static_cast<std::uint64_t>(e.t) << kEvKindBits) |
         static_cast<std::uint64_t>(e.kind);
}

/// Time component of a packed event key.
[[nodiscard]] inline Time EventKeyTime(std::uint64_t key) {
  return static_cast<Time>(key >> kEvKindBits);
}

/// The kernel's event queue: the containers::SortedVectorStableQueue
/// backend used directly, with no runtime backend selection. EventQueue
/// derives each entry's key from its event, so the two cannot disagree.
/// The backend keeps the packed keys in a descending vector, so pop_min is a
/// pop_back and a push is a binary search plus a memmove of the entries
/// due SOONER than the new one. Most DES pushes are due soon (segment
/// ends, overhead ends, the next release of a just-finished task), so
/// that memmove is short. Equal keys pop in insertion (FIFO) order. The
/// vector and the slot arena only grow, so the steady state does not
/// allocate. The op counters are the backend's own, so
/// SimResult::event_ops compares with ready_ops/sleep_ops.
template <typename JobT>
class EventQueue {
 public:
  void push(const Event<JobT>& e) { q_.push(EventKey(e), e); }
  Event<JobT> pop_min() { return q_.pop_min().second; }
  [[nodiscard]] std::uint64_t min_key() const { return q_.min_key(); }
  [[nodiscard]] bool empty() const { return q_.empty(); }
  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] const containers::QueueOpCounters& counters() const {
    return q_.counters();
  }

 private:
  containers::SortedVectorStableQueue<std::uint64_t, Event<JobT>> q_;
};

/// Common per-job state. Engines derive and add policy state (split
/// budgets, last-run core, ...) plus a charge(progress) method booking
/// executed time against the job's counters.
struct JobBase {
  std::size_t task_idx = 0;
  std::uint64_t seq = 0;   ///< job number within its task
  Time release_time = 0;
  Time abs_deadline = 0;
  Time exec_remaining = 0;  ///< actual execution left (CPMD included)
};

/// Common per-task runtime state. Engines derive and add policy state
/// (placement pointer, sleep-queue handle, ...). Templated on the job
/// type since PR 3 so it can host the task's recycled job slot.
///
/// The RNG streams live HERE, not in the kernel: every draw a task ever
/// makes comes from its own two generators, so the draw sequence is a
/// pure function of (config seed, task index) — independent of how
/// events of DIFFERENT tasks interleave, which is what makes a kernel
/// over a subset of the core groups exact (DESIGN.md §9).
template <typename JobT>
struct TaskRunBase {
  std::size_t index = 0;  ///< the task's index in the whole partition
  bool active = false;
  Time next_release = 0;  ///< nominal release of the NEXT job
  Time last_release = 0;  ///< actual release of the in-flight job
  Time last_jitter = 0;   ///< displacement of the previous release (kJittered)
  TaskStats stats;
  double response_sum = 0.0;
  util::SplitMix64 exec_rng;
  util::SplitMix64 arrival_rng;
  JobT* last_job = nullptr;  ///< dead job awaiting recycling (NewJob)
};

/// The engine-independent slice of a simulation config.
struct KernelConfig {
  Time horizon = 0;
  ExecModel exec;
  ArrivalModel arrivals;
  /// Observability switches (DESIGN.md §10). Only honored when the
  /// engine is instantiated with a recording sink; the NullSink
  /// instantiation ignores them by construction.
  bool record_trace = false;
  bool record_metrics = false;
  /// Per-task ADMISSION GENERATION (global task index order; missing
  /// entries = 0). Generation g != 0 re-derives that task's exec/arrival
  /// RNG streams with an extra DeriveSeed step, so an online LEAVE +
  /// re-ADMIT of the same task id does not resume the departed
  /// incarnation's RNG position (DESIGN.md §13). Generation 0 is
  /// bit-identical to configs that never set this field. A view: the
  /// caller's config owns the storage for the kernel's lifetime.
  std::span<const std::uint32_t> exec_generations = {};
};

template <typename Policy, typename JobT, typename TaskRtT, typename PerCoreT,
          typename SinkT = obs::NullSink>
class KernelBase {
 public:
  /// Boot the policy, drain the event queue up to the horizon, finalize.
  /// The one event-dispatch loop of the simulator: a partitioned run
  /// calls it once per core group (sim/engine.cpp).
  SimResult Run() {
    policy().Boot();
    while (!events_.empty()) {
      if (EventKeyTime(events_.min_key()) > kcfg_.horizon) break;
      const Event<JobT> ev = events_.pop_min();
      now_ = ev.t;
      BeginDispatch(ev);
      policy().Dispatch(ev);
    }
    return Finalize();
  }

  /// The run's sink. After Run(), its stamped trace buffer is what the
  /// caller merges into SimResult::trace_events (obs::MergeTraceBuffers).
  [[nodiscard]] SinkT& sink() { return sink_; }

 protected:
  /// Per-core run state; PerCoreT adds the policy's per-core queues
  /// (partitioned: ready + sleep; global: none — queues are shared).
  struct Core : PerCoreT {
    std::uint32_t id = 0;  ///< the core's index in the whole partition
    CoreState state = CoreState::kIdle;
    JobT* running = nullptr;        ///< executing, or suspended mid-overhead
    JobT* pending_start = nullptr;  ///< picked by sch(), awaiting overhead
    bool need_sched = false;
    Time busy_until = 0;
    Time seg_start = 0;
    std::uint64_t epoch = 0;  ///< invalidates stale core events
    /// Job storage of the tasks released on this core (recycled slots,
    /// see NewJob).
    util::SlabArena<JobT> job_arena;
  };

  /// A kernel over the cores `core_ids` and tasks `task_ids` (global
  /// indices, one per local index).
  KernelBase(const KernelConfig& kcfg, std::span<const std::uint32_t> core_ids,
             std::span<const std::size_t> task_ids)
      : kcfg_(kcfg),
        cores_(core_ids.size()),
        tasks_(task_ids.size()),
        sink_(obs::SinkConfig{kcfg.record_trace, kcfg.record_metrics,
                              task_ids.size(),
                              static_cast<std::uint32_t>(core_ids.size()),
                              kcfg.horizon}) {
    result_.cores.resize(core_ids.size());
    for (std::size_t c = 0; c < core_ids.size(); ++c) {
      cores_[c].id = core_ids[c];
    }
    // Per-task RNG streams (see TaskRunBase), seeded by the GLOBAL task
    // index. A non-zero admission generation re-derives both streams
    // (the LEAVE/re-ADMIT fix, KernelConfig::exec_generations);
    // generation 0 keeps the historical seeds bit-for-bit.
    for (std::size_t i = 0; i < task_ids.size(); ++i) {
      const std::size_t g = task_ids[i];
      std::uint64_t eseed = util::DeriveSeed(kcfg.exec.seed, g, 0);
      std::uint64_t aseed = util::DeriveSeed(kcfg.arrivals.seed, g, 1);
      const std::uint32_t gen = g < kcfg.exec_generations.size()
                                    ? kcfg.exec_generations[g]
                                    : 0;
      if (gen != 0) {
        eseed = util::DeriveSeed(eseed, gen, 2);
        aseed = util::DeriveSeed(aseed, gen, 3);
      }
      tasks_[i].index = g;
      tasks_[i].exec_rng = util::SplitMix64(eseed);
      tasks_[i].arrival_rng = util::SplitMix64(aseed);
    }
  }

  Policy& policy() { return static_cast<Policy&>(*this); }
  const Policy& policy() const { return static_cast<const Policy&>(*this); }

  /// Stamp the upcoming dispatch for the recording sink (trace merge
  /// determinism, obs/trace_buffer.hpp). Compiled away under NullSink.
  /// The stamp's subject is the core for core-owned kinds and the task
  /// for task-owned ones (a migration arrival carries its job), named by
  /// its global index.
  void BeginDispatch(const Event<JobT>& e) {
    if constexpr (SinkT::kActive) {
      if (!sink_.tracing()) return;
      const bool core_keyed = e.kind == EvKind::kSegmentEnd ||
                              e.kind == EvKind::kOverheadEnd;
      const std::size_t task = e.kind == EvKind::kMigrationArrival
                                   ? e.job->task_idx
                                   : e.task_idx;
      if (core_keyed) {
        sink_.BeginDispatch(EventKey(e), true, e.core, cores_[e.core].id);
      } else {
        sink_.BeginDispatch(EventKey(e), false, task, tasks_[task].index);
      }
    } else {
      (void)e;
    }
  }

  /// Schedule an event. Deliberately out of line: with the sorted-vector
  /// insert inlined at every push site the dispatch loop grows, and
  /// bench/e2e des_m64 ran 14% slower (GCC 12 -O3, 4-vCPU Xeon VM).
  [[gnu::noinline]] void Push(const Event<JobT>& e) { events_.push(e); }

  /// Create the job object for task ti's release at now_ and mark the
  /// task active. `core` is the (fixed) core whose arena hosts the
  /// task's job slot; the previous (dead) job is recycled here. Policy
  /// fills its own fields (budgets etc.) afterwards.
  JobT* NewJob(std::size_t ti, std::uint32_t core) {
    TaskRtT& tr = tasks_[ti];
    util::SlabArena<JobT>& arena = cores_[core].job_arena;
    if (tr.last_job != nullptr) arena.destroy(tr.last_job);
    JobT* j = arena.create();
    tr.last_job = j;
    j->task_idx = ti;
    j->seq = ++tr.stats.released;
    j->release_time = now_;
    j->abs_deadline = now_ + policy().DeadlineOf(ti);
    j->exec_remaining = SampleExec(ti);
    tr.active = true;
    tr.last_release = now_;
    return j;
  }

  Time SampleExec(std::size_t ti) {
    const Time c = policy().WcetOf(ti);
    switch (kcfg_.exec.kind) {
      case ExecModel::Kind::kAlwaysWcet:
        return c;
      case ExecModel::Kind::kFraction:
        return std::max<Time>(
            1, static_cast<Time>(kcfg_.exec.fraction *
                                 static_cast<double>(c)));
      case ExecModel::Kind::kUniform: {
        constexpr double kLoFraction = 0.5;
        constexpr double kHiFraction = 1.0;
        std::uniform_real_distribution<double> d(kLoFraction, kHiFraction);
        return std::max<Time>(
            1, static_cast<Time>(d(tasks_[ti].exec_rng) *
                                 static_cast<double>(c)));
      }
      case ExecModel::Kind::kSpiky: {
        // One draw per release whether or not it spikes, so the stream
        // position is a pure function of the release index.
        std::uniform_real_distribution<double> d(0.0, 1.0);
        const bool spike = d(tasks_[ti].exec_rng) < kcfg_.exec.spike_prob;
        if (!spike) return c;
        return std::max<Time>(
            1, static_cast<Time>(kcfg_.exec.spike_magnitude *
                                 static_cast<double>(c)));
      }
    }
    return c;
  }

  /// Next inter-arrival distance per the arrival model (see ArrivalModel
  /// for the semantics of each kind).
  Time SampleInterArrival(std::size_t ti) {
    const Time t = policy().PeriodOf(ti);
    util::SplitMix64& rng = tasks_[ti].arrival_rng;
    switch (kcfg_.arrivals.kind) {
      case ArrivalModel::Kind::kPeriodic:
        return t;
      case ArrivalModel::Kind::kSporadicUniformDelay: {
        std::uniform_real_distribution<double> d(
            0.0, kcfg_.arrivals.max_delay_fraction);
        return t + static_cast<Time>(d(rng) * static_cast<double>(t));
      }
      case ArrivalModel::Kind::kJittered: {
        // release_k = k*T + j_k: the gap is T + j_k - j_{k-1}, so jitter
        // is bounded around the nominal grid and never accumulates.
        constexpr double kJitterFraction = 0.1;
        std::uniform_real_distribution<double> d(0.0, kJitterFraction);
        const Time j = static_cast<Time>(d(rng) * static_cast<double>(t));
        TaskRtT& tr = tasks_[ti];
        const Time gap = t + j - tr.last_jitter;
        tr.last_jitter = j;
        return std::max<Time>(1, gap);
      }
      case ArrivalModel::Kind::kBursty: {
        std::uniform_real_distribution<double> d(0.0, 1.0);
        if (d(rng) < kcfg_.arrivals.burst_prob) return t;
        constexpr double kBurstGapFraction = 1.0;
        std::uniform_real_distribution<double> g(0.0, kBurstGapFraction);
        return t + static_cast<Time>(g(rng) * static_cast<double>(t));
      }
    }
    return t;
  }

  void Trace(trace::EventKind k, std::uint32_t core, const JobT* j,
             trace::OverheadKind ovh = trace::OverheadKind::kNone,
             Time dur = 0, Time at = -1) {
    if constexpr (!SinkT::kActive) {
      (void)k; (void)core; (void)j; (void)ovh; (void)dur; (void)at;
    } else {
      if (!sink_.tracing()) return;
      trace::Event e;
      e.time = at < 0 ? now_ : at;
      e.core = cores_[core].id;
      e.kind = k;
      e.overhead = ovh;
      if (j != nullptr) {
        e.task = policy().TaskIdOf(j->task_idx);
        e.job = j->seq;
      }
      e.duration = dur;
      sink_.Record(e);
    }
  }

  void AccountOverhead(std::uint32_t c, trace::OverheadKind kind, Time dur) {
    CoreStats& s = result_.cores[c];
    switch (kind) {
      case trace::OverheadKind::kRls: s.overhead_rls += dur; break;
      case trace::OverheadKind::kSch: s.overhead_sch += dur; break;
      case trace::OverheadKind::kCnt1: s.overhead_cnt1 += dur; break;
      case trace::OverheadKind::kCnt2: s.overhead_cnt2 += dur; break;
      default: break;
    }
  }

  /// Burn `cost` of core time starting no earlier than now_, tagged for
  /// the stats/trace, and (re)arm the overhead-end event. `who` labels the
  /// trace event (defaults to whichever job the core is holding).
  void BurnOverhead(std::uint32_t c, trace::OverheadKind kind, Time cost,
                    const JobT* who = nullptr) {
    Core& core = cores_[c];
    const Time base = std::max(now_, core.busy_until);
    if (cost > 0) {
      if (who == nullptr) {
        who = core.running != nullptr ? core.running : core.pending_start;
      }
      Trace(trace::EventKind::kOverheadBegin, c, who, kind, cost, base);
      AccountOverhead(c, kind, cost);
      sink_.OnOverhead(c, base, cost);
    }
    core.busy_until = base + cost;
    ++core.epoch;
    Push(Event<JobT>{.t = core.busy_until, .kind = EvKind::kOverheadEnd,
                     .core = c, .epoch = core.epoch});
  }

  /// Book the running segment's progress [seg_start, now_] against the
  /// job and the core's stats, and feed the metrics stream. The single
  /// place execution time is accounted (both engines' segment-end
  /// handlers and SuspendRunning go through here).
  Time BookProgress(std::uint32_t c, JobT* j) {
    Core& core = cores_[c];
    const Time progress = now_ - core.seg_start;
    j->charge(progress);
    result_.cores[c].busy_exec += progress;
    sink_.OnExec(c, core.seg_start, now_);
    return progress;
  }

  /// Suspend the running job mid-segment: book its progress, invalidate
  /// the armed segment end, leave the core in the overhead state.
  void SuspendRunning(std::uint32_t c) {
    Core& core = cores_[c];
    JobT* j = core.running;
    assert(core.state == CoreState::kExec && j != nullptr);
    BookProgress(c, j);
    ++core.epoch;  // invalidate the armed segment-end
    core.state = CoreState::kOvh;
  }

  /// Completion bookkeeping shared by both engines: response-time stats
  /// and the deadline check.
  void RecordCompletion(std::uint32_t c, JobT* j) {
    TaskRtT& tr = tasks_[j->task_idx];
    Trace(trace::EventKind::kFinish, c, j);
    ++tr.stats.completed;
    const Time response = now_ - j->release_time;
    tr.stats.max_response = std::max(tr.stats.max_response, response);
    tr.response_sum += static_cast<double>(response);
    sink_.OnCompletion(j->task_idx, response, now_ - j->abs_deadline);
    if (now_ > j->abs_deadline) {
      ++tr.stats.deadline_misses;
      ++result_.total_misses;
      Trace(trace::EventKind::kDeadlineMiss, c, j);
    }
  }

  /// Close the observability streams: the in-flight execution segment
  /// is booked up to the horizon (it has no segment-end event inside the
  /// horizon, so BookProgress never sees it), then the sink fills
  /// trailing idle. No-op under NullSink.
  void FinalizeObservability() {
    if constexpr (SinkT::kActive) {
      if (!sink_.metrics()) return;
      for (std::uint32_t c = 0; c < cores_.size(); ++c) {
        const Core& core = cores_[c];
        if (core.state == CoreState::kExec && core.running != nullptr &&
            kcfg_.horizon > core.seg_start) {
          sink_.OnExec(c, core.seg_start, kcfg_.horizon);
        }
      }
      sink_.CloseSpan();
    }
  }

  /// Close the run. The canonical trace is NOT built here: it stays in
  /// the sink's stamped buffer for the caller's merge (the caller may
  /// own several kernels).
  SimResult Finalize() {
    result_.simulated = std::min(now_, kcfg_.horizon);
    // Unfinished jobs whose deadline already passed are misses too. The
    // in-flight job's ACTUAL release is tracked (not reconstructed from
    // next_release, which would be off by the slack under sporadic
    // arrivals and undercount end-of-horizon misses).
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      TaskRtT& tr = tasks_[i];
      if (tr.active &&
          tr.last_release + policy().DeadlineOf(i) <= kcfg_.horizon) {
        ++tr.stats.deadline_misses;
        ++result_.total_misses;
      }
      if (tr.stats.completed > 0) {
        tr.stats.avg_response =
            tr.response_sum / static_cast<double>(tr.stats.completed);
      }
      result_.tasks.push_back(tr.stats);
    }
    result_.event_ops = events_.counters();
    policy().CollectQueueStats(result_);
    FinalizeObservability();
    if constexpr (SinkT::kActive) {
      if (sink_.metrics()) result_.metrics = sink_.TakeMetrics();
    }
    return std::move(result_);
  }

  KernelConfig kcfg_;
  std::vector<Core> cores_;
  std::vector<TaskRtT> tasks_;
  EventQueue<JobT> events_;
  SinkT sink_;
  Time now_ = 0;
  SimResult result_;
};

}  // namespace kernel
}  // namespace sps::sim
