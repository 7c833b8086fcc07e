#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "obs/sink.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/kernel.hpp"
#include "util/thread_pool.hpp"

namespace sps::sim {

namespace {

using partition::PlacedTask;

/// Width of the EDF ready-key task-index tie-break (CurKey): task
/// indices are packed into 16 bits below the absolute deadline (widened
/// from 10 in PR 4 so realistically sized sets never hit the limit).
/// EDF partitions with more tasks would alias indices — equal-deadline
/// order would fall back to insertion FIFO, which is interleaving-
/// dependent — so the sharded runner declines them (serial fallback in
/// Dispatch) rather than quietly lose bit-identity.
inline constexpr std::size_t kEdfTieBreakTasks = 1u << 16;

struct Job : kernel::JobBase {
  Time budget_remaining = 0;  ///< current subtask's budget left
  std::size_t part = 0;       ///< current subtask index
  Time cpmd_pending = 0;      ///< reload cost to charge at next start

  /// Split budgets meter execution: progress burns WCET and budget in
  /// lockstep (the kernel charges through this hook).
  void charge(Time progress) {
    exec_remaining -= progress;
    budget_remaining -= progress;
  }
};

template <typename SleepQ>
struct TaskRt : kernel::TaskRunBase<Job> {
  const PlacedTask* pt = nullptr;
  typename SleepQ::handle sleep_handle = nullptr;
};

/// The partitioned policy's per-core state: one ready and one sleep
/// queue per core, exactly as in the paper's kernel patch.
template <typename ReadyQ, typename SleepQ>
struct PerCoreQueues {
  ReadyQ ready;
  SleepQ sleep;
};

/// The semi-partitioned scheduling policy, hosted on the shared kernel.
/// ReadyQ orders jobs by scheduling key (fixed priority under FP, the
/// absolute window deadline under EDF; FIFO among ties). SleepQ orders
/// inactive tasks by wake-up time. The kernel's event queue is fixed
/// (kernel::EventQueue, DESIGN.md §9). Sink is the observability policy
/// (DESIGN.md §10): obs::NullSink unless the run records a trace or
/// metrics.
template <typename ReadyQ, typename SleepQ, typename Sink>
class Engine final
    : public kernel::KernelBase<Engine<ReadyQ, SleepQ, Sink>, Job,
                                TaskRt<SleepQ>, PerCoreQueues<ReadyQ, SleepQ>,
                                Sink> {
  static_assert(containers::ReadyQueueFor<ReadyQ, std::uint64_t, Job*>);
  static_assert(containers::SleepQueueFor<SleepQ, Time, std::size_t>);

 public:
  using Base = kernel::KernelBase<Engine<ReadyQ, SleepQ, Sink>, Job,
                                  TaskRt<SleepQ>,
                                  PerCoreQueues<ReadyQ, SleepQ>, Sink>;
  friend Base;
  using Ev = kernel::Event<Job>;
  using EvKind = kernel::EvKind;
  using CoreState = kernel::CoreState;
  using Core = typename Base::Core;
  using ShardContext = typename Base::ShardContext;

  static kernel::KernelConfig MakeKernelConfig(const partition::Partition& p,
                                               const SimConfig& cfg) {
    return kernel::KernelConfig{
        .num_cores = p.num_cores,
        .horizon = cfg.horizon,
        .overheads = cfg.overheads,
        .exec = cfg.exec,
        .arrivals = cfg.arrivals,
        .stop_on_first_miss = cfg.stop_on_first_miss,
        .record_trace = cfg.record_trace,
        .record_metrics = cfg.record_metrics,
        .exec_generations = cfg.exec_generations,
        .trace_drain = cfg.trace_drain,
        .trace_window = cfg.trace_window};
  }

  Engine(const partition::Partition& p, const SimConfig& cfg,
         const ShardContext* shard = nullptr)
      : Base(MakeKernelConfig(p, cfg), p.tasks.size(), shard),
        p_(p) {
    for (std::size_t i = 0; i < p.tasks.size(); ++i) {
      tasks_[i].pt = &p.tasks[i];
      tasks_[i].stats.id = p.tasks[i].task.id;
    }
    // Static queue-size parameter N per core, as in the analysis.
    n_of_core_.resize(p.num_cores);
    for (partition::CoreId c = 0; c < p.num_cores; ++c) {
      n_of_core_[c] = std::max<std::size_t>(1, p.entries_on(c));
    }
  }

  using Base::BootShard;
  using Base::CollectShardInto;
  using Base::DrainMailbox;
  using Base::FinalizeShardObservability;
  using Base::FinalizeTasksInto;
  using Base::halted;
  using Base::NextEventKey;
  using Base::Run;
  using Base::RunWindow;
  using Base::sink;

 private:
  using Base::CoreAt;
  using Base::CoreStatsAt;
  using Base::cores_;
  using Base::kcfg_;
  using Base::lane_;
  using Base::now_;
  using Base::result_;
  using Base::router_;
  using Base::tasks_;

  // ---- kernel policy hooks ----------------------------------------------

  void Boot() {
    // All tasks start in their first core's sleep queue, waking at t=0
    // (synchronous release — the critical instant). A shard boots only
    // the tasks whose first core is its own lane.
    for (std::size_t i = 0; i < p_.tasks.size(); ++i) {
      const partition::CoreId c = FirstCore(i);
      if (router_ != nullptr && c != lane_) continue;
      tasks_[i].sleep_handle = CoreAt(c).sleep.push(0, i);
      tasks_[i].next_release = 0;
      this->Push(Ev{.t = 0, .kind = EvKind::kTimer, .core = c,
                    .task_idx = i});
    }
  }

  void Dispatch(const Ev& ev) {
    switch (ev.kind) {
      case EvKind::kTimer: OnTimer(ev); break;
      case EvKind::kOverheadEnd: OnOverheadEnd(ev); break;
      case EvKind::kSegmentEnd: OnSegmentEnd(ev); break;
      case EvKind::kMigrationArrival: OnMigrationArrival(ev); break;
    }
  }

  /// Cross-lane delivery hook: a remote finish's wake-up timer
  /// materializes the sleep-queue entry HERE, on the queue's owning
  /// lane — in the serial engine FinishJob pushes it directly. Same
  /// push/erase counts either way; the sleep queue is write-only
  /// bookkeeping (never popped), so the result cannot differ.
  void OnDeliver(const Ev& ev) {
    if (ev.kind != EvKind::kTimer) return;
    assert(FirstCore(ev.task_idx) == lane_);
    TaskRt<SleepQ>& tr = tasks_[ev.task_idx];
    assert(tr.sleep_handle == nullptr);
    tr.sleep_handle = CoreAt(lane_).sleep.push(ev.t, ev.task_idx);
  }

  Time WcetOf(std::size_t ti) const { return TaskOf(ti).wcet; }
  Time PeriodOf(std::size_t ti) const { return TaskOf(ti).period; }
  Time DeadlineOf(std::size_t ti) const { return TaskOf(ti).deadline; }
  rt::TaskId TaskIdOf(std::size_t ti) const { return TaskOf(ti).id; }

  void CollectQueueStats(SimResult& r) const {
    for (const Core& core : cores_) {
      r.ready_ops += core.ready.counters();
      r.sleep_ops += core.sleep.counters();
    }
  }

  // ---- helpers ----------------------------------------------------------

  partition::CoreId FirstCore(std::size_t ti) const {
    return tasks_[ti].pt->parts[0].core;
  }

  const rt::Task& TaskOf(std::size_t ti) const { return tasks_[ti].pt->task; }

  /// Ready-queue ordering key of the job's CURRENT subtask: fixed
  /// priority under FP (unique per core — Partition::valid enforces it);
  /// under EDF the absolute window deadline, tie-broken by task index.
  /// The deterministic EDF tie-break (vs. PR-2's arrival-order FIFO)
  /// makes the ready order a pure function of job state, independent of
  /// the event interleaving — required for shard-count invariance and a
  /// common choice in real EDF schedulers.
  std::uint64_t CurKey(const Job* j) const {
    const auto& part = tasks_[j->task_idx].pt->parts[j->part];
    if (p_.policy == partition::SchedPolicy::kFixedPriority) {
      return part.local_priority;
    }
    const Time rel = part.rel_deadline > 0 ? part.rel_deadline
                                           : TaskOf(j->task_idx).deadline;
    const Time d = j->release_time + rel;
    // The 16-bit shift narrows the representable deadline to 2^48 ns
    // (~3.3 days — far past any simulation here). Saturate rather than
    // silently wrap: deadlines at or past the cap all map to the
    // maximum key and order FIFO among themselves.
    const std::uint64_t capped = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(d), (1ull << 48) - 1);
    // Aliased indices (> kEdfTieBreakTasks tasks) only ever run serial
    // (Dispatch declines to shard them), where FIFO ties are fine.
    return (capped << 16) | (static_cast<std::uint64_t>(j->task_idx) &
                             (kEdfTieBreakTasks - 1));
  }

  /// Suspend execution (if any), account progress, queue a scheduling
  /// decision after `cost` of overhead.
  void InterruptCore(std::uint32_t c, trace::OverheadKind kind, Time cost) {
    Core& core = CoreAt(c);
    if (core.state == CoreState::kExec) {
      this->SuspendRunning(c);
    }
    if (core.pending_start != nullptr) {
      // A decision was in flight; fold the picked job back into the ready
      // queue so the new decision sees a consistent picture.
      core.ready.push(CurKey(core.pending_start), core.pending_start);
      core.pending_start = nullptr;
    }
    core.state = CoreState::kOvh;
    core.need_sched = true;
    this->BurnOverhead(c, kind, cost);
  }

  // ---- event handlers ----------------------------------------------------

  void OnTimer(const Ev& ev) {
    const std::size_t ti = ev.task_idx;
    TaskRt<SleepQ>& tr = tasks_[ti];
    const std::uint32_t c = ev.core;
    Core& core = CoreAt(c);
    assert(!tr.active && tr.sleep_handle != nullptr);

    // The timer handler removes the task from this core's sleep queue and
    // release() inserts it into the ready queue: the paper's rls path.
    core.sleep.erase(tr.sleep_handle);
    tr.sleep_handle = nullptr;

    Job* j = this->NewJob(ti, c);
    // The LAST subtask (or a normal task) runs to completion — its budget
    // is never enforced (the paper's tail subtasks finish, not migrate).
    j->budget_remaining = tr.pt->parts.size() > 1 ? tr.pt->parts[0].budget
                                                  : kTimeNever;
    j->part = 0;
    tr.next_release = now_ + this->SampleInterArrival(ti);

    this->Trace(trace::EventKind::kRelease, c, j);
    core.ready.push(CurKey(j), j);

    const Time cost = kcfg_.overheads.release_overhead(n_of_core_[c]);
    InterruptCore(c, trace::OverheadKind::kRls, cost);
  }

  void OnOverheadEnd(const Ev& ev) {
    Core& core = CoreAt(ev.core);
    if (ev.epoch != core.epoch || core.state != CoreState::kOvh) return;

    if (core.pending_start != nullptr) {
      Job* j = core.pending_start;
      core.pending_start = nullptr;
      core.running = j;
      StartSegment(ev.core);
      return;
    }

    if (core.need_sched) {
      core.need_sched = false;
      MakeSchedulingDecision(ev.core);
      return;
    }

    // Nothing to decide: resume the suspended job or go idle.
    if (core.running != nullptr) {
      StartSegment(ev.core);
    } else {
      core.state = CoreState::kIdle;
      this->Trace(trace::EventKind::kIdle, ev.core, nullptr);
    }
  }

  /// The sch() handler: pick the highest-priority ready job, requeue the
  /// current one on preemption, charge the corresponding costs, and leave
  /// the winner in pending_start for the post-overhead switch-in.
  void MakeSchedulingDecision(std::uint32_t c) {
    Core& core = CoreAt(c);
    const std::size_t n = n_of_core_[c];
    const bool have_top = !core.ready.empty();

    if (core.running != nullptr) {
      const std::uint64_t run_key = CurKey(core.running);
      if (have_top && core.ready.min_key() < run_key) {
        // Preemption: requeue current, switch to top.
        Job* preempted = core.running;
        core.running = nullptr;
        this->Trace(trace::EventKind::kPreempt, c, preempted);
        ++tasks_[preempted->task_idx].stats.preemptions;
        ++result_.total_preemptions;
        preempted->cpmd_pending = std::max(
            preempted->cpmd_pending, kcfg_.overheads.cpmd(false));
        Job* top = core.ready.pop_min().second;
        core.ready.push(run_key, preempted);
        core.pending_start = top;
        ++CoreStatsAt(c).context_switches;
        this->BurnOverhead(c, trace::OverheadKind::kSch,
                           kcfg_.overheads.sched_overhead(n, true));
        this->BurnOverhead(c, trace::OverheadKind::kCnt1,
                           kcfg_.overheads.ctxsw_in_overhead());
      } else {
        // Keep running the current job; sch() only inspected the queue.
        core.pending_start = core.running;
        core.running = nullptr;
        this->BurnOverhead(c, trace::OverheadKind::kSch,
                           kcfg_.overheads.scaled(kcfg_.overheads.sched_exec));
      }
    } else if (have_top) {
      Job* top = core.ready.pop_min().second;
      core.pending_start = top;
      ++CoreStatsAt(c).context_switches;
      this->BurnOverhead(c, trace::OverheadKind::kSch,
                         kcfg_.overheads.sched_overhead(n, false));
      this->BurnOverhead(c, trace::OverheadKind::kCnt1,
                         kcfg_.overheads.ctxsw_in_overhead());
    } else {
      core.state = CoreState::kIdle;
      this->Trace(trace::EventKind::kIdle, c, nullptr);
    }
  }

  void StartSegment(std::uint32_t c) {
    Core& core = CoreAt(c);
    Job* j = core.running;
    assert(j != nullptr);
    if (j->cpmd_pending > 0) {
      // Working-set reload (Figure 1 "cache"): occupies the CPU like task
      // code, but is NOT charged against the subtask budget — budgets
      // meter task execution, so the reload extends both counters in
      // lockstep. (Otherwise reload time would silently displace real work
      // onto later subtasks, which no analysis accounts for.)
      j->exec_remaining += j->cpmd_pending;
      if (j->budget_remaining < kTimeNever / 2) {
        j->budget_remaining += j->cpmd_pending;
      }
      CoreStatsAt(c).cpmd_charged += j->cpmd_pending;
      this->Trace(trace::EventKind::kOverheadBegin, c, j,
                  trace::OverheadKind::kCache, j->cpmd_pending);
      j->cpmd_pending = 0;
    }
    core.state = CoreState::kExec;
    core.seg_start = now_;
    const Time len = std::min(j->exec_remaining, j->budget_remaining);
    ++core.epoch;
    this->Push(Ev{.t = now_ + len, .kind = EvKind::kSegmentEnd, .core = c,
                  .epoch = core.epoch});
    this->Trace(trace::EventKind::kStart, c, j);
  }

  void OnSegmentEnd(const Ev& ev) {
    Core& core = CoreAt(ev.core);
    if (ev.epoch != core.epoch || core.state != CoreState::kExec) return;
    Job* j = core.running;
    this->BookProgress(ev.core, j);

    if (j->exec_remaining <= 0) {
      FinishJob(ev.core, j);
    } else {
      MigrateJob(ev.core, j);
    }
  }

  void FinishJob(std::uint32_t c, Job* j) {
    Core& core = CoreAt(c);
    TaskRt<SleepQ>& tr = tasks_[j->task_idx];

    this->RecordCompletion(c, j);

    // Back to the sleep queue of the core hosting the FIRST subtask
    // (paper §2: tail subtasks return there; normal tasks sleep locally).
    const partition::CoreId first = FirstCore(j->task_idx);
    // Finishing exactly at the next release boundary is fine: the timer
    // fires at the same instant, after this finish (event order), and
    // finds the task asleep. Only strictly-passed releases are overruns.
    Time wake = tr.next_release;
    while (wake < now_) {
      wake += this->SampleInterArrival(j->task_idx);
      ++tr.stats.shed;
      this->Trace(trace::EventKind::kJobShed, first, j,
                  trace::OverheadKind::kNone, 0, wake);
    }
    tr.next_release = wake;
    tr.active = false;
    if (this->IsRemoteLane(first)) {
      // Sharded cross-lane finish: the sleep-queue entry is created on
      // delivery of the timer event by the owning lane (OnDeliver) —
      // this lane must not touch a remote core's queues.
      assert(tr.sleep_handle == nullptr);
    } else {
      tr.sleep_handle = CoreAt(first).sleep.push(wake, j->task_idx);
    }
    this->Push(Ev{.t = wake, .kind = EvKind::kTimer, .core = first,
                  .task_idx = j->task_idx});

    const Time cost =
        (c == first)
            ? kcfg_.overheads.finish_overhead_normal(n_of_core_[c])
            : kcfg_.overheads.finish_overhead_tail(n_of_core_[first]);
    core.running = nullptr;
    core.state = CoreState::kOvh;
    core.need_sched = true;
    this->BurnOverhead(c, trace::OverheadKind::kCnt2, cost, j);
  }

  void MigrateJob(std::uint32_t c, Job* j) {
    Core& core = CoreAt(c);
    const PlacedTask& pt = *tasks_[j->task_idx].pt;
    assert(j->part + 1 < pt.parts.size());

    const partition::CoreId dest = pt.parts[j->part + 1].core;
    this->Trace(trace::EventKind::kMigrateOut, c, j);
    ++tasks_[j->task_idx].stats.migrations;
    ++result_.total_migrations;

    j->part += 1;
    j->budget_remaining = (j->part + 1 == pt.parts.size())
                              ? kTimeNever
                              : pt.parts[j->part].budget;
    j->cpmd_pending = std::max(j->cpmd_pending, kcfg_.overheads.cpmd(true));

    const Time cost = kcfg_.overheads.migrate_overhead(n_of_core_[dest]);
    core.running = nullptr;
    core.state = CoreState::kOvh;
    core.need_sched = true;
    this->BurnOverhead(c, trace::OverheadKind::kCnt2, cost, j);

    // The job becomes runnable at the destination once the remote insert
    // completes.
    this->Push(Ev{.t = now_ + cost, .kind = EvKind::kMigrationArrival,
                  .core = dest, .job = j});
  }

  void OnMigrationArrival(const Ev& ev) {
    Job* j = ev.job;
    Core& dest = CoreAt(ev.core);
    this->Trace(trace::EventKind::kMigrateIn, ev.core, j);
    dest.ready.push(CurKey(j), j);
    // The insert was paid by the source core; the destination only runs
    // its scheduler (charged in the decision phase).
    InterruptCore(ev.core, trace::OverheadKind::kNone, 0);
  }

  const partition::Partition& p_;
  std::vector<std::size_t> n_of_core_;
};

/// Which cores can push cross-lane events INTO core c (DESIGN.md §9).
/// In a semi-partitioned system the only cross-core edges are the split
/// pipeline (part i's core -> part i+1's core: migration arrivals) and
/// the return to the first core's sleep queue (any part core can be the
/// finisher -> timer wake-ups on the first core).
std::vector<std::vector<std::uint32_t>> SenderLanes(
    const partition::Partition& p) {
  std::vector<std::vector<std::uint32_t>> senders(p.num_cores);
  auto add = [&](partition::CoreId to, partition::CoreId from) {
    if (to == from) return;
    std::vector<std::uint32_t>& v = senders[to];
    if (std::find(v.begin(), v.end(), from) == v.end()) v.push_back(from);
  };
  for (const PlacedTask& pt : p.tasks) {
    if (pt.parts.size() < 2) continue;
    const partition::CoreId first = pt.parts[0].core;
    for (std::size_t i = 0; i < pt.parts.size(); ++i) {
      add(first, pt.parts[i].core);
      if (i + 1 < pt.parts.size()) {
        add(pt.parts[i + 1].core, pt.parts[i].core);
      }
    }
  }
  return senders;
}

/// One simulation, sharded per core over the shared worker pool
/// (DESIGN.md §9). Alternates two barrier-separated phases: every lane
/// drains its mailbox and publishes the key of its next event, then
/// every lane dispatches events up to the minimum published key of its
/// sender lanes (a lane dispatching packed key K can only emit keys >=
/// K+1 cross-lane, so nothing that orders before the bound can still
/// arrive). Bit-identical to the serial engine by construction: per-task
/// RNG streams, deterministic mailbox ordering, unique ready keys —
/// and, with a recording sink, the per-lane trace buffers merge into
/// the byte-identical canonical trace (DESIGN.md §10).
///
/// Returns nullopt when a stop_on_first_miss run observed a miss: the
/// per-lane halt flags are aggregated at the drain barrier, the sharded
/// attempt is abandoned (lanes have over-processed past the miss), and
/// the caller reruns serially for the exact serial halt point.
template <typename ReadyQ, typename SleepQ, typename Sink>
std::optional<SimResult> RunSharded(const partition::Partition& p,
                                    const SimConfig& cfg, unsigned threads) {
  using Eng = Engine<ReadyQ, SleepQ, Sink>;
  const std::size_t m = p.num_cores;

  kernel::ShardRouter<Job> router(m);
  std::vector<TaskRt<SleepQ>> tasks(p.tasks.size());
  std::vector<std::unique_ptr<Eng>> shards;
  shards.reserve(m);
  for (std::size_t c = 0; c < m; ++c) {
    const typename Eng::ShardContext ctx{
        static_cast<std::uint32_t>(c), &router, tasks.data(), tasks.size()};
    shards.push_back(std::make_unique<Eng>(p, cfg, &ctx));
  }
  const std::vector<std::vector<std::uint32_t>> senders = SenderLanes(p);

  // Honor the requested width: SimConfig::shards caps TOTAL worker
  // threads (caller included). The shared pool serves full-width runs;
  // a narrower request gets a transient pool of its own (thread spawn
  // is microseconds against a whole-simulation run).
  std::unique_ptr<util::ThreadPool> own_pool;
  util::ThreadPool* pool = &util::SharedPool();
  if (threads - 1 < pool->num_threads()) {
    own_pool = std::make_unique<util::ThreadPool>(threads - 1);
    pool = own_pool.get();
  }
  pool->ParallelFor(m, [&](std::size_t c) { shards[c]->BootShard(); });

  const std::uint64_t horizon_key_max =
      (static_cast<std::uint64_t>(cfg.horizon) << kernel::kEvKindBits) |
      ((1u << kernel::kEvKindBits) - 1);
  std::vector<std::uint64_t> next_key(m, Eng::kNoEventKey);
  std::vector<std::uint64_t> bound(m, Eng::kNoEventKey);

  // Streaming trace window, sharded flavor (DESIGN.md §15): at the
  // phase-1 barrier every lane's next-event key is published, and any
  // future dispatch anywhere carries a key >= W = min(next_key) (a
  // cross-lane emission adds at least one rank on top of its dispatch
  // key). So each lane's below-W records — a stamp-key-monotone PREFIX
  // of its append order — are final; DrainBelow pops and sorts them and
  // the stamped k-way merge emits exactly the prefix the full-buffer
  // merge would. Byte-identity with the serial and full-buffer paths by
  // construction.
  const bool streaming = cfg.trace_drain != nullptr && cfg.record_trace;
  obs::TraceStreamStats stream_stats;
  std::vector<std::vector<obs::StampedEvent>> stream_runs;
  std::vector<trace::Event> stream_batch;
  auto stream_drain_below = [&](std::uint64_t limit) {
    if constexpr (Sink::kActive) {
      std::size_t resident = 0;
      for (std::size_t c = 0; c < m; ++c) {
        resident += shards[c]->sink().buffer().size();
      }
      stream_stats.peak_resident =
          std::max(stream_stats.peak_resident, resident);
      if (stream_runs.size() != m) stream_runs.resize(m);
      std::size_t total = 0;
      for (std::size_t c = 0; c < m; ++c) {
        stream_runs[c].clear();
        shards[c]->sink_mut().buffer_mut().DrainBelow(limit, stream_runs[c]);
        total += stream_runs[c].size();
      }
      if (total == 0) return;
      stream_batch.clear();
      obs::MergeSortedRuns(stream_runs, stream_batch);
      cfg.trace_drain->OnEvents(stream_batch);
      stream_stats.events += total;
      ++stream_stats.batches;
    } else {
      (void)limit;
    }
  };

  for (;;) {
    // Phase 1: deliver cross-lane events, publish every lane's clock.
    pool->ParallelFor(m, [&](std::size_t c) {
      shards[c]->DrainMailbox();
      next_key[c] = shards[c]->NextEventKey();
    });
    // Stop-on-first-miss: each lane raises its halt flag inside the
    // processing window; the flags are read here, at the barrier. The
    // over-processed sharded state cannot reproduce the serial halt
    // point, so the whole attempt is discarded.
    if (cfg.stop_on_first_miss) {
      for (std::size_t c = 0; c < m; ++c) {
        if (shards[c]->halted()) return std::nullopt;
      }
    }
    // All mailboxes are empty here (deliveries only happen in phase 2),
    // so once every lane's next event is beyond the horizon nothing can
    // ever be dispatched again.
    if (*std::min_element(next_key.begin(), next_key.end()) >
        horizon_key_max) {
      break;
    }
    if constexpr (Sink::kActive) {
      if (streaming) {
        // Drain once any lane reached its backpressure share (see
        // RunWindow): with every lane active that is when the total
        // nears the window; with one active lane it keeps that lane
        // from being throttled to one event per round.
        const std::size_t lane_cap = std::max<std::size_t>(
            1, cfg.trace_window / std::max<std::size_t>(1, m));
        std::size_t resident = 0;
        std::size_t max_lane = 0;
        for (std::size_t c = 0; c < m; ++c) {
          const std::size_t n = shards[c]->sink().buffer().size();
          resident += n;
          max_lane = std::max(max_lane, n);
        }
        stream_stats.peak_resident =
            std::max(stream_stats.peak_resident, resident);
        if (max_lane >= lane_cap) {
          stream_drain_below(
              *std::min_element(next_key.begin(), next_key.end()));
        }
      }
    }
    // Earliest key each lane could still DISPATCH — its own queue, or a
    // chain of incoming emissions (each cross-lane hop adds at least one
    // rank). The transitive closure matters: a lane whose own queue is
    // quiet can still receive a migration and emit a wake-up back, so
    // its raw queue minimum alone is NOT a valid send bound. Fixpoint a
    // la Bellman-Ford; converges in <= m passes (keys only decrease,
    // each pass relaxes one more hop).
    bound.assign(next_key.begin(), next_key.end());
    for (std::size_t pass = 0; pass < m; ++pass) {
      bool changed = false;
      for (std::size_t c = 0; c < m; ++c) {
        for (const std::uint32_t s : senders[c]) {
          const std::uint64_t via = bound[s] == Eng::kNoEventKey
                                        ? Eng::kNoEventKey
                                        : bound[s] + 1;
          if (via < bound[c]) {
            bound[c] = via;
            changed = true;
          }
        }
      }
      if (!changed) break;
    }
    // Phase 2: each lane advances through its safe window — every key
    // strictly below anything its senders could still emit. The global
    // minimum holder always qualifies, so every round makes progress.
    pool->ParallelFor(m, [&](std::size_t c) {
      std::uint64_t safe = Eng::kNoEventKey;
      for (const std::uint32_t s : senders[c]) {
        safe = std::min(safe, bound[s]);
      }
      shards[c]->RunWindow(safe);
    });
  }

  SimResult out;
  out.cores.resize(m);
  for (std::size_t c = 0; c < m; ++c) shards[c]->CollectShardInto(out);
  shards[0]->FinalizeTasksInto(out);

  // Observability merge (DESIGN.md §10): close every lane's streams,
  // k-way-merge the stamped trace buffers into the canonical sequence,
  // and fold the per-lane metrics (task histograms sum; each lane owns
  // exactly its core's occupancy row). All merging is commutative or
  // stamp-ordered, so the output is byte-identical to the serial run's.
  if constexpr (Sink::kActive) {
    for (std::size_t c = 0; c < m; ++c) {
      shards[c]->FinalizeShardObservability();
    }
    if (cfg.record_trace) {
      if (streaming) {
        // Flush the remainder and report the stream's bounds; the
        // canonical trace went through the drain (trace_events stays
        // empty), exactly like the serial kernel's Finalize.
        stream_drain_below(Eng::kNoEventKey);
        cfg.trace_drain->OnFinish(stream_stats);
      } else {
        std::vector<const obs::TraceBuffer*> bufs;
        bufs.reserve(m);
        for (std::size_t c = 0; c < m; ++c) {
          bufs.push_back(&shards[c]->sink().buffer());
        }
        out.trace_events = obs::MergeTraceBuffers(bufs);
      }
    }
    if (cfg.record_metrics) {
      obs::RunMetrics merged;
      merged.tasks.resize(tasks.size());
      merged.cores.resize(m);
      for (std::size_t c = 0; c < m; ++c) {
        const obs::RunMetrics& lane = shards[c]->sink().run_metrics();
        merged.cores[c] = lane.cores[0];
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          merged.tasks[i] += lane.tasks[i];
        }
        merged.span = lane.span;  // == horizon on every lane
      }
      out.metrics = std::move(merged);
    }
  }
  return out;
}

template <typename ReadyQ, typename SleepQ, typename Sink>
SimResult Dispatch(const partition::Partition& p, const SimConfig& cfg) {
  const unsigned threads =
      cfg.shards == 0 ? std::max(1u, std::thread::hardware_concurrency())
                      : cfg.shards;
  // Sharding needs multiple lanes. Since PR 4 trace recording, metrics,
  // and stop-on-first-miss all shard (the first two via per-lane sinks,
  // the last optimistically — a detected miss falls back to the exact
  // serial halt below). Only EDF partitions beyond the CurKey tie-break
  // width stay serial: with aliased task indices the ready order would
  // degrade to insertion FIFO, which is interleaving-dependent.
  const bool edf_alias = p.policy == partition::SchedPolicy::kEdf &&
                         p.tasks.size() > kEdfTieBreakTasks;
  // Streaming + stop_on_first_miss must take the serial loop: an
  // abandoned sharded attempt would already have streamed over-processed
  // events the drain consumer cannot un-see (DESIGN.md §15).
  const bool stream_needs_serial =
      cfg.trace_drain != nullptr && cfg.stop_on_first_miss;
  if (threads > 1 && p.num_cores > 1 && !edf_alias && !stream_needs_serial) {
    std::optional<SimResult> r =
        RunSharded<ReadyQ, SleepQ, Sink>(p, cfg, threads);
    if (r.has_value()) return *std::move(r);
  }
  Engine<ReadyQ, SleepQ, Sink> engine(p, cfg);
  return engine.Run();
}

}  // namespace

Time SimResult::total_overhead() const {
  Time t = 0;
  for (const CoreStats& c : cores) {
    t += c.overhead_rls + c.overhead_sch + c.overhead_cnt1 + c.overhead_cnt2;
  }
  return t;
}

std::string SimResult::summary() const {
  std::string out;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "simulated %.1fms: %llu misses, %llu migrations, %llu "
                "preemptions, overhead %.1fus\n",
                ToMillis(simulated),
                static_cast<unsigned long long>(total_misses),
                static_cast<unsigned long long>(total_migrations),
                static_cast<unsigned long long>(total_preemptions),
                ToMicros(total_overhead()));
  out += buf;
  for (const TaskStats& t : tasks) {
    std::snprintf(buf, sizeof(buf),
                  "  tau%-3u released=%-6llu completed=%-6llu misses=%llu "
                  "maxR=%.3fms avgR=%.3fms migr=%llu preempt=%llu\n",
                  t.id, static_cast<unsigned long long>(t.released),
                  static_cast<unsigned long long>(t.completed),
                  static_cast<unsigned long long>(t.deadline_misses),
                  ToMillis(t.max_response), t.avg_response / kMillisecond,
                  static_cast<unsigned long long>(t.migrations),
                  static_cast<unsigned long long>(t.preemptions));
    out += buf;
  }
  return out;
}

SimResult Simulate(const partition::Partition& p, const SimConfig& cfg) {
  // One instantiation per ready x sleep backend pair and sink (2 x 2 x 2
  // = 8). The sink doubles that only at compile time: at run time a
  // simulation is either all-NullSink (every hook compiled away — the
  // perf-guarded default) or recording.
  const bool recording = cfg.record_trace || cfg.record_metrics;
  return containers::WithQueueBackend(cfg.ready_backend, [&](auto rb) {
    return containers::WithQueueBackend(cfg.sleep_backend, [&](auto sb) {
      using ReadyQ =
          containers::QueueOf<decltype(rb)::value, std::uint64_t, Job*>;
      using SleepQ =
          containers::QueueOf<decltype(sb)::value, Time, std::size_t>;
      return recording ? Dispatch<ReadyQ, SleepQ, obs::RecordSink>(p, cfg)
                       : Dispatch<ReadyQ, SleepQ, obs::NullSink>(p, cfg);
    });
  });
}

}  // namespace sps::sim
