#include "sim/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "obs/sink.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/kernel.hpp"
#include "util/thread_pool.hpp"

namespace sps::sim {

namespace {

using partition::PlacedTask;

/// Width of the EDF ready-key task-index tie-break (CurKey): global task
/// indices are packed into 16 bits below the absolute deadline. EDF
/// partitions with more tasks alias indices, and equal-deadline order
/// falls back to insertion FIFO — still deterministic, and the same for
/// every shard count, because a group's kernel replays the group's
/// serial event order exactly.
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
/// metrics. One instance simulates one core group (DESIGN.md §9) over
/// local core and task indices; the partition's parts name global cores,
/// which `local_core` maps to the group's own.
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

  static kernel::KernelConfig MakeKernelConfig(const SimConfig& cfg) {
    return kernel::KernelConfig{
        .horizon = cfg.horizon,
        .exec = cfg.exec,
        .arrivals = cfg.arrivals,
        .record_trace = cfg.record_trace,
        .record_metrics = cfg.record_metrics,
        .exec_generations = cfg.exec_generations};
  }

  Engine(const partition::Partition& p, const SimConfig& cfg,
         const CoreGroup& group,
         const std::vector<std::uint32_t>& local_core)
      : Base(MakeKernelConfig(cfg), group.cores, group.tasks),
        p_(p),
        local_core_(local_core) {
    std::vector<std::size_t> n_of_core(group.cores.size(), 0);
    for (std::size_t i = 0; i < group.tasks.size(); ++i) {
      const PlacedTask& pt = p.tasks[group.tasks[i]];
      tasks_[i].pt = &pt;
      tasks_[i].stats.id = pt.task.id;
      // Static queue-size parameter N per core, as in the analysis: the
      // tasks with a part on the core (Partition::entries_per_core). Every
      // such task is in the core's group.
      for (std::size_t k = 0; k < pt.parts.size(); ++k) {
        if (pt.part_on(pt.parts[k].core) == k) {
          ++n_of_core[local_core[pt.parts[k].core]];
        }
      }
    }
    // N is fixed, so is every charge a core makes: one row per core.
    charges_.reserve(n_of_core.size());
    for (const std::size_t n : n_of_core) {
      charges_.push_back(cfg.overheads.Charges(std::max<std::size_t>(1, n)));
    }
  }

  using Base::Run;
  using Base::sink;

 private:
  using Base::cores_;
  using Base::kcfg_;
  using Base::now_;
  using Base::result_;
  using Base::tasks_;

  // ---- kernel policy hooks ----------------------------------------------

  void Boot() {
    // All tasks start in their first core's sleep queue, waking at t=0
    // (synchronous release — the critical instant).
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      const std::uint32_t c = FirstCore(i);
      tasks_[i].sleep_handle = cores_[c].sleep.push(0, i);
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

  /// The group-local core hosting task ti's first subtask.
  std::uint32_t FirstCore(std::size_t ti) const {
    return local_core_[tasks_[ti].pt->parts[0].core];
  }

  const rt::Task& TaskOf(std::size_t ti) const { return tasks_[ti].pt->task; }

  /// Ready-queue ordering key of the job's CURRENT subtask: fixed
  /// priority under FP (unique per core — Partition::valid enforces it);
  /// under EDF the absolute window deadline, tie-broken by global task
  /// index.
  /// The deterministic EDF tie-break (vs. PR-2's arrival-order FIFO)
  /// makes the ready order a pure function of job state, independent of
  /// the event interleaving — a common choice in real EDF schedulers.
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
    // Aliased indices (> kEdfTieBreakTasks tasks) tie FIFO.
    return (capped << 16) |
           (static_cast<std::uint64_t>(tasks_[j->task_idx].index) &
            (kEdfTieBreakTasks - 1));
  }

  /// Suspend execution (if any), account progress, queue a scheduling
  /// decision after `cost` of overhead.
  void InterruptCore(std::uint32_t c, trace::OverheadKind kind, Time cost) {
    Core& core = cores_[c];
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
    Core& core = cores_[c];
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

    InterruptCore(c, trace::OverheadKind::kRls, charges_[c].release);
  }

  void OnOverheadEnd(const Ev& ev) {
    Core& core = cores_[ev.core];
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
    Core& core = cores_[c];
    const overhead::QueueCharges& charge = charges_[c];
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
        preempted->cpmd_pending =
            std::max(preempted->cpmd_pending, charge.cpmd_local);
        Job* top = core.ready.pop_min().second;
        core.ready.push(run_key, preempted);
        core.pending_start = top;
        ++result_.cores[c].context_switches;
        this->BurnOverhead(c, trace::OverheadKind::kSch,
                           charge.sched_preempt);
        this->BurnOverhead(c, trace::OverheadKind::kCnt1, charge.ctxsw_in);
      } else {
        // Keep running the current job; sch() only inspected the queue.
        core.pending_start = core.running;
        core.running = nullptr;
        this->BurnOverhead(c, trace::OverheadKind::kSch, charge.sched_keep);
      }
    } else if (have_top) {
      Job* top = core.ready.pop_min().second;
      core.pending_start = top;
      ++result_.cores[c].context_switches;
      this->BurnOverhead(c, trace::OverheadKind::kSch, charge.sched);
      this->BurnOverhead(c, trace::OverheadKind::kCnt1, charge.ctxsw_in);
    } else {
      core.state = CoreState::kIdle;
      this->Trace(trace::EventKind::kIdle, c, nullptr);
    }
  }

  void StartSegment(std::uint32_t c) {
    Core& core = cores_[c];
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
      result_.cores[c].cpmd_charged += j->cpmd_pending;
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
    Core& core = cores_[ev.core];
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
    Core& core = cores_[c];
    TaskRt<SleepQ>& tr = tasks_[j->task_idx];

    this->RecordCompletion(c, j);

    // Back to the sleep queue of the core hosting the FIRST subtask
    // (paper §2: tail subtasks return there; normal tasks sleep locally).
    const std::uint32_t first = FirstCore(j->task_idx);
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
    tr.sleep_handle = cores_[first].sleep.push(wake, j->task_idx);
    this->Push(Ev{.t = wake, .kind = EvKind::kTimer, .core = first,
                  .task_idx = j->task_idx});

    const Time cost = (c == first) ? charges_[c].finish_normal
                                   : charges_[first].finish_tail;
    core.running = nullptr;
    core.state = CoreState::kOvh;
    core.need_sched = true;
    this->BurnOverhead(c, trace::OverheadKind::kCnt2, cost, j);
  }

  void MigrateJob(std::uint32_t c, Job* j) {
    Core& core = cores_[c];
    const PlacedTask& pt = *tasks_[j->task_idx].pt;
    assert(j->part + 1 < pt.parts.size());

    const std::uint32_t dest = local_core_[pt.parts[j->part + 1].core];
    this->Trace(trace::EventKind::kMigrateOut, c, j);
    ++tasks_[j->task_idx].stats.migrations;
    ++result_.total_migrations;

    j->part += 1;
    j->budget_remaining = (j->part + 1 == pt.parts.size())
                              ? kTimeNever
                              : pt.parts[j->part].budget;
    j->cpmd_pending = std::max(j->cpmd_pending, charges_[dest].cpmd_migration);

    const Time cost = charges_[dest].migrate;
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
    Core& dest = cores_[ev.core];
    this->Trace(trace::EventKind::kMigrateIn, ev.core, j);
    dest.ready.push(CurKey(j), j);
    // The insert was paid by the source core; the destination only runs
    // its scheduler (charged in the decision phase).
    InterruptCore(ev.core, trace::OverheadKind::kNone, 0);
  }

  const partition::Partition& p_;
  const std::vector<std::uint32_t>& local_core_;
  std::vector<overhead::QueueCharges> charges_;  ///< by local core
};

/// One simulation as one kernel per core group (DESIGN.md §9). Every
/// group runs to the horizon on its own; the groups never exchange an
/// event, and each replays exactly the serial event order of its cores.
/// At most `threads` threads claim groups (1: one after another on the
/// caller). So the merge is bookkeeping: core and task rows mapped back
/// to their global indices, counters summed, the clock a max, and the
/// stamped trace buffers k-way merged into the canonical trace
/// (DESIGN.md §10).
template <typename ReadyQ, typename SleepQ, typename Sink>
SimResult RunGroups(const partition::Partition& p, const SimConfig& cfg,
                    unsigned threads) {
  using Eng = Engine<ReadyQ, SleepQ, Sink>;
  const std::vector<CoreGroup> groups = CoreGroups(p);
  std::vector<std::uint32_t> local_core(p.num_cores);
  for (const CoreGroup& g : groups) {
    for (std::uint32_t k = 0; k < g.cores.size(); ++k) {
      local_core[g.cores[k]] = k;
    }
  }
  std::vector<SimResult> results(groups.size());
  std::vector<obs::TraceBuffer> buffers(cfg.record_trace ? groups.size() : 0);
  auto run_group = [&](std::size_t g) {
    Eng engine(p, cfg, groups[g], local_core);
    results[g] = engine.Run();
    if constexpr (Sink::kActive) {
      if (cfg.record_trace) buffers[g] = engine.sink().TakeBuffer();
    }
  };
  threads = static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, threads), groups.size()));
  if (threads <= 1) {
    for (std::size_t g = 0; g < groups.size(); ++g) run_group(g);
  } else {
    std::atomic<std::size_t> next{0};
    util::SharedPool().ParallelFor(threads, [&](std::size_t) {
      for (std::size_t g; (g = next.fetch_add(1)) < groups.size();) {
        run_group(g);
      }
    });
  }

  SimResult out;
  out.tasks.resize(p.tasks.size());
  out.cores.resize(p.num_cores);
  if (cfg.record_metrics) {
    out.metrics.tasks.resize(p.tasks.size());
    out.metrics.cores.resize(p.num_cores);
    out.metrics.span = cfg.horizon;
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    SimResult& r = results[g];
    out.total_misses += r.total_misses;
    out.total_migrations += r.total_migrations;
    out.total_preemptions += r.total_preemptions;
    out.simulated = std::max(out.simulated, r.simulated);
    out.ready_ops += r.ready_ops;
    out.sleep_ops += r.sleep_ops;
    out.event_ops += r.event_ops;
    for (std::size_t c = 0; c < groups[g].cores.size(); ++c) {
      out.cores[groups[g].cores[c]] = r.cores[c];
      if (cfg.record_metrics) {
        out.metrics.cores[groups[g].cores[c]] = r.metrics.cores[c];
      }
    }
    for (std::size_t i = 0; i < groups[g].tasks.size(); ++i) {
      out.tasks[groups[g].tasks[i]] = r.tasks[i];
      if (cfg.record_metrics) {
        out.metrics.tasks[groups[g].tasks[i]] = r.metrics.tasks[i];
      }
    }
  }
  if (cfg.record_trace) {
    std::vector<const obs::TraceBuffer*> bufs;
    for (const obs::TraceBuffer& b : buffers) bufs.push_back(&b);
    out.trace_events = obs::MergeTraceBuffers(bufs);
  }
  return out;
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

std::vector<CoreGroup> CoreGroups(const partition::Partition& p) {
  const std::size_t m = p.num_cores;
  // Union-find over the cores, joined along every split task's parts.
  // Uniting roots under the smaller index keeps each group's root its
  // lowest core.
  std::vector<std::uint32_t> root(m);
  std::iota(root.begin(), root.end(), 0u);
  auto find = [&](std::uint32_t c) {
    while (root[c] != c) c = root[c] = root[root[c]];
    return c;
  };
  for (const PlacedTask& pt : p.tasks) {
    for (const partition::SubtaskPlacement& part : pt.parts) {
      const std::uint32_t a = find(pt.parts[0].core);
      const std::uint32_t b = find(part.core);
      root[std::max(a, b)] = std::min(a, b);
    }
  }
  std::vector<CoreGroup> groups;
  std::vector<std::uint32_t> group_of_root(m);
  for (std::uint32_t c = 0; c < m; ++c) {
    if (find(c) == c) {
      group_of_root[c] = static_cast<std::uint32_t>(groups.size());
      groups.emplace_back();
    }
    groups[group_of_root[find(c)]].cores.push_back(c);
  }
  for (std::size_t i = 0; i < p.tasks.size(); ++i) {
    groups[group_of_root[find(p.tasks[i].parts[0].core)]].tasks.push_back(i);
  }
  return groups;
}

SimResult Simulate(const partition::Partition& p, const SimConfig& cfg) {
  const unsigned threads =
      cfg.shards == 0 ? std::max(1u, std::thread::hardware_concurrency())
                      : cfg.shards;
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
      return recording
                 ? RunGroups<ReadyQ, SleepQ, obs::RecordSink>(p, cfg, threads)
                 : RunGroups<ReadyQ, SleepQ, obs::NullSink>(p, cfg, threads);
    });
  });
}

}  // namespace sps::sim
