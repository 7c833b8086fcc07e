#include "sim/global_engine.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <vector>

#include "containers/queue_traits.hpp"
#include "sim/kernel.hpp"

namespace sps::sim {

namespace {

/// 0, 1, ..., n-1: the global engine is one kernel over every core and
/// task, so its local indices are the global ones.
template <typename T>
std::vector<T> Iota(std::size_t n) {
  std::vector<T> v(n);
  std::iota(v.begin(), v.end(), T{0});
  return v;
}

struct GJob : kernel::JobBase {
  int last_core = -1;           ///< core of the last execution segment
  bool resume_pending = false;  ///< preempted; pays CPMD at next start

  void charge(Time progress) { exec_remaining -= progress; }
};

template <typename SleepQ>
struct GTaskRt : kernel::TaskRunBase<GJob> {
  typename SleepQ::handle sleep_handle = nullptr;
};

/// Global scheduling keeps no per-core queues — both queues are shared.
struct NoPerCoreQueues {};

/// The global scheduling policy, hosted on the shared kernel. One ReadyQ
/// (keyed by RM priority or absolute deadline) and one SleepQ (keyed by
/// next release) serve all cores. Sink as in the partitioned engine
/// (NullSink unless the run records a trace or metrics, DESIGN.md §10).
/// (This engine never shards — its queues are globally shared, the
/// exact coupling semi-partitioning removes.)
template <typename ReadyQ, typename SleepQ, typename Sink>
class GlobalEngine final
    : public kernel::KernelBase<GlobalEngine<ReadyQ, SleepQ, Sink>, GJob,
                                GTaskRt<SleepQ>, NoPerCoreQueues, Sink> {
  static_assert(containers::ReadyQueueFor<ReadyQ, std::uint64_t, GJob*>);
  static_assert(containers::SleepQueueFor<SleepQ, Time, std::size_t>);

 public:
  using Base = kernel::KernelBase<GlobalEngine<ReadyQ, SleepQ, Sink>, GJob,
                                  GTaskRt<SleepQ>, NoPerCoreQueues, Sink>;
  friend Base;
  using Ev = kernel::Event<GJob>;
  using EvKind = kernel::EvKind;
  using CoreState = kernel::CoreState;
  using Core = typename Base::Core;

  GlobalEngine(const rt::TaskSet& ts, const GlobalSimConfig& cfg)
      : Base(kernel::KernelConfig{.horizon = cfg.horizon,
                                  .exec = cfg.exec,
                                  .arrivals = cfg.arrivals,
                                  .record_trace = cfg.record_trace,
                                  .record_metrics = cfg.record_metrics},
             Iota<std::uint32_t>(cfg.num_cores),
             Iota<std::size_t>(ts.size())),
        ts_(ts),
        gpolicy_(cfg.policy),
        // Both queues are shared, so every task counts towards N.
        charges_(cfg.overheads.Charges(std::max<std::size_t>(1, ts.size()))) {
    for (std::size_t i = 0; i < ts.size(); ++i) {
      tasks_[i].stats.id = ts[i].id;
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
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      tasks_[i].sleep_handle = sleep_.push(0, i);
      tasks_[i].next_release = 0;
      this->Push(Ev{.t = 0, .kind = EvKind::kTimer, .task_idx = i});
    }
  }

  void Dispatch(const Ev& ev) {
    switch (ev.kind) {
      case EvKind::kTimer: OnTimer(ev.task_idx); break;
      case EvKind::kOverheadEnd: OnOvhEnd(ev.core, ev.epoch); break;
      case EvKind::kSegmentEnd: OnSegEnd(ev.core, ev.epoch); break;
      case EvKind::kMigrationArrival: break;  // never emitted here
    }
  }

  Time WcetOf(std::size_t ti) const { return ts_[ti].wcet; }
  Time PeriodOf(std::size_t ti) const { return ts_[ti].period; }
  Time DeadlineOf(std::size_t ti) const { return ts_[ti].deadline; }
  rt::TaskId TaskIdOf(std::size_t ti) const { return ts_[ti].id; }

  void CollectQueueStats(SimResult& r) const {
    r.ready_ops += ready_.counters();
    r.sleep_ops += sleep_.counters();
  }

  // ---- helpers ----------------------------------------------------------

  std::uint64_t KeyOf(const GJob* j) const {
    if (gpolicy_ == GlobalPolicy::kGlobalRm) {
      return ts_[j->task_idx].priority;
    }
    return static_cast<std::uint64_t>(j->abs_deadline);
  }

  /// The global dispatch rule: fill idle cores with the best ready jobs,
  /// then preempt the worst-running core if the best ready job beats it.
  void Reschedule() {
    // Fill idle cores.
    for (std::uint32_t c = 0; c < cores_.size() && !ready_.empty(); ++c) {
      Core& core = cores_[c];
      if (core.state == CoreState::kIdle && core.pending_start == nullptr) {
        core.pending_start = ready_.pop_min().second;
        core.state = CoreState::kOvh;
        ++result_.cores[c].context_switches;
        this->BurnOverhead(c, trace::OverheadKind::kSch, charges_.sched);
        this->BurnOverhead(c, trace::OverheadKind::kCnt1, charges_.ctxsw_in);
      }
    }
    if (ready_.empty()) return;
    // Preempt the worst occupied core while the best ready job beats it.
    while (!ready_.empty()) {
      int worst = -1;
      std::uint64_t worst_key = 0;
      for (std::uint32_t c = 0; c < cores_.size(); ++c) {
        const Core& core = cores_[c];
        const GJob* occupant = core.running != nullptr ? core.running
                                                       : core.pending_start;
        if (occupant == nullptr) continue;
        const std::uint64_t k = KeyOf(occupant);
        if (worst < 0 || k > worst_key) {
          worst = static_cast<int>(c);
          worst_key = k;
        }
      }
      if (worst < 0) return;  // nothing occupied (cannot happen here)
      if (ready_.min_key() >= worst_key) return;  // no preemption
      PreemptCore(static_cast<std::uint32_t>(worst));
    }
  }

  void PreemptCore(std::uint32_t c) {
    Core& core = cores_[c];
    GJob* victim = core.running != nullptr ? core.running
                                           : core.pending_start;
    if (core.state == CoreState::kExec) this->SuspendRunning(c);
    core.running = nullptr;
    core.pending_start = nullptr;
    victim->resume_pending = true;
    this->Trace(trace::EventKind::kPreempt, c, victim);
    ++tasks_[victim->task_idx].stats.preemptions;
    ++result_.total_preemptions;
    ready_.push(KeyOf(victim), victim);

    core.pending_start = ready_.pop_min().second;
    core.state = CoreState::kOvh;
    ++result_.cores[c].context_switches;
    this->BurnOverhead(c, trace::OverheadKind::kSch, charges_.sched_preempt);
    this->BurnOverhead(c, trace::OverheadKind::kCnt1, charges_.ctxsw_in);
  }

  // ---- event handlers ----------------------------------------------------

  void OnTimer(std::size_t ti) {
    GTaskRt<SleepQ>& tr = tasks_[ti];
    if (tr.active) {
      // Previous job still running: shed this release (overrun), retry
      // next period. The task is not asleep, so there is no sleep-queue
      // entry to remove.
      ++tr.stats.shed;
      tr.next_release += this->SampleInterArrival(ti);
      this->Push(Ev{.t = tr.next_release, .kind = EvKind::kTimer,
                    .task_idx = ti});
      return;
    }
    // The timer handler pops the task from the shared sleep queue (the
    // cost is part of release_overhead below, exactly as in the
    // partitioned engine).
    assert(tr.sleep_handle != nullptr);
    sleep_.erase(tr.sleep_handle);
    tr.sleep_handle = nullptr;

    // Release interrupt runs on a fixed per-task core (which also hosts
    // the task's recycled job slot).
    const auto irq_core =
        static_cast<std::uint32_t>(ts_[ti].id % cores_.size());
    GJob* j = this->NewJob(ti, irq_core);
    tr.next_release = now_ + this->SampleInterArrival(ti);
    this->Push(Ev{.t = tr.next_release, .kind = EvKind::kTimer,
                  .task_idx = ti});

    this->Trace(trace::EventKind::kRelease, irq_core, j);
    ready_.push(KeyOf(j), j);
    if (cores_[irq_core].state == CoreState::kExec) {
      this->SuspendRunning(irq_core);
      cores_[irq_core].pending_start = cores_[irq_core].running;
      cores_[irq_core].running = nullptr;
    }
    this->BurnOverhead(irq_core, trace::OverheadKind::kRls, charges_.release,
                       j);
    Reschedule();
  }

  void OnOvhEnd(std::uint32_t c, std::uint64_t epoch) {
    Core& core = cores_[c];
    if (epoch != core.epoch || core.state != CoreState::kOvh) return;
    if (core.pending_start != nullptr) {
      core.running = core.pending_start;
      core.pending_start = nullptr;
      StartSegment(c);
      return;
    }
    core.state = CoreState::kIdle;
    this->Trace(trace::EventKind::kIdle, c, nullptr);
    Reschedule();
  }

  void StartSegment(std::uint32_t c) {
    Core& core = cores_[c];
    GJob* j = core.running;
    if (j->resume_pending) {
      const bool migrated = j->last_core >= 0 &&
                            j->last_core != static_cast<int>(c);
      const Time cpmd =
          migrated ? charges_.cpmd_migration : charges_.cpmd_local;
      if (migrated) {
        ++tasks_[j->task_idx].stats.migrations;
        ++result_.total_migrations;
        this->Trace(trace::EventKind::kMigrateIn, c, j);
      }
      if (cpmd > 0) {
        j->exec_remaining += cpmd;
        result_.cores[c].cpmd_charged += cpmd;
        this->Trace(trace::EventKind::kOverheadBegin, c, j,
                    trace::OverheadKind::kCache, cpmd);
      }
      j->resume_pending = false;
    }
    j->last_core = static_cast<int>(c);
    core.state = CoreState::kExec;
    core.seg_start = now_;
    ++core.epoch;
    this->Push(Ev{.t = now_ + j->exec_remaining,
                  .kind = EvKind::kSegmentEnd, .core = c,
                  .epoch = core.epoch});
    this->Trace(trace::EventKind::kStart, c, j);
  }

  void OnSegEnd(std::uint32_t c, std::uint64_t epoch) {
    Core& core = cores_[c];
    if (epoch != core.epoch || core.state != CoreState::kExec) return;
    GJob* j = core.running;
    this->BookProgress(c, j);
    assert(j->exec_remaining <= 0);

    GTaskRt<SleepQ>& tr = tasks_[j->task_idx];
    this->RecordCompletion(c, j);
    tr.active = false;
    // Wait out the already-armed next release in the shared sleep queue.
    tr.sleep_handle = sleep_.push(tr.next_release, j->task_idx);

    core.running = nullptr;
    core.state = CoreState::kOvh;
    this->BurnOverhead(c, trace::OverheadKind::kCnt2, charges_.finish_normal,
                       j);
    Reschedule();
  }

  const rt::TaskSet& ts_;
  GlobalPolicy gpolicy_;
  ReadyQ ready_;
  SleepQ sleep_;
  const overhead::QueueCharges charges_;
};

}  // namespace

SimResult SimulateGlobal(const rt::TaskSet& ts, const GlobalSimConfig& cfg) {
  // The paper's queue pair (binomial-heap ready queue, RB-tree sleep
  // queue); one instantiation per sink.
  using ReadyQ = containers::BinomialHeapQueue<std::uint64_t, GJob*>;
  using SleepQ = containers::RbTreeQueue<Time, std::size_t>;
  if (cfg.record_trace || cfg.record_metrics) {
    GlobalEngine<ReadyQ, SleepQ, obs::RecordSink> engine(ts, cfg);
    SimResult r = engine.Run();
    if (cfg.record_trace) {
      const obs::TraceBuffer buffer = engine.sink().TakeBuffer();
      r.trace_events = obs::MergeTraceBuffers({&buffer});
    }
    return r;
  }
  GlobalEngine<ReadyQ, SleepQ, obs::NullSink> engine(ts, cfg);
  return engine.Run();
}

}  // namespace sps::sim
