#include "overhead/calibrate.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <vector>

#include "cache/cpmd.hpp"
#include "containers/queue_traits.hpp"

namespace sps::overhead {

namespace {

using Clock = std::chrono::steady_clock;

Time Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Payload sized like a scheduler queue entry (a task_struct pointer's
/// worth of bookkeeping), so node size is realistic. The ordering key
/// lives in the queue concept's key, not in the payload.
struct FakeJob {
  std::uint64_t payload[6];
};

/// Top fraction of samples ignored as timer outliers (interrupts etc.).
constexpr double kOutlierTrim = 0.01;

/// Bytes swept to evict queue nodes for "remote" emulation.
constexpr std::size_t kEvictionBufferBytes = 8u << 20;

/// Max-after-trim over collected samples (the paper's "maximal measured
/// duration", guarded against timer-interrupt outliers).
Time TrimmedMax(std::vector<Time>& samples) {
  std::sort(samples.begin(), samples.end());
  const auto keep = static_cast<std::size_t>(
      static_cast<double>(samples.size()) * (1.0 - kOutlierTrim));
  const std::size_t idx = keep == 0 ? 0 : keep - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

/// Sweep a buffer to push the queue's nodes out of the private cache
/// levels — the user-space stand-in for a cross-core ("remote") access.
class CacheEvictor {
 public:
  explicit CacheEvictor(std::size_t bytes) : buf_(bytes, 1) {}

  void evict() {
    volatile unsigned char sink = 0;
    for (std::size_t i = 0; i < buf_.size(); i += 64) {
      buf_[i] = static_cast<unsigned char>(buf_[i] + 1);
      sink = static_cast<unsigned char>(sink + buf_[i]);
    }
    (void)sink;
  }

 private:
  std::vector<unsigned char> buf_;
};

std::uint64_t SplitMix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <typename MakeQueue, typename TimedOp, typename Restore>
Time MeasureOp(int samples, bool remote, CacheEvictor& evictor,
               MakeQueue make, TimedOp op, Restore restore) {
  auto queue = make();
  std::vector<Time> durations;
  durations.reserve(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    if (remote) evictor.evict();
    const Time t0 = Now();
    op(queue, i);
    const Time t1 = Now();
    restore(queue, i);
    durations.push_back(t1 - t0);
  }
  return TrimmedMax(durations);
}

// Any queue backend is measured through the SAME concept interface the
// simulator schedules with (queue_traits.hpp) — the measurement and the
// scheduler exercise identical code paths. Q is one of the adapters, keyed
// by a synthetic priority / wake-up time.

/// One "add" measurement cell: timed push into a queue of n-1 elements,
/// restored by erasing through the returned handle (the scheduler's
/// release path). Fills the (n, locality) cells of `base`.
template <typename Q>
Table1::Row MeasureAdd(const CalibrationConfig& cfg, CacheEvictor& evictor,
                       std::size_t n, bool both_localities, std::uint64_t seed0,
                       Table1::Row base) {
  std::uint64_t seed = seed0;
  auto make = [&] {
    auto q = std::make_unique<Q>();
    for (std::size_t i = 0; i + 1 < n; ++i) {
      q->push(SplitMix(seed), FakeJob{});
    }
    return q;
  };
  typename Q::handle last{};
  auto op = [&](std::unique_ptr<Q>& q, int i) {
    last = q->push(SplitMix(seed) + static_cast<std::uint64_t>(i), FakeJob{});
  };
  auto restore = [&](std::unique_ptr<Q>& q, int) { q->erase(last); };

  const Time local =
      MeasureOp(cfg.samples, false, evictor, make, op, restore);
  Time remote = 0;
  if (both_localities) {
    remote = MeasureOp(cfg.samples, true, evictor, make, op, restore);
    remote = std::max(remote, local);  // coherence can only add cost
  }
  if (n == 4) {
    base.local_n4 = local;
    base.remote_n4 = remote;
  } else {
    base.local_n64 = local;
    base.remote_n64 = remote;
  }
  return base;
}

/// One "delete" measurement cell: timed pop_min from a queue of n
/// elements, restored by re-pushing the popped pair (the scheduler's
/// dispatch path). Deletes are only ever local (a core pops its own
/// queues), matching the N/A cells of the paper's table.
template <typename Q>
Table1::Row MeasureDel(const CalibrationConfig& cfg, CacheEvictor& evictor,
                       std::size_t n, std::uint64_t seed0, Table1::Row base) {
  std::uint64_t seed = seed0;
  auto make = [&] {
    auto q = std::make_unique<Q>();
    for (std::size_t i = 0; i < n; ++i) q->push(SplitMix(seed), FakeJob{});
    return q;
  };
  std::pair<std::uint64_t, FakeJob> popped;
  auto op = [&](std::unique_ptr<Q>& q, int) { popped = q->pop_min(); };
  auto restore = [&](std::unique_ptr<Q>& q, int) {
    q->push(popped.first, popped.second);
  };

  const Time local =
      MeasureOp(cfg.samples, false, evictor, make, op, restore);
  if (n == 4) {
    base.local_n4 = local;
  } else {
    base.local_n64 = local;
  }
  return base;
}

/// Both rows (add + del) of one queue's half of Table 1.
template <typename Q>
void MeasureQueueRows(const CalibrationConfig& cfg, CacheEvictor& evictor,
                      std::uint64_t add_seed, std::uint64_t del_seed,
                      Table1::Row& add, Table1::Row& del) {
  add = MeasureAdd<Q>(cfg, evictor, 4, true, add_seed, {});
  add = MeasureAdd<Q>(cfg, evictor, 64, true, add_seed, add);
  del = MeasureDel<Q>(cfg, evictor, 4, del_seed, {});
  del = MeasureDel<Q>(cfg, evictor, 64, del_seed, del);
  del.remote_applicable = false;
}

// ---- Handler-body emulations -------------------------------------------
// Stand-ins for the paper's release()/sch()/cnt_swth() bodies with the
// queue accesses stripped out (those are measured above). Sized to do the
// same kind of work the kernel handlers do.

struct TaskControlBlock {
  std::uint64_t next_release;
  std::uint64_t abs_deadline;
  std::uint64_t period;
  std::uint64_t budget;
  std::uint32_t prio;
  std::uint32_t core;
  std::uint64_t stats[4];
};

struct CpuContext {
  std::uint64_t regs[32];   // GPRs + segment bookkeeping
  std::uint64_t fpstate[64];  // x87/SSE save area stand-in
};

void ReleaseBody(TaskControlBlock& tcb) {
  tcb.next_release += tcb.period;
  tcb.abs_deadline = tcb.next_release + tcb.period;
  tcb.budget = tcb.stats[0];
  ++tcb.stats[1];
}

std::uint32_t SchedBody(const TaskControlBlock* tcbs, std::size_t n,
                        std::uint32_t running_prio) {
  // Priority comparison + preemption decision, as in sch().
  std::uint32_t best = UINT32_MAX;
  std::uint32_t best_idx = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (tcbs[i].prio < best) {
      best = tcbs[i].prio;
      best_idx = static_cast<std::uint32_t>(i);
    }
  }
  return best < running_prio ? best_idx : UINT32_MAX;
}

void CtxSwitchBody(CpuContext& from, CpuContext& to, CpuContext& cpu) {
  std::memcpy(&from, &cpu, sizeof(CpuContext));  // store old context
  std::memcpy(&cpu, &to, sizeof(CpuContext));    // load new context
}

}  // namespace

Table1 MeasureTable1(const CalibrationConfig& cfg) {
  CacheEvictor evictor(kEvictionBufferBytes);
  Table1 t;
  containers::WithQueueBackend(cfg.ready_backend, [&](auto rb) {
    using ReadyQ =
        containers::QueueOf<decltype(rb)::value, std::uint64_t, FakeJob>;
    MeasureQueueRows<ReadyQ>(cfg, evictor, 42, 99, t.ready_add, t.ready_del);
  });
  containers::WithQueueBackend(cfg.sleep_backend, [&](auto sb) {
    using SleepQ =
        containers::QueueOf<decltype(sb)::value, std::uint64_t, FakeJob>;
    MeasureQueueRows<SleepQ>(cfg, evictor, 7, 13, t.sleep_add, t.sleep_del);
  });
  return t;
}

HandlerCosts MeasureHandlerCosts(const CalibrationConfig& cfg) {
  HandlerCosts h;
  std::vector<Time> samples;
  samples.reserve(static_cast<std::size_t>(cfg.samples));

  TaskControlBlock tcb{1000, 2000, 1000, 10, 3, 0, {10, 0, 0, 0}};
  for (int i = 0; i < cfg.samples; ++i) {
    const Time t0 = Now();
    ReleaseBody(tcb);
    samples.push_back(Now() - t0);
  }
  h.release_exec = TrimmedMax(samples);

  samples.clear();
  std::vector<TaskControlBlock> tcbs(8, tcb);
  for (std::size_t i = 0; i < tcbs.size(); ++i) {
    tcbs[i].prio = static_cast<std::uint32_t>(17 * (i + 1) % 23);
  }
  volatile std::uint32_t sink = 0;
  for (int i = 0; i < cfg.samples; ++i) {
    const Time t0 = Now();
    sink = SchedBody(tcbs.data(), tcbs.size(),
                     static_cast<std::uint32_t>(i % 23));
    samples.push_back(Now() - t0);
  }
  (void)sink;
  h.sched_exec = TrimmedMax(samples);

  samples.clear();
  CpuContext a{}, b{}, cpu{};
  for (int i = 0; i < cfg.samples; ++i) {
    const Time t0 = Now();
    CtxSwitchBody(a, b, cpu);
    samples.push_back(Now() - t0);
  }
  h.ctxsw_exec = TrimmedMax(samples);
  return h;
}

OverheadModel ModelFromMeasurements(const Table1& t, const HandlerCosts& h,
                                    Time cpmd_local, Time cpmd_migration) {
  OverheadModel m;
  m.ready_add_local = {t.ready_add.local_n4, t.ready_add.local_n64};
  m.ready_add_remote = {t.ready_add.remote_n4, t.ready_add.remote_n64};
  m.ready_del_local = {t.ready_del.local_n4, t.ready_del.local_n64};
  m.sleep_add_local = {t.sleep_add.local_n4, t.sleep_add.local_n64};
  m.sleep_add_remote = {t.sleep_add.remote_n4, t.sleep_add.remote_n64};
  m.sleep_del_local = {t.sleep_del.local_n4, t.sleep_del.local_n64};
  m.release_exec = h.release_exec;
  m.sched_exec = h.sched_exec;
  m.ctxsw_exec = h.ctxsw_exec;
  m.cpmd_local = cpmd_local;
  m.cpmd_migration = cpmd_migration;
  return m;
}

OverheadModel Calibrate(const CalibrationConfig& cfg) {
  const Table1 t = MeasureTable1(cfg);
  const HandlerCosts h = MeasureHandlerCosts(cfg);
  const cache::CpmdModel cpmd{cache::CacheConfig::CoreI7()};
  // Representative working set: 64 KiB (the paper's "realistic
  // application" regime, larger than L1, well inside L3).
  constexpr std::size_t kWss = 64u << 10;
  return ModelFromMeasurements(t, h, cpmd.local_resume_delay(kWss, kWss),
                               cpmd.migration_resume_delay(kWss));
}

}  // namespace sps::overhead
