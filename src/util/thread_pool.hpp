#pragma once
// Fixed worker thread pool for the batch-experiment harness (DESIGN.md
// §8). A batch has two halves: Start(job, n, body) publishes a
// caller-owned Job and returns; Wait(job) runs the indices nobody has
// claimed on the caller, waits for the workers still inside and rethrows
// the first error. ParallelFor(n, body) is Start then Wait. Workers and
// the waiting caller claim indices with an atomic fetch-add on the Job:
// no queue nodes, no closures, no futures, zero per-index allocation,
// so a sweep of thousands of task-set simulations schedules work at the
// cost of one atomic op each. Between the halves the caller is free to
// do other work while the workers run the batch (the durable replay
// overlaps epoch validation with its requests this way, DESIGN.md §14).
//
// Exception semantics: a throwing body never abandons the batch — every
// remaining index still runs (the pool DRAINS), then Wait rethrows the
// FIRST captured exception on the caller. This is what makes a
// 10'000-simulation sweep abortable without leaving detached workers
// touching dead stack frames.
//
// Determinism contract: a batch promises nothing about index order —
// callers must write results only into per-index slots. Every harness
// built on top (exp/acceptance.*, the benches' sweeps) derives per-unit
// RNG seeds so outputs are bit-identical for ANY thread count,
// including 0.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sps::util {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers (0 = one per hardware thread). The pool
  /// is fixed-size for its lifetime; workers sleep when idle.
  explicit ThreadPool(unsigned num_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (the calling thread additionally participates in
  /// Wait, so total concurrency is num_threads() + 1).
  [[nodiscard]] unsigned num_threads() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// One batch of indices. Owned by the caller, who keeps it (and the
  /// body it runs) alive from Start until Wait returns; after Wait it
  /// can be started again. A Job that was never started, or has already
  /// been waited for, is idle: Wait on it returns at once.
  class Job {
   public:
    Job() = default;
    Job(const Job&) = delete;
    Job& operator=(const Job&) = delete;

   private:
    friend class ThreadPool;
    const std::function<void(std::size_t)>* body = nullptr;
    std::size_t end = 0;  ///< index count; 0 = idle
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    /// Workers inside, each holding a claimed index; guarded by mu_.
    /// Per job, so concurrent callers never wait for each other's
    /// workers.
    std::size_t attached = 0;
    std::exception_ptr first_error;  ///< guarded by mu_
  };

  /// Publish body(i) for every i in [0, n) to the workers and return at
  /// once. `job` must be idle. Only the newest started job is visible
  /// to workers: a later Start (from any thread) hides an earlier job,
  /// whose remaining indices its owner then runs at Wait.
  void Start(Job& job, std::size_t n,
             const std::function<void(std::size_t)>& body);

  /// Run the job's unclaimed indices on the calling thread, wait for the
  /// workers still running its claimed ones, leave the job idle and
  /// rethrow its first exception, if any.
  void Wait(Job& job);

  /// Start then Wait: run body(i) for every i in [0, n); returns when
  /// all n completed. Drains on exceptions and rethrows the first one;
  /// body must only write per-index state.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& body);

  /// Pool observability counters (DESIGN.md §16): how the work actually
  /// spread across workers. Scheduling-dependent, hence NOT
  /// deterministic — wall-channel data only (stderr, --profile-out,
  /// Perfetto tracks), never a byte-compared artifact.
  struct PoolStats {
    struct Worker {
      std::uint64_t indices = 0;  ///< batch indices executed
      std::uint64_t batches = 0;  ///< batches this worker joined
    };
    std::vector<Worker> workers;  ///< one row per pool worker
    Worker caller;  ///< aggregate over submitting callers' participation
    std::uint64_t batches = 0;  ///< batches published to the workers

    /// Indices executed by pool workers — "stolen" from the caller, who
    /// would have run them all inline in a poolless world.
    [[nodiscard]] std::uint64_t stolen_indices() const;
    [[nodiscard]] std::uint64_t total_indices() const;
    /// stolen/total in [0,1]; 0 when no indices ran.
    [[nodiscard]] double steal_ratio() const;
  };
  [[nodiscard]] PoolStats Stats() const;

 private:
  /// Per-worker counters, padded so neighbouring workers' relaxed
  /// increments never share a cache line. Slot workers_.size() is the
  /// shared CALLER slot (waiting callers are transient threads — a
  /// per-caller row would be unbounded).
  struct alignas(64) WorkerCounters {
    std::atomic<std::uint64_t> indices{0};
    std::atomic<std::uint64_t> batches{0};
  };

  void WorkerLoop(std::size_t worker);
  /// Run the already claimed index `i`, then claim and run indices
  /// until the job is exhausted, charging the work to `counters`.
  void RunIndices(Job& job, std::size_t i, WorkerCounters& counters);

  mutable std::mutex mu_;  ///< mutable: Stats() is logically const
  std::condition_variable work_cv_;  ///< workers: new batch / stop
  std::condition_variable done_cv_;  ///< caller: job fully finished
  Job* current_ = nullptr;  ///< the job workers join; guarded by mu_
  std::uint64_t batch_gen_ = 0;  ///< bumped per batch so workers join once
  std::uint64_t batches_submitted_ = 0;  ///< guarded by mu_
  bool stop_ = false;
  std::unique_ptr<WorkerCounters[]> counters_;  ///< workers + caller slot
  std::vector<std::thread> workers_;
};

/// Run body over [0, n) with `jobs` total threads of concurrency:
/// jobs == 1 runs inline (no pool, no synchronization), jobs == 0 uses
/// one thread per hardware thread. Results are identical for any value —
/// the serial path IS the specification of the parallel one. Spins up a
/// TRANSIENT pool per call (microseconds — noise next to any experiment
/// sweep); hold a ThreadPool yourself if that ever shows up.
void ParallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& body);

/// Process-wide lazily-created pool with one worker per hardware thread
/// minus one (the caller of ParallelFor participates, so total
/// concurrency is the hardware). The sharded simulator runs its
/// core-group kernels here (DESIGN.md §9) — spawning a transient pool
/// per simulation would put thread creation on the measured path.
/// Concurrent batches on this pool are safe (each owner drains its own
/// job at Wait) but serialize worker help; callers needing guaranteed
/// width should own a ThreadPool.
ThreadPool& SharedPool();

}  // namespace sps::util
