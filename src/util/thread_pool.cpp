#include "util/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace sps::util {

ThreadPool::ThreadPool(unsigned num_threads) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  if (num_threads == 0) num_threads = hw;
  // Guard against nonsense from CLI/env parsing (e.g. --jobs=-1 wrapped
  // to ~4e9): more workers than 4x the hardware never helps a
  // compute-bound sweep and thread spawning would die trying.
  num_threads = std::min(num_threads, 4 * hw);
  counters_ = std::make_unique<WorkerCounters[]>(num_threads + 1);
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop(std::size_t worker) {
  WorkerCounters& mine = counters_[worker];
  std::uint64_t seen_gen = 0;
  for (;;) {
    Job* job = nullptr;
    std::size_t first = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Look at each published job once per generation, and attach only
      // with an index in hand: a worker that wakes after the caller has
      // claimed every index must not make the caller wait for it.
      while (job == nullptr) {
        work_cv_.wait(lock, [&] {
          return stop_ || (current_ != nullptr && batch_gen_ != seen_gen);
        });
        if (stop_) return;
        seen_gen = batch_gen_;
        first = current_->next.fetch_add(1, std::memory_order_relaxed);
        if (first < current_->end) {
          // The attach count keeps the owner's Wait from returning (and
          // the job from dying) while this worker still holds it.
          job = current_;
          ++job->attached;
        }
      }
    }
    mine.batches.fetch_add(1, std::memory_order_relaxed);
    RunIndices(*job, first, mine);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --job->attached;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::RunIndices(Job& job, std::size_t i,
                            WorkerCounters& counters) {
  std::uint64_t ran = 0;
  for (; i < job.end; i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    ++ran;
    try {
      (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.first_error) job.first_error = std::current_exception();
    }
    // Count attempts (success or not): the job is done when every index
    // has RUN, which is what the drain guarantee means.
    job.completed.fetch_add(1, std::memory_order_release);
  }
  // One relaxed add per job, not per index — the gauges must not tax
  // the fetch-add claim loop they observe.
  if (ran > 0) counters.indices.fetch_add(ran, std::memory_order_relaxed);
}

void ThreadPool::Start(Job& job, std::size_t n,
                       const std::function<void(std::size_t)>& body) {
  assert(job.end == 0 && "Start on a job that is still live");
  if (n == 0) return;
  job.body = &body;
  job.end = n;
  job.next.store(0, std::memory_order_relaxed);
  job.completed.store(0, std::memory_order_relaxed);
  // Without workers there is nobody to publish to: Wait runs it all.
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = &job;
    ++batch_gen_;
    ++batches_submitted_;
  }
  work_cv_.notify_all();
}

void ThreadPool::Wait(Job& job) {
  if (job.end == 0) return;
  // The caller is a worker too; its indices land in the shared caller
  // slot (workers_.size()).
  RunIndices(job, job.next.fetch_add(1, std::memory_order_relaxed),
             counters_[workers_.size()]);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] {
      return job.attached == 0 &&
             job.completed.load(std::memory_order_acquire) == job.end;
    });
    // Retire the job, but only if a later Start has not already
    // published another one — that one must stay joinable.
    if (current_ == &job) current_ = nullptr;
    error = std::exchange(job.first_error, nullptr);
  }
  job.end = 0;
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(
    std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 1) {
    body(0);
    return;
  }
  Job job;
  Start(job, n, body);
  Wait(job);
}

void ParallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& body) {
  if (jobs == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // `jobs` counts TOTAL threads working; the caller is one of them.
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  if (jobs == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool pool(jobs - 1);
  pool.ParallelFor(n, body);
}

std::uint64_t ThreadPool::PoolStats::stolen_indices() const {
  std::uint64_t n = 0;
  for (const Worker& w : workers) n += w.indices;
  return n;
}

std::uint64_t ThreadPool::PoolStats::total_indices() const {
  return stolen_indices() + caller.indices;
}

double ThreadPool::PoolStats::steal_ratio() const {
  const std::uint64_t total = total_indices();
  if (total == 0) return 0.0;
  return static_cast<double>(stolen_indices()) / static_cast<double>(total);
}

ThreadPool::PoolStats ThreadPool::Stats() const {
  PoolStats s;
  s.workers.resize(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    s.workers[i].indices = counters_[i].indices.load(std::memory_order_relaxed);
    s.workers[i].batches = counters_[i].batches.load(std::memory_order_relaxed);
  }
  const WorkerCounters& c = counters_[workers_.size()];
  s.caller.indices = c.indices.load(std::memory_order_relaxed);
  s.caller.batches = c.batches.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.batches = batches_submitted_;
  }
  return s;
}

ThreadPool& SharedPool() {
  // At least one worker even on a single-hardware-thread host: callers
  // (the sharded simulator) are correct for ANY worker count, but a
  // zero-worker pool would silently run every batch inline and leave
  // the cross-thread paths untested wherever CI happens to be narrow.
  static ThreadPool pool(
      std::max(2u, std::thread::hardware_concurrency()) - 1);
  return pool;
}

}  // namespace sps::util
