// The threading/determinism contract of the batch harness (DESIGN.md
// §8): the thread pool distributes but never reorders observable
// results, exceptions drain instead of abandoning workers, and every
// experiment driver built on the pool is bit-identical for any job
// count — the serial run is the specification of the parallel one.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/acceptance.hpp"
#include "overhead/model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sps {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.ParallelFor(100, [&](std::size_t i) {
      sum += static_cast<std::uint64_t>(i);
    });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, DrainsUnderExceptions) {
  // A throwing body must not abandon the batch: every other index still
  // runs, and the first exception is rethrown on the caller.
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(kN,
                       [&](std::size_t i) {
                         ++ran;
                         if (i % 100 == 7) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), kN);  // the pool drained
  // ... and the pool is still serviceable afterwards.
  std::atomic<std::size_t> again{0};
  pool.ParallelFor(64, [&](std::size_t) { ++again; });
  EXPECT_EQ(again.load(), 64u);
}

TEST(ThreadPool, FreeFunctionSerialAndZeroJobs) {
  // jobs=1 must run inline; jobs=0 sizes from the hardware.
  std::vector<int> order;
  util::ParallelFor(1, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // unsynchronized: inline only
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  std::atomic<int> n{0};
  util::ParallelFor(0, 100, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, CallerWorksBetweenStartAndWait) {
  // Start returns at once and the workers run the job meanwhile; Wait
  // finishes it. Every index runs exactly once.
  util::ThreadPool pool(3);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::size_t> ran{0};
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    ++hits[i];
    ++ran;
  };
  util::ThreadPool::Job job;
  pool.Start(job, kN, body);
  // The caller's own work: wait (boundedly) for a worker to make
  // progress without the caller's help.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ran.load() == 0 && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  EXPECT_GT(ran.load(), 0u);
  pool.Wait(job);
  EXPECT_EQ(ran.load(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, WaitDrainsThenRethrowsTheFirstException) {
  util::ThreadPool pool(3);
  constexpr std::size_t kN = 500;
  std::atomic<std::size_t> ran{0};
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    ++ran;
    if (i % 50 == 3) throw std::runtime_error("boom");
  };
  util::ThreadPool::Job job;
  pool.Start(job, kN, body);
  EXPECT_THROW(pool.Wait(job), std::runtime_error);
  EXPECT_EQ(ran.load(), kN);  // drained before the rethrow
  // The error is reported once; the job is idle and can start again.
  EXPECT_NO_THROW(pool.Wait(job));
  std::atomic<std::size_t> again{0};
  const std::function<void(std::size_t)> count = [&](std::size_t) {
    ++again;
  };
  pool.Start(job, 32, count);
  pool.Wait(job);
  EXPECT_EQ(again.load(), 32u);
}

TEST(ThreadPool, ParallelForFromAnotherThreadCompletesWhileAJobIsLive) {
  // The workers that joined the live job are held inside it; a batch
  // another thread runs meanwhile must not depend on them (a validation
  // simulation with lanes does this on the shared pool).
  util::ThreadPool pool(3);
  std::atomic<bool> release{false};
  std::atomic<std::size_t> held{0};
  const std::function<void(std::size_t)> hold = [&](std::size_t) {
    ++held;
    while (!release.load()) std::this_thread::yield();
  };
  util::ThreadPool::Job job;
  pool.Start(job, 4, hold);
  std::atomic<std::size_t> other{0};
  std::thread t([&] {
    pool.ParallelFor(100, [&](std::size_t) { ++other; });
  });
  t.join();
  EXPECT_EQ(other.load(), 100u);
  release = true;
  pool.Wait(job);
  EXPECT_EQ(held.load(), 4u);
}

TEST(ThreadPool, WaitOnAJobNeverStartedReturnsAtOnce) {
  util::ThreadPool pool(2);
  util::ThreadPool::Job job;
  pool.Wait(job);
  const std::function<void(std::size_t)> never = [](std::size_t) {
    FAIL() << "an empty job ran an index";
  };
  pool.Start(job, 0, never);
  pool.Wait(job);
  EXPECT_EQ(pool.Stats().batches, 0u);
}

TEST(ThreadPool, ManyTwoIndexJobsRunEveryIndexOnce) {
  // Tiny jobs are where a worker most often wakes to find every index
  // claimed: it must neither run an index twice nor hold up the caller.
  util::ThreadPool pool(3);
  constexpr std::size_t kJobs = 10'000;
  std::vector<std::atomic<std::uint8_t>> hits(2 * kJobs);
  std::size_t base = 0;
  const std::function<void(std::size_t)> body = [&](std::size_t i) {
    ++hits[base + i];
  };
  util::ThreadPool::Job job;
  for (std::size_t j = 0; j < kJobs; ++j) {
    base = 2 * j;
    pool.Start(job, 2, body);
    pool.Wait(job);
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ---------------------------------------------------------------------------
// Seed derivation
// ---------------------------------------------------------------------------

TEST(DeriveSeed, CoordinatesDecorrelate) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t p = 0; p < 20; ++p) {
    for (std::uint64_t s = 0; s < 50; ++s) {
      seen.insert(util::DeriveSeed(123, p, s));
    }
  }
  EXPECT_EQ(seen.size(), 1000u);  // no collisions on a realistic grid
  // Pure function of its inputs, sensitive to each.
  EXPECT_EQ(util::DeriveSeed(1, 2, 3), util::DeriveSeed(1, 2, 3));
  EXPECT_NE(util::DeriveSeed(1, 2, 3), util::DeriveSeed(2, 2, 3));
  EXPECT_NE(util::DeriveSeed(1, 2, 3), util::DeriveSeed(1, 3, 2));
}

// ---------------------------------------------------------------------------
// RunAcceptance: identical results at any job count
// ---------------------------------------------------------------------------

exp::AcceptanceConfig SmallAcceptanceConfig() {
  exp::AcceptanceConfig cfg;
  cfg.num_cores = 2;
  cfg.num_tasks = 8;
  cfg.norm_util_points = {0.7, 0.85, 0.95};
  cfg.sets_per_point = 12;
  cfg.model = overhead::OverheadModel::PaperCoreI7();
  cfg.algorithms = {exp::Algo::kFfd, exp::Algo::kSpa2};
  return cfg;
}

void ExpectSameAcceptance(const exp::AcceptanceResult& a,
                          const exp::AcceptanceResult& b) {
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_EQ(a.points[i].norm_util, b.points[i].norm_util);
    EXPECT_EQ(a.points[i].acceptance, b.points[i].acceptance);
    EXPECT_EQ(a.points[i].mean_splits, b.points[i].mean_splits);
  }
}

TEST(BatchParallel, AcceptanceIdenticalAcrossJobCounts) {
  exp::AcceptanceConfig cfg = SmallAcceptanceConfig();
  cfg.jobs = 1;
  const exp::AcceptanceResult serial = exp::RunAcceptance(cfg);
  cfg.jobs = 8;
  const exp::AcceptanceResult parallel = exp::RunAcceptance(cfg);
  ExpectSameAcceptance(serial, parallel);
}

TEST(BatchParallel, AcceptanceProducesNontrivialResults) {
  exp::AcceptanceConfig cfg = SmallAcceptanceConfig();
  cfg.jobs = 4;
  const exp::AcceptanceResult res = exp::RunAcceptance(cfg);
  ASSERT_EQ(res.points.size(), 3u);
  // Low-utilization acceptance dominates high-utilization acceptance.
  for (std::size_t ai = 0; ai < cfg.algorithms.size(); ++ai) {
    EXPECT_GE(res.points[0].acceptance[ai] + 1e-12,
              res.points[2].acceptance[ai]);
  }
  // Something was accepted at the easy point.
  const double total = std::accumulate(res.points[0].acceptance.begin(),
                                       res.points[0].acceptance.end(), 0.0);
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace sps
