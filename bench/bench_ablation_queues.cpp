// Ablation A1 (DESIGN.md §6) — ready-queue and sleep-queue data-structure
// choices. The paper picked a binomial heap (ready) and a red-black tree
// (sleep); this bench compares the two in both roles at the paper's queue
// sizes, next to the sorted vector behind the kernel's event queue and a
// handle-less std::priority_queue speed reference.
//
// Two tiers of measurement, both through the SAME queue concept
// (containers/queue_traits.hpp) the scheduler uses:
//
//   1. single-operation pairs (google-benchmark steady state) — the
//      microscopic Table-1 view;
//   2. WHOLE SIMULATIONS per backend: the partitioned engine runs a
//      fixed SPA2 partition end-to-end with each ready/sleep backend
//      (SimConfig::ready_backend / sleep_backend), reporting simulated
//      time and queue ops per wall second. This is the macroscopic view
//      the container-only benches could never give: containers, policy,
//      and engine composing through one kernel.
//
// Expected outcome: at N = 4..64 all structures are within small constant
// factors — the paper's design is not load-bearing on the container
// choice, the log-N costs stay in the microsecond band regardless.
//
// The kernel's own event queue is not swept: it is one fixed sorted
// vector (sim/kernel.hpp EventQueue; DESIGN.md §6 A1b and §9 give the
// measurements behind that). After the google-benchmark pass, a
// sweep re-runs every ready/sleep x backend combination at m=4, 16 and
// 64 (sim::Simulate per variant on SPS_JOBS pool threads, each call
// timed) and writes BENCH_queues.json — wall-clock, dispatched
// events/sec, and per-backend op counts — so the perf trajectory is
// tracked across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "containers/queue_traits.hpp"
#include "overhead/model.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"
#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sps;
using namespace sps::containers;

struct Payload {
  std::uint64_t data[6];
};

// ---- Tier 1: single-operation pairs through the concept -------------------

template <typename Queue>
void ReadyPairBench(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(5);
  Queue q;
  for (std::size_t i = 0; i < n; ++i) q.push(rng(), Payload{});
  for (auto _ : state) {
    auto [key, v] = q.pop_min();
    q.push(key + 1000, v);  // re-arm like a next-period job
  }
  // Timed work only (one pop + one push per iteration); the N setup
  // pushes also sit in counters() and must not inflate items/s.
  state.SetItemsProcessed(2 * state.iterations());
}

void BM_Ready_BinomialHeap(benchmark::State& s) {
  ReadyPairBench<BinomialHeapQueue<std::uint64_t, Payload>>(s);
}
void BM_Ready_RbTree(benchmark::State& s) {
  ReadyPairBench<RbTreeQueue<std::uint64_t, Payload>>(s);
}
void BM_Ready_SortedVector(benchmark::State& s) {
  ReadyPairBench<SortedVectorStableQueue<std::uint64_t, Payload>>(s);
}
void BM_Ready_StdPriorityQueue(benchmark::State& s) {
  // The std baseline: vector-backed binary heap (no stable handles, so a
  // real scheduler could not use it for erase; speed reference only).
  const auto n = static_cast<std::size_t>(s.range(0));
  std::mt19937_64 rng(5);
  using Item = std::pair<std::uint64_t, Payload>;
  std::vector<Item> v;
  auto cmp = [](const Item& a, const Item& b) { return b.first < a.first; };
  for (std::size_t i = 0; i < n; ++i) v.push_back({rng(), Payload{}});
  std::make_heap(v.begin(), v.end(), cmp);
  for (auto _ : s) {
    std::pop_heap(v.begin(), v.end(), cmp);
    v.back().first += 1000;
    std::push_heap(v.begin(), v.end(), cmp);
  }
}
BENCHMARK(BM_Ready_BinomialHeap)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Ready_RbTree)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Ready_SortedVector)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Ready_StdPriorityQueue)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// The sleep-queue pattern differs from the ready pattern only in key
// distribution (monotonically advancing wake-ups) — same concept calls.
template <typename Queue>
void SleepPairBench(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::mt19937_64 rng(9);
  Queue q;
  for (std::size_t i = 0; i < n; ++i) q.push(rng(), Payload{});
  for (auto _ : state) {
    auto [k, v] = q.pop_min();
    q.push(k + 100000, v);  // wake and re-sleep one period later
  }
  state.SetItemsProcessed(2 * state.iterations());
}

void BM_Sleep_RbTree(benchmark::State& s) {
  SleepPairBench<RbTreeQueue<std::uint64_t, Payload>>(s);
}
void BM_Sleep_SortedVector(benchmark::State& s) {
  SleepPairBench<SortedVectorStableQueue<std::uint64_t, Payload>>(s);
}
void BM_Sleep_BinomialHeap(benchmark::State& s) {
  SleepPairBench<BinomialHeapQueue<std::uint64_t, Payload>>(s);
}
BENCHMARK(BM_Sleep_RbTree)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Sleep_SortedVector)->Arg(4)->Arg(16)->Arg(64)->Arg(256);
BENCHMARK(BM_Sleep_BinomialHeap)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

// ---- Tier 2: whole simulations per backend --------------------------------

/// A fixed, reproducible SPA2 workload (split tasks included), paper
/// overheads. Fails loudly on rejection rather than benchmark garbage.
partition::Partition MakeAblationPartition(unsigned cores,
                                           std::size_t tasks,
                                           double norm_util,
                                           std::uint64_t seed) {
  rt::GeneratorConfig gen;
  gen.num_tasks = tasks;
  gen.total_utilization = norm_util * cores;
  rt::Rng rng(seed);
  const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
  partition::SpaConfig cfg;
  cfg.num_cores = cores;
  cfg.model = overhead::OverheadModel::PaperCoreI7();
  cfg.preassign_heavy = true;
  auto pr = partition::SpaPartition(ts, cfg);
  if (!pr.success) {
    std::fprintf(stderr,
                 "ablation workload (m=%u, n=%zu) rejected by SPA2: %s\n",
                 cores, tasks, pr.failure_reason.c_str());
    std::abort();
  }
  return pr.partition;
}

/// The paper-scale workload: 24 tasks at 85% of 4 cores, 200 ms horizon.
const partition::Partition& AblationPartition() {
  static const partition::Partition p =
      MakeAblationPartition(4, 24, 0.85, 12345);
  return p;
}

/// The large-core-count workloads (JSON sweep only): 16 cores keep ~4x
/// the events in flight, 64 cores / 384 tasks ~16x.
const partition::Partition& LargeAblationPartition() {
  static const partition::Partition p =
      MakeAblationPartition(16, 96, 0.80, 777);
  return p;
}

const partition::Partition& HugeAblationPartition() {
  static const partition::Partition p =
      MakeAblationPartition(64, 384, 0.75, 777);
  return p;
}

void SimEndToEnd(benchmark::State& state, QueueBackend ready,
                 QueueBackend sleep) {
  sim::SimConfig cfg;
  cfg.horizon = Millis(200);
  cfg.overheads = overhead::OverheadModel::PaperCoreI7();
  cfg.ready_backend = ready;
  cfg.sleep_backend = sleep;
  std::uint64_t queue_ops = 0;
  Time simulated = 0;
  for (auto _ : state) {
    const sim::SimResult r = Simulate(AblationPartition(), cfg);
    benchmark::DoNotOptimize(r.total_misses);
    queue_ops += r.ready_ops.total() + r.sleep_ops.total() +
                 r.event_ops.total();
    simulated += r.simulated;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(queue_ops));
  state.counters["sim_ms_per_iter"] = benchmark::Counter(
      ToMillis(simulated) / static_cast<double>(state.iterations()));
}

// Ready-queue sweep (sleep fixed at the paper's RB tree) and sleep-queue
// sweep (ready fixed at the paper's binomial heap). The all-paper
// baseline of the sleep sweep IS BM_Sim_Ready_Binomial — not registered
// twice.
void BM_Sim_Ready_Binomial(benchmark::State& s) {
  SimEndToEnd(s, QueueBackend::kBinomialHeap, QueueBackend::kRbTree);
}
void BM_Sim_Ready_RbTree(benchmark::State& s) {
  SimEndToEnd(s, QueueBackend::kRbTree, QueueBackend::kRbTree);
}
void BM_Sim_Sleep_Binomial(benchmark::State& s) {
  SimEndToEnd(s, QueueBackend::kBinomialHeap, QueueBackend::kBinomialHeap);
}
BENCHMARK(BM_Sim_Ready_Binomial);
BENCHMARK(BM_Sim_Ready_RbTree);
BENCHMARK(BM_Sim_Sleep_Binomial);

// ---- BENCH_queues.json: one sweep over every role x backend --------------

using sps::bench::EnvInt;

/// One row of the sweep: the partition simulated under `cfg`.
struct Variant {
  std::string name;
  sim::SimConfig cfg;
  sim::SimResult result;
  double wall_s = 0.0;
};

/// `base` once per backend in the ready role (sleep left at the paper's
/// RB tree), then once per backend in the sleep role (ready left at the
/// paper's binomial heap), each named after the queue it varies.
std::vector<Variant> BackendVariants(const sim::SimConfig& base) {
  std::vector<Variant> v;
  for (const bool ready : {true, false}) {
    for (const QueueBackend b : kAllQueueBackends) {
      Variant& var = v.emplace_back();
      var.name = (ready ? "ready=" : "sleep=") + std::string(to_string(b));
      var.cfg = base;
      if (ready) {
        var.cfg.ready_backend = b;
      } else {
        var.cfg.sleep_backend = b;
      }
    }
  }
  return v;
}

void AppendSweep(util::JsonWriter& json, const char* workload,
                 const partition::Partition& p, const sim::SimConfig& base,
                 unsigned jobs) {
  // Best-of-reps wall time per variant: one-shot runs are too noisy to
  // track a perf trajectory across PRs.
  const int reps = std::max(1, EnvInt("SPS_REPS", 5));
  std::vector<Variant> variants = BackendVariants(base);
  for (int rep = 0; rep < reps; ++rep) {
    util::ParallelFor(jobs, variants.size(), [&](std::size_t i) {
      Variant& v = variants[i];
      const auto t0 = std::chrono::steady_clock::now();
      sim::SimResult r = sim::Simulate(p, v.cfg);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
      if (rep == 0) {
        v.result = std::move(r);
        v.wall_s = wall;
      } else {
        v.wall_s = std::min(v.wall_s, wall);
      }
    });
  }
  for (const Variant& v : variants) {
    json.BeginObject();
    json.Key("workload").Value(workload);
    json.Key("variant").Value(v.name);
    json.Key("wall_s").Value(v.wall_s);
    // Dispatched events per wall second — the DES throughput number.
    json.Key("events_per_sec")
        .Value(static_cast<double>(v.result.event_ops.pops) / v.wall_s);
    json.Key("ready_ops").Value(v.result.ready_ops.total());
    json.Key("sleep_ops").Value(v.result.sleep_ops.total());
    json.Key("event_ops").Value(v.result.event_ops.total());
    json.Key("misses").Value(v.result.total_misses);
    json.EndObject();
  }
}

void WriteQueuesJson() {
  // jobs=1 by default: per-variant wall times stay honest on a loaded
  // machine; raise SPS_JOBS to trade timing fidelity for speed.
  const auto jobs = static_cast<unsigned>(std::max(1, EnvInt("SPS_JOBS", 1)));
  sim::SimConfig base;
  base.horizon = Millis(200);
  base.overheads = overhead::OverheadModel::PaperCoreI7();

  util::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("ablation_queues");
  json.Key("jobs").Value(jobs);
  json.Key("runs").BeginArray();
  const std::pair<const char*, const partition::Partition*> workloads[] = {
      {"m4", &AblationPartition()},
      {"m16", &LargeAblationPartition()},
      {"m64", &HugeAblationPartition()}};
  for (const auto& [name, p] : workloads) {
    AppendSweep(json, name, *p, base, jobs);
  }
  json.EndArray();
  json.EndObject();
  if (!json.WriteFile("BENCH_queues.json")) {
    std::fprintf(stderr, "could not write BENCH_queues.json\n");
    std::exit(1);
  }
  std::printf("wrote BENCH_queues.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteQueuesJson();
  return 0;
}
