// E7 — single-run speed (DESIGN.md §9): how fast is ONE big simulation,
// end-to-end? Four configurations of the SAME workload, bit-identity
// enforced between them:
//
//   serial              the default path: one kernel per core group
//                       (sorted-vector event queue + job arena +
//                       NullSink), the groups one after another on the
//                       caller — what every default-config simulation
//                       runs on;
//   sharded             the same kernels claimed by one thread per
//                       hardware thread (shards=0, DESIGN.md §9);
//   serial_traced       serial with the RecordSink (trace + metrics
//                       recording, DESIGN.md §10) — the
//                       NullSink-vs-recording A/B;
//   sharded_traced      the threads with per-kernel RecordSinks and the
//                       post-run canonical merge.
//
// On top of the SimResult bit-identity check, the two traced variants'
// merged traces are compared BYTE-FOR-BYTE (the §10 determinism
// contract re-proved on every perf run).
//
// Workloads are the queue-ablation partitions at m=16 and m=64 — the
// scales where the ROADMAP flagged single-run latency as the remaining
// serial bottleneck. Wall times are best-of-SPS_REPS; results land in
// BENCH_single_run.json, which tools/check_bench_regression.py compares
// (ratio-wise, per workload) against bench/baselines/.
//
// The bench FAILS (non-zero exit) if any configuration's SimResult
// deviates from the serial default's — the determinism contract is
// checked on every perf run, not only in ctest.
//
// NOTE on expectations: the threads only pay off when the machine has
// cores to spare AND the partition has several core groups (cores
// joined by split tasks, DESIGN.md §9). On a single-hardware-thread
// host shards=0 is one thread, i.e. the serial run — the JSON's machine
// block records hardware_threads, compiler and build type so the
// trajectory is interpretable. Both m16 and m64 partitions have no
// split task (16 and 64 single-core groups), so the serial run is
// already a sequence of uniprocessor kernels; the traced ratios carry
// the buffer merge over that many buffers.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "overhead/model.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"
#include "trace/gantt.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace sps;

partition::Partition MakeWorkload(unsigned cores, std::size_t tasks,
                                  double norm_util, std::uint64_t seed) {
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
    std::fprintf(stderr, "workload (m=%u, n=%zu) rejected: %s\n", cores,
                 tasks, pr.failure_reason.c_str());
    std::abort();
  }
  return pr.partition;
}

struct Variant {
  const char* name;
  sim::SimConfig cfg;
};

std::vector<Variant> Variants(Time horizon) {
  sim::SimConfig base;
  base.horizon = horizon;
  base.overheads = overhead::OverheadModel::PaperCoreI7();

  Variant serial{"serial", base};

  Variant sharded{"sharded", base};
  sharded.cfg.shards = 0;  // one worker per hardware thread

  Variant traced{"serial_traced", base};
  traced.cfg.record_trace = true;
  traced.cfg.record_metrics = true;

  Variant sharded_traced{"sharded_traced", base};
  sharded_traced.cfg.shards = 0;
  sharded_traced.cfg.record_trace = true;
  sharded_traced.cfg.record_metrics = true;

  return {serial, sharded, traced, sharded_traced};
}

/// The fields the differential tests compare, flattened for equality.
bool SameResult(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.total_misses != b.total_misses ||
      a.total_migrations != b.total_migrations ||
      a.total_preemptions != b.total_preemptions ||
      a.simulated != b.simulated || !(a.ready_ops == b.ready_ops) ||
      !(a.sleep_ops == b.sleep_ops) || !(a.event_ops == b.event_ops) ||
      a.tasks.size() != b.tasks.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    if (a.tasks[i].released != b.tasks[i].released ||
        a.tasks[i].completed != b.tasks[i].completed ||
        a.tasks[i].deadline_misses != b.tasks[i].deadline_misses ||
        a.tasks[i].max_response != b.tasks[i].max_response ||
        a.tasks[i].avg_response != b.tasks[i].avg_response) {
      return false;
    }
  }
  return true;
}

struct Measured {
  std::string name;
  double wall_s = 0.0;
  sim::SimResult result;
};

bool RunWorkload(util::JsonWriter& json, const char* label,
                 const partition::Partition& p, Time horizon, int reps) {
  const std::vector<Variant> variants = Variants(horizon);
  std::vector<Measured> out(variants.size());
  for (std::size_t i = 0; i < variants.size(); ++i) {
    out[i].name = variants[i].name;
    out[i].wall_s = 1e100;
  }
  // Each rep runs every variant once, so a slow phase of the machine
  // hits all variants alike instead of skewing their ratios.
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      sim::SimResult r = sim::Simulate(p, variants[i].cfg);
      const auto t1 = std::chrono::steady_clock::now();
      out[i].wall_s = std::min(
          out[i].wall_s, std::chrono::duration<double>(t1 - t0).count());
      out[i].result = std::move(r);
    }
  }

  // Bit-identity across every configuration (the serial default is the
  // specification).
  const Measured* serial = nullptr;
  for (const Measured& m : out) {
    if (m.name == "serial") serial = &m;
  }
  bool ok = true;
  for (const Measured& m : out) {
    if (!SameResult(serial->result, m.result)) {
      std::fprintf(stderr, "FAIL %s: %s deviates from serial\n", label,
                   m.name.c_str());
      ok = false;
    }
  }
  // Byte-identity of the canonical traces and equality of the metrics
  // across serial and sharded recording (DESIGN.md §10).
  const Measured* traced = nullptr;
  const Measured* sharded_traced = nullptr;
  for (const Measured& m : out) {
    if (m.name == "serial_traced") traced = &m;
    if (m.name == "sharded_traced") sharded_traced = &m;
  }
  if (traced != nullptr && sharded_traced != nullptr) {
    if (traced->result.trace_events.empty()) {
      std::fprintf(stderr, "FAIL %s: traced run recorded no events\n",
                   label);
      ok = false;
    }
    if (trace::ToCsv(traced->result.trace_events) !=
        trace::ToCsv(sharded_traced->result.trace_events)) {
      std::fprintf(stderr,
                   "FAIL %s: sharded trace deviates from serial trace\n",
                   label);
      ok = false;
    }
    if (!(traced->result.metrics == sharded_traced->result.metrics)) {
      std::fprintf(stderr,
                   "FAIL %s: sharded metrics deviate from serial\n", label);
      ok = false;
    }
  }

  for (const Measured& m : out) {
    json.BeginObject();
    json.Key("workload").Value(label);
    json.Key("variant").Value(m.name);
    json.Key("wall_s").Value(m.wall_s);
    json.Key("events_per_sec")
        .Value(static_cast<double>(m.result.event_ops.pops) / m.wall_s);
    json.Key("speedup_vs_serial").Value(serial->wall_s / m.wall_s);
    json.Key("misses").Value(m.result.total_misses);
    json.EndObject();
    std::printf("  %-18s %-18s %8.3f ms  %10.0f ev/s  x%.2f\n", label,
                m.name.c_str(), m.wall_s * 1e3,
                static_cast<double>(m.result.event_ops.pops) / m.wall_s,
                serial->wall_s / m.wall_s);
  }
  return ok;
}

}  // namespace

int main() {
  using sps::bench::EnvInt;
  const int reps = std::max(1, EnvInt("SPS_REPS", 5));
  const Time horizon = Millis(std::max(1, EnvInt("SPS_HORIZON_MS", 200)));

  util::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("single_run");
  bench::WriteMachine(json);
  json.Key("reps").Value(static_cast<std::uint64_t>(reps));
  json.Key("runs").BeginArray();

  std::printf("single-run speed (best of %d reps, horizon %.0f ms)\n", reps,
              ToMillis(horizon));
  bool ok = RunWorkload(json, "m16", MakeWorkload(16, 96, 0.80, 777),
                        horizon, reps);
  ok = RunWorkload(json, "m64", MakeWorkload(64, 384, 0.75, 777), horizon,
                   reps) &&
       ok;

  json.EndArray();
  json.EndObject();
  if (!json.WriteFile("BENCH_single_run.json")) {
    std::fprintf(stderr, "could not write BENCH_single_run.json\n");
    return 1;
  }
  std::printf("wrote BENCH_single_run.json\n");
  return ok ? 0 : 1;
}
