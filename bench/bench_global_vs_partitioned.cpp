// Premise bench — paper §1: "Recent studies showed that the partitioned
// approach is superior in scheduling hard real-time systems". We make the
// three-way comparison executable:
//
//   global:           G-RM (ABJ test)  /  G-EDF (GFB test)
//   partitioned:      FFD (exact overhead-aware RTA)
//   semi-partitioned: FP-TS (SPA2)
//
// plus the Dhall effect run live in both engines.
//
// Expected shape: the global tests' acceptance collapses far earlier than
// partitioned RM (their utilization bounds cap at m^2/(3m-2) ~ 0.4m and
// m(1-umax)+umax); FP-TS dominates everything — the paper's motivation
// chain reproduced end to end.
//
// Environment knobs: SPS_SETS (default 50), SPS_TASKS (default 16).

#include <cstdio>

#include "bench_common.hpp"
#include "analysis/global_tests.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"
#include "sim/global_engine.hpp"

using namespace sps;
using sps::bench::EnvInt;

int main() {
  const int sets = EnvInt("SPS_SETS", 50);
  const int tasks = EnvInt("SPS_TASKS", 16);
  const overhead::OverheadModel m = overhead::OverheadModel::PaperCoreI7();

  std::printf("=== Premise: global vs partitioned vs semi-partitioned "
              "(m=4, n=%d, %d sets/point) ===\n\n",
              tasks, sets);
  std::printf("%10s %10s %10s %10s %10s\n", "norm.util", "G-RM(ABJ)",
              "G-EDF(GFB)", "FFD(RTA)", "FP-TS");

  rt::GeneratorConfig gen;
  gen.num_tasks = static_cast<std::size_t>(tasks);
  for (const double nu : {0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90}) {
    gen.total_utilization = nu * 4;
    int grm = 0, gedf = 0, ffd = 0, spa = 0;
    rt::Rng rng(static_cast<std::uint64_t>(nu * 1e6) + 42);
    for (int s = 0; s < sets; ++s) {
      const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
      if (analysis::GlobalRmAbjTest(ts.tasks(), 4)) ++grm;
      if (analysis::GlobalEdfGfbTest(ts.tasks(), 4)) ++gedf;
      partition::BinPackConfig bp;
      bp.num_cores = 4;
      bp.admission = partition::AdmissionTest::kRta;
      bp.model = m;
      if (partition::Ffd(ts, bp).success) ++ffd;
      partition::SpaConfig spa_cfg;
      spa_cfg.num_cores = 4;
      spa_cfg.model = m;
      spa_cfg.preassign_heavy = true;
      if (partition::SpaPartition(ts, spa_cfg).success) ++spa;
    }
    std::printf("%10.2f %10.3f %10.3f %10.3f %10.3f\n", nu,
                static_cast<double>(grm) / sets,
                static_cast<double>(gedf) / sets,
                static_cast<double>(ffd) / sets,
                static_cast<double>(spa) / sets);
  }

  std::printf("\n--- the Dhall effect, executed (m=4) ---\n");
  const rt::TaskSet dhall = analysis::DhallEffectSet(4);
  std::printf("set: 4 x (C=4ms, T=100ms) + 1 x (C=100ms, T=102ms), "
              "U=%.3f\n",
              dhall.total_utilization());
  sim::GlobalSimConfig g;
  g.num_cores = 4;
  g.horizon = Millis(1000);
  const sim::SimResult grun = SimulateGlobal(dhall, g);
  std::printf("global RM   : %llu deadline misses in 1s\n",
              static_cast<unsigned long long>(grun.total_misses));
  g.policy = sim::GlobalPolicy::kGlobalEdf;
  const sim::SimResult erun = SimulateGlobal(dhall, g);
  std::printf("global EDF  : %llu deadline misses in 1s\n",
              static_cast<unsigned long long>(erun.total_misses));
  partition::BinPackConfig bp;
  bp.num_cores = 4;
  bp.admission = partition::AdmissionTest::kRta;
  const partition::PartitionResult pr = partition::Ffd(dhall, bp);
  if (pr.success) {
    sim::SimConfig pc;
    pc.horizon = Millis(1000);
    const sim::SimResult prun = Simulate(pr.partition, pc);
    std::printf("partitioned : %llu deadline misses in 1s (FFD placed it "
                "whole)\n",
                static_cast<unsigned long long>(prun.total_misses));
  }
  std::printf("\nShape check: BOTH global policies miss on the Dhall set "
              "(the heavy task's deadline loses the synchronous race on "
              "every core) while the partitioned placement runs clean; the "
              "acceptance table shows the global tests collapsing around "
              "0.3-0.5 normalized utilization while FFD/FP-TS hold to "
              "0.9+.\n");
  return 0;
}
