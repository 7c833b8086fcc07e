// Extension bench — the EDF side of the paper's §2 remark that the
// scheduler "can be easily extended to support a wide range of
// semi-partitioned algorithms based on both fixed-priority and EDF
// scheduling". Acceptance-ratio comparison, all under the measured
// overhead model:
//
//   partitioned:       FFD (RM)      vs  EDF-FFD
//   semi-partitioned:  FP-TS (SPA2)  vs  EDF-WM
//
// Expected shape: EDF variants dominate their fixed-priority twins (cores
// fill to ~100% instead of the RM ceiling), the semi-partitioned variant
// dominates the partitioned one within each policy, and EDF-WM is the
// overall winner — consistent with the Kato-line results the paper cites.
//
// Environment knobs: SPS_SETS (default 50), SPS_TASKS (default 16).

#include <cstdio>

#include "bench_common.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"

using namespace sps;
using sps::bench::EnvInt;

int main() {
  const int sets = EnvInt("SPS_SETS", 50);
  const int tasks = EnvInt("SPS_TASKS", 16);
  const overhead::OverheadModel m = overhead::OverheadModel::PaperCoreI7();
  std::printf("=== Extension: fixed-priority vs EDF, partitioned vs "
              "semi-partitioned (m=4, n=%d, %d sets/point, paper "
              "overheads) ===\n\n",
              tasks, sets);
  std::printf("%10s %10s %10s %12s %10s\n", "norm.util", "FFD(RM)",
              "FP-TS", "EDF-FFD", "EDF-WM");

  rt::GeneratorConfig gen;
  gen.num_tasks = static_cast<std::size_t>(tasks);
  for (const double nu :
       {0.70, 0.80, 0.85, 0.90, 0.925, 0.95, 0.975, 1.00}) {
    gen.total_utilization = nu * 4;
    int ffd = 0, spa = 0, edf_ffd = 0, edf_wm = 0;
    rt::Rng rng(static_cast<std::uint64_t>(nu * 1e6) + 2011);
    for (int s = 0; s < sets; ++s) {
      const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
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
      partition::EdfPartitionConfig ecfg;
      ecfg.num_cores = 4;
      ecfg.model = m;
      if (partition::EdfBinPack(ts, partition::FitPolicy::kFirstFit, ecfg)
              .success) {
        ++edf_ffd;
      }
      if (partition::EdfWm(ts, ecfg).success) ++edf_wm;
    }
    std::printf("%10.3f %10.3f %10.3f %12.3f %10.3f\n", nu,
                static_cast<double>(ffd) / sets,
                static_cast<double>(spa) / sets,
                static_cast<double>(edf_ffd) / sets,
                static_cast<double>(edf_wm) / sets);
  }
  std::printf("\nShape check: within each policy, semi-partitioned >= "
              "partitioned; EDF columns >= their RM counterparts; EDF-WM "
              "highest overall.\n");
  return 0;
}
