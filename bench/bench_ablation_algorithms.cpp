// Ablation A2 (DESIGN.md §6) — algorithmic design choices of the
// partitioning layer, all at the paper's m=4 with measured overheads:
//
//   * admission test inside the bin packers: Liu&Layland vs hyperbolic vs
//     exact RTA (how much acceptance the cheap closed-form tests cost);
//   * SPA1 vs SPA2 (heavy-task pre-assignment);
//   * split-subtask priority: elevated vs native RM;
//   * fill mode: exact-RTA first-fit-with-splitting vs the literal
//     Liu&Layland threshold fill of the RTAS'10 proofs.
//
// Environment knobs: SPS_SETS (default 25), SPS_TASKS (default 16).

#include <cstdio>
#include <functional>
#include <vector>

#include "bench_common.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"

using namespace sps;
using sps::bench::EnvInt;

namespace {

using Runner = std::function<partition::PartitionResult(const rt::TaskSet&)>;

void Sweep(const char* title, const std::vector<std::pair<const char*, Runner>>&
                                  algos,
           int sets, int tasks) {
  std::printf("--- %s ---\n%10s", title, "norm.util");
  for (const auto& [name, fn] : algos) std::printf(" %16s", name);
  std::printf("\n");
  rt::GeneratorConfig gen;
  gen.num_tasks = static_cast<std::size_t>(tasks);
  for (const double nu : {0.70, 0.80, 0.85, 0.90, 0.95, 1.00}) {
    gen.total_utilization = nu * 4;
    std::vector<int> wins(algos.size(), 0);
    rt::Rng rng(static_cast<std::uint64_t>(nu * 1e6) + 17);
    for (int s = 0; s < sets; ++s) {
      const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
      for (std::size_t a = 0; a < algos.size(); ++a) {
        if (algos[a].second(ts).success) ++wins[a];
      }
    }
    std::printf("%10.2f", nu);
    for (const int w : wins) {
      std::printf(" %16.3f", static_cast<double>(w) / sets);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const int sets = EnvInt("SPS_SETS", 50);
  const int tasks = EnvInt("SPS_TASKS", 16);
  const overhead::OverheadModel m = overhead::OverheadModel::PaperCoreI7();
  std::printf("=== Ablations: partitioning design choices (m=4, n=%d, %d "
              "sets/point, paper overheads) ===\n\n",
              tasks, sets);

  auto binpack = [&m](partition::FitPolicy p,
                      partition::AdmissionTest t) -> Runner {
    return [p, t, &m](const rt::TaskSet& ts) {
      partition::BinPackConfig cfg;
      cfg.num_cores = 4;
      cfg.admission = t;
      cfg.model = m;
      return partition::BinPackDecreasing(ts, p, cfg);
    };
  };
  auto spa = [&m](bool heavy, partition::SplitPriorityMode mode,
                  partition::FillMode fill) -> Runner {
    return [=, &m](const rt::TaskSet& ts) {
      partition::SpaConfig cfg;
      cfg.num_cores = 4;
      cfg.model = m;
      cfg.preassign_heavy = heavy;
      cfg.split_mode = mode;
      cfg.fill = fill;
      return partition::SpaPartition(ts, cfg);
    };
  };

  using partition::AdmissionTest;
  using partition::FillMode;
  using partition::FitPolicy;
  using partition::SplitPriorityMode;

  Sweep("A2a: admission test inside FFD",
        {{"FFD/L&L", binpack(FitPolicy::kFirstFit, AdmissionTest::kLiuLayland)},
         {"FFD/hyperbolic",
          binpack(FitPolicy::kFirstFit, AdmissionTest::kHyperbolic)},
         {"FFD/exact-RTA", binpack(FitPolicy::kFirstFit, AdmissionTest::kRta)}},
        sets, tasks);

  Sweep("A2b: fit policy under exact RTA",
        {{"FFD", binpack(FitPolicy::kFirstFit, AdmissionTest::kRta)},
         {"BFD", binpack(FitPolicy::kBestFit, AdmissionTest::kRta)},
         {"WFD", binpack(FitPolicy::kWorstFit, AdmissionTest::kRta)},
         {"NFD", binpack(FitPolicy::kNextFit, AdmissionTest::kRta)}},
        sets, tasks);

  Sweep("A2c: SPA1 vs SPA2 (heavy pre-assignment)",
        {{"FP-TS(SPA1)",
          spa(false, SplitPriorityMode::kElevated, FillMode::kExactRta)},
         {"FP-TS(SPA2)",
          spa(true, SplitPriorityMode::kElevated, FillMode::kExactRta)}},
        sets, tasks);

  Sweep("A2d: split-subtask priority mode",
        {{"elevated",
          spa(true, SplitPriorityMode::kElevated, FillMode::kExactRta)},
         {"native-RM",
          spa(true, SplitPriorityMode::kNative, FillMode::kExactRta)}},
        sets, tasks);

  Sweep("A2e: fill mode (exact RTA vs literal L&L threshold fill)",
        {{"exact-RTA",
          spa(true, SplitPriorityMode::kElevated, FillMode::kExactRta)},
         {"L&L-fill",
          spa(true, SplitPriorityMode::kElevated,
              FillMode::kLiuLaylandFill)}},
        sets, tasks);

  std::printf("Shape check: exact RTA admission dominates hyperbolic "
              "dominates L&L; SPA2 >= SPA1; elevated >= native; exact-RTA "
              "fill far above the ~0.7 ceiling of the literal L&L "
              "threshold fill.\n");
  return 0;
}
