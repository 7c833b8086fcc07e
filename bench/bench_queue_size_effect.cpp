// Ablation A4 — the queue-size dimension of Table 1. The paper measures
// its overheads at N = 4 and N = 64 because queue operations are
// O(log N): delta grows from 3.3 to 4.6 us and theta from 3.3 to 5.8 us.
// Does that growth matter for schedulability?
//
// We sweep the number of tasks per set (which drives per-core queue
// sizes) and compare acceptance under
//   (a) the N-aware model (costs interpolated at each core's actual N),
//   (b) a model frozen at the N=4 costs,
//   (c) a model frozen at the N=64 costs (pessimistic for small systems).
//
// Expected shape: the three columns are nearly identical at every n —
// the log-N growth of a few microseconds is immaterial against
// millisecond periods, reinforcing the paper's conclusion that the
// semi-partitioned machinery is cheap at any realistic queue size.
//
// Environment knobs: SPS_SETS (default 50).

#include <cstdio>

#include "bench_common.hpp"
#include "exp/acceptance.hpp"
#include "overhead/model.hpp"

using namespace sps;
using sps::bench::EnvInt;

namespace {

/// Freeze an OpCost at one anchor (flat in N).
overhead::OpCost Flat(Time v) { return overhead::OpCost{v, v}; }

overhead::OverheadModel FrozenAt(bool n64) {
  overhead::OverheadModel m = overhead::OverheadModel::PaperCoreI7();
  auto freeze = [&](overhead::OpCost& c) {
    c = Flat(n64 ? c.at_n64 : c.at_n4);
  };
  freeze(m.ready_add_local);
  freeze(m.ready_add_remote);
  freeze(m.ready_del_local);
  freeze(m.sleep_add_local);
  freeze(m.sleep_add_remote);
  freeze(m.sleep_del_local);
  return m;
}

double Weighted(const overhead::OverheadModel& model, std::size_t tasks,
                int sets) {
  exp::AcceptanceConfig cfg;
  cfg.num_cores = 4;
  cfg.num_tasks = tasks;
  cfg.norm_util_points = {0.85, 0.90, 0.925, 0.95};
  cfg.sets_per_point = sets;
  cfg.model = model;
  cfg.algorithms = {exp::Algo::kSpa2};
  const auto res = exp::RunAcceptance(cfg);
  return res.WeightedAcceptance()[0];
}

}  // namespace

int main() {
  const int sets = EnvInt("SPS_SETS", 50);
  std::printf("=== A4: does the O(log N) queue-cost growth matter? "
              "(FP-TS(SPA2), m=4, util band 0.85-0.95, %d sets/point) "
              "===\n\n",
              sets);
  std::printf("%8s | %12s %12s %12s\n", "n tasks", "N-aware",
              "frozen@N=4", "frozen@N=64");
  for (const std::size_t n : {8u, 16u, 32u, 64u}) {
    const double aware =
        Weighted(overhead::OverheadModel::PaperCoreI7(), n, sets);
    const double small = Weighted(FrozenAt(false), n, sets);
    const double big = Weighted(FrozenAt(true), n, sets);
    std::printf("%8zu | %12.3f %12.3f %12.3f\n", n, aware, small, big);
  }
  std::printf("\nShape check: columns within a few points of each other "
              "at every n — Table 1's delta/theta growth from N=4 to N=64 "
              "(3.3->4.6us, 3.3->5.8us) is schedulability-irrelevant at "
              "millisecond periods.\n");
  return 0;
}
