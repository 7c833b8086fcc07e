#pragma once
// Acceptance-ratio experiment (paper §4): generate random task sets over a
// grid of total utilizations, run each partitioning algorithm (FP-TS
// semi-partitioned vs FFD/WFD partitioned RM), and report the fraction of
// sets each algorithm schedules — with the measured overhead model charged
// everywhere. This is the harness behind benches E5 (headline comparison)
// and E6 (overhead sensitivity).

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/memo.hpp"
#include "obs/metrics.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"

namespace sps::exp {

enum class Algo {
  kFfd,   ///< first-fit decreasing partitioned RM (paper baseline)
  kWfd,   ///< worst-fit decreasing partitioned RM (paper baseline)
  kBfd,   ///< best-fit decreasing (ablation)
  kSpa1,  ///< FP-TS without heavy-task pre-assignment
  kSpa2,  ///< FP-TS with heavy-task pre-assignment (the full algorithm)
  kEdfFfd,  ///< first-fit decreasing partitioned EDF (extension)
  kEdfWm,   ///< EDF-WM window-split semi-partitioned EDF (extension)
};

const char* ToString(Algo a);

/// Run one algorithm on one task set under one overhead model. `memo`
/// configures the admission-verdict transposition table of the EDF
/// algorithms; the fixed-priority ones (FFD/WFD/BFD, SPA) are uncached.
partition::PartitionResult RunAlgorithm(
    Algo a, const rt::TaskSet& ts, unsigned num_cores,
    const overhead::OverheadModel& model,
    const analysis::MemoConfig& memo = {});

struct AcceptanceConfig {
  unsigned num_cores = 4;
  std::size_t num_tasks = 16;
  double max_task_utilization = 1.0;
  /// Normalized utilization grid (total utilization = point * num_cores).
  std::vector<double> norm_util_points;
  int sets_per_point = 100;
  std::uint64_t seed = 20110318;  // PPES 2011 workshop date
  overhead::OverheadModel model = overhead::OverheadModel::Zero();
  std::vector<Algo> algorithms = {Algo::kFfd, Algo::kWfd, Algo::kSpa2};
  /// Period range for the generator (log-uniform).
  Time period_min = Millis(10);
  Time period_max = Millis(1000);
  /// Total threads the sweep may use (1 = serial, 0 = one per hardware
  /// thread). Every (point, set) unit draws its RNG from
  /// util::DeriveSeed(seed, point, set), so the result is bit-identical
  /// for every value of `jobs`.
  unsigned jobs = 1;
  /// Validation stage (ROADMAP: "acceptance sweeps that SIMULATE each
  /// accepted set"): every accepted partition is additionally run
  /// through sim::Simulate under `validate_sim` (overheads
  /// taken from `model`, seeds derived per unit) and checked for
  /// deadline misses. AcceptancePoint::sim_validated reports the
  /// fraction of accepted sets that survive — an analysis-vs-execution
  /// cross-check: a sound analysis must score 1.0.
  bool validate_by_simulation = false;
  sim::SimConfig validate_sim;
  /// Admission-verdict transposition table of the EDF algorithms, shared
  /// by every (point, set) unit across the pool's threads
  /// (analysis/memo.hpp). Verdicts are
  /// decision-identical to uncached, so the sweep stays bit-identical
  /// for every jobs value AND every cache state.
  analysis::MemoConfig memo;

  /// The default grid of the field's acceptance plots: 0.60 .. 1.00 in
  /// steps of 0.025. Generated by integer stepping, so the last point is
  /// exactly 1.0 (repeated += 0.025 drifts).
  static std::vector<double> DefaultGrid();
};

struct AcceptancePoint {
  double norm_util = 0.0;
  /// Acceptance ratio per algorithm, aligned with config.algorithms.
  std::vector<double> acceptance;
  /// Mean number of split tasks among accepted FP-TS partitions (if an
  /// SPA algorithm is present; else 0).
  double mean_splits = 0.0;
  /// validate_by_simulation only: fraction of this point's ACCEPTED
  /// sets per algorithm whose simulation finished without a deadline
  /// miss (1.0 when nothing was accepted — no counter-evidence).
  std::vector<double> sim_validated;
  /// validate_by_simulation only (per algorithm): streaming-metrics
  /// aggregation over the point's validation runs (DESIGN.md §10). The
  /// p99 response comes from the point-merged log2 histogram (all tasks
  /// of all accepted sets — the sweep-level latency picture the paper's
  /// plots never had); the tardiness is the worst over the point.
  std::vector<Time> sim_p99_response;
  std::vector<Time> sim_max_tardiness;
};

struct AcceptanceResult {
  AcceptanceConfig config;
  std::vector<AcceptancePoint> points;

  /// Fixed-width table, one row per utilization point.
  [[nodiscard]] std::string Table() const;
  /// Machine-readable CSV with a header row.
  [[nodiscard]] std::string Csv() const;
  /// Weighted acceptance (area under the curve) per algorithm — a single
  /// scalar for comparisons.
  [[nodiscard]] std::vector<double> WeightedAcceptance() const;
};

AcceptanceResult RunAcceptance(const AcceptanceConfig& cfg);

}  // namespace sps::exp
