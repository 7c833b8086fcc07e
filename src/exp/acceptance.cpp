#include "exp/acceptance.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "partition/spa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sps::exp {

const char* ToString(Algo a) {
  switch (a) {
    case Algo::kFfd: return "FFD";
    case Algo::kWfd: return "WFD";
    case Algo::kBfd: return "BFD";
    case Algo::kSpa1: return "FP-TS(SPA1)";
    case Algo::kSpa2: return "FP-TS(SPA2)";
    case Algo::kEdfFfd: return "EDF-FFD";
    case Algo::kEdfWm: return "EDF-WM";
  }
  return "?";
}

partition::PartitionResult RunAlgorithm(Algo a, const rt::TaskSet& ts,
                                        unsigned num_cores,
                                        const overhead::OverheadModel& model,
                                        const analysis::MemoConfig& memo) {
  switch (a) {
    case Algo::kFfd:
    case Algo::kWfd:
    case Algo::kBfd: {
      partition::BinPackConfig cfg;
      cfg.num_cores = num_cores;
      cfg.admission = partition::AdmissionTest::kRta;
      cfg.model = model;
      const auto policy = a == Algo::kFfd   ? partition::FitPolicy::kFirstFit
                          : a == Algo::kWfd ? partition::FitPolicy::kWorstFit
                                            : partition::FitPolicy::kBestFit;
      return partition::BinPackDecreasing(ts, policy, cfg);
    }
    case Algo::kSpa1:
    case Algo::kSpa2: {
      partition::SpaConfig cfg;
      cfg.num_cores = num_cores;
      cfg.model = model;
      cfg.preassign_heavy = (a == Algo::kSpa2);
      return partition::SpaPartition(ts, cfg);
    }
    case Algo::kEdfFfd:
    case Algo::kEdfWm: {
      partition::EdfPartitionConfig cfg;
      cfg.num_cores = num_cores;
      cfg.model = model;
      cfg.memo = memo;
      return a == Algo::kEdfWm
                 ? partition::EdfWm(ts, cfg)
                 : partition::EdfBinPack(ts, partition::FitPolicy::kFirstFit,
                                         cfg);
    }
  }
  return {};
}

std::vector<double> AcceptanceConfig::DefaultGrid() {
  std::vector<double> g;
  for (int i = 600; i <= 1000; i += 25) {
    g.push_back(static_cast<double>(i) / 1000.0);
  }
  return g;
}

AcceptanceResult RunAcceptance(const AcceptanceConfig& cfg) {
  AcceptanceResult result;
  result.config = cfg;

  const std::size_t npoints = cfg.norm_util_points.size();
  const std::size_t nsets = static_cast<std::size_t>(
      std::max(0, cfg.sets_per_point));
  const std::size_t nalgo = cfg.algorithms.size();

  // One (point, set) pair is one unit of parallel work; every unit owns
  // an RNG derived from its coordinates and writes only its own slots,
  // so the sweep is bit-identical for any job count.
  std::vector<std::uint8_t> accepted(npoints * nsets * nalgo, 0);
  std::vector<std::uint8_t> sim_ok(npoints * nsets * nalgo, 0);
  std::vector<std::uint32_t> spa_accepts(npoints * nsets, 0);
  std::vector<std::uint32_t> spa_splits(npoints * nsets, 0);
  // Per-unit streaming-metrics slices (validate_by_simulation): the
  // cell's response histogram (all tasks merged) and worst tardiness.
  // Fixed-size per-cell storage, merged per point after the joins —
  // the same own-slot discipline that keeps the sweep jobs-invariant.
  std::vector<obs::LogHistogram> resp_hist;
  std::vector<Time> max_tard;
  if (cfg.validate_by_simulation) {
    resp_hist.resize(npoints * nsets * nalgo);
    max_tard.assign(npoints * nsets * nalgo, 0);
  }

  util::ParallelFor(cfg.jobs, npoints * nsets, [&](std::size_t u) {
    const std::size_t pi = u / nsets;
    const std::size_t si = u % nsets;

    rt::GeneratorConfig gen;
    gen.num_tasks = cfg.num_tasks;
    gen.max_task_utilization = cfg.max_task_utilization;
    gen.period_min = cfg.period_min;
    gen.period_max = cfg.period_max;
    gen.total_utilization = cfg.norm_util_points[pi] * cfg.num_cores;

    rt::Rng rng(util::DeriveSeed(cfg.seed, pi, si));
    const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
    for (std::size_t ai = 0; ai < nalgo; ++ai) {
      const partition::PartitionResult pr =
          RunAlgorithm(cfg.algorithms[ai], ts, cfg.num_cores, cfg.model,
                       cfg.memo);
      if (pr.success) {
        accepted[u * nalgo + ai] = 1;
        if (cfg.algorithms[ai] == Algo::kSpa1 ||
            cfg.algorithms[ai] == Algo::kSpa2) {
          ++spa_accepts[u];
          spa_splits[u] += static_cast<std::uint32_t>(
              pr.partition.num_split_tasks());
        }
        if (cfg.validate_by_simulation) {
          // Simulate the accepted placement. The unit already runs on a
          // pool worker, so it simulates in place; seeds derive from unit
          // coordinates in a range DISJOINT from the generator streams
          // (whose first coordinate is a point index < npoints <=
          // npoints*nsets), so validation is deterministic,
          // jobs-invariant, and never correlated with any cell's task-set
          // generation.
          sim::SimConfig scfg = cfg.validate_sim;
          scfg.overheads = cfg.model;
          scfg.record_metrics = true;  // per-point aggregation below
          const std::uint64_t vcoord = npoints * nsets + u;
          scfg.exec.seed = util::DeriveSeed(cfg.seed, vcoord, ai);
          scfg.arrivals.seed =
              util::DeriveSeed(cfg.seed, vcoord, nalgo + ai);
          const sim::SimResult vr = sim::Simulate(pr.partition, scfg);
          sim_ok[u * nalgo + ai] = vr.total_misses == 0 ? 1 : 0;
          obs::LogHistogram& h = resp_hist[u * nalgo + ai];
          Time& tard = max_tard[u * nalgo + ai];
          for (const obs::TaskMetrics& tm : vr.metrics.tasks) {
            h += tm.response;
            tard = std::max(tard, tm.max_tardiness);
          }
        }
      }
    }
  });

  for (std::size_t pi = 0; pi < npoints; ++pi) {
    AcceptancePoint ap;
    ap.norm_util = cfg.norm_util_points[pi];
    ap.acceptance.assign(nalgo, 0.0);
    std::vector<std::uint64_t> point_sim_ok(nalgo, 0);
    std::uint64_t point_spa_accepts = 0;
    std::uint64_t point_spa_splits = 0;
    for (std::size_t si = 0; si < nsets; ++si) {
      const std::size_t u = pi * nsets + si;
      for (std::size_t ai = 0; ai < nalgo; ++ai) {
        ap.acceptance[ai] += accepted[u * nalgo + ai];
        point_sim_ok[ai] += sim_ok[u * nalgo + ai];
      }
      point_spa_accepts += spa_accepts[u];
      point_spa_splits += spa_splits[u];
    }
    if (cfg.validate_by_simulation) {
      ap.sim_validated.assign(nalgo, 1.0);
      ap.sim_p99_response.assign(nalgo, 0);
      ap.sim_max_tardiness.assign(nalgo, 0);
      for (std::size_t ai = 0; ai < nalgo; ++ai) {
        if (ap.acceptance[ai] > 0) {
          ap.sim_validated[ai] = static_cast<double>(point_sim_ok[ai]) /
                                 ap.acceptance[ai];
        }
        obs::LogHistogram merged;
        for (std::size_t si = 0; si < nsets; ++si) {
          const std::size_t u = pi * nsets + si;
          merged += resp_hist[u * nalgo + ai];
          ap.sim_max_tardiness[ai] = std::max(
              ap.sim_max_tardiness[ai], max_tard[u * nalgo + ai]);
        }
        ap.sim_p99_response[ai] = merged.Quantile(0.99);
      }
    }
    if (nsets > 0) {
      for (double& acc : ap.acceptance) {
        acc /= static_cast<double>(nsets);
      }
    }
    if (point_spa_accepts > 0) {
      ap.mean_splits = static_cast<double>(point_spa_splits) /
                       static_cast<double>(point_spa_accepts);
    }
    result.points.push_back(std::move(ap));
  }
  return result;
}

std::string AcceptanceResult::Table() const {
  std::string out = "norm.util ";
  char buf[160];
  for (const Algo a : config.algorithms) {
    std::snprintf(buf, sizeof(buf), "%12s", ToString(a));
    out += buf;
  }
  out += "   mean-splits";
  if (config.validate_by_simulation) {
    for (const Algo a : config.algorithms) {
      std::snprintf(buf, sizeof(buf), "  sim:%-8s", ToString(a));
      out += buf;
    }
    for (const Algo a : config.algorithms) {
      std::snprintf(buf, sizeof(buf), "  p99ms:%-6s", ToString(a));
      out += buf;
    }
  }
  out += "\n";
  for (const AcceptancePoint& p : points) {
    std::snprintf(buf, sizeof(buf), "%9.3f ", p.norm_util);
    out += buf;
    for (const double a : p.acceptance) {
      std::snprintf(buf, sizeof(buf), "%12.3f", a);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "   %8.2f", p.mean_splits);
    out += buf;
    for (const double v : p.sim_validated) {
      std::snprintf(buf, sizeof(buf), "  %12.3f", v);
      out += buf;
    }
    for (const Time t : p.sim_p99_response) {
      std::snprintf(buf, sizeof(buf), "  %12.2f", ToMillis(t));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::string AcceptanceResult::Csv() const {
  std::string out = "norm_util";
  for (const Algo a : config.algorithms) {
    out += ",";
    out += ToString(a);
  }
  out += ",mean_splits";
  if (config.validate_by_simulation) {
    for (const Algo a : config.algorithms) {
      out += ",sim_";
      out += ToString(a);
    }
    for (const Algo a : config.algorithms) {
      out += ",p99_response_ms_";
      out += ToString(a);
    }
    for (const Algo a : config.algorithms) {
      out += ",max_tardiness_us_";
      out += ToString(a);
    }
  }
  out += "\n";
  char buf[64];
  for (const AcceptancePoint& p : points) {
    std::snprintf(buf, sizeof(buf), "%.4f", p.norm_util);
    out += buf;
    for (const double a : p.acceptance) {
      std::snprintf(buf, sizeof(buf), ",%.4f", a);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), ",%.3f", p.mean_splits);
    out += buf;
    for (const double v : p.sim_validated) {
      std::snprintf(buf, sizeof(buf), ",%.4f", v);
      out += buf;
    }
    for (const Time t : p.sim_p99_response) {
      std::snprintf(buf, sizeof(buf), ",%.3f", ToMillis(t));
      out += buf;
    }
    for (const Time t : p.sim_max_tardiness) {
      std::snprintf(buf, sizeof(buf), ",%.1f", ToMicros(t));
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::vector<double> AcceptanceResult::WeightedAcceptance() const {
  std::vector<double> w(config.algorithms.size(), 0.0);
  if (points.empty()) return w;
  for (const AcceptancePoint& p : points) {
    for (std::size_t i = 0; i < w.size(); ++i) w[i] += p.acceptance[i];
  }
  for (double& x : w) x /= static_cast<double>(points.size());
  return w;
}

}  // namespace sps::exp
