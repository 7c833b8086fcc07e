// The four workloads of the end-to-end benchmark. Sizes, seeds and the
// reason each workload exists are in bench/e2e/README.md; every input is
// generated here from the workload's derived seed, and the library sees
// only those inputs through its public functions.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/memo.hpp"
#include "e2e.hpp"
#include "exp/acceptance.hpp"
#include "obs/spans.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "partition/spa.hpp"
#include "rt/generator.hpp"
#include "sim/batch.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace e2e {
namespace {

using namespace sps;
namespace fs = std::filesystem;

bool Full(const Context& ctx) { return ctx.scale == Scale::kFull; }

// ---- shared pieces ---------------------------------------------------------

/// Seconds and record count of one profiler stage.
struct StageTotal {
  double seconds = 0.0;
  double count = 0.0;
};

StageTotal Stage(const obs::SpanProfiler& prof, obs::SpanStage stage) {
  for (const obs::SpanProfiler::StageReport& r : prof.Report()) {
    if (r.stage == stage) {
      return {static_cast<double>(r.total_ns) / 1e9,
              static_cast<double>(r.count)};
    }
  }
  return {};
}

/// The analysis-stage busy times every instrumented admission test
/// records (partition/binpack.cpp, partition/edf_wm.cpp).
void AnalysisTimes(const obs::SpanProfiler& prof, Layers& l) {
  using S = obs::SpanStage;
  l["analysis.busy_s"] = Stage(prof, S::kAnalysis).seconds;
  l["analysis.memo_probe_s"] = Stage(prof, S::kMemoProbe).seconds;
  l["analysis.util_screen_s"] = Stage(prof, S::kUtilScreen).seconds;
}

void MemoCounts(double hits, double misses, double evicts, Layers& l) {
  l["analysis.memo.lookups"] = hits + misses;
  l["analysis.memo.hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  l["analysis.memo.evictions"] = evicts;
}

/// Share of a root span its direct children do not cover.
double Unattributed(const SpanLog& log, const std::string& root) {
  const double d = log.Duration(root);
  return d > 0 ? log.SelfTime(root) / d : 0.0;
}

void DigestSim(const sim::SimResult& r, Digest& d) {
  for (const sim::TaskStats& t : r.tasks) {
    d.Add(std::uint64_t{t.id});
    d.Add(t.released);
    d.Add(t.completed);
    d.Add(t.deadline_misses);
    d.Add(t.shed);
    d.Add(t.preemptions);
    d.Add(t.migrations);
    d.Add(static_cast<std::uint64_t>(t.max_response));
    d.Add(t.avg_response);
  }
  for (const sim::CoreStats& c : r.cores) {
    d.Add(static_cast<std::uint64_t>(c.busy_exec));
    d.Add(static_cast<std::uint64_t>(c.overhead_rls + c.overhead_sch +
                                     c.overhead_cnt1 + c.overhead_cnt2));
    d.Add(c.context_switches);
  }
  for (const containers::QueueOpCounters& q :
       {r.ready_ops, r.sleep_ops, r.event_ops}) {
    d.Add(q.pushes);
    d.Add(q.pops);
    d.Add(q.erases);
  }
  d.Add(static_cast<std::uint64_t>(r.simulated));
}

/// The decision fields bench_durability.cpp's SameDecisions compares:
/// everything but wall time and the cache-dependent memo counters.
void DigestReplay(const online::ReplayResult& r, Digest& d) {
  for (const online::EpochStats& e : r.epochs) {
    d.Add(static_cast<std::uint64_t>(e.start));
    d.Add(static_cast<std::uint64_t>(e.end));
    d.Add(std::uint64_t{e.admits});
    d.Add(std::uint64_t{e.rejects});
    d.Add(std::uint64_t{e.leaves});
    d.Add(e.churn.total());
    d.Add(e.churn.repartitions);
    d.Add(e.overload.degrades + e.overload.sheds);
    d.Add(std::uint64_t{e.resident});
    d.Add(std::uint64_t{e.shed_resident});
    d.Add(std::uint64_t{e.degraded_resident});
    d.Add(e.utilization);
    d.Add(std::uint64_t{e.validated});
    d.Add(std::uint64_t{e.fault_active});
    d.Add(e.sim_misses);
    d.Add(e.hard_misses);
  }
  d.Add(r.admits);
  d.Add(r.rejects);
  d.Add(r.leaves);
  d.Add(r.churn.moved);
  d.Add(r.churn.split);
  d.Add(r.churn.unsplit);
  d.Add(r.churn.repartitions);
  d.Add(r.overload.degrades);
  d.Add(r.overload.degrade_restores);
  d.Add(r.overload.sheds);
  d.Add(r.overload.shed_restores);
  d.Add(r.overload.retry_attempts);
  d.Add(r.overload.hysteresis_blocks);
  d.Add(std::uint64_t{r.shed_outstanding});
  d.Add(r.admission.util_rejects);
  d.Add(r.admission.density_accepts);
  d.Add(r.admission.full_tests);
  d.Add(r.final_partition.summary());
}

/// Requests whose replay ended with a durability error, plus hard-task
/// misses in validated epochs.
std::uint64_t ReplayFailures(const online::ReplayResult& r,
                             std::size_t requests) {
  std::uint64_t failed = r.durability_error.ok() ? 0 : requests;
  for (const online::EpochStats& e : r.epochs) failed += e.hard_misses;
  return failed;
}

/// Layer metrics of a replay: the §15 profiler's stage totals plus the
/// result counters.
void OnlineLayers(const obs::SpanProfiler& prof,
                  const std::vector<online::ReplayResult>& results,
                  Layers& l) {
  using S = obs::SpanStage;
  AnalysisTimes(prof, l);
  l["online.admit_s"] = Stage(prof, S::kAdmitTotal).seconds;
  l["online.admit_p99_us"] =
      static_cast<double>(
          prof.StageHistogram(S::kAdmitTotal).Quantile(0.99)) /
      1e3;
  l["online.leave_s"] = Stage(prof, S::kLeave).seconds;
  l["online.placement_s"] = Stage(prof, S::kPlacement).seconds;
  l["online.fallback_s"] = Stage(prof, S::kFallback).seconds;
  l["online.fallbacks"] = Stage(prof, S::kFallback).count;
  l["online.ladder_s"] = Stage(prof, S::kLadderDegrade).seconds +
                        Stage(prof, S::kLadderShed).seconds;
  l["online.epoch_apply_s"] = Stage(prof, S::kEpochApply).seconds;
  l["online.epoch_validate_s"] = Stage(prof, S::kEpochValidate).seconds;

  double admits = 0, rejects = 0, churn = 0;
  partition::AdmitStats a;
  for (const online::ReplayResult& r : results) {
    admits += static_cast<double>(r.admits);
    rejects += static_cast<double>(r.rejects);
    churn += static_cast<double>(r.churn.total());
    a += r.admission;
  }
  l["online.accept_ratio"] =
      admits + rejects > 0 ? admits / (admits + rejects) : 0.0;
  l["online.churn_per_admit"] = admits > 0 ? churn / admits : 0.0;
  l["analysis.util_rejects"] = static_cast<double>(a.util_rejects);
  l["analysis.density_accepts"] = static_cast<double>(a.density_accepts);
  l["analysis.full_tests"] = static_cast<double>(a.full_tests);
  MemoCounts(static_cast<double>(a.memo_hits),
             static_cast<double>(a.memo_misses),
             static_cast<double>(a.memo_evicts), l);
}

/// Share of the replay's root span outside every stage the replay loop
/// opens directly (the stages nested below these are inside them).
double OnlineUnattributed(const SpanLog& log, const std::string& root,
                          const obs::SpanProfiler& prof) {
  using S = obs::SpanStage;
  const double d = log.Duration(root);
  double covered = 0.0;
  for (const S s : {S::kAdmitTotal, S::kLeave, S::kEpochApply,
                    S::kEpochValidate, S::kCheckpointWrite,
                    S::kRecoveryRedo}) {
    covered += Stage(prof, s).seconds;
  }
  return d > 0 ? (d - covered) / d : 0.0;
}

void CountMismatch(const Sample& got, const Sample& want, Sample& out) {
  out.attempted += got.attempted;
  out.failed += got.failed;
  if (got.digest != want.digest) {
    std::fprintf(stderr, "FAIL: digest %s differs from %s\n",
                 Hex(got.digest).c_str(), Hex(want.digest).c_str());
    out.failed += got.attempted;
  }
}

// ---- acceptance_sweep ------------------------------------------------------

class AcceptanceSweep final : public Workload {
 public:
  [[nodiscard]] const char* name() const override {
    return "acceptance_sweep";
  }

  void Setup(const Context& ctx) override {
    cfg_ = exp::AcceptanceConfig{};
    cfg_.num_cores = 16;
    cfg_.num_tasks = 64;
    cfg_.norm_util_points = exp::AcceptanceConfig::DefaultGrid();
    cfg_.sets_per_point = Full(ctx) ? 300 : 15;
    cfg_.seed = ctx.seed;
    cfg_.model = overhead::OverheadModel::PaperCoreI7();
    cfg_.algorithms = {exp::Algo::kFfd, exp::Algo::kWfd, exp::Algo::kSpa2};
    cfg_.jobs = ctx.jobs;
    // Fingerprint every input set, drawn exactly as RunAcceptance draws
    // them, so the decision digest also pins the generator.
    Digest d;
    for (std::size_t pi = 0; pi < points(); ++pi) {
      for (std::size_t si = 0; si < sets(); ++si) {
        for (const rt::Task& t : Generate(pi, si)) {
          d.Add(static_cast<std::uint64_t>(t.wcet));
          d.Add(static_cast<std::uint64_t>(t.period));
        }
      }
    }
    input_digest_ = d.value();
  }

  [[nodiscard]] Sample Rep(const Context&) override {
    const double t0 = NowS();
    const exp::AcceptanceResult r = exp::RunAcceptance(cfg_);
    Sample s;
    s.wall_s = NowS() - t0;
    Counts c;
    for (const exp::AcceptancePoint& p : r.points) {
      const double n = static_cast<double>(sets());
      for (std::size_t ai = 0; ai < kAlgos; ++ai) {
        c.accepts.push_back(static_cast<std::uint64_t>(
            std::llround(p.acceptance[ai] * n)));
      }
      c.splits.push_back(static_cast<std::uint64_t>(
          std::llround(p.mean_splits * p.acceptance[kSpa2Index] * n)));
    }
    Finish(c, s);
    return s;
  }

  [[nodiscard]] Sample Traced(const Context& ctx) override {
    const Sample par = Fork([&] { return Rep(ctx); });
    const Sample ser = Fork([&] { return Serial(nullptr); });
    Sample out = Fork([&] {
      SpanLog log;
      return Serial(&log);
    });
    const Sample traced = out;
    out.attempted = par.attempted;
    out.failed = par.failed;
    CountMismatch(ser, par, out);
    CountMismatch(traced, par, out);
    out.layers["util.pool.efficiency"] = ser.wall_s / (ctx.jobs * par.wall_s);
    out.layers["obs.trace_overhead"] = traced.wall_s / ser.wall_s;
    return out;
  }

 private:
  static constexpr std::size_t kAlgos = 3;
  static constexpr std::size_t kSpa2Index = 2;
  static constexpr const char* kSpanNames[kAlgos] = {
      "partition.ffd", "partition.wfd", "partition.spa2"};

  /// Accepted sets per (point, algorithm) and SPA2 split tasks per point.
  struct Counts {
    std::vector<std::uint64_t> accepts;
    std::vector<std::uint64_t> splits;
  };

  [[nodiscard]] std::size_t points() const {
    return cfg_.norm_util_points.size();
  }
  [[nodiscard]] std::size_t sets() const {
    return static_cast<std::size_t>(cfg_.sets_per_point);
  }

  [[nodiscard]] rt::TaskSet Generate(std::size_t pi, std::size_t si) const {
    rt::GeneratorConfig gen;
    gen.num_tasks = cfg_.num_tasks;
    gen.max_task_utilization = cfg_.max_task_utilization;
    gen.period_min = cfg_.period_min;
    gen.period_max = cfg_.period_max;
    gen.total_utilization = cfg_.norm_util_points[pi] * cfg_.num_cores;
    rt::Rng rng(sim::DeriveSeed(cfg_.seed, pi, si));
    return rt::GenerateTaskSet(gen, rng);
  }

  void Finish(const Counts& c, Sample& s) const {
    Digest d;
    d.Add(input_digest_);
    for (const std::uint64_t v : c.accepts) d.Add(v);
    for (const std::uint64_t v : c.splits) d.Add(v);
    s.digest = d.value();
    s.items = static_cast<double>(points() * sets());
    s.attempted = points() * sets();
  }

  /// The sweep re-driven serially through the same public calls, one
  /// span per generated set and per algorithm run; `log` null = untraced.
  [[nodiscard]] Sample Serial(SpanLog* log) const {
    obs::SpanProfiler prof;
    std::optional<obs::ProfilerInstallation> install;
    if (log != nullptr) install.emplace(&prof);
    Counts c;
    c.accepts.assign(points() * kAlgos, 0);
    c.splits.assign(points(), 0);
    const double t0 = NowS();
    {
      SpanLog::Scope root(log, "acceptance_sweep");
      for (std::size_t pi = 0; pi < points(); ++pi) {
        for (std::size_t si = 0; si < sets(); ++si) {
          rt::TaskSet ts;
          {
            SpanLog::Scope span(log, "rt.generate");
            ts = Generate(pi, si);
          }
          for (std::size_t ai = 0; ai < kAlgos; ++ai) {
            partition::PartitionResult pr;
            {
              SpanLog::Scope span(log, kSpanNames[ai]);
              pr = exp::RunAlgorithm(cfg_.algorithms[ai], ts, cfg_.num_cores,
                                     cfg_.model, cfg_.memo);
            }
            if (!pr.success) continue;
            ++c.accepts[pi * kAlgos + ai];
            if (ai == kSpa2Index) {
              c.splits[pi] += pr.partition.num_split_tasks();
            }
          }
        }
      }
    }
    Sample s;
    s.wall_s = NowS() - t0;
    Finish(c, s);
    if (log == nullptr) return s;

    Layers& l = s.layers;
    l["rt.generate_s"] = log->Total("rt.generate");
    const char* accept_names[kAlgos] = {"partition.ffd_accept",
                                        "partition.wfd_accept",
                                        "partition.spa2_accept"};
    double spa2_accepts = 0.0, spa2_splits = 0.0;
    for (std::size_t ai = 0; ai < kAlgos; ++ai) {
      double acc = 0.0;
      for (std::size_t pi = 0; pi < points(); ++pi) {
        acc += static_cast<double>(c.accepts[pi * kAlgos + ai]);
      }
      l[std::string(kSpanNames[ai]) + "_s"] = log->Total(kSpanNames[ai]);
      l[accept_names[ai]] = acc / s.items;
      if (ai == kSpa2Index) spa2_accepts = acc;
    }
    for (const std::uint64_t v : c.splits) {
      spa2_splits += static_cast<double>(v);
    }
    l["partition.spa2_splits_per_accept"] =
        spa2_accepts > 0 ? spa2_splits / spa2_accepts : 0.0;
    // The sweep has no AdmitStats plumbing: its counters come from the
    // memo table (cold in this child, serial, so they repeat exactly)
    // and the span counts at the same boundaries. Every FFD/WFD query
    // past the utilization screen is a memo lookup and counts as a full
    // test, hit or not (partition/binpack.cpp); SPA2 is uncached.
    const analysis::MemoStats m = analysis::SharedMemo().stats();
    const double hits = static_cast<double>(m.hits);
    MemoCounts(hits, static_cast<double>(m.misses),
               static_cast<double>(m.evicts), l);
    const double full =
        hits + Stage(prof, obs::SpanStage::kAnalysis).count;
    l["analysis.full_tests"] = full;
    l["analysis.util_rejects"] =
        Stage(prof, obs::SpanStage::kUtilScreen).count - full;
    AnalysisTimes(prof, l);
    l["unattributed_frac"] = Unattributed(*log, "acceptance_sweep");
    s.spans = log->ChromeEvents(0);
    return s;
  }

  exp::AcceptanceConfig cfg_;
  std::uint64_t input_digest_ = 0;
};

// ---- des_m64 ---------------------------------------------------------------

class DesM64 final : public Workload {
 public:
  [[nodiscard]] const char* name() const override { return "des_m64"; }

  void Setup(const Context& ctx) override {
    sim_ = sim::SimConfig{};
    sim_.horizon = Full(ctx) ? Millis(15000) : Millis(750);
    sim_.overheads = overhead::OverheadModel::PaperCoreI7();
    parts_ = Select(ctx, nullptr, nullptr);
  }

  [[nodiscard]] Sample Rep(const Context&) override {
    std::vector<sim::SimResult> results;
    results.reserve(parts_.size());
    const double t0 = NowS();
    for (const partition::Partition& p : parts_) {
      results.push_back(sim::Simulate(p, sim_));
    }
    Sample s;
    s.wall_s = NowS() - t0;
    Digest d;
    for (const sim::SimResult& r : results) Account(r, d, s);
    s.digest = d.value();
    return s;
  }

  /// The RecordSink path must reach the NullSink path's counters.
  [[nodiscard]] Sample Check(const Context&, const Sample& first) override {
    Sample s;
    Digest d;
    for (const partition::Partition& p : parts_) {
      Account(sim::Simulate(p, Recorded()), d, s);
    }
    s.digest = d.value();
    if (s.digest != first.digest) {
      std::fprintf(stderr, "FAIL des_m64: recorded run diverges\n");
      s.failed += s.attempted;
    }
    return s;
  }

  [[nodiscard]] Sample Traced(const Context& ctx) override {
    const Sample plain = Fork([&] { return Rep(ctx); });
    Sample out = Fork([&] {
      SpanLog log;
      Layers l;
      std::vector<partition::Partition> parts;
      {
        SpanLog::Scope root(&log, "des_m64.setup");
        parts = Select(ctx, &log, &l);
      }
      std::vector<sim::SimResult> results;
      const double t0 = NowS();
      {
        SpanLog::Scope root(&log, "des_m64");
        for (const partition::Partition& p : parts) {
          SpanLog::Scope span(&log, "sim.simulate");
          results.push_back(sim::Simulate(p, sim_));
        }
      }
      const double wall = NowS() - t0;
      // Recorded results carry their whole trace: fold each one in and
      // drop it before the next.
      Sample s, r;
      Digest ds, dr;
      {
        SpanLog::Scope root(&log, "des_m64.recorded");
        for (const partition::Partition& p : parts) {
          sim::SimResult res;
          {
            SpanLog::Scope span(&log, "sim.simulate_recorded");
            res = sim::Simulate(p, Recorded());
          }
          Account(res, dr, r);
        }
      }
      for (const sim::SimResult& res : results) Account(res, ds, s);
      s.digest = ds.value();
      r.digest = dr.value();
      CountMismatch(r, s, s);
      s.wall_s = wall;

      double events = 0, migrations = 0, preemptions = 0;
      double ready = 0, sleep = 0, event_ops = 0;
      for (const sim::SimResult& res : results) {
        events += static_cast<double>(res.event_ops.pops);
        migrations += static_cast<double>(res.total_migrations);
        preemptions += static_cast<double>(res.total_preemptions);
        ready += static_cast<double>(res.ready_ops.total());
        sleep += static_cast<double>(res.sleep_ops.total());
        event_ops += static_cast<double>(res.event_ops.total());
      }
      const double busy = log.Total("sim.simulate");
      l["sim.busy_s"] = busy;
      l["sim.events"] = events;
      l["sim.ns_per_event"] = events > 0 ? busy * 1e9 / events : 0.0;
      l["sim.migrations"] = migrations;
      l["sim.preemptions"] = preemptions;
      l["sim.record_ratio"] = log.Total("sim.simulate_recorded") / busy;
      l["containers.ready_ops"] = ready;
      l["containers.sleep_ops"] = sleep;
      l["containers.event_ops"] = event_ops;
      l["unattributed_frac"] = Unattributed(log, "des_m64");
      s.layers = l;
      s.spans = log.ChromeEvents(1);
      return s;
    });
    CountMismatch(plain, out, out);
    out.layers["obs.trace_overhead"] = out.wall_s / plain.wall_s;
    return out;
  }

 private:
  [[nodiscard]] sim::SimConfig Recorded() const {
    sim::SimConfig c = sim_;
    c.record_trace = true;
    c.record_metrics = true;
    return c;
  }

  /// Fold one simulation into a sample: its counters into `d`, its
  /// released jobs into the work done and its misses into the failures.
  static void Account(const sim::SimResult& r, Digest& d, Sample& s) {
    DigestSim(r, d);
    std::uint64_t released = 0;
    for (const sim::TaskStats& t : r.tasks) released += t.released;
    s.items += static_cast<double>(released);
    s.attempted += released;
    s.failed += r.total_misses;
  }

  /// The `sets` SPA2-accepted partitions with the most split tasks among
  /// a fixed number of seeded draws (ties: earlier draw). A fixed draw
  /// count keeps set-up cost independent of where the accepted sets fall.
  [[nodiscard]] std::vector<partition::Partition> Select(
      const Context& ctx, SpanLog* log, Layers* layers) const {
    constexpr int kDraws = 32;
    const std::size_t sets = Full(ctx) ? 8 : 2;
    rt::GeneratorConfig gen;
    gen.num_tasks = 256;
    gen.total_utilization = 0.97 * kCores;
    partition::SpaConfig spa;
    spa.num_cores = kCores;
    spa.model = overhead::OverheadModel::PaperCoreI7();
    spa.preassign_heavy = true;

    struct Candidate {
      unsigned splits;
      partition::Partition p;
    };
    std::vector<Candidate> accepted;
    double splits = 0.0;
    for (int k = 0; k < kDraws; ++k) {
      rt::TaskSet ts;
      {
        SpanLog::Scope span(log, "rt.generate");
        rt::Rng rng(util::DeriveSeed(ctx.seed, static_cast<std::uint64_t>(k),
                                     0));
        ts = rt::GenerateTaskSet(gen, rng);
      }
      partition::PartitionResult pr;
      {
        SpanLog::Scope span(log, "partition.spa2");
        pr = partition::SpaPartition(ts, spa);
      }
      if (!pr.success) continue;
      const unsigned n = pr.partition.num_split_tasks();
      splits += n;
      accepted.push_back({n, std::move(pr.partition)});
    }
    std::stable_sort(accepted.begin(), accepted.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.splits > b.splits;
                     });
    if (accepted.size() < sets || accepted.front().splits == 0) {
      throw std::runtime_error(
          "des_m64: too few SPA2-accepted sets with split tasks");
    }
    if (layers != nullptr) {
      (*layers)["rt.generate_s"] = log->Total("rt.generate");
      (*layers)["partition.spa2_s"] = log->Total("partition.spa2");
      const double n = static_cast<double>(accepted.size());
      (*layers)["partition.spa2_accept"] = n / kDraws;
      (*layers)["partition.spa2_splits_per_accept"] = splits / n;
    }
    std::vector<partition::Partition> out;
    for (std::size_t i = 0; i < sets; ++i) {
      out.push_back(std::move(accepted[i].p));
    }
    return out;
  }

  static constexpr unsigned kCores = 64;
  sim::SimConfig sim_;
  std::vector<partition::Partition> parts_;
};

// ---- online_saturated ------------------------------------------------------

class OnlineSaturated final : public Workload {
 public:
  [[nodiscard]] const char* name() const override {
    return "online_saturated";
  }

  void Setup(const Context& ctx) override {
    const std::size_t n = Full(ctx) ? 8 : 2;
    streams_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      online::StreamConfig sc;
      sc.num_admits = Full(ctx) ? 1800 : 360;
      sc.span = Full(ctx) ? Millis(20000) : Millis(4000);
      sc.leave_fraction = 1.0;
      sc.min_lifetime = Millis(100);
      sc.max_lifetime = Millis(1000);
      sc.soft_fraction = 0.3;
      sc.seed = util::DeriveSeed(ctx.seed, i, 0);
      streams_.push_back(online::GenerateStream(sc));
    }
    cfg_ = online::ReplayConfig{};
    cfg_.controller.admission.num_cores = 4;
    cfg_.controller.unsplit_on_leave = true;
    cfg_.epoch = Millis(500);
    cfg_.drain_epochs = 2;
    cfg_.seed = ctx.seed;
  }

  [[nodiscard]] Sample Rep(const Context& ctx) override {
    return Replay(ctx.jobs, nullptr);
  }

  [[nodiscard]] Sample Traced(const Context& ctx) override {
    const Sample par = Fork([&] { return Rep(ctx); });
    const Sample ser = Fork([&] { return Replay(1, nullptr); });
    Sample out = Fork([&] {
      SpanLog log;
      return Replay(1, &log);
    });
    const Sample traced = out;
    out.attempted = par.attempted;
    out.failed = par.failed;
    CountMismatch(ser, par, out);
    CountMismatch(traced, par, out);
    out.layers["util.pool.efficiency"] = ser.wall_s / (ctx.jobs * par.wall_s);
    out.layers["obs.trace_overhead"] = traced.wall_s / ser.wall_s;
    return out;
  }

 private:
  /// Replay every stream through ReplayBatch; with a log, serially and
  /// under the §15 profiler.
  [[nodiscard]] Sample Replay(unsigned jobs, SpanLog* log) const {
    obs::SpanProfiler prof;
    online::ReplayConfig cfg = cfg_;
    if (log != nullptr) cfg.obs.profiler = &prof;
    std::vector<online::ReplayResult> results;
    const double t0 = NowS();
    {
      SpanLog::Scope root(log, "online_saturated");
      results = online::ReplayBatch(streams_, cfg, jobs);
    }
    Sample s;
    s.wall_s = NowS() - t0;
    Digest d;
    for (std::size_t i = 0; i < results.size(); ++i) {
      DigestReplay(results[i], d);
      s.attempted += streams_[i].size();
      s.failed += ReplayFailures(results[i], streams_[i].size());
    }
    s.digest = d.value();
    s.items = static_cast<double>(s.attempted);
    if (log == nullptr) return s;
    OnlineLayers(prof, results, s.layers);
    s.layers["unattributed_frac"] =
        OnlineUnattributed(*log, "online_saturated", prof);
    s.spans = log->ChromeEvents(2);
    return s;
  }

  std::vector<online::WorkloadStream> streams_;
  online::ReplayConfig cfg_;
};

// ---- online_durable --------------------------------------------------------

class OnlineDurable final : public Workload {
 public:
  [[nodiscard]] const char* name() const override { return "online_durable"; }

  void Setup(const Context& ctx) override {
    online::StreamConfig sc;
    sc.num_admits = Full(ctx) ? 12000 : 600;
    sc.span = Full(ctx) ? Millis(600000) : Millis(30000);
    sc.leave_fraction = 1.0;
    sc.soft_fraction = 0.3;
    sc.util_min = 0.02;
    sc.util_max = 0.12;
    sc.min_lifetime = Millis(1000);
    sc.max_lifetime = Millis(9000);
    sc.seed = ctx.seed;
    stream_ = online::GenerateStream(sc);
    cfg_ = online::ReplayConfig{};
    cfg_.controller.admission.num_cores = 16;
    cfg_.epoch = Millis(500);
    cfg_.validate_by_simulation = true;
    cfg_.validate_sim.horizon = Millis(200);
    cfg_.seed = ctx.seed;
    cfg_.durability.checkpoint_every = 4;
    cfg_.durability.fsync = online::FsyncPolicy::kOff;
  }

  [[nodiscard]] Sample Rep(const Context& ctx) override {
    return Replay(Durable(ctx), nullptr);
  }

  /// A plain replay decides identically, and a run halted halfway then
  /// recovered ends identical to the uninterrupted one.
  [[nodiscard]] Sample Check(const Context& ctx, const Sample& first) override {
    Sample out;
    CountMismatch(Replay(cfg_, nullptr), first, out);
    online::ReplayConfig halt = Durable(ctx);
    halt.durability.halt_after_appends =
        static_cast<std::uint32_t>(stream_.size() / 2);
    const online::ReplayResult h = online::ReplayStream(stream_, halt);
    if (!h.durability_error.ok() || !h.recovery.halted_by_injection) {
      std::fprintf(stderr, "FAIL online_durable: halt did not fire\n");
      out.failed += stream_.size();
    }
    online::ReplayConfig rec = Durable(ctx);
    rec.durability.recover = true;
    CountMismatch(Replay(rec, nullptr), first, out);
    fs::remove_all(rec.durability.dir);
    return out;
  }

  [[nodiscard]] Sample Traced(const Context& ctx) override {
    const Sample plain = Fork([&] { return Replay(cfg_, nullptr); });
    const Sample durable = Fork([&] {
      const double before = WrittenBytes();
      Sample s = Replay(Durable(ctx), nullptr);
      s.layers["bytes"] = WrittenBytes() - before;
      return s;
    });
    const Sample recovered = Fork([&] {
      online::ReplayConfig halt = Durable(ctx);
      halt.durability.halt_after_appends =
          static_cast<std::uint32_t>(stream_.size() / 2);
      (void)online::ReplayStream(stream_, halt);
      online::ReplayConfig rec = Durable(ctx);
      rec.durability.recover = true;
      const double t0 = NowS();
      const online::ReplayResult r = online::ReplayStream(stream_, rec);
      Sample s;
      s.wall_s = NowS() - t0;
      fs::remove_all(rec.durability.dir);
      Digest d;
      DigestReplay(r, d);
      s.digest = d.value();
      s.attempted = stream_.size();
      s.failed = ReplayFailures(r, stream_.size());
      const online::RecoveryInfo& ri = r.recovery;
      s.layers["redo"] =
          ri.journal_records > ri.resume_seq
              ? static_cast<double>(ri.journal_records - ri.resume_seq)
              : 0.0;
      return s;
    });
    Sample out = Fork([&] {
      SpanLog log;
      return Replay(Durable(ctx), &log);
    });
    const Sample traced = out;
    out.attempted = durable.attempted;
    out.failed = durable.failed;
    CountMismatch(plain, durable, out);
    CountMismatch(recovered, durable, out);
    CountMismatch(traced, durable, out);
    const double bytes = durable.layers.at("bytes");
    Layers& l = out.layers;
    l["online.durability.journal_s"] = durable.wall_s - plain.wall_s;
    l["online.durability.bytes_written"] = bytes;
    l["online.durability.bytes_per_request"] =
        bytes / static_cast<double>(stream_.size());
    l["online.durability.recover_s"] = recovered.wall_s;
    l["online.durability.redo_records"] = recovered.layers.at("redo");
    l["obs.trace_overhead"] = traced.wall_s / durable.wall_s;
    return out;
  }

 private:
  /// The durable config with a fresh artifact directory for this process.
  [[nodiscard]] online::ReplayConfig Durable(const Context& ctx) const {
    online::ReplayConfig c = cfg_;
    c.durability.dir = ctx.tmp_dir + "/durable-" + std::to_string(getpid());
    return c;
  }

  [[nodiscard]] Sample Replay(online::ReplayConfig cfg, SpanLog* log) const {
    obs::SpanProfiler prof;
    if (log != nullptr) cfg.obs.profiler = &prof;
    online::ReplayResult r;
    const double t0 = NowS();
    {
      SpanLog::Scope root(log, "online_durable");
      r = online::ReplayStream(stream_, cfg);
    }
    Sample s;
    s.wall_s = NowS() - t0;
    if (cfg.durability.enabled() && !cfg.durability.recover) {
      fs::remove_all(cfg.durability.dir);
    }
    Digest d;
    DigestReplay(r, d);
    s.digest = d.value();
    s.items = static_cast<double>(stream_.size());
    s.attempted = stream_.size();
    s.failed = ReplayFailures(r, stream_.size());
    if (log == nullptr) return s;
    OnlineLayers(prof, {r}, s.layers);
    // The checkpoint span wraps the replay's hook on EVERY epoch entry
    // (online/durability.cpp); a checkpoint is written on every
    // checkpoint_every-th entry, counting from entry 0.
    const StageTotal hook = Stage(prof, obs::SpanStage::kCheckpointWrite);
    const double every = cfg.durability.checkpoint_every;
    s.layers["online.durability.checkpoint_write_s"] = hook.seconds;
    s.layers["online.durability.checkpoints"] = std::ceil(hook.count / every);
    s.layers["unattributed_frac"] =
        OnlineUnattributed(*log, "online_durable", prof);
    s.spans = log->ChromeEvents(3);
    return s;
  }

  online::WorkloadStream stream_;
  online::ReplayConfig cfg_;
};

}  // namespace

Sample Workload::Check(const Context&, const Sample&) { return {}; }

const std::vector<LayerMetric>& LayerMetrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"rt.generate_s", "s"},
      {"partition.ffd_s", "s"},
      {"partition.wfd_s", "s"},
      {"partition.spa2_s", "s"},
      {"partition.ffd_accept", "ratio"},
      {"partition.wfd_accept", "ratio"},
      {"partition.spa2_accept", "ratio"},
      {"partition.spa2_splits_per_accept", "count"},
      {"analysis.memo.lookups", "count"},
      {"analysis.memo.hit_ratio", "ratio"},
      {"analysis.memo.evictions", "count"},
      {"analysis.util_rejects", "count"},
      {"analysis.density_accepts", "count"},
      {"analysis.full_tests", "count"},
      {"analysis.busy_s", "s"},
      {"analysis.memo_probe_s", "s"},
      {"analysis.util_screen_s", "s"},
      {"sim.busy_s", "s"},
      {"sim.events", "count"},
      {"sim.ns_per_event", "ns"},
      {"sim.migrations", "count"},
      {"sim.preemptions", "count"},
      {"sim.record_ratio", "ratio"},
      {"containers.ready_ops", "count"},
      {"containers.sleep_ops", "count"},
      {"containers.event_ops", "count"},
      {"online.admit_s", "s"},
      {"online.admit_p99_us", "us"},
      {"online.leave_s", "s"},
      {"online.placement_s", "s"},
      {"online.fallback_s", "s"},
      {"online.fallbacks", "count"},
      {"online.ladder_s", "s"},
      {"online.epoch_apply_s", "s"},
      {"online.epoch_validate_s", "s"},
      {"online.accept_ratio", "ratio"},
      {"online.churn_per_admit", "ratio"},
      {"online.durability.journal_s", "s"},
      {"online.durability.checkpoint_write_s", "s"},
      {"online.durability.checkpoints", "count"},
      {"online.durability.bytes_written", "bytes"},
      {"online.durability.bytes_per_request", "bytes"},
      {"online.durability.recover_s", "s"},
      {"online.durability.redo_records", "count"},
      {"util.pool.efficiency", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"unattributed_frac", "ratio"},
  };
  return kMetrics;
}

std::vector<std::unique_ptr<Workload>> MakeWorkloads() {
  std::vector<std::unique_ptr<Workload>> w;
  w.push_back(std::make_unique<AcceptanceSweep>());
  w.push_back(std::make_unique<DesM64>());
  w.push_back(std::make_unique<OnlineSaturated>());
  w.push_back(std::make_unique<OnlineDurable>());
  return w;
}

}  // namespace e2e
