// E8-E11 — the online service's overhead ratios: one binary, four
// sections, four JSON files. Walls are best-of-SPS_REPS (default 3); the
// cache A/B and the calm path take more reps when their replays are
// short (RepsFor: >= 2 s and >= 10 s of replays), since their 2x and 5%
// gates need the noise floor down. A failed gate exits 1 once all four
// files are written; a broken set-up or an erroring durable replay exits
// 1 at once. Each workload's reference variant comes first, so
// tools/check_bench_regression.py reads the others as ratios over it.
//
//   1) ADMISSION (DESIGN.md §11/§12) -> BENCH_online.json
//      a) per-admit cost at resident sizes 64..384 on m=16: "oracle"
//         re-partitions resident set + candidate from scratch (EdfWm,
//         the only offline answer to "does this fit"), "incremental"
//         asks the controller. Gate: across the 6x growth the
//         incremental cost grows < 1/2 as much as the oracle's.
//      b) the default ADMIT/LEAVE mix, incremental vs an oracle that
//         decides every ADMIT by EdfWm on its own surviving set. Gate:
//         acceptance ratios within 2 points.
//      c) analysis cache A/B, uncached vs cached, on a fallback-heavy
//         and a long admit/leave replay. Gate: cached >= 2x faster and
//         decision-identical. a) and b) run memo-off in both variants so
//         their ratios measure algorithmic cost, not cache state.
//      d) jobs-invariance: batches with validation sims decide the same
//         for jobs=1 and jobs=8 (the §8 contract).
//   2) OVERLOAD (§13) -> BENCH_overload.json
//      m=4 at ~0.9 util/core, a [500, 900) ms window inflating every job
//      to 1.3x C. "nofault" (policies off), "nofault-policy" (gated
//      two-sided in CI: the ladder must be free on a calm stream),
//      "faulted". Gates on the faulted replay: a) zero hard misses, every
//      epoch validated by simulation under the spike model, and the
//      oracle sheds > 0 (the window IS an overload); b) sheds <= the
//      greedy repacking oracle's +10%; c) >= 95% of shed tasks
//      re-admitted within the drain window. Plus jobs-invariance of
//      fault-injected (spike + storm) batches.
//   3) CALM PATH (§14-§16) -> BENCH_durability.json, BENCH_obs.json
//      A 600-admit stream on m=8, five variants interleaved per rep so
//      frequency scaling and cache state perturb them alike. "plain" is
//      the reference of both files: no profiler installed, so the span
//      hooks run their null path — the profiling-off product. Gates:
//        profiled       <= +50%: a sanity ceiling on two clock reads per
//                       span; the tight 3% gate on the profiling-OFF
//                       path is CI's two-sided check vs the baseline;
//        reqtraced      (K=32 request trees, §16) <= 1.10x profiled;
//        durable        journal + checkpoint every 4th epoch, fsync off
//                       (crash-, not power-durable): <= 5% over plain;
//        durable-fsync  informational: the power-durability premium is
//                       the page-cache flush, not the journaling.
//      Every variant decides exactly what plain decided (observers,
//      never participants); the tracer retained trees and the profiler
//      recorded spans.
//   4) RECOVERY (§14) -> BENCH_durability.json
//      The durable replay halted mid-service (the in-process analogue
//      of CI's SIGKILL) and recovered from its artifacts: the halt
//      fired and the stitched run decides exactly what plain decided.
//      "recover" re-runs only the tail, so its wall is informational.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/memo.hpp"
#include "bench_common.hpp"
#include "obs/spans.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "overhead/model.hpp"
#include "partition/edf_wm.hpp"
#include "rt/taskset.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace {

using namespace sps;
using online::ReplayConfig;
using online::ReplayResult;

constexpr double kUnset = 1e100;

/// Best-of-reps wall: each timer lowers `best` to its own lifetime, so a
/// rep loop reads `for (...) { BestWall t(wall); work(); }`.
class BestWall {
 public:
  explicit BestWall(double& best) : best_(best) {}
  BestWall(const BestWall&) = delete;
  BestWall& operator=(const BestWall&) = delete;
  ~BestWall() {
    best_ = std::min(best_, std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0_)
                                .count());
  }

 private:
  double& best_;
  const std::chrono::steady_clock::time_point t0_ =
      std::chrono::steady_clock::now();
};

/// One BENCH_*.json: the header on construction; Row() opens a run
/// object (closing the previous one) and returns the writer for the
/// row's extra fields; Write() closes the document and writes it.
class BenchDoc {
 public:
  BenchDoc(const char* bench, int reps) {
    json_.BeginObject();
    json_.Key("bench").Value(bench);
    bench::WriteMachine(json_);
    json_.Key("reps").Value(reps);
    json_.Key("runs").BeginArray();
  }

  util::JsonWriter& Row(const char* workload, const char* variant,
                        double wall_s) {
    if (row_open_) json_.EndObject();
    row_open_ = true;
    json_.BeginObject();
    json_.Key("workload").Value(workload);
    json_.Key("variant").Value(variant);
    json_.Key("wall_s").Value(wall_s);
    return json_;
  }

  bool Write(const char* path) {
    if (row_open_) json_.EndObject();
    json_.EndArray();
    json_.EndObject();
    if (!json_.WriteFile(path)) {
      std::fprintf(stderr, "could not write %s\n", path);
      return false;
    }
    std::printf("wrote %s\n", path);
    return true;
  }

 private:
  util::JsonWriter json_;
  bool row_open_ = false;
};

/// Reps for a best-of wall whose replay takes about `one` seconds: at
/// least `reps`, and enough that the measured replays add up to
/// `min_seconds`. A best-of over a few short replays reads the machine's
/// noise more than the code, and since the demand test walks by QPA the
/// cache A/B and calm-path replays are 2-7x shorter than when SPS_REPS's
/// default was set.
int RepsFor(double one, int reps, double min_seconds) {
  return std::max(reps, static_cast<int>(std::ceil(min_seconds / one)));
}

/// An in-bench gate: prints "FAIL <message>" unless `pass`.
[[gnu::format(printf, 2, 3)]] bool Gate(bool pass, const char* fmt, ...) {
  if (!pass) {
    std::va_list args;
    va_start(args, fmt);
    std::fputs("FAIL ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
    va_end(args);
  }
  return pass;
}

/// The decision-identity gate (online::DecisionDiff), naming the first
/// field that differs.
bool SameDecisions(const ReplayResult& a, const ReplayResult& b,
                   const std::string& what) {
  const std::string_view field = online::DecisionDiff(a, b);
  return Gate(field.empty(), "%s (%.*s differ)", what.c_str(),
              static_cast<int>(field.size()), field.data());
}

/// The §8 determinism contract on every perf run: four streams (seeds
/// scfg.seed + 0..3) replayed under rcfg (validation sims and fault plan
/// included) decide the same for jobs=1 and jobs=8.
bool JobsInvariant(online::StreamConfig scfg, const ReplayConfig& rcfg,
                   const char* what) {
  std::vector<online::WorkloadStream> streams;
  for (int s = 0; s < 4; ++s, ++scfg.seed) {
    streams.push_back(online::GenerateStream(scfg));
  }
  const auto serial = online::ReplayBatch(streams, rcfg, 1);
  const auto wide = online::ReplayBatch(streams, rcfg, 8);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    if (!SameDecisions(serial[i], wide[i],
                       "jobs-invariance: " + std::string(what) + " " +
                           std::to_string(i) +
                           " diverges between jobs=1 and jobs=8")) {
      return false;
    }
  }
  std::printf("jobs-invariance: %s batches identical for jobs=1 and "
              "jobs=8\n",
              what);
  return true;
}

// ---- 1) admission ---------------------------------------------------------

constexpr unsigned kScalingCores = 16;
constexpr int kProbes = 12;

/// Deterministic small task (the scaling phase wants hundreds resident).
rt::Task TinyTask(rt::TaskId id, std::uint64_t seed) {
  util::SplitMix64 rng(util::DeriveSeed(seed, id, 17));
  const Time periods[] = {Millis(20), Millis(50), Millis(100), Millis(200)};
  const Time period = periods[rng() % 4];
  // u in [0.015, 0.035]
  const double u = 0.015 + 0.020 * (static_cast<double>(rng() % 1000) / 999.0);
  const Time wcet = std::max<Time>(
      1, static_cast<Time>(u * static_cast<double>(period)));
  return rt::MakeTask(id, wcet, period);
}

rt::Task Probe(int p) {
  return TinyTask(static_cast<rt::TaskId>(1000000 + p), 23);
}

struct Walls {
  double oracle = kUnset;
  double incremental = kUnset;
};

/// Best wall of kProbes decisions at resident size n, both ways.
Walls RunScaling(std::size_t n, int reps) {
  online::ControllerConfig cfg;
  cfg.admission.num_cores = kScalingCores;
  cfg.admission.memo.enabled = false;
  cfg.repartition_fallback = false;
  online::Controller ctrl(cfg);
  std::vector<rt::Task> resident;
  for (std::size_t i = 0; i < n; ++i) {
    const rt::Task t = TinyTask(static_cast<rt::TaskId>(i), 11);
    if (ctrl.Admit(t).accepted) resident.push_back(t);
  }
  if (!Gate(ctrl.resident() == n,
            "scaling setup: only %zu of %zu residents admitted",
            ctrl.resident(), n)) {
    std::exit(1);
  }

  // A single incremental decision is MICROSECONDS, far below wall-clock
  // noise, so each measured rep runs `cycles` passes over the probes and
  // the wall is normalized back to one pass (the oracle's milliseconds
  // regime). One unmeasured warm-up first, for each variant: the first
  // probes at a fresh size pay allocator/cache cold starts that would
  // skew the growth ratios.
  Walls w;
  const int cycles = std::max(1, 2000 / kProbes);
  const auto incremental_pass = [&] {
    for (int p = 0; p < kProbes; ++p) {
      const rt::Task probe = Probe(p);
      if (ctrl.Admit(probe).accepted) ctrl.Leave(probe.id);
    }
  };
  incremental_pass();
  for (int rep = 0; rep < reps; ++rep) {
    BestWall t(w.incremental);
    for (int cy = 0; cy < cycles; ++cy) incremental_pass();
  }
  w.incremental /= cycles;

  partition::EdfPartitionConfig ecfg;
  ecfg.num_cores = kScalingCores;
  ecfg.memo.enabled = false;
  const auto oracle_admits = [&](int p) {
    std::vector<rt::Task> tasks = resident;
    tasks.push_back(Probe(p));
    return partition::EdfWm(rt::TaskSet(std::move(tasks)), ecfg).success;
  };
  (void)oracle_admits(0);
  for (int rep = 0; rep < reps; ++rep) {
    BestWall t(w.oracle);
    for (int p = 0; p < kProbes; ++p) {
      if (!Gate(oracle_admits(p), "scaling: oracle rejected a probe at N=%zu",
                n)) {
        std::exit(1);
      }
    }
  }
  return w;
}

struct MixedRow {
  Walls wall;
  double incr_acceptance = 0.0;
  double oracle_acceptance = 0.0;
  double churn_per_admit = 0.0;
  std::uint64_t decisions = 0;
};

MixedRow RunMixed(const online::WorkloadStream& stream, int reps) {
  MixedRow row;
  ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = 4;
  rcfg.controller.admission.memo.enabled = false;
  // Head-to-head with the oracle: the overload policies (section 2's
  // subject) would skew both the acceptance ratio and the churn.
  rcfg.controller.overload.ladder = false;
  rcfg.controller.overload.hysteresis = false;
  ReplayResult res;
  for (int rep = 0; rep < reps; ++rep) {
    BestWall t(row.wall.incremental);
    res = online::ReplayStream(stream, rcfg);
  }
  row.incr_acceptance = res.acceptance_ratio();
  row.decisions = res.admits + res.rejects;
  row.churn_per_admit =
      res.admits > 0 ? static_cast<double>(res.churn.total()) /
                           static_cast<double>(res.admits)
                     : 0.0;

  partition::EdfPartitionConfig ecfg;
  ecfg.num_cores = 4;
  ecfg.memo.enabled = false;
  for (int rep = 0; rep < reps; ++rep) {
    BestWall t(row.wall.oracle);
    std::vector<rt::Task> surviving;
    std::uint64_t admits = 0, rejects = 0;
    for (const online::Request& r : stream.requests()) {
      if (r.kind != online::RequestKind::kAdmit) {
        std::erase_if(surviving,
                      [&](const rt::Task& t) { return t.id == r.id; });
        continue;
      }
      std::vector<rt::Task> probe = surviving;
      probe.push_back(r.task);
      if (partition::EdfWm(rt::TaskSet(std::move(probe)), ecfg).success) {
        surviving.push_back(r.task);
        ++admits;
      } else {
        ++rejects;
      }
    }
    row.oracle_acceptance =
        admits + rejects == 0 ? 1.0
                              : static_cast<double>(admits) /
                                    static_cast<double>(admits + rejects);
  }
  return row;
}

struct CacheRow {
  double uncached_wall = kUnset;
  double cached_wall = kUnset;
  int reps = 0;
  ReplayResult uncached, cached;
};

/// Measured replays per cache A/B variant (RepsFor), run in kAbRounds
/// rounds of uncached reps then cached reps: a slow spell of a shared
/// machine (a neighbour's load on the last-level cache, which the
/// memo's lookups live in) then cannot cover all of one variant's reps.
constexpr double kMinAbSeconds = 2.0;
constexpr int kAbRounds = 3;

/// `stream` replayed uncached vs cached through identical controllers.
/// The cached variant owns a dedicated table (never the process-wide
/// singleton: reps must not warm each other across workloads). Both run
/// one warm-up replay first — for the cache that is the steady state a
/// long-running controller reaches, which is what the memo is for; the
/// uncached one also sizes the rep count.
CacheRow RunCacheAB(const online::WorkloadStream& stream, ReplayConfig rcfg,
                    int reps) {
  // "fallback_replay" is CALIBRATED around its repartition count (that is
  // what re-asks the memo); hysteresis would suppress exactly those, so
  // the overload policies stay off.
  rcfg.controller.overload.ladder = false;
  rcfg.controller.overload.hysteresis = false;
  rcfg.controller.admission.memo.enabled = false;
  // Sized to the workload: a replay's distinct-query working set (the
  // budget binary searches alone ask hundreds of questions per admit)
  // runs to ~2e5 here, and replace-on-collision thrash at the 2^15
  // shared default would evict the warm-up before the measured reps
  // re-ask it. Deployments size the shared table the same way via
  // --analysis-cache=N; 2^20 slots is 24 MiB.
  analysis::AnalysisMemo table(std::size_t{1} << 20);
  ReplayConfig cached = rcfg;
  cached.controller.admission.memo.enabled = true;
  cached.controller.admission.memo.table = &table;

  CacheRow row;
  double warm_up = kUnset;
  {
    BestWall t(warm_up);
    row.uncached = online::ReplayStream(stream, rcfg);
  }
  row.cached = online::ReplayStream(stream, cached);
  const int per_round =
      (RepsFor(warm_up, reps, kMinAbSeconds) + kAbRounds - 1) / kAbRounds;
  row.reps = per_round * kAbRounds;
  for (int round = 0; round < kAbRounds; ++round) {
    for (int rep = 0; rep < per_round; ++rep) {
      BestWall t(row.uncached_wall);
      row.uncached = online::ReplayStream(stream, rcfg);
    }
    for (int rep = 0; rep < per_round; ++rep) {
      BestWall t(row.cached_wall);
      row.cached = online::ReplayStream(stream, cached);
    }
  }
  return row;
}

bool RunAdmission(int reps) {
  BenchDoc doc("online_admission", reps);
  bool ok = true;

  std::printf("per-admit cost vs resident size (m=%u, %d probes, best of "
              "%d)\n",
              kScalingCores, kProbes, reps);
  const std::size_t sizes[] = {64, 128, 256, 384};
  Walls first, last;
  for (const std::size_t n : sizes) {
    const Walls w = RunScaling(n, reps);
    if (n == sizes[0]) first = w;
    last = w;
    const std::string label = "admit_res" + std::to_string(n);
    doc.Row(label.c_str(), "oracle", w.oracle)
        .Key("admits_per_sec")
        .Value(kProbes / w.oracle);
    doc.Row(label.c_str(), "incremental", w.incremental)
        .Key("admits_per_sec")
        .Value(kProbes / w.incremental);
    const double incr = w.incremental / kProbes;
    const double oracle = w.oracle / kProbes;
    std::printf("  N=%4zu  incremental %9.1f us/admit (%9.0f adm/s)   "
                "oracle %9.1f us/admit (%7.0f adm/s)   x%.0f\n",
                n, incr * 1e6, 1.0 / incr, oracle * 1e6, 1.0 / oracle,
                oracle / incr);
  }
  // Noise headroom: observed ~x1.2 vs ~x6-7.5, so the 2x margin survives
  // a badly-timed scheduler hiccup on a CI runner without ever letting
  // "incremental became as super-linear as the oracle" through.
  const double incr_growth =
      last.incremental / std::max(first.incremental, 1e-12);
  const double oracle_growth = last.oracle / std::max(first.oracle, 1e-12);
  std::printf("  growth %zu->%zu: incremental x%.2f, oracle x%.2f\n",
              sizes[0], sizes[3], incr_growth, oracle_growth);
  ok = Gate(incr_growth < 0.5 * oracle_growth,
            "scaling: incremental per-admit cost grew x%.2f >= half the "
            "oracle's x%.2f",
            incr_growth, oracle_growth) &&
       ok;

  online::StreamConfig scfg;  // the "default stream mix"
  scfg.num_admits = 160;
  const online::WorkloadStream stream = online::GenerateStream(scfg);
  const MixedRow mixed = RunMixed(stream, reps);
  std::printf("\nmixed stream (m=4, %zu requests, %llu admit decisions)\n",
              stream.size(),
              static_cast<unsigned long long>(mixed.decisions));
  std::printf("  incremental: %.3f acceptance, %6.2f ms, %.3f churn/admit\n",
              mixed.incr_acceptance, mixed.wall.incremental * 1e3,
              mixed.churn_per_admit);
  std::printf("  oracle:      %.3f acceptance, %6.2f ms\n",
              mixed.oracle_acceptance, mixed.wall.oracle * 1e3);
  doc.Row("mixed_stream", "oracle", mixed.wall.oracle)
      .Key("acceptance")
      .Value(mixed.oracle_acceptance);
  doc.Row("mixed_stream", "incremental", mixed.wall.incremental)
      .Key("acceptance")
      .Value(mixed.incr_acceptance)
      .Key("churn_per_admit")
      .Value(mixed.churn_per_admit);
  constexpr double kTolerance = 0.02;
  ok = Gate(std::abs(mixed.incr_acceptance - mixed.oracle_acceptance) <=
                kTolerance,
            "acceptance: incremental %.3f vs oracle %.3f diverges beyond "
            "%.2f",
            mixed.incr_acceptance, mixed.oracle_acceptance, kTolerance) &&
       ok;

  struct AbCase {
    const char* name;
    online::StreamConfig scfg;
    unsigned cores;
  };
  AbCase cases[2] = {{"fallback_replay", {}, 4}, {"epoch_replay", {}, 8}};
  cases[0].scfg.num_admits = 160;
  cases[0].scfg.util_min = 0.20;  // pressure: incremental placement fails,
  cases[0].scfg.util_max = 0.60;  // the offline fallback keeps running
  cases[0].scfg.leave_fraction = 0.7;
  cases[0].scfg.seed = 20110318;
  cases[1].scfg.num_admits = 384;
  cases[1].scfg.seed = 20110319;
  std::printf("\nanalysis cache A/B (best of >= %d reps and >= %.0f s "
              "of replays, warm table)\n",
              reps, kMinAbSeconds);
  for (const AbCase& c : cases) {
    ReplayConfig rcfg;
    rcfg.controller.admission.num_cores = c.cores;
    const CacheRow row =
        RunCacheAB(online::GenerateStream(c.scfg), rcfg, reps);
    const partition::AdmitStats& st = row.cached.admission;
    const std::uint64_t lookups = st.memo_hits + st.memo_misses;
    const double hit_rate =
        lookups == 0 ? 0.0
                     : static_cast<double>(st.memo_hits) /
                           static_cast<double>(lookups);
    const double speedup = row.uncached_wall / row.cached_wall;
    doc.Row(c.name, "uncached", row.uncached_wall);
    doc.Row(c.name, "cached", row.cached_wall)
        .Key("hit_rate")
        .Value(hit_rate)
        .Key("evictions")
        .Value(st.memo_evicts);
    std::printf("  %-16s m=%u %4llu repart  uncached %7.2f ms  cached "
                "%7.2f ms  x%.2f over %d reps  (%.1f%% of %llu lookups "
                "hit, %llu evictions)\n",
                c.name, c.cores,
                static_cast<unsigned long long>(
                    row.cached.churn.repartitions),
                row.uncached_wall * 1e3, row.cached_wall * 1e3, speedup,
                row.reps,
                100.0 * hit_rate, static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(st.memo_evicts));
    ok = SameDecisions(row.uncached, row.cached,
                       std::string("cache A/B: ") + c.name +
                           " cached decisions diverge from uncached") &&
         ok;
    ok = Gate(speedup >= 2.0, "cache A/B: %s cached speedup x%.2f < x2.0",
              c.name, speedup) &&
         ok;
  }

  online::StreamConfig jobs_scfg;
  jobs_scfg.num_admits = 32;
  jobs_scfg.seed = 500;
  ReplayConfig jobs_rcfg;
  jobs_rcfg.controller.admission.num_cores = 4;
  jobs_rcfg.controller.admission.model =
      overhead::OverheadModel::PaperCoreI7();
  jobs_rcfg.validate_by_simulation = true;
  jobs_rcfg.validate_sim.horizon = Millis(100);
  std::printf("\n");
  ok = JobsInvariant(jobs_scfg, jobs_rcfg, "stream") && ok;
  return doc.Write("BENCH_online.json") && ok;
}

// ---- 2) overload ----------------------------------------------------------

constexpr unsigned kOverloadCores = 4;
constexpr double kMagnitude = 1.3;
constexpr Time kWindowStart = Millis(500);
constexpr Time kWindowEnd = Millis(900);

/// 8 hard (u=.25) + 8 soft (u=.20) admits, all up-front: ~0.9/core once
/// placed, 1.17/core inside the 1.3x window — survivable only by
/// shedding. Soft tasks carry no degraded mode so the controller's shed
/// count is directly comparable to the oracle's removal count.
online::WorkloadStream OverloadStream() {
  std::vector<online::Request> reqs;
  online::Request r;
  r.kind = online::RequestKind::kAdmit;
  for (rt::TaskId i = 0; i < 8; ++i) {
    r.at = Millis(1) * i;
    r.id = i;
    r.task = rt::MakeTask(i, Millis(25), Millis(100));
    reqs.push_back(r);
  }
  for (rt::TaskId j = 0; j < 8; ++j) {
    r.at = Millis(8 + j);
    r.id = 100 + j;
    r.task = rt::MakeSoftTask(100 + j, Millis(20), Millis(100), /*value=*/1,
                              /*tardiness_bound=*/Millis(100));
    reqs.push_back(r);
  }
  return online::WorkloadStream(std::move(reqs));
}

ReplayConfig OverloadConfig(bool policies, bool faulted) {
  ReplayConfig cfg;
  cfg.controller.admission.num_cores = kOverloadCores;
  cfg.controller.allow_split = false;
  cfg.controller.repartition_fallback = false;
  // Spread the residents (first-fit would pack whole cores with HARD
  // tasks, which no amount of soft shedding can save from a 1.3x spike).
  cfg.controller.place = online::PlacePolicy::kWorstFit;
  cfg.controller.overload.ladder = policies;
  cfg.controller.overload.hysteresis = policies;
  cfg.epoch = Millis(100);
  cfg.drain_epochs = 14;  // past the window + retry backoff
  cfg.validate_by_simulation = true;
  cfg.validate_sim.horizon = Millis(400);
  if (faulted) {
    cfg.faults.spikes.push_back(online::SpikeEpoch{
        kWindowStart, kWindowEnd, /*prob=*/1.0, kMagnitude});
  }
  return cfg;
}

/// Greedy oracle: how many soft tasks must leave so that the WHOLE
/// resident set, every budget inflated by the spike magnitude, still
/// partitions from scratch (no-split first-fit decreasing — the same
/// placement class the controller runs incrementally)? Drops the
/// largest-utilization soft task per round (newest on ties).
std::size_t OracleMinimalSheds(const online::WorkloadStream& stream) {
  std::vector<rt::Task> resident;
  for (const online::Request& r : stream.requests()) {
    if (r.kind == online::RequestKind::kAdmit) resident.push_back(r.task);
  }
  const auto fits = [](std::vector<rt::Task> tasks) {
    for (rt::Task& t : tasks) {
      t.wcet = std::min<Time>(
          t.deadline, static_cast<Time>(std::ceil(
                          kMagnitude * static_cast<double>(t.wcet))));
    }
    partition::EdfPartitionConfig cfg;
    cfg.num_cores = kOverloadCores;
    return partition::EdfBinPack(rt::TaskSet(std::move(tasks)),
                                 partition::FitPolicy::kFirstFit, cfg)
        .success;
  };
  std::size_t sheds = 0;
  while (!fits(resident)) {
    std::size_t victim = resident.size();
    for (std::size_t i = 0; i < resident.size(); ++i) {
      if (!resident[i].soft()) continue;
      if (victim == resident.size() ||
          resident[i].utilization() >= resident[victim].utilization()) {
        victim = i;  // >= keeps the NEWEST among equals, like the ladder
      }
    }
    if (victim == resident.size()) break;  // nothing left to drop
    resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(victim));
    ++sheds;
  }
  return sheds;
}

unsigned long long TotalHardMisses(const ReplayResult& res) {
  unsigned long long misses = 0;
  for (const online::EpochStats& e : res.epochs) misses += e.hard_misses;
  return misses;
}

bool RunOverload(int reps) {
  BenchDoc doc("overload", reps);
  bool ok = true;
  const online::WorkloadStream stream = OverloadStream();
  struct Variant {
    const char* name;
    bool policies;
    bool faulted;
  };
  const Variant variants[] = {
      {"nofault", false, false},
      {"nofault-policy", true, false},
      {"faulted", true, true},
  };
  std::printf("\ntransient %.1fx window [%0.f, %0.f) ms on m=%u at ~0.9 "
              "util/core (best of %d)\n",
              kMagnitude, ToMillis(kWindowStart), ToMillis(kWindowEnd),
              kOverloadCores, reps);
  ReplayResult faulted;
  for (const Variant& v : variants) {
    const ReplayConfig cfg = OverloadConfig(v.policies, v.faulted);
    double wall = kUnset;
    ReplayResult res;
    for (int rep = 0; rep < reps; ++rep) {
      BestWall t(wall);
      res = online::ReplayStream(stream, cfg);
    }
    doc.Row("transient_1p3x", v.name, wall)
        .Key("hard_misses")
        .Value(static_cast<std::uint64_t>(TotalHardMisses(res)))
        .Key("sheds")
        .Value(res.overload.sheds)
        .Key("shed_restores")
        .Value(res.overload.shed_restores);
    std::printf("  %-15s %7.2f ms  %3llu sheds  %3llu restored  %llu hard "
                "misses\n",
                v.name, wall * 1e3,
                static_cast<unsigned long long>(res.overload.sheds),
                static_cast<unsigned long long>(res.overload.shed_restores),
                TotalHardMisses(res));
    if (v.faulted) faulted = std::move(res);
  }
  const unsigned long long sheds = faulted.overload.sheds;

  // (a) survival by simulation: no hard task missed a deadline in any
  // epoch, including the ones validated UNDER the spike model.
  ok = Gate(TotalHardMisses(faulted) == 0,
            "overload: %llu hard misses under the %.1fx window",
            TotalHardMisses(faulted), kMagnitude) &&
       ok;
  for (const online::EpochStats& e : faulted.epochs) {
    if (!Gate(e.validated,
              "overload: epoch [%0.f, %0.f) was not validated by simulation",
              ToMillis(e.start), ToMillis(e.end))) {
      ok = false;
      break;
    }
  }

  // (b) shed minimality vs the greedy repacking oracle.
  const std::size_t oracle = OracleMinimalSheds(stream);
  const std::size_t budgeted = static_cast<std::size_t>(
      std::ceil(static_cast<double>(oracle) * 1.1));
  std::printf("  oracle minimal sheds: %zu (budget %zu), controller: "
              "%llu\n",
              oracle, budgeted, sheds);
  ok = Gate(oracle != 0,
            "overload: oracle sheds nothing — the window is not an "
            "overload") &&
       ok;
  ok = Gate(sheds <= budgeted,
            "overload: controller shed %llu > oracle budget %zu", sheds,
            budgeted) &&
       ok;

  // (c) recovery: the retry path re-admits >= 95% of the shed tasks
  // inside the drain window.
  const double recovered =
      sheds == 0 ? 1.0
                 : static_cast<double>(faulted.overload.shed_restores) /
                       static_cast<double>(sheds);
  std::printf("  recovery: %.0f%% of shed tasks re-admitted (%llu "
              "outstanding at drain end)\n",
              100.0 * recovered,
              static_cast<unsigned long long>(faulted.shed_outstanding));
  ok = Gate(recovered >= 0.95,
            "overload: only %.0f%% of shed tasks recovered (>= 95%% "
            "required)",
            100.0 * recovered) &&
       ok;

  online::StreamConfig jobs_scfg;
  jobs_scfg.num_admits = 32;
  jobs_scfg.leave_fraction = 0.5;
  jobs_scfg.soft_fraction = 0.5;
  jobs_scfg.seed = 700;
  ReplayConfig jobs_rcfg;
  jobs_rcfg.controller.admission.num_cores = kOverloadCores;
  jobs_rcfg.validate_by_simulation = true;
  jobs_rcfg.validate_sim.horizon = Millis(150);
  jobs_rcfg.faults.spikes.push_back(
      online::SpikeEpoch{Millis(2000), Millis(4000), 0.5, 1.5});
  jobs_rcfg.faults.storms.push_back(
      online::BurstStorm{Millis(6000), Millis(7000), 0.9});
  jobs_rcfg.drain_epochs = 3;
  ok = JobsInvariant(jobs_scfg, jobs_rcfg, "faulted stream") && ok;
  return doc.Write("BENCH_overload.json") && ok;
}

// ---- 3) calm path and 4) recovery -----------------------------------------

constexpr unsigned kCalmCores = 8;
/// Measured plain replays per calm-path run (RepsFor); the other four
/// variants run as many reps, interleaved.
constexpr double kMinCalmSeconds = 10.0;

online::WorkloadStream CalmStream() {
  online::StreamConfig cfg;
  cfg.num_admits = 600;
  cfg.leave_fraction = 0.5;
  cfg.soft_fraction = 0.3;
  cfg.seed = 20110814;
  return online::GenerateStream(cfg);
}

ReplayConfig CalmConfig() {
  ReplayConfig cfg;
  cfg.controller.admission.num_cores = kCalmCores;
  cfg.controller.unsplit_on_leave = true;
  cfg.epoch = Millis(500);
  cfg.drain_epochs = 2;
  return cfg;
}

bool RunCalmPathAndRecovery(int reps) {
  namespace fs = std::filesystem;
  bool ok = true;
  const online::WorkloadStream stream = CalmStream();
  const std::string dir = fs::temp_directory_path() / "sps_bench_dur";

  // Both profilers accumulate across reps; only the walls are compared.
  obs::SpanProfiler profiler;
  obs::SpanProfiler traced(obs::SpanProfiler::TraceOptions{.top_k = 32});
  struct Variant {
    const char* name;
    ReplayConfig cfg = CalmConfig();
    double wall = kUnset;
    ReplayResult res = {};
  };
  Variant v[5] = {{"plain"}, {"profiled"}, {"reqtraced"}, {"durable"},
                  {"durable-fsync"}};
  Variant &plain = v[0], &profiled = v[1], &reqtraced = v[2],
          &durable = v[3], &fsync = v[4];
  profiled.cfg.obs.profiler = &profiler;
  reqtraced.cfg.obs.profiler = &traced;
  durable.cfg.durability.dir = dir;
  durable.cfg.durability.checkpoint_every = 4;
  durable.cfg.durability.fsync = online::FsyncPolicy::kOff;
  fsync.cfg.durability = durable.cfg.durability;
  fsync.cfg.durability.fsync = online::FsyncPolicy::kEveryEpoch;

  // One unmeasured plain replay sizes the rep count.
  double one = kUnset;
  {
    BestWall t(one);
    plain.res = online::ReplayStream(stream, plain.cfg);
  }
  reps = RepsFor(one, reps, kMinCalmSeconds);
  for (int rep = 0; rep < reps; ++rep) {
    for (Variant& x : v) {
      if (x.cfg.durability.enabled()) fs::remove_all(dir);
      {
        BestWall t(x.wall);
        x.res = online::ReplayStream(stream, x.cfg);
      }
      if (!Gate(x.res.durability_error.ok(),
                "durability: durable replay errored: %s",
                x.res.durability_error.message.c_str())) {
        std::exit(1);
      }
    }
  }
  std::printf("\ncalm path: %zu requests on m=%u, checkpoint every 4 "
              "epochs (best of %d)\n",
              stream.size(), kCalmCores, reps);
  for (const Variant& x : v) {
    std::printf("  %-14s %8.2f ms  (x%.3f of plain)\n", x.name,
                x.wall * 1e3, x.wall / plain.wall);
    const char* owner =
        x.cfg.durability.enabled() ? "durability: " : "obs_overhead: ";
    ok = SameDecisions(plain.res, x.res,
                       owner + std::string(x.name) +
                           " replay diverges from the plain replay") &&
         ok;
  }

  const double durable_overhead = durable.wall / plain.wall - 1.0;
  ok = Gate(durable_overhead <= 0.05,
            "durability: calm-path overhead %.1f%% exceeds the 5%% budget",
            100.0 * durable_overhead) &&
       ok;
  const double profiled_overhead = profiled.wall / plain.wall - 1.0;
  ok = Gate(profiled_overhead <= 0.50,
            "obs_overhead: profiled overhead %.1f%% exceeds the 50%% sanity "
            "ceiling",
            100.0 * profiled_overhead) &&
       ok;
  // An absolute ratio, not baseline-relative: the two run in the same
  // process seconds apart, so it is machine-stable.
  const double traced_ratio = reqtraced.wall / profiled.wall;
  ok = Gate(traced_ratio <= 1.10,
            "obs_overhead: reqtraced is x%.3f of profiled (ceiling x1.10)",
            traced_ratio) &&
       ok;
  // Both observers saw the pipeline (else the gates measure nothing).
  const obs::SpanProfiler::RetainStats rstats = traced.retain_stats();
  ok = Gate(rstats.traces_seen != 0 && rstats.retained_slow != 0,
            "obs_overhead: tracer retained nothing") &&
       ok;
  const auto report = profiler.Report();
  unsigned long long spans = 0;
  for (const auto& row : report) spans += row.count;
  ok = Gate(spans != 0, "obs_overhead: profiler recorded no spans") && ok;
  std::printf("profiled spans: %llu across %zu stages\n", spans,
              report.size());

  // ---- 4) recovery ----
  fs::remove_all(dir);
  ReplayConfig crash_cfg = durable.cfg;
  crash_cfg.durability.halt_after_appends =
      static_cast<std::uint32_t>(stream.size() / 2);
  const ReplayResult halted = online::ReplayStream(stream, crash_cfg);
  ok = Gate(halted.durability_error.ok() &&
                halted.recovery.halted_by_injection,
            "durability: halt injection did not fire") &&
       ok;
  ReplayConfig recover_cfg = durable.cfg;
  recover_cfg.durability.recover = true;
  double recover_wall = kUnset;
  ReplayResult recovered;
  {
    BestWall t(recover_wall);
    recovered = online::ReplayStream(stream, recover_cfg);
  }
  fs::remove_all(dir);

  BenchDoc dur("durability", reps);
  BenchDoc obs_doc("obs_overhead", reps);
  for (const Variant* x : {&plain, &durable, &fsync}) {
    dur.Row("calm_path", x->name, x->wall);
  }
  for (const Variant* x : {&plain, &profiled, &reqtraced}) {
    obs_doc.Row("calm_path", x->name, x->wall);
  }
  if (!Gate(recovered.durability_error.ok(),
            "durability: recovery errored: %s",
            recovered.durability_error.message.c_str())) {
    ok = false;
  } else {
    ok = SameDecisions(plain.res, recovered,
                       "durability: recovered replay diverges from the "
                       "plain replay") &&
         ok;
    std::printf("recovery: checkpoint epoch %llu + %llu journal records "
                "-> identical run in %.2f ms\n",
                static_cast<unsigned long long>(
                    recovered.recovery.checkpoint_epoch),
                static_cast<unsigned long long>(
                    recovered.recovery.journal_records),
                recover_wall * 1e3);
    dur.Row("recovery", "recover", recover_wall)
        .Key("resume_seq")
        .Value(recovered.recovery.resume_seq)
        .Key("journal_records")
        .Value(recovered.recovery.journal_records);
  }
  ok = dur.Write("BENCH_durability.json") && ok;
  return obs_doc.Write("BENCH_obs.json") && ok;
}

}  // namespace

int main() {
  const int reps = std::max(1, sps::bench::EnvInt("SPS_REPS", 3));
  bool ok = RunAdmission(reps);
  ok = RunOverload(reps) && ok;
  ok = RunCalmPathAndRecovery(std::max(5, reps)) && ok;
  return ok ? 0 : 1;
}
