// E11 — service observability (DESIGN.md §15): what does the span
// profiler cost, both OFF and ON, along the calm online path?
//
//   A 600-admit stream on m=8 replayed three ways, interleaved per rep:
//     - "plain":    no profiler installed. The instrumented hooks still
//                   execute their null path (one thread-local load + two
//                   branches per span) — this variant IS the
//                   profiling-off product configuration, the reference.
//     - "profiled": a SpanProfiler installed for the whole replay
//                   (slices off — the histogram-only steady state). The
//                   diagnostic mode pays two clock reads per span, so a
//                   low-double-digit ratio over plain is EXPECTED; the
//                   in-bench gate only rejects a pathological blowup.
//     - "reqtraced": a profiler built with request tracing on (K=32,
//                   DESIGN.md §16) — span trees, tail sampling, flight
//                   ring. Rides on top of "profiled"; the in-bench gate
//                   holds it to ≤1.10x of profiled (tracing adds a tree
//                   append and a ring push per span, no locks on the
//                   span path).
//
//   The <3% acceptance gate is on the PROFILING-OFF path, and it lives
//   in CI: check_bench_regression.py --two-sided 'profiled'
//   --tolerance 0.03 pins the profiled/plain ratio against the
//   committed baseline from both sides — if the null-path hooks get
//   heavier, plain slows down and the ratio DROPS below the floor; if
//   the profiler itself bloats, the ratio climbs past the limit. Either
//   drift beyond 3% fails the build.
//
//   The profiled replay's DECISIONS must equal the plain replay's
//   exactly — wall-clock observation is an observer, never a
//   participant (the §15 firewall).
//
// Wall times are best-of-SPS_REPS (min 5: a 3% ratio gate needs the
// noise floor down); results land in BENCH_obs.json.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/spans.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "util/json_writer.hpp"

namespace {

using namespace sps;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr unsigned kCores = 8;
/// In-bench sanity ceiling on the INSTALLED profiler (the tight 3%
/// profiling-off gate is ratio-based against the committed baseline in
/// CI — see the header).
constexpr double kProfiledCeiling = 0.50;
/// Tracing rides on the profiled path; it may cost at most 10% more
/// (one tree append + one flight-ring push per span, lock-free).
constexpr double kReqtracedOverProfiledCeiling = 1.10;

online::WorkloadStream BenchStream() {
  online::StreamConfig cfg;
  cfg.num_admits = 600;
  cfg.leave_fraction = 0.5;
  cfg.soft_fraction = 0.3;
  cfg.seed = 20110814;
  return online::GenerateStream(cfg);
}

online::ReplayConfig BaseConfig() {
  online::ReplayConfig cfg;
  cfg.controller.admission.num_cores = kCores;
  cfg.controller.unsplit_on_leave = true;
  cfg.epoch = Millis(500);
  cfg.drain_epochs = 2;
  return cfg;
}

/// Decision identity between two replays: everything except wall time
/// and the cache-dependent memo counters (DESIGN.md §12).
bool SameDecisions(const online::ReplayResult& a,
                   const online::ReplayResult& b, const char* what) {
  const bool same =
      a.epochs == b.epochs && a.admits == b.admits &&
      a.rejects == b.rejects && a.leaves == b.leaves &&
      a.churn == b.churn && a.overload == b.overload &&
      a.shed_outstanding == b.shed_outstanding &&
      a.admission.util_rejects == b.admission.util_rejects &&
      a.admission.density_accepts == b.admission.density_accepts &&
      a.admission.full_tests == b.admission.full_tests &&
      a.final_partition.summary() == b.final_partition.summary();
  if (!same) {
    std::fprintf(stderr,
                 "FAIL obs_overhead: %s diverges from the plain replay\n",
                 what);
  }
  return same;
}

}  // namespace

int main() {
  using sps::bench::EnvInt;
  const int reps = std::max(5, EnvInt("SPS_REPS", 5));

  util::JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("obs_overhead");
  json.Key("hardware_threads")
      .Value(static_cast<std::uint64_t>(
          std::max(1u, std::thread::hardware_concurrency())));
  json.Key("reps").Value(static_cast<std::uint64_t>(reps));
  json.Key("runs").BeginArray();

  bool ok = true;
  const online::WorkloadStream stream = BenchStream();
  const online::ReplayConfig plain_cfg = BaseConfig();

  // Interleave the variants inside each rep so frequency scaling and
  // cache state perturb them alike; keep the best wall of each.
  double plain_wall = 1e100, profiled_wall = 1e100, reqtraced_wall = 1e100;
  online::ReplayResult plain_res, profiled_res, reqtraced_res;
  // Both accumulate across reps; fine — only the replay walls are
  // compared.
  obs::SpanProfiler profiler;
  obs::SpanProfiler traced(obs::SpanProfiler::TraceOptions{.top_k = 32});
  for (int rep = 0; rep < reps; ++rep) {
    double t0 = Now();
    plain_res = online::ReplayStream(stream, plain_cfg);
    plain_wall = std::min(plain_wall, Now() - t0);

    online::ReplayConfig prof_cfg = plain_cfg;
    prof_cfg.obs.profiler = &profiler;
    t0 = Now();
    profiled_res = online::ReplayStream(stream, prof_cfg);
    profiled_wall = std::min(profiled_wall, Now() - t0);

    online::ReplayConfig trace_cfg = plain_cfg;
    trace_cfg.obs.profiler = &traced;
    t0 = Now();
    reqtraced_res = online::ReplayStream(stream, trace_cfg);
    reqtraced_wall = std::min(reqtraced_wall, Now() - t0);
  }

  struct Row {
    const char* variant;
    double wall;
  };
  const Row rows[] = {{"plain", plain_wall},  // reference first
                      {"profiled", profiled_wall},
                      {"reqtraced", reqtraced_wall}};
  std::printf("calm path: %zu requests on m=%u (best of %d)\n",
              stream.size(), kCores, reps);
  for (const Row& r : rows) {
    json.BeginObject();
    json.Key("workload").Value("calm_path");
    json.Key("variant").Value(r.variant);
    json.Key("wall_s").Value(r.wall);
    json.EndObject();
    std::printf("  %-10s %8.2f ms  (x%.3f of plain)\n", r.variant,
                r.wall * 1e3, r.wall / plain_wall);
  }

  // Sanity ceiling: diagnostic-mode cost must stay in the expected
  // band (the tight two-sided gate runs in CI against the baseline).
  const double overhead = profiled_wall / plain_wall - 1.0;
  if (overhead > kProfiledCeiling) {
    std::fprintf(stderr,
                 "FAIL obs_overhead: profiled overhead %.1f%% exceeds "
                 "the %.0f%% sanity ceiling\n",
                 100.0 * overhead, 100.0 * kProfiledCeiling);
    ok = false;
  }
  // Tracing rides on the profiled path; gate its marginal cost here
  // (absolute ratio, not baseline-relative — the two variants run in
  // the same process seconds apart, so the ratio is machine-stable).
  const double traced_ratio = reqtraced_wall / profiled_wall;
  if (traced_ratio > kReqtracedOverProfiledCeiling) {
    std::fprintf(stderr,
                 "FAIL obs_overhead: reqtraced is x%.3f of profiled "
                 "(ceiling x%.2f)\n",
                 traced_ratio, kReqtracedOverProfiledCeiling);
    ok = false;
  }
  // And observation must never have CHANGED anything.
  ok = SameDecisions(plain_res, profiled_res, "profiled replay") && ok;
  ok = SameDecisions(plain_res, reqtraced_res, "reqtraced replay") && ok;

  // Sanity: tracing actually retained request trees.
  const obs::SpanProfiler::RetainStats rstats = traced.retain_stats();
  if (rstats.traces_seen == 0 || rstats.retained_slow == 0) {
    std::fprintf(stderr, "FAIL obs_overhead: tracer retained nothing\n");
    ok = false;
  }

  // Sanity: the profiler actually saw the pipeline (otherwise the gate
  // is measuring nothing).
  const auto report = profiler.Report();
  std::uint64_t spans = 0;
  for (const auto& row : report) spans += row.count;
  if (spans == 0) {
    std::fprintf(stderr, "FAIL obs_overhead: profiler recorded no spans\n");
    ok = false;
  }
  std::printf("profiled spans: %llu across %zu stages\n",
              static_cast<unsigned long long>(spans), report.size());

  json.EndArray();
  json.EndObject();
  std::string err;
  if (!util::WriteTextFile("BENCH_obs.json", json.str(), &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  std::printf("wrote BENCH_obs.json\n");
  return ok ? 0 : 1;
}
