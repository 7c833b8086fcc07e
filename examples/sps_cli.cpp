// sps_cli — command-line driver for one-off experiments with the library:
// generate (or densely parameterize) a task set, run a chosen partitioning
// algorithm, verify, simulate, and report. The fifth runnable example and
// the quickest way to poke at the system without writing code.
//
// Usage:
//   sps_cli [--algo=spa2|spa1|ffd|wfd|bfd|edf-ffd|edf-wm]
//           [--cores=4] [--tasks=16] [--util=0.85] [--seed=1]
//           [--overheads=paper|zero|calibrated] [--scale=1.0]
//           [--sim-ms=2000] [--trace] [--metrics]
//           [--trace-out=FILE.json] [--metrics-out=FILE.json]
//           [--arrivals=periodic|sporadic|jittered|bursty] [--sporadic]
//           [--ready-queue=binomial|rbtree]
//           [--sleep-queue=binomial|rbtree] [--shards=N]
//           [--acceptance] [--acceptance-validate] [--sets=50] [--jobs=N]
//           [--online] [--online-requests=128] [--online-leave=0.5]
//           [--online-epoch-ms=1000] [--online-place=ff|wf|spa]
//           [--online-policy=edf|fp] [--online-no-split]
//           [--online-no-fallback] [--online-unsplit] [--online-validate]
//           [--online-soft=0.4] [--online-drain=N]
//           [--spike-window-ms=A,B] [--spike-prob=0.2] [--spike-mag=1.3]
//           [--storm-window-ms=A,B] [--storm-burst=0.9]
//           [--no-ladder] [--no-hysteresis]
//           [--stream-in=FILE] [--stream-out=FILE]
//           [--exec=wcet|spiky]
//           [--analysis-cache=off|<N>]
//           [--checkpoint-dir=DIR] [--checkpoint-every=K] [--recover]
//           [--fsync=off|every-epoch|every-n[:N]] [--crash-after=N]
//           [--profile] [--profile-out=FILE.json] [--stats-out=FILE.json]
//           [--heartbeat=K] [--verbose] [--trace-stream[=WINDOW]]
//           [--trace-requests[=K]] [--reqtrace-out=FILE.json]
//           [--flight-dump]
//
// Durable online service (DESIGN.md §14): --checkpoint-dir turns on the
// write-ahead journal + every-K-epochs checkpoint for the --online
// replay; --recover resumes a crashed run from DIR (newest valid
// checkpoint + journal redo) instead of starting fresh — the recovered
// run's stdout is byte-identical to the uninterrupted one (pass
// --analysis-cache=off to also match the cache counters; recovery info
// prints on stderr). --fsync picks the journal's disk-sync policy;
// --crash-after=N SIGKILLs the process right after the N-th journal
// append (the crash-injection hook the CI smoke test drives). Corrupt
// or mismatched durability artifacts exit 2 with a typed error.
//
// --analysis-cache controls the shared schedulability-verdict
// transposition table (analysis/memo.hpp, DESIGN.md §12): "off"
// disables memoization, a number N sizes the shared table at N slots
// (rounded up to a power of two; default 32768). Decisions are
// identical either way — the knob trades memory for analysis speed.
// The --online and --acceptance modes report hit/miss/evict counters.
//
// --online switches to the ONLINE ADMISSION mode (DESIGN.md §11): a
// timestamped ADMIT/LEAVE request stream (generated from --seed, or
// loaded with --stream-in) is replayed through the incremental admission
// controller on --cores cores, reporting per-epoch admits / rejects /
// churn and the final placement. --online-validate simulates the
// partition standing at every epoch boundary (horizon --sim-ms) and
// reports its deadline misses. --stream-out saves the request trace for
// replay elsewhere; with --trace-out the per-epoch churn / resident /
// utilization / shed / degraded series are written as Perfetto counter
// tracks.
//
// Overload axis (DESIGN.md §13): --online-soft generates that fraction
// of admits as SOFT tasks (with value classes and degraded modes) —
// the shed/degrade ladder's victims. --spike-window-ms injects an
// exec-time spike window [A,B) (per-job overrun probability
// --spike-prob, magnitude --spike-mag); --storm-window-ms injects a
// burst-arrival storm (burst probability --storm-burst). Epoch
// validation inside a window simulates the FAULTED models, and the
// report separates misses attributed to HARD tasks. --no-ladder /
// --no-hysteresis switch the degradation ladder / repartition
// hysteresis off; --online-drain keeps closing empty epochs after the
// last request so shed-re-admission retries can drain.
//
// --exec=spiky makes the --acceptance-validate simulations run the
// kSpiky execution model (--spike-prob / --spike-mag), i.e. the
// acceptance sweep's schedulable-but-overrunning robustness axis.
//
// --acceptance switches from the single-run mode to the paper's
// acceptance-ratio sweep (exp/acceptance.*) over the default utilization
// grid, parallelized over --jobs threads (0 = one per hardware thread;
// results are bit-identical for every value). --acceptance-validate
// additionally SIMULATES every accepted partition (horizon --sim-ms)
// and reports the fraction that run without a deadline miss.
//
// --shards=N lets one simulation use at most N threads (this process
// counts as one; 0 = one per hardware thread) in single-run mode and
// the validation simulations: the partition's core groups — cores
// joined by split tasks — run as independent lanes (DESIGN.md §9).
// Results are bit-identical to --shards=1 — including traces and
// metrics (DESIGN.md §10), so every observability flag composes with
// --shards. A --trace-stream run always uses one lane.
//
// Observability (DESIGN.md §10):
//   --trace             record the scheduler event stream, print Gantt
//   --trace-out=F.json  write the trace as Perfetto-loadable JSON
//                       (open at ui.perfetto.dev); implies recording
//   --metrics           record streaming metrics, print the per-task /
//                       per-core report tables
//   --metrics-out=F.json  write the MetricsReport JSON; implies --metrics
//
// Service observability (DESIGN.md §15):
//   --profile           wall-clock span profiler over the --online
//                       pipeline stages (admission screen, memo probe,
//                       analysis, placement, ladder steps, epoch
//                       phases). Report (p50/p99/p999 per stage), the
//                       per-epoch p99/memo-hit columns, and the
//                       heartbeat all go to STDERR — never stdout, so
//                       profiled stdout stays byte-identical.
//   --profile-out=F     write the profiler report as JSON to F instead
//                       of the stderr table; implies --profile
//   --stats-out=F       write the unified stats registry snapshot
//                       (deterministic counters only) as JSON; the CI
//                       cmp's it across --profile on/off
//   --heartbeat=K       heartbeat every K closed epochs (default 10,
//                       0 = off; needs --profile)
//   --trace-requests[=K] request-scoped span trees over the --online
//                       replay (DESIGN.md §16): tail-based sampling
//                       retains the K slowest admits/leaves (default 32)
//                       plus up to K recent shed/degrade/fallback/
//                       diverged requests, written as Perfetto async
//                       slices + an "sps_reqtrace" sidecar to
//                       --reqtrace-out (default reqtrace.json; inspect
//                       with tools/trace_summary.py). Also arms the
//                       crash-dump flight recorder: fatal signals,
//                       journal divergence, and injected crashes dump
//                       flight-<pid>.json (in --checkpoint-dir when
//                       durable, else the cwd). Narration goes to
//                       stderr; stdout / --stats-out / --trace-out /
//                       checkpoints stay byte-identical with it on.
//   --reqtrace-out=F    where --trace-requests writes the trace JSON
//   --flight-dump       dump the flight ring at end of run ("on_demand")
//                       even without a crash; implies the recorder
//   --verbose           SPS_LOG_LEVEL=debug for this run
//   --trace-stream[=W]  stream the single-run trace through the
//                       bounded-memory window (W stamped records,
//                       default 65536) into the SAME Perfetto document
//                       --trace-out would write — byte-identical, any
//                       --shards value
//
// Examples:
//   ./build/examples/sps_cli --algo=spa2 --util=0.95
//   ./build/examples/sps_cli --algo=edf-wm --tasks=24 --sim-ms=5000
//   ./build/examples/sps_cli --algo=ffd --overheads=zero --trace
//   ./build/examples/sps_cli --ready-queue=rbtree --sleep-queue=binomial
//   ./build/examples/sps_cli --arrivals=bursty --util=0.7
//   ./build/examples/sps_cli --cores=16 --tasks=96 --shards=0
//   ./build/examples/sps_cli --acceptance --jobs=0 --sets=100
//   ./build/examples/sps_cli --acceptance --acceptance-validate \
//       --sim-ms=200 --sets=20
//   ./build/examples/sps_cli --cores=8 --tasks=48 --shards=0 \
//       --trace-out=run.json --metrics-out=metrics.json

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include <memory>

#include "analysis/memo.hpp"
#include "containers/queue_traits.hpp"
#include "exp/acceptance.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/reqtrace.hpp"
#include "obs/spans.hpp"
#include "util/thread_pool.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "obs/report.hpp"
#include "util/log.hpp"
#include "overhead/calibrate.hpp"
#include "overhead/model.hpp"
#include "partition/binpack.hpp"
#include "partition/edf_wm.hpp"
#include "partition/spa.hpp"
#include "partition/verify.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"
#include "trace/gantt.hpp"
#include "util/json_writer.hpp"

using namespace sps;

namespace {

struct Options {
  std::string algo = "spa2";
  unsigned cores = 4;
  std::size_t tasks = 16;
  double util = 0.85;
  std::uint64_t seed = 1;
  std::string overheads = "paper";
  double scale = 1.0;
  Time sim_ms = Millis(2000);
  std::string arrivals = "periodic";
  bool trace = false;
  bool metrics = false;
  std::string trace_out;
  std::string metrics_out;
  bool acceptance = false;
  bool acceptance_validate = false;
  int sets = 50;
  unsigned jobs = 1;
  unsigned shards = 1;
  bool online = false;
  std::size_t online_requests = 128;
  double online_leave = 0.5;
  Time online_epoch = Millis(1000);
  std::string online_place = "ff";
  std::string online_policy = "edf";
  bool online_split = true;
  bool online_fallback = true;
  bool online_unsplit = false;
  bool online_validate = false;
  double online_soft = 0.0;
  std::uint32_t online_drain = 0;
  bool overload_ladder = true;
  bool overload_hysteresis = true;
  bool have_spike = false;
  Time spike_start = 0;
  Time spike_end = 0;
  double spike_prob = 0.2;
  double spike_mag = 1.3;
  bool have_storm = false;
  Time storm_start = 0;
  Time storm_end = 0;
  double storm_burst = 0.9;
  std::string exec_model = "wcet";
  std::string stream_in;
  std::string stream_out;
  online::DurabilityConfig durability;  // --checkpoint-dir etc.
  analysis::MemoConfig memo;  // --analysis-cache=off|<N>
  bool profile = false;
  std::string profile_out;
  std::string stats_out;
  bool trace_requests = false;
  std::uint32_t trace_requests_k = 32;
  std::string reqtrace_out = "reqtrace.json";
  bool flight_dump = false;
  std::uint32_t heartbeat = 10;
  bool verbose = false;
  bool trace_stream = false;
  std::size_t trace_stream_window = 1u << 16;
  containers::QueueBackend ready_queue =
      containers::QueueBackend::kBinomialHeap;
  containers::QueueBackend sleep_queue = containers::QueueBackend::kRbTree;
};

/// Parse ALL of `text` as a T no smaller than `min`: empty text,
/// trailing characters, values outside T's range (or below `min`) and
/// non-finite floats are rejected with a message naming `flag`, so a
/// typo can never silently become 0.
template <typename T>
bool ParseNumber(const char* flag, std::string_view text, T& out,
                 T min = std::numeric_limits<T>::lowest()) {
  T x{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, x);
  bool ok = ec == std::errc() && ptr == end && !text.empty() && x >= min;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(x);
  if (!ok) {
    std::fprintf(stderr, "invalid %s=%.*s (want a number", flag,
                 static_cast<int>(text.size()), text.data());
    if (min != std::numeric_limits<T>::lowest()) {
      std::fprintf(stderr, " >= %g", static_cast<double>(min));
    }
    std::fprintf(stderr, ")\n");
    return false;
  }
  out = x;
  return true;
}

/// ParseNumber for a millisecond flag stored as Time.
bool ParseMillis(const char* flag, std::string_view text, Time& out) {
  double ms = 0.0;
  if (!ParseNumber(flag, text, ms)) return false;
  out = Millis(ms);
  return true;
}

bool ParseArg(const char* arg, Options& o) {
  auto value = [&](const char* key) -> const char* {
    const std::size_t n = std::strlen(key);
    if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') return arg + n + 1;
    return nullptr;
  };
  if (const char* v = value("--algo")) { o.algo = v; return true; }
  if (const char* v = value("--cores")) {
    return ParseNumber("--cores", v, o.cores, 1u);
  }
  if (const char* v = value("--tasks")) {
    return ParseNumber("--tasks", v, o.tasks, std::size_t{1});
  }
  if (const char* v = value("--util")) return ParseNumber("--util", v, o.util);
  if (const char* v = value("--seed")) return ParseNumber("--seed", v, o.seed);
  if (const char* v = value("--overheads")) { o.overheads = v; return true; }
  if (const char* v = value("--scale")) {
    return ParseNumber("--scale", v, o.scale);
  }
  if (const char* v = value("--sim-ms")) {
    return ParseMillis("--sim-ms", v, o.sim_ms);
  }
  auto parse_backend = [](const char* v, containers::QueueBackend& out) {
    if (containers::ParseQueueBackend(v, out)) return true;
    std::fprintf(stderr, "invalid queue backend '%s'; one of:", v);
    for (containers::QueueBackend b : containers::kAllQueueBackends) {
      std::fprintf(stderr, " %s", std::string(containers::to_string(b)).c_str());
    }
    std::fprintf(stderr, "\n");
    return false;
  };
  if (const char* v = value("--ready-queue")) {
    return parse_backend(v, o.ready_queue);
  }
  if (const char* v = value("--sleep-queue")) {
    return parse_backend(v, o.sleep_queue);
  }
  if (const char* v = value("--arrivals")) { o.arrivals = v; return true; }
  if (const char* v = value("--sets")) return ParseNumber("--sets", v, o.sets);
  if (const char* v = value("--jobs")) return ParseNumber("--jobs", v, o.jobs);
  if (const char* v = value("--shards")) {
    return ParseNumber("--shards", v, o.shards);
  }
  if (std::strcmp(arg, "--sporadic") == 0) {
    o.arrivals = "sporadic";
    return true;
  }
  if (std::strcmp(arg, "--acceptance") == 0) {
    o.acceptance = true;
    return true;
  }
  if (std::strcmp(arg, "--acceptance-validate") == 0) {
    o.acceptance = true;
    o.acceptance_validate = true;
    return true;
  }
  if (std::strcmp(arg, "--online") == 0) { o.online = true; return true; }
  if (const char* v = value("--online-requests")) {
    o.online = true;
    return ParseNumber("--online-requests", v, o.online_requests);
  }
  if (const char* v = value("--online-leave")) {
    o.online = true;
    return ParseNumber("--online-leave", v, o.online_leave);
  }
  if (const char* v = value("--online-epoch-ms")) {
    o.online = true;
    return ParseMillis("--online-epoch-ms", v, o.online_epoch);
  }
  if (const char* v = value("--online-place")) {
    o.online = true;
    o.online_place = v;
    return true;
  }
  if (const char* v = value("--online-policy")) {
    o.online = true;
    o.online_policy = v;
    return true;
  }
  if (std::strcmp(arg, "--online-no-split") == 0) {
    o.online = true;
    o.online_split = false;
    return true;
  }
  if (std::strcmp(arg, "--online-no-fallback") == 0) {
    o.online = true;
    o.online_fallback = false;
    return true;
  }
  if (std::strcmp(arg, "--online-unsplit") == 0) {
    o.online = true;
    o.online_unsplit = true;
    return true;
  }
  if (std::strcmp(arg, "--online-validate") == 0) {
    o.online = true;
    o.online_validate = true;
    return true;
  }
  if (const char* v = value("--online-soft")) {
    o.online = true;
    return ParseNumber("--online-soft", v, o.online_soft);
  }
  if (const char* v = value("--online-drain")) {
    o.online = true;
    return ParseNumber("--online-drain", v, o.online_drain);
  }
  auto parse_window = [](const char* flag, std::string_view v, Time& start,
                         Time& end) {
    const std::size_t comma = v.find(',');
    if (comma != std::string_view::npos &&
        ParseMillis(flag, v.substr(0, comma), start) &&
        ParseMillis(flag, v.substr(comma + 1), end) && start < end) {
      return true;
    }
    std::fprintf(stderr, "invalid %s=%.*s (want A,B ms with A < B)\n", flag,
                 static_cast<int>(v.size()), v.data());
    return false;
  };
  if (const char* v = value("--spike-window-ms")) {
    o.online = true;
    o.have_spike = true;
    return parse_window("--spike-window-ms", v, o.spike_start, o.spike_end);
  }
  if (const char* v = value("--spike-prob")) {
    return ParseNumber("--spike-prob", v, o.spike_prob);
  }
  if (const char* v = value("--spike-mag")) {
    return ParseNumber("--spike-mag", v, o.spike_mag);
  }
  if (const char* v = value("--storm-window-ms")) {
    o.online = true;
    o.have_storm = true;
    return parse_window("--storm-window-ms", v, o.storm_start, o.storm_end);
  }
  if (const char* v = value("--storm-burst")) {
    return ParseNumber("--storm-burst", v, o.storm_burst);
  }
  if (std::strcmp(arg, "--no-ladder") == 0) {
    o.overload_ladder = false;
    return true;
  }
  if (std::strcmp(arg, "--no-hysteresis") == 0) {
    o.overload_hysteresis = false;
    return true;
  }
  if (const char* v = value("--exec")) {
    o.exec_model = v;
    return true;
  }
  if (const char* v = value("--stream-in")) {
    o.online = true;
    o.stream_in = v;
    return true;
  }
  if (const char* v = value("--stream-out")) {
    o.online = true;
    o.stream_out = v;
    return true;
  }
  if (const char* v = value("--checkpoint-dir")) {
    o.online = true;
    o.durability.dir = v;
    return true;
  }
  if (const char* v = value("--checkpoint-every")) {
    o.online = true;
    return ParseNumber("--checkpoint-every", v,
                       o.durability.checkpoint_every);
  }
  if (std::strcmp(arg, "--recover") == 0) {
    o.online = true;
    o.durability.recover = true;
    return true;
  }
  if (const char* v = value("--fsync")) {
    o.online = true;
    if (!online::ParseFsyncPolicy(v, o.durability.fsync,
                                  o.durability.fsync_every_n)) {
      std::fprintf(stderr, "invalid --fsync=%s (off|every-epoch|"
                           "every-n[:N])\n",
                   v);
      return false;
    }
    return true;
  }
  if (const char* v = value("--crash-after")) {
    o.online = true;
    return ParseNumber("--crash-after", v, o.durability.crash_after_appends);
  }
  if (const char* v = value("--analysis-cache")) {
    if (std::strcmp(v, "off") == 0) {
      o.memo.enabled = false;
      return true;
    }
    if (!ParseNumber("--analysis-cache", v, o.memo.entries, std::size_t{1})) {
      return false;
    }
    analysis::ResizeSharedMemo(o.memo.entries);
    return true;
  }
  if (std::strcmp(arg, "--profile") == 0) { o.profile = true; return true; }
  if (const char* v = value("--profile-out")) {
    o.profile = true;
    o.profile_out = v;
    return true;
  }
  if (const char* v = value("--stats-out")) {
    o.stats_out = v;
    return true;
  }
  if (const char* v = value("--heartbeat")) {
    return ParseNumber("--heartbeat", v, o.heartbeat);
  }
  if (std::strcmp(arg, "--trace-requests") == 0) {
    o.online = true;
    o.trace_requests = true;
    return true;
  }
  if (const char* v = value("--trace-requests")) {
    o.online = true;
    o.trace_requests = true;
    return ParseNumber("--trace-requests", v, o.trace_requests_k,
                       std::uint32_t{1});
  }
  if (const char* v = value("--reqtrace-out")) {
    o.online = true;
    o.trace_requests = true;
    o.reqtrace_out = v;
    return true;
  }
  if (std::strcmp(arg, "--flight-dump") == 0) {
    o.online = true;
    o.flight_dump = true;
    return true;
  }
  if (std::strcmp(arg, "--verbose") == 0) { o.verbose = true; return true; }
  if (std::strcmp(arg, "--trace-stream") == 0) {
    o.trace_stream = true;
    return true;
  }
  if (const char* v = value("--trace-stream")) {
    o.trace_stream = true;
    return ParseNumber("--trace-stream", v, o.trace_stream_window,
                       std::size_t{1});
  }
  if (std::strcmp(arg, "--trace") == 0) { o.trace = true; return true; }
  if (std::strcmp(arg, "--metrics") == 0) { o.metrics = true; return true; }
  if (const char* v = value("--trace-out")) {
    o.trace_out = v;
    return true;
  }
  if (const char* v = value("--metrics-out")) {
    o.metrics_out = v;
    o.metrics = true;
    return true;
  }
  return false;
}

bool ParseArrivals(const std::string& name, sim::ArrivalModel& out) {
  if (name == "periodic") {
    out.kind = sim::ArrivalModel::Kind::kPeriodic;
  } else if (name == "sporadic") {
    out.kind = sim::ArrivalModel::Kind::kSporadicUniformDelay;
  } else if (name == "jittered") {
    out.kind = sim::ArrivalModel::Kind::kJittered;
  } else if (name == "bursty") {
    out.kind = sim::ArrivalModel::Kind::kBursty;
  } else {
    std::fprintf(stderr, "unknown --arrivals=%s (periodic|sporadic|"
                         "jittered|bursty)\n",
                 name.c_str());
    return false;
  }
  return true;
}

partition::PartitionResult RunAlgo(const Options& o, const rt::TaskSet& ts,
                                   const overhead::OverheadModel& m) {
  if (o.algo == "spa1" || o.algo == "spa2") {
    partition::SpaConfig cfg;
    cfg.num_cores = o.cores;
    cfg.model = m;
    cfg.preassign_heavy = (o.algo == "spa2");
    return partition::SpaPartition(ts, cfg);
  }
  if (o.algo == "ffd" || o.algo == "wfd" || o.algo == "bfd") {
    partition::BinPackConfig cfg;
    cfg.num_cores = o.cores;
    cfg.admission = partition::AdmissionTest::kRta;
    cfg.model = m;
    cfg.memo = o.memo;
    const auto policy = o.algo == "ffd" ? partition::FitPolicy::kFirstFit
                        : o.algo == "wfd" ? partition::FitPolicy::kWorstFit
                                          : partition::FitPolicy::kBestFit;
    return partition::BinPackDecreasing(ts, policy, cfg);
  }
  if (o.algo == "edf-ffd" || o.algo == "edf-wm") {
    partition::EdfPartitionConfig cfg;
    cfg.num_cores = o.cores;
    cfg.model = m;
    cfg.memo = o.memo;
    return o.algo == "edf-wm"
               ? partition::EdfWm(ts, cfg)
               : partition::EdfBinPack(ts, partition::FitPolicy::kFirstFit,
                                       cfg);
  }
  partition::PartitionResult r;
  r.failure_reason = "unknown --algo=" + o.algo;
  return r;
}

int RunOnline(const Options& o, const overhead::OverheadModel& model) {
  std::string err;
  online::WorkloadStream stream;
  if (!o.stream_in.empty()) {
    if (!online::LoadStream(o.stream_in, stream, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    std::printf("loaded request trace %s: %zu requests (%zu admits)\n",
                o.stream_in.c_str(), stream.size(), stream.num_admits());
  } else {
    online::StreamConfig scfg;
    scfg.num_admits = o.online_requests;
    scfg.leave_fraction = o.online_leave;
    scfg.soft_fraction = o.online_soft;
    scfg.seed = o.seed;
    stream = online::GenerateStream(scfg);
    std::printf("generated stream: %zu requests (%zu admits), seed %llu\n",
                stream.size(), stream.num_admits(),
                static_cast<unsigned long long>(o.seed));
  }
  if (!o.stream_out.empty()) {
    if (!online::SaveStream(stream, o.stream_out, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    std::printf("wrote request trace to %s\n", o.stream_out.c_str());
  }

  online::ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = o.cores;
  rcfg.controller.admission.model = model;
  rcfg.controller.admission.memo = o.memo;
  if (o.online_policy == "edf") {
    rcfg.controller.admission.policy = partition::SchedPolicy::kEdf;
  } else if (o.online_policy == "fp") {
    rcfg.controller.admission.policy = partition::SchedPolicy::kFixedPriority;
  } else {
    std::fprintf(stderr, "unknown --online-policy=%s (edf|fp)\n",
                 o.online_policy.c_str());
    return 2;
  }
  if (o.online_place == "ff") {
    rcfg.controller.place = online::PlacePolicy::kFirstFit;
  } else if (o.online_place == "wf") {
    rcfg.controller.place = online::PlacePolicy::kWorstFit;
  } else if (o.online_place == "spa") {
    rcfg.controller.place = online::PlacePolicy::kSpaOrder;
  } else {
    std::fprintf(stderr, "unknown --online-place=%s (ff|wf|spa)\n",
                 o.online_place.c_str());
    return 2;
  }
  rcfg.controller.allow_split = o.online_split;
  rcfg.controller.repartition_fallback = o.online_fallback;
  rcfg.controller.unsplit_on_leave = o.online_unsplit;
  rcfg.controller.overload.ladder = o.overload_ladder;
  rcfg.controller.overload.hysteresis = o.overload_hysteresis;
  rcfg.epoch = o.online_epoch;
  rcfg.seed = o.seed;
  rcfg.drain_epochs = o.online_drain;
  if (o.durability.recover && !o.durability.enabled()) {
    std::fprintf(stderr, "--recover needs --checkpoint-dir=DIR\n");
    return 2;
  }
  rcfg.durability = o.durability;
  if (o.have_spike) {
    rcfg.faults.spikes.push_back(online::SpikeEpoch{
        o.spike_start, o.spike_end, o.spike_prob, o.spike_mag});
    rcfg.controller.overload.spike_magnitude = o.spike_mag;
  }
  if (o.have_storm) {
    rcfg.faults.storms.push_back(
        online::BurstStorm{o.storm_start, o.storm_end, o.storm_burst});
  }
  if (o.online_validate) {
    rcfg.validate_by_simulation = true;
    rcfg.validate_sim.horizon = o.sim_ms;
    rcfg.validate_sim.ready_backend = o.ready_queue;
    rcfg.validate_sim.sleep_backend = o.sleep_queue;
    rcfg.validate_sim.shards = o.shards;
    if (o.exec_model == "spiky") {
      rcfg.validate_sim.exec.kind = sim::ExecModel::Kind::kSpiky;
      rcfg.validate_sim.exec.spike_prob = o.spike_prob;
      rcfg.validate_sim.exec.spike_magnitude = o.spike_mag;
    }
  }

  // --profile (DESIGN.md §15): wall-clock span profiler, heartbeat, and
  // the augmented per-epoch columns — all on the stderr / --profile-out
  // channel, so profiled stdout is byte-identical to an unprofiled run.
  obs::SpanProfiler profiler;
  std::string prof_table;
  obs::LogHistogram admit_hist_prev;
  analysis::MemoStats memo_prev;
  obs::LogHistogram hb_hist_prev;
  analysis::MemoStats hb_memo_prev;
  std::uint64_t hb_decided_prev = 0;
  std::uint64_t hb_ns_prev = 0;
  if (o.profile) {
    rcfg.obs.profiler = &profiler;
    prof_table = "epoch   p99-admit-us   memo-hit%\n";
    if (o.memo.enabled) {
      memo_prev = analysis::SharedMemo(o.memo.entries).stats();
      hb_memo_prev = memo_prev;
    }
    hb_ns_prev = profiler.NowNs();
    rcfg.obs.on_epoch = [&](std::size_t idx, const online::EpochStats& e,
                            const online::ReplayResult& so_far) {
      obs::LogHistogram admit =
          profiler.StageHistogram(obs::SpanStage::kAdmitTotal);
      obs::LogHistogram d = admit;
      d -= admit_hist_prev;
      admit_hist_prev = admit;
      analysis::MemoStats mnow;
      double hit_pct = 0.0;
      if (o.memo.enabled) {
        mnow = analysis::SharedMemo(o.memo.entries).stats();
        analysis::MemoStats md = mnow;
        md -= memo_prev;
        memo_prev = mnow;
        hit_pct = 100.0 * md.hit_rate();
      }
      const double p99_us = static_cast<double>(d.Quantile(0.99)) / 1e3;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%5zu %14.1f %11.1f\n", idx, p99_us,
                    hit_pct);
      prof_table += buf;
      if (o.heartbeat > 0 && (idx + 1) % o.heartbeat == 0) {
        // The heartbeat spans the whole K-epoch interval, so its p99 /
        // memo-hit% are deltas against the PREVIOUS HEARTBEAT, not the
        // previous epoch (the per-epoch deltas above would make every
        // heartbeat report only its final epoch).
        obs::LogHistogram hb = admit;
        hb -= hb_hist_prev;
        hb_hist_prev = admit;
        double hb_hit_pct = 0.0;
        if (o.memo.enabled) {
          analysis::MemoStats hbd = mnow;
          hbd -= hb_memo_prev;
          hb_memo_prev = mnow;
          hb_hit_pct = 100.0 * hbd.hit_rate();
        }
        const double hb_p99_us =
            static_cast<double>(hb.Quantile(0.99)) / 1e3;
        const std::uint64_t now = profiler.NowNs();
        const double secs = static_cast<double>(now - hb_ns_prev) / 1e9;
        const std::uint64_t decided =
            so_far.admits + so_far.rejects + so_far.leaves;
        util::Log(util::LogLevel::kInfo,
                  "heartbeat epoch %zu: %.0f req/s, resident %zu, "
                  "memo-hit %.1f%%, p99 admit %.1fus",
                  idx,
                  secs > 0.0 ? static_cast<double>(decided - hb_decided_prev) /
                                   secs
                             : 0.0,
                  e.resident, hb_hit_pct, hb_p99_us);
        hb_decided_prev = decided;
        hb_ns_prev = now;
      }
    };
  }

  // --trace-requests / --flight-dump (DESIGN.md §16): request-scoped
  // tracing and the crash-dump flight recorder. The tracer borrows the
  // profiler's clock, so the profiler is installed even without
  // --profile — but its reports only print when --profile asked for
  // them, and none of this touches stdout or a byte-compared artifact.
  std::unique_ptr<obs::RequestTracer> tracer;
  if (o.trace_requests || o.flight_dump) {
    obs::RequestTracer::Options topt;
    topt.top_k = o.trace_requests_k;
    if (o.durability.enabled()) topt.flight_dir = o.durability.dir;
    tracer = std::make_unique<obs::RequestTracer>(topt);
    rcfg.obs.profiler = &profiler;
    rcfg.obs.tracer = tracer.get();
    obs::SetCrashDumpTracer(tracer.get());
    obs::InstallCrashSignalHandlers();
  }

  std::printf("online replay: m=%u, policy=%s, place=%s%s%s%s%s%s%s\n\n",
              o.cores, o.online_policy.c_str(),
              online::ToString(rcfg.controller.place),
              rcfg.controller.allow_split ? ", split" : "",
              rcfg.controller.repartition_fallback ? ", fallback" : "",
              rcfg.controller.overload.ladder ? ", ladder" : "",
              rcfg.controller.overload.hysteresis ? ", hysteresis" : "",
              rcfg.faults.any() ? ", fault-injected" : "",
              o.online_validate ? ", validating epochs" : "");
  const online::ReplayResult res = online::ReplayStream(stream, rcfg);
  if (!res.durability_error.ok()) {
    util::Log(util::LogLevel::kError, "durability error [%s]: %s",
              online::ToString(res.durability_error.kind),
              res.durability_error.message.c_str());
    return 2;
  }
  if (res.recovery.attempted) {
    // Recovery narration goes through the leveled stderr logger
    // (util/log.hpp) so a recovered run's stdout is byte-comparable
    // against the uninterrupted run's (the CI smoke test cmp's them)
    // and SPS_LOG_LEVEL=error silences it entirely.
    if (res.recovery.recovered) {
      util::Log(util::LogLevel::kInfo,
                "recovered from checkpoint epoch %llu (resume at "
                "request %llu, %llu journal records, %llu torn bytes "
                "truncated, %u corrupt checkpoints skipped)",
                static_cast<unsigned long long>(
                    res.recovery.checkpoint_epoch),
                static_cast<unsigned long long>(res.recovery.resume_seq),
                static_cast<unsigned long long>(
                    res.recovery.journal_records),
                static_cast<unsigned long long>(
                    res.recovery.journal_truncated_bytes),
                res.recovery.checkpoints_skipped);
    } else {
      util::Log(util::LogLevel::kInfo,
                "no usable checkpoint; replayed from scratch "
                "(%llu journal records, %u corrupt checkpoints skipped)",
                static_cast<unsigned long long>(
                    res.recovery.journal_records),
                res.recovery.checkpoints_skipped);
    }
    // Flight-recorder narration (DESIGN.md §16): if the crashed process
    // left a flight dump next to the durability artifacts, point the
    // operator at it — it says what the service was doing when it died.
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(o.durability.dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("flight-", 0) != 0 ||
          name.size() < 6 || name.substr(name.size() - 5) != ".json") {
        continue;
      }
      std::error_code size_ec;
      const std::uintmax_t bytes =
          std::filesystem::file_size(entry.path(), size_ec);
      util::Log(util::LogLevel::kInfo,
                "crashed run left a flight-recorder dump: %s (%llu "
                "bytes) — inspect with tools/trace_summary.py",
                entry.path().string().c_str(),
                static_cast<unsigned long long>(size_ec ? 0 : bytes));
    }
  }
  std::printf("%s\n", res.Table().c_str());
  const std::uint64_t decided = res.admits + res.rejects;
  std::printf("admits %llu / %llu (acceptance %.3f), leaves %llu\n",
              static_cast<unsigned long long>(res.admits),
              static_cast<unsigned long long>(decided),
              res.acceptance_ratio(),
              static_cast<unsigned long long>(res.leaves));
  std::printf("churn: %llu moved, %llu split, %llu unsplit "
              "(%llu repartitions, %.3f churn/admit)\n",
              static_cast<unsigned long long>(res.churn.moved),
              static_cast<unsigned long long>(res.churn.split),
              static_cast<unsigned long long>(res.churn.unsplit),
              static_cast<unsigned long long>(res.churn.repartitions),
              res.admits > 0 ? static_cast<double>(res.churn.total()) /
                                   static_cast<double>(res.admits)
                             : 0.0);
  std::printf("overload ladder: %llu degrades (%llu restored), %llu sheds "
              "(%llu restored, %llu retry misses), %llu hysteresis blocks, "
              "%zu shed outstanding\n",
              static_cast<unsigned long long>(res.overload.degrades),
              static_cast<unsigned long long>(res.overload.degrade_restores),
              static_cast<unsigned long long>(res.overload.sheds),
              static_cast<unsigned long long>(res.overload.shed_restores),
              static_cast<unsigned long long>(res.overload.retry_attempts),
              static_cast<unsigned long long>(res.overload.hysteresis_blocks),
              res.shed_outstanding);
  std::printf("admission decisions: %llu O(1) util-rejects, %llu O(n) "
              "density-accepts, %llu full demand tests\n",
              static_cast<unsigned long long>(res.admission.util_rejects),
              static_cast<unsigned long long>(res.admission.density_accepts),
              static_cast<unsigned long long>(res.admission.full_tests));
  if (o.memo.enabled) {
    const std::uint64_t probes =
        res.admission.memo_hits + res.admission.memo_misses;
    std::printf("analysis cache: %llu hits / %llu lookups (%.1f%%), "
                "%llu evictions\n",
                static_cast<unsigned long long>(res.admission.memo_hits),
                static_cast<unsigned long long>(probes),
                probes > 0 ? 100.0 *
                                 static_cast<double>(
                                     res.admission.memo_hits) /
                                 static_cast<double>(probes)
                           : 0.0,
                static_cast<unsigned long long>(res.admission.memo_evicts));
  } else {
    std::printf("analysis cache: off\n");
  }
  std::printf("\nfinal placement:\n%s",
              res.final_partition.summary().c_str());

  if (o.profile) {
    // Wall-clock data stays off stdout (§15 firewall): the JSON report
    // goes to --profile-out, everything else to stderr.
    if (!o.profile_out.empty()) {
      if (!util::WriteTextFile(o.profile_out, profiler.ToJson(), &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      util::Log(util::LogLevel::kInfo, "wrote span profile to %s",
                o.profile_out.c_str());
    } else {
      std::fprintf(stderr, "\n--- wall-clock span profile ---\n%s",
                   profiler.ToText().c_str());
    }
    std::fprintf(stderr, "\n%s", prof_table.c_str());
    // Pool observability (DESIGN.md §16): how the sharded-validation /
    // batch work actually spread over the shared pool's workers.
    // Scheduling-dependent, hence wall-channel: stderr only, in its own
    // registry, never the byte-compared --stats-out one.
    obs::StatsRegistry pool_reg;
    obs::FillPoolStatsRegistry(pool_reg, util::SharedPool());
    std::fprintf(stderr, "\n--- thread-pool stats ---\n%s",
                 pool_reg.snapshot().ToCsv().c_str());
  }

  if (tracer != nullptr) {
    if (o.trace_requests) {
      // Pool gauges ride along as Perfetto counter tracks (one sample,
      // stamped at the retained span horizon).
      const util::ThreadPool::PoolStats ps = util::SharedPool().Stats();
      obs::CounterSeries stolen{"pool stolen indices", {}};
      obs::CounterSeries caller{"pool caller indices", {}};
      obs::CounterSeries peak{"pool one-off queue peak", {}};
      stolen.points.emplace_back(0, static_cast<double>(ps.stolen_indices()));
      caller.points.emplace_back(0, static_cast<double>(ps.caller.indices));
      peak.points.emplace_back(0, static_cast<double>(ps.queue_peak));
      if (!util::WriteTextFile(o.reqtrace_out,
                               tracer->ToPerfettoJson({stolen, caller, peak}),
                               &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      const obs::RequestTracer::RetainStats rs = tracer->retain_stats();
      util::Log(util::LogLevel::kInfo,
                "wrote request traces to %s (%llu requests seen, %llu "
                "slow + %llu interesting retained, peak %llu spans held) "
                "— summarize with tools/trace_summary.py",
                o.reqtrace_out.c_str(),
                static_cast<unsigned long long>(rs.traces_seen),
                static_cast<unsigned long long>(rs.retained_slow),
                static_cast<unsigned long long>(rs.retained_interesting),
                static_cast<unsigned long long>(rs.peak_retained_spans));
    }
    if (o.flight_dump) {
      std::string flight_path;
      if (!tracer->DumpFlight("on_demand", &flight_path, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      util::Log(util::LogLevel::kInfo,
                "wrote flight-recorder dump to %s", flight_path.c_str());
    }
  }
  if (!o.stats_out.empty()) {
    obs::StatsRegistry reg;
    online::FillStatsRegistry(reg, res);
    if (!util::WriteTextFile(o.stats_out, reg.snapshot().ToJson(), &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    std::printf("wrote stats registry to %s\n", o.stats_out.c_str());
  }

  if (!o.trace_out.empty()) {
    // Epoch series as Perfetto counter tracks (stamped at epoch ends).
    obs::PerfettoOptions popt;
    popt.num_cores = o.cores;
    popt.process_name = "sps online replay";
    popt.counter_tracks = false;  // no scheduler events in this mode
    obs::CounterSeries churn{"online churn", {}};
    obs::CounterSeries resident{"resident tasks", {}};
    obs::CounterSeries util{"total utilization", {}};
    obs::CounterSeries shed{"shed tasks", {}};
    obs::CounterSeries degraded{"degraded tasks", {}};
    for (const online::EpochStats& e : res.epochs) {
      churn.points.emplace_back(e.end,
                                static_cast<double>(e.churn.total()));
      resident.points.emplace_back(e.end,
                                   static_cast<double>(e.resident));
      util.points.emplace_back(e.end, e.utilization);
      shed.points.emplace_back(e.end,
                               static_cast<double>(e.shed_resident));
      degraded.points.emplace_back(
          e.end, static_cast<double>(e.degraded_resident));
    }
    popt.extra_counters = {churn, resident, util, shed, degraded};
    if (!obs::WritePerfettoJson({}, o.trace_out, popt, &err)) {
      std::fprintf(stderr, "%s\n", err.c_str());
      return 2;
    }
    std::printf("wrote epoch counter tracks to %s — open at "
                "ui.perfetto.dev\n",
                o.trace_out.c_str());
  }

  std::uint64_t misses = 0;
  std::uint64_t hard_misses = 0;
  for (const online::EpochStats& e : res.epochs) {
    misses += e.sim_misses;
    hard_misses += e.hard_misses;
  }
  if (o.online_validate) {
    std::printf("epoch validation: %llu simulated deadline misses "
                "(%llu on HARD tasks)\n",
                static_cast<unsigned long long>(misses),
                static_cast<unsigned long long>(hard_misses));
  }
  // Fault-injected replays run soft tasks past their deadlines by
  // design; the pass/fail line is the hard-criticality one there.
  if (rcfg.faults.any()) return hard_misses == 0 ? 0 : 1;
  return misses == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    if (!ParseArg(argv[i], o)) {
      std::fprintf(stderr, "unknown argument: %s\n(see the usage comment "
                           "at the top of examples/sps_cli.cpp)\n",
                   argv[i]);
      return 2;
    }
  }

  if (o.verbose) util::SetGlobalLogLevel(util::LogLevel::kDebug);

  overhead::OverheadModel model = overhead::OverheadModel::Zero();
  if (o.overheads == "paper") {
    model = overhead::OverheadModel::PaperScaled(o.scale);
  } else if (o.overheads == "calibrated") {
    std::printf("calibrating against this machine's queues...\n");
    overhead::CalibrationConfig ccfg;
    ccfg.ready_backend = o.ready_queue;
    ccfg.sleep_backend = o.sleep_queue;
    model = overhead::Calibrate(ccfg);
    model.scale = o.scale;
  } else if (o.overheads != "zero") {
    std::fprintf(stderr, "unknown --overheads=%s\n", o.overheads.c_str());
    return 2;
  }

  if (o.online) return RunOnline(o, model);

  if (o.acceptance) {
    exp::AcceptanceConfig acfg;
    acfg.num_cores = o.cores;
    acfg.num_tasks = o.tasks;
    acfg.norm_util_points = exp::AcceptanceConfig::DefaultGrid();
    acfg.sets_per_point = o.sets;
    acfg.seed = o.seed;
    acfg.model = model;
    acfg.jobs = o.jobs;
    acfg.memo = o.memo;
    if (o.acceptance_validate) {
      acfg.validate_by_simulation = true;
      acfg.validate_sim.horizon = o.sim_ms;
      if (!ParseArrivals(o.arrivals, acfg.validate_sim.arrivals)) return 2;
      // Overload axis (DESIGN.md §13): validate accepted partitions
      // under per-job execution spikes instead of exact WCET.
      if (o.exec_model == "spiky") {
        acfg.validate_sim.exec.kind = sim::ExecModel::Kind::kSpiky;
        acfg.validate_sim.exec.spike_prob = o.spike_prob;
        acfg.validate_sim.exec.spike_magnitude = o.spike_mag;
      } else if (o.exec_model != "wcet") {
        std::fprintf(stderr, "unknown --exec=%s (wcet|spiky)\n",
                     o.exec_model.c_str());
        return 2;
      }
      acfg.validate_sim.ready_backend = o.ready_queue;
      acfg.validate_sim.sleep_backend = o.sleep_queue;
      acfg.validate_sim.shards = o.shards;
    }
    std::printf("acceptance sweep: m=%u, n=%zu, %d sets/point, jobs=%u%s%s\n\n",
                o.cores, o.tasks, o.sets, o.jobs,
                o.acceptance_validate ? ", validating by simulation" : "",
                o.acceptance_validate && o.exec_model == "spiky"
                    ? " (spiky exec)"
                    : "");
    // The sweep has no per-unit AdmitStats plumbing, so the cache
    // counters come from whole-table snapshots around the run.
    const analysis::MemoStats before =
        o.memo.enabled ? analysis::SharedMemo(o.memo.entries).stats()
                       : analysis::MemoStats{};
    const exp::AcceptanceResult res = exp::RunAcceptance(acfg);
    std::printf("%s\n", res.Table().c_str());
    const auto w = res.WeightedAcceptance();
    for (std::size_t ai = 0; ai < acfg.algorithms.size(); ++ai) {
      std::printf("weighted %-12s %.3f\n",
                  exp::ToString(acfg.algorithms[ai]), w[ai]);
    }
    if (o.memo.enabled) {
      analysis::MemoStats d = analysis::SharedMemo(o.memo.entries).stats();
      d -= before;
      std::printf("analysis cache: %llu hits / %llu lookups (%.1f%%), "
                  "%llu evictions\n",
                  static_cast<unsigned long long>(d.hits),
                  static_cast<unsigned long long>(d.hits + d.misses),
                  100.0 * d.hit_rate(),
                  static_cast<unsigned long long>(d.evicts));
    } else {
      std::printf("analysis cache: off\n");
    }
    return 0;
  }

  rt::GeneratorConfig gen;
  gen.num_tasks = o.tasks;
  gen.total_utilization = o.util * o.cores;
  rt::Rng rng(o.seed);
  const rt::TaskSet ts = rt::GenerateTaskSet(gen, rng);
  std::printf("generated %zu tasks, U=%.3f on %u cores (norm %.3f), "
              "seed %llu\n",
              ts.size(), ts.total_utilization(), o.cores, o.util,
              static_cast<unsigned long long>(o.seed));

  const partition::PartitionResult pr = RunAlgo(o, ts, model);
  if (!pr.success) {
    std::printf("%s REJECTED the set: %s\n", pr.algorithm.c_str(),
                pr.failure_reason.c_str());
    return 1;
  }
  std::printf("\n%s accepted:\n%s\n", pr.algorithm.c_str(),
              pr.partition.summary().c_str());

  sim::SimConfig cfg;
  cfg.horizon = o.sim_ms;
  cfg.overheads = model;
  if (!ParseArrivals(o.arrivals, cfg.arrivals)) return 2;
  cfg.record_trace = o.trace || !o.trace_out.empty();
  cfg.record_metrics = o.metrics;
  cfg.ready_backend = o.ready_queue;
  cfg.sleep_backend = o.sleep_queue;
  cfg.shards = o.shards;
  // Streaming trace window (DESIGN.md §15): drain the trace into the
  // incremental Perfetto serializer DURING the run — byte-identical
  // document, O(window) stamped-record memory.
  std::unique_ptr<obs::PerfettoStreamDrain> stream_drain;
  if (o.trace_stream) {
    if (o.trace_out.empty()) {
      std::fprintf(stderr, "--trace-stream needs --trace-out=FILE\n");
      return 2;
    }
    cfg.record_trace = true;
    obs::PerfettoOptions popt;
    popt.num_cores = o.cores;
    stream_drain = std::make_unique<obs::PerfettoStreamDrain>(popt);
    cfg.trace_drain = stream_drain.get();
    cfg.trace_window = o.trace_stream_window;
  }
  const sim::SimResult r = Simulate(pr.partition, cfg);
  std::printf("queues: ready=%s (%llu ops) sleep=%s (%llu ops) "
              "event=vector (%llu ops)\n",
              std::string(containers::to_string(o.ready_queue)).c_str(),
              static_cast<unsigned long long>(r.ready_ops.total()),
              std::string(containers::to_string(o.sleep_queue)).c_str(),
              static_cast<unsigned long long>(r.sleep_ops.total()),
              static_cast<unsigned long long>(r.event_ops.total()));
  std::printf("%s\n", r.summary().c_str());
  if (o.trace) {
    trace::GanttOptions gopt;
    gopt.end = std::min<Time>(o.sim_ms, Millis(100));
    gopt.columns = 110;
    std::printf("%s", trace::RenderGantt(r.trace_events, gopt).c_str());
  }
  if (!o.trace_out.empty()) {
    std::string err;
    if (o.trace_stream) {
      if (!util::WriteTextFile(o.trace_out, stream_drain->document(),
                               &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      const obs::TraceStreamStats& ts = stream_drain->stats();
      std::printf("wrote Perfetto trace (%llu events streamed in %llu "
                  "batches, peak %zu resident) to %s — open at "
                  "ui.perfetto.dev\n",
                  static_cast<unsigned long long>(ts.events),
                  static_cast<unsigned long long>(ts.batches),
                  ts.peak_resident, o.trace_out.c_str());
    } else {
      if (!obs::WritePerfettoJson(r.trace_events, o.trace_out,
                                  {.num_cores = o.cores}, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      std::printf("wrote Perfetto trace (%zu events) to %s — open at "
                  "ui.perfetto.dev\n",
                  r.trace_events.size(), o.trace_out.c_str());
    }
  }
  if (o.metrics) {
    const obs::MetricsReport rep = obs::BuildMetricsReport(r);
    std::printf("\n--- metrics report (span %.1fms) ---\n%s\n%s",
                ToMillis(rep.span), rep.TaskCsv().c_str(),
                rep.CoreCsv().c_str());
    if (!o.metrics_out.empty()) {
      std::string err;
      if (!util::WriteTextFile(o.metrics_out, rep.ToJson(), &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 2;
      }
      std::printf("wrote metrics report to %s\n", o.metrics_out.c_str());
    }
  }
  return r.total_misses == 0 ? 0 : 1;
}
