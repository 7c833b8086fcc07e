// sps_cli — command-line front end for one-off experiments with the library.
// Every flag is one row of FlagTable() below: its value syntax, range,
// implied mode and help come from that row, its default from Options. A
// bad or out-of-range value exits 2 with the usage on stderr before any
// work.
// Exit codes: 0 = ran clean, 1 = deadline misses or partition rejected,
// 2 = bad arguments, or a file that cannot be read, written or trusted
// (a corrupt durability artifact).
//
// Modes:
//   single run (default): generate a task set, partition it with --algo,
//       simulate it for --sim-ms and report. --trace / --metrics and
//       their -out files observe the simulation (DESIGN.md §10); the
//       Perfetto and metrics documents are byte-identical for every
//       --shards value.
//   --acceptance: the paper's acceptance-ratio sweep (exp/acceptance.*)
//       of FFD, WFD and --algo over the default utilization grid on
//       --jobs threads; results are bit-identical for every --jobs
//       value. --acceptance-validate also simulates every accepted
//       partition (under --exec, --arrivals) and reports the fraction
//       that runs without a deadline miss.
//   --online: a timestamped ADMIT/LEAVE request stream (generated from
//       --seed, or --stream-in) replayed through the incremental
//       admission controller (DESIGN.md §11), reporting per-epoch
//       admits / rejects / churn and the final placement.
//       --online-validate simulates the partition standing at every
//       epoch boundary. Overload (DESIGN.md §13): soft tasks are the
//       victims of the degrade/shed ladder; inside a spike or storm
//       window epoch validation simulates the faulted models and the
//       pass/fail line counts HARD-task misses only. Durability
//       (DESIGN.md §14): --checkpoint-dir turns on the write-ahead
//       journal and checkpoints; a --recover run's stdout is
//       byte-identical to the uninterrupted run (with
//       --analysis-cache=off the cache counters match too).
//
// Channels (DESIGN.md §15, §16): --profile, the heartbeat, request
// tracing and recovery narration write to stderr or their own files,
// never to stdout, so stdout, --stats-out, --trace-out and checkpoints
// stay byte-identical with them on. --trace-requests also arms the
// crash-dump flight recorder (flight-<pid>.json in --checkpoint-dir, else
// the cwd); inspect its files with tools/trace_summary.py.
//
// --analysis-cache sizes (rounded up to a power of two) or disables the
// shared schedulability-verdict table (DESIGN.md §12); decisions are
// identical either way. --shards=N lets one simulation run the
// partition's core groups — cores joined by split tasks — on up to N
// threads (DESIGN.md §9); results are bit-identical to --shards=1.
//
// Examples:
//   ./build/examples/sps_cli --algo=edf-wm --tasks=24 --trace
//   ./build/examples/sps_cli --acceptance-validate --sets=20 --jobs=0
//   ./build/examples/sps_cli --online --spike-window-ms=2000,4000

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "analysis/memo.hpp"
#include "containers/queue_traits.hpp"
#include "exp/acceptance.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/spans.hpp"
#include "util/thread_pool.hpp"
#include "online/controller.hpp"
#include "online/workload_stream.hpp"
#include "obs/report.hpp"
#include "util/log.hpp"
#include "overhead/calibrate.hpp"
#include "overhead/model.hpp"
#include "partition/placement.hpp"
#include "rt/generator.hpp"
#include "sim/engine.hpp"
#include "trace/gantt.hpp"
#include "util/json_writer.hpp"

using namespace sps;

namespace {

enum class Overheads { kPaper, kZero, kCalibrated };

/// A half-open fault window [start, end); empty unless its flag is given.
struct Window {
  Time start = 0;
  Time end = 0;
  [[nodiscard]] bool any() const { return start < end; }
};

struct Options {
  exp::Algo algo = exp::Algo::kSpa2;
  unsigned cores = 4;
  std::size_t tasks = 16;
  double util = 0.85;
  std::uint64_t seed = 1;
  Overheads overheads = Overheads::kPaper;
  double scale = 1.0;
  Time sim_ms = Millis(2000);
  sim::ArrivalModel::Kind arrivals = sim::ArrivalModel::Kind::kPeriodic;
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
  online::PlacePolicy online_place = online::PlacePolicy::kFirstFit;
  partition::SchedPolicy online_policy = partition::SchedPolicy::kEdf;
  bool online_no_split = false;
  bool online_no_fallback = false;
  bool online_unsplit = false;
  bool online_validate = false;
  double online_soft = 0.0;
  std::uint32_t online_drain = 0;
  bool no_ladder = false;
  bool no_hysteresis = false;
  Window spike;
  double spike_prob = 0.2;
  double spike_mag = 1.3;
  Window storm;
  double storm_burst = 0.9;
  sim::ExecModel::Kind exec_model = sim::ExecModel::Kind::kAlwaysWcet;
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
  containers::QueueBackend ready_queue =
      containers::QueueBackend::kBinomialHeap;
  containers::QueueBackend sleep_queue = containers::QueueBackend::kRbTree;
};

// ---- the flag table ---------------------------------------------------------

template <typename E>
using Choice = std::pair<const char*, E>;

constexpr Choice<exp::Algo> kAlgos[] = {
    {"spa2", exp::Algo::kSpa2}, {"spa1", exp::Algo::kSpa1},
    {"ffd", exp::Algo::kFfd},   {"wfd", exp::Algo::kWfd},
    {"bfd", exp::Algo::kBfd},   {"edf-ffd", exp::Algo::kEdfFfd},
    {"edf-wm", exp::Algo::kEdfWm}};
constexpr Choice<Overheads> kOverheads[] = {
    {"paper", Overheads::kPaper},
    {"zero", Overheads::kZero},
    {"calibrated", Overheads::kCalibrated}};
constexpr Choice<sim::ArrivalModel::Kind> kArrivals[] = {
    {"periodic", sim::ArrivalModel::Kind::kPeriodic},
    {"sporadic", sim::ArrivalModel::Kind::kSporadicUniformDelay},
    {"jittered", sim::ArrivalModel::Kind::kJittered},
    {"bursty", sim::ArrivalModel::Kind::kBursty}};
constexpr Choice<sim::ExecModel::Kind> kExecModels[] = {
    {"wcet", sim::ExecModel::Kind::kAlwaysWcet},
    {"spiky", sim::ExecModel::Kind::kSpiky}};
constexpr Choice<containers::QueueBackend> kQueues[] = {
    {"binomial", containers::QueueBackend::kBinomialHeap},
    {"rbtree", containers::QueueBackend::kRbTree}};
constexpr Choice<online::PlacePolicy> kPlaces[] = {
    {"ff", online::PlacePolicy::kFirstFit},
    {"wf", online::PlacePolicy::kWorstFit},
    {"spa", online::PlacePolicy::kSpaOrder}};
constexpr Choice<partition::SchedPolicy> kPolicies[] = {
    {"edf", partition::SchedPolicy::kEdf},
    {"fp", partition::SchedPolicy::kFixedPriority}};

/// An enum field and the spellings of its values.
template <typename E>
struct Enum {
  E* field;
  std::span<const Choice<E>> choices;
};
template <typename E, std::size_t N>
Enum<E> OneOf(E* field, const Choice<E> (&choices)[N]) {
  return {field, choices};
}

template <typename E>
const char* NameOf(std::span<const Choice<E>> choices, E value) {
  for (const auto& [name, v] : choices) {
    if (v == value) return name;
  }
  return "?";
}

/// The Options field a flag writes; its type is the flag's kind (see
/// "flag kinds" below). std::size_t and std::uint64_t are each
/// `unsigned long` or `unsigned long long`, depending on the ABI.
using Field = std::variant<
    bool*, int*, unsigned*, unsigned long*, unsigned long long*, double*,
    Time*, std::string*, Window*, analysis::MemoConfig*,
    online::DurabilityConfig*, Enum<exp::Algo>, Enum<Overheads>,
    Enum<sim::ArrivalModel::Kind>, Enum<sim::ExecModel::Kind>,
    Enum<containers::QueueBackend>, Enum<online::PlacePolicy>,
    Enum<partition::SchedPolicy>>;

/// Inclusive numeric range; `open` makes the lower bound exclusive.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool open = false;
};
constexpr Range kPositive{0.0, std::numeric_limits<double>::infinity(), true};
constexpr Range kAtLeastOne{1.0};
constexpr Range kProbability{0.0, 1.0};
// Millisecond flags and time multipliers stay far inside Time's
// nanosecond range: beyond these, overhead-inflated WCETs, spiked
// execution times or horizons overflow it.
constexpr double kMaxMs = 1e9;
constexpr Range kPositiveMs{0.0, kMaxMs, true};
constexpr Range kWindowMs{0.0, kMaxMs};
constexpr Range kMultiplier{0.0, 1e6};

enum class Mode { kAny, kOnline, kAcceptance };

/// One row of the flag table: everything the CLI knows about a flag.
struct Flag {
  std::string_view name;
  Field field;
  const char* help;
  Mode mode = Mode::kAny;  ///< the mode the flag switches on
  Range range = {};        ///< for numbers, times and windows
  /// A switch the flag also turns on. A number flag with one may be
  /// given bare (`--trace-requests`): that sets only the switch.
  bool* also = nullptr;

  [[nodiscard]] bool is_switch() const {
    return std::holds_alternative<bool*>(field);
  }
  [[nodiscard]] bool value_optional() const {
    return also != nullptr && !std::holds_alternative<std::string*>(field);
  }
};

/// Every flag, bound to the fields of `o`. The usage text lists them in
/// this order.
std::vector<Flag> FlagTable(Options& o) {
  constexpr Mode kAny = Mode::kAny;
  constexpr Mode kOnline = Mode::kOnline;
  return {
      {"--algo", OneOf(&o.algo, kAlgos),
       "partitioning algorithm (--acceptance: compared with FFD, WFD)"},
      {"--cores", &o.cores, "number of cores m", kAny, kAtLeastOne},
      {"--tasks", &o.tasks, "tasks per generated set", kAny, kAtLeastOne},
      {"--util", &o.util, "normalized utilization U/m", kAny, kPositive},
      {"--seed", &o.seed, "task set / request stream seed"},
      {"--overheads", OneOf(&o.overheads, kOverheads), "overhead model"},
      {"--scale", &o.scale, "overhead model scale", kAny, kMultiplier},
      {"--sim-ms", &o.sim_ms, "simulation horizon", kAny, kPositiveMs},
      {"--arrivals", OneOf(&o.arrivals, kArrivals), "job arrival model"},
      {"--ready-queue", OneOf(&o.ready_queue, kQueues), "ready queue"},
      {"--sleep-queue", OneOf(&o.sleep_queue, kQueues), "sleep queue"},
      {"--shards", &o.shards,
       "threads per simulation; 0 = one per hardware thread"},
      {"--trace", &o.trace, "record the event stream, print a Gantt chart"},
      {"--trace-out", &o.trace_out, "write the trace as Perfetto JSON"},
      {"--metrics", &o.metrics, "print the per-task / per-core metrics"},
      {"--metrics-out", &o.metrics_out, "write the metrics report JSON", kAny,
       {}, &o.metrics},
      {"--acceptance", &o.acceptance, "acceptance-ratio sweep"},
      {"--acceptance-validate", &o.acceptance_validate,
       "simulate every accepted partition", Mode::kAcceptance},
      {"--sets", &o.sets, "task sets per utilization point", kAny, kPositive},
      {"--jobs", &o.jobs, "sweep threads; 0 = one per hardware thread"},
      {"--exec", OneOf(&o.exec_model, kExecModels),
       "execution times in validation simulations"},
      {"--analysis-cache", &o.memo, "verdict table slots", kAny, kAtLeastOne},
      {"--online", &o.online, "online admission replay"},
      {"--online-requests", &o.online_requests, "admits in the stream",
       kOnline},
      {"--online-leave", &o.online_leave, "fraction of admits that leave",
       kOnline, kProbability},
      {"--online-epoch-ms", &o.online_epoch, "epoch length", kOnline,
       kPositiveMs},
      {"--online-place", OneOf(&o.online_place, kPlaces), "placement policy",
       kOnline},
      {"--online-policy", OneOf(&o.online_policy, kPolicies),
       "per-core scheduling policy", kOnline},
      {"--online-no-split", &o.online_no_split, "never split a task",
       kOnline},
      {"--online-no-fallback", &o.online_no_fallback,
       "never fall back to a full repartition", kOnline},
      {"--online-unsplit", &o.online_unsplit, "re-merge split tasks on leave",
       kOnline},
      {"--online-validate", &o.online_validate,
       "simulate the partition at every epoch boundary", kOnline},
      {"--online-soft", &o.online_soft, "fraction of admits that are soft",
       kOnline, kProbability},
      {"--online-drain", &o.online_drain,
       "empty epochs closed after the last request", kOnline},
      {"--spike-window-ms", &o.spike, "execution-time spike window", kOnline,
       kWindowMs},
      {"--spike-prob", &o.spike_prob, "per-job overrun probability in a spike",
       kAny, kProbability},
      {"--spike-mag", &o.spike_mag, "overrun execution-time multiplier", kAny,
       kMultiplier},
      {"--storm-window-ms", &o.storm, "burst-arrival storm window", kOnline,
       kWindowMs},
      {"--storm-burst", &o.storm_burst, "burst probability in a storm", kAny,
       kProbability},
      {"--no-ladder", &o.no_ladder, "switch the degrade/shed ladder off"},
      {"--no-hysteresis", &o.no_hysteresis,
       "switch the repartition hysteresis off"},
      {"--stream-in", &o.stream_in, "replay a saved request stream", kOnline},
      {"--stream-out", &o.stream_out, "save the request stream", kOnline},
      {"--checkpoint-dir", &o.durability.dir,
       "directory of the journal and checkpoints", kOnline},
      {"--checkpoint-every", &o.durability.checkpoint_every,
       "checkpoint every N epochs; 0 = never", kOnline},
      {"--recover", &o.durability.recover,
       "resume a crashed run from --checkpoint-dir", kOnline},
      {"--fsync", &o.durability, "journal fsync policy", kOnline},
      {"--crash-after", &o.durability.crash_after_appends,
       "SIGKILL after the N-th journal append; 0 = off", kOnline},
      {"--profile", &o.profile, "wall-clock span profile on stderr"},
      {"--profile-out", &o.profile_out, "write the span profile JSON", kAny,
       {}, &o.profile},
      {"--stats-out", &o.stats_out, "write the stats registry JSON"},
      {"--heartbeat", &o.heartbeat, "heartbeat every N epochs; 0 = off"},
      {"--trace-requests", &o.trace_requests_k,
       "keep the N slowest request traces", kOnline, kAtLeastOne,
       &o.trace_requests},
      {"--reqtrace-out", &o.reqtrace_out, "write the request traces JSON",
       kOnline, {}, &o.trace_requests},
      {"--flight-dump", &o.flight_dump, "dump the flight recorder at the end",
       kOnline},
      {"--verbose", &o.verbose, "debug logging"},
  };
}

/// Parse ALL of `text` as a T within `range`: empty text, trailing
/// characters, values outside T's range and non-finite floats are
/// rejected, so a typo can never silently become 0.
template <typename T>
bool ParseNumber(std::string_view text, T& out, const Range& range) {
  T x{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, x);
  const double d = static_cast<double>(x);
  bool ok = ec == std::errc() && ptr == end && !text.empty() &&
            (range.open ? d > range.lo : d >= range.lo) && d <= range.hi;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(x);
  if (ok) out = x;
  return ok;
}

/// The shortest text that reads back as `v`.
std::string Num(double v) {
  char buf[32];
  return {buf, std::to_chars(buf, buf + sizeof(buf), v).ptr};
}

// ---- flag kinds ------------------------------------------------------------
// A flag's kind is the type of its field. Per kind, Parse stores a value
// (false if it does not parse), Meta spells the value for the usage and
// Show renders the field's current value ("" omits it).

template <typename T>  // numbers
bool Parse(T* p, std::string_view v, const Range& r) {
  return ParseNumber(v, *p, r);
}
template <typename T>
std::string Meta(T*) { return "=N"; }
template <typename T>
std::string Show(T* p) { return std::to_string(*p); }
std::string Show(double* p) { return Num(*p); }

bool Parse(bool*, std::string_view, const Range&) { return false; }
std::string Meta(bool*) { return ""; }
std::string Show(bool*) { return ""; }

bool Parse(Time* p, std::string_view v, const Range& r) {
  double ms = 0.0;
  if (!ParseNumber(v, ms, r)) return false;
  *p = Millis(ms);
  return true;
}
std::string Meta(Time*) { return "=MS"; }
std::string Show(Time* p) { return Num(ToMillis(*p)); }

bool Parse(Window* p, std::string_view v, const Range& r) {
  const std::size_t comma = v.find(',');
  double a = 0.0;
  double b = 0.0;
  if (comma == std::string_view::npos ||
      !ParseNumber(v.substr(0, comma), a, r) ||
      !ParseNumber(v.substr(comma + 1), b, r) || a >= b) {
    return false;
  }
  *p = Window{Millis(a), Millis(b)};
  return true;
}
std::string Meta(Window*) { return "=A,B"; }
std::string Show(Window*) { return ""; }

bool Parse(std::string* p, std::string_view v, const Range&) {
  *p = v;
  return true;
}
std::string Meta(std::string*) { return "=PATH"; }
std::string Show(std::string* p) { return *p; }

bool Parse(analysis::MemoConfig* p, std::string_view v, const Range& r) {
  p->enabled = v != "off";
  return !p->enabled || ParseNumber(v, p->entries, r);
}
std::string Meta(analysis::MemoConfig*) { return "=off|N"; }
std::string Show(analysis::MemoConfig* p) {
  return p->enabled ? std::to_string(p->entries) : "off";
}

bool Parse(online::DurabilityConfig* p, std::string_view v, const Range&) {
  return online::ParseFsyncPolicy(std::string(v).c_str(), p->fsync,
                                  p->fsync_every_n);
}
std::string Meta(online::DurabilityConfig*) {
  return "=off|every-epoch|every-n[:N]";
}
std::string Show(online::DurabilityConfig* p) {
  return online::ToString(p->fsync);
}

template <typename E>
bool Parse(Enum<E> e, std::string_view v, const Range&) {
  for (const auto& [name, value] : e.choices) {
    if (v == name) {
      *e.field = value;
      return true;
    }
  }
  return false;
}
template <typename E>
std::string Meta(Enum<E> e) {
  std::string s;
  for (const auto& [name, value] : e.choices) {
    s = s + (s.empty() ? "=" : "|") + name;
  }
  return s;
}
template <typename E>
std::string Show(Enum<E> e) { return NameOf(e.choices, *e.field); }

// ---- usage and parsing -----------------------------------------------------

/// "--name=VALUE": how the flag is spelled.
std::string Syntax(const Flag& f) {
  const std::string meta = std::visit([](auto p) { return Meta(p); }, f.field);
  return std::string(f.name) + (f.value_optional() ? "[" + meta + "]" : meta);
}

/// The flag's range, e.g. "> 0" or "in [0, 1]" ("" when unbounded).
std::string Limits(const Flag& f) {
  const Range& r = f.range;
  std::string s;
  if (std::isfinite(r.hi)) {
    s = std::string("in ") + (r.open ? "(" : "[") + Num(r.lo) + ", " +
        Num(r.hi) + "]";
  } else if (std::isfinite(r.lo)) {
    s = (r.open ? "> " : ">= ") + Num(r.lo);
  }
  if (std::holds_alternative<Window*>(f.field)) s = "A < B, each " + s;
  return s;
}

/// The usage text, one line per table row, to stderr.
void PrintUsage() {
  Options defaults;
  std::fprintf(stderr, "usage: sps_cli [FLAG]...  (modes: single run, "
                       "--acceptance, --online)\n");
  for (const Flag& f : FlagTable(defaults)) {
    std::string notes;
    const auto note = [&](const std::string& n) {
      if (!n.empty()) notes += (notes.empty() ? " (" : "; ") + n;
    };
    note(Limits(f));
    const std::string def =
        std::visit([](auto p) { return Show(p); }, f.field);
    if (!def.empty()) note("default " + def);
    if (f.mode == Mode::kOnline) note("implies --online");
    if (f.mode == Mode::kAcceptance) note("implies --acceptance");
    std::fprintf(stderr, "  %-36s %s%s%s\n", Syntax(f).c_str(), f.help,
                 notes.c_str(), notes.empty() ? "" : ")");
  }
}

/// Parse argv into `o` through the flag table. An unknown or invalid
/// argument is named on stderr, followed by the usage; parsing has no
/// other effect.
bool ParseArgs(int argc, char** argv, Options& o) {
  const std::vector<Flag> flags = FlagTable(o);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    const auto f = std::find_if(flags.begin(), flags.end(), [&](auto& x) {
      return x.name == arg.substr(0, eq);
    });
    if (f == flags.end()) {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      PrintUsage();
      return false;
    }
    bool ok = f->is_switch() || f->value_optional();
    if (eq != std::string_view::npos) {
      const std::string_view value = arg.substr(eq + 1);
      ok = std::visit([&](auto p) { return Parse(p, value, f->range); },
                      f->field);
    }
    if (!ok) {
      const std::string limits = Limits(*f);
      std::fprintf(stderr, "invalid %s (want %s%s%s)\n", argv[i],
                   Syntax(*f).c_str(), limits.empty() ? "" : ", ",
                   limits.c_str());
      PrintUsage();
      return false;
    }
    if (f->is_switch()) *std::get<bool*>(f->field) = true;
    if (f->also != nullptr) *f->also = true;
    if (f->mode == Mode::kOnline) o.online = true;
    if (f->mode == Mode::kAcceptance) o.acceptance = true;
  }
  return true;
}

/// Checks across flags, made on the parsed values before any work or file
/// write.
bool Validate(const Options& o) {
  if (o.durability.recover && !o.durability.enabled()) {
    std::fprintf(stderr, "--recover needs --checkpoint-dir=DIR\n");
    return false;
  }
  if (o.online) return true;
  // The generator draws no task above max_task_utilization, so --tasks
  // of them carry at most tasks * max (rt::UUniFastDiscard).
  const double max_task = o.acceptance
                              ? exp::AcceptanceConfig{}.max_task_utilization
                              : rt::GeneratorConfig{}.max_task_utilization;
  const std::vector<double> points =
      o.acceptance ? exp::AcceptanceConfig::DefaultGrid()
                   : std::vector<double>{o.util};
  for (const double u : points) {
    if (static_cast<double>(o.tasks) * max_task < u * o.cores) {
      std::fprintf(stderr,
                   "--tasks=%zu cannot carry utilization %g on --cores=%u "
                   "(no task exceeds %g)\n",
                   o.tasks, u * o.cores, o.cores, max_task);
      return false;
    }
  }
  return true;
}

/// "no checkpoint skipped", or the skips counted by reason, e.g.
/// "checkpoints skipped: 1 journal prefix missing, 3 bad-version".
std::string SkippedCheckpoints(const online::RecoveryInfo& r) {
  if (r.skipped.empty()) return "no checkpoint skipped";
  std::map<online::DurabilityError::Kind, int> counts;
  for (const online::DurabilityError::Kind k : r.skipped) ++counts[k];
  std::string out = "checkpoints skipped:";
  const char* sep = " ";
  for (const auto& [kind, n] : counts) {
    out += sep + std::to_string(n) + " " + online::SkipReason(kind);
    sep = ", ";
  }
  return out;
}

/// Report a failed write or load; exit code 2.
int Fail(const std::string& err) {
  std::fprintf(stderr, "%s\n", err.c_str());
  return 2;
}

/// --exec as the execution model of the validation simulations: exact
/// WCETs, or per-job overruns (DESIGN.md §13).
sim::ExecModel ValidationExec(const Options& o) {
  sim::ExecModel exec;
  if (o.exec_model == sim::ExecModel::Kind::kSpiky) {
    exec.kind = sim::ExecModel::Kind::kSpiky;
    exec.spike_prob = o.spike_prob;
    exec.spike_magnitude = o.spike_mag;
  }
  return exec;
}

int RunOnline(const Options& o, const overhead::OverheadModel& model) {
  std::string err;
  online::WorkloadStream stream;
  if (!o.stream_in.empty()) {
    if (!online::LoadStream(o.stream_in, stream, &err)) return Fail(err);
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
    if (!online::SaveStream(stream, o.stream_out, &err)) return Fail(err);
    std::printf("wrote request trace to %s\n", o.stream_out.c_str());
  }

  online::ReplayConfig rcfg;
  rcfg.controller.admission.num_cores = o.cores;
  rcfg.controller.admission.model = model;
  rcfg.controller.admission.memo = o.memo;
  rcfg.controller.admission.policy = o.online_policy;
  rcfg.controller.place = o.online_place;
  rcfg.controller.allow_split = !o.online_no_split;
  rcfg.controller.repartition_fallback = !o.online_no_fallback;
  rcfg.controller.unsplit_on_leave = o.online_unsplit;
  rcfg.controller.overload.ladder = !o.no_ladder;
  rcfg.controller.overload.hysteresis = !o.no_hysteresis;
  rcfg.epoch = o.online_epoch;
  rcfg.seed = o.seed;
  rcfg.drain_epochs = o.online_drain;
  rcfg.durability = o.durability;
  if (o.spike.any()) {
    rcfg.faults.spikes.push_back(online::SpikeEpoch{
        o.spike.start, o.spike.end, o.spike_prob, o.spike_mag});
    rcfg.controller.overload.spike_magnitude = o.spike_mag;
  }
  if (o.storm.any()) {
    rcfg.faults.storms.push_back(
        online::BurstStorm{o.storm.start, o.storm.end, o.storm_burst});
  }
  if (o.online_validate) {
    rcfg.validate_by_simulation = true;
    rcfg.validate_sim.horizon = o.sim_ms;
    rcfg.validate_sim.ready_backend = o.ready_queue;
    rcfg.validate_sim.sleep_backend = o.sleep_queue;
    rcfg.validate_sim.shards = o.shards;
    rcfg.validate_sim.exec = ValidationExec(o);
  }

  // --profile (DESIGN.md §15): wall-clock span profiler, heartbeat, and
  // the augmented per-epoch columns — all on the stderr / --profile-out
  // channel, so profiled stdout is byte-identical to an unprofiled run.
  // --trace-requests / --flight-dump (§16) build the same profiler with
  // request tracing on: tail-sampled span trees and the flight recorder.
  obs::SpanProfiler::TraceOptions topt;
  topt.top_k = o.trace_requests_k;
  if (o.durability.enabled()) topt.flight_dir = o.durability.dir;
  obs::SpanProfiler profiler = o.trace_requests || o.flight_dump
                                   ? obs::SpanProfiler(topt)
                                   : obs::SpanProfiler();
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

  // Tracing installs the profiler even without --profile, but its
  // reports only print when --profile asked for them, and none of this
  // touches stdout or a byte-compared artifact.
  if (profiler.tracing()) {
    rcfg.obs.profiler = &profiler;
    obs::SetCrashDumpProfiler(&profiler);
    obs::InstallCrashSignalHandlers();
  }

  std::printf("online replay: m=%u, policy=%s, place=%s%s%s%s%s%s%s\n\n",
              o.cores, NameOf<partition::SchedPolicy>(kPolicies,
                                                      o.online_policy),
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
    const std::string skipped = SkippedCheckpoints(res.recovery);
    if (res.recovery.recovered) {
      util::Log(util::LogLevel::kInfo,
                "recovered from checkpoint epoch %llu (resume at "
                "request %llu, %llu journal records, %llu torn bytes "
                "truncated, %s)",
                static_cast<unsigned long long>(
                    res.recovery.checkpoint_epoch),
                static_cast<unsigned long long>(res.recovery.resume_seq),
                static_cast<unsigned long long>(
                    res.recovery.journal_records),
                static_cast<unsigned long long>(
                    res.recovery.journal_truncated_bytes),
                skipped.c_str());
    } else {
      util::Log(util::LogLevel::kInfo,
                "no usable checkpoint; replayed from scratch "
                "(%llu journal records, %s)",
                static_cast<unsigned long long>(
                    res.recovery.journal_records),
                skipped.c_str());
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
        return Fail(err);
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
    // snapshot, never the byte-compared --stats-out one.
    std::fprintf(stderr, "\n--- thread-pool stats ---\n%s",
                 obs::PoolStatsSnapshot(util::SharedPool()).ToCsv().c_str());
  }

  if (profiler.tracing()) {
    if (o.trace_requests) {
      // Pool gauges ride along as Perfetto counter tracks (one sample,
      // stamped at the retained span horizon).
      const util::ThreadPool::PoolStats ps = util::SharedPool().Stats();
      obs::CounterSeries stolen{"pool stolen indices", {}};
      obs::CounterSeries caller{"pool caller indices", {}};
      stolen.points.emplace_back(0, static_cast<double>(ps.stolen_indices()));
      caller.points.emplace_back(0, static_cast<double>(ps.caller.indices));
      if (!util::WriteTextFile(o.reqtrace_out,
                               profiler.ToPerfettoJson({stolen, caller}),
                               &err)) {
        return Fail(err);
      }
      const obs::SpanProfiler::RetainStats rs = profiler.retain_stats();
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
      if (!profiler.DumpFlight("on_demand", &flight_path, &err)) {
        return Fail(err);
      }
      util::Log(util::LogLevel::kInfo,
                "wrote flight-recorder dump to %s", flight_path.c_str());
    }
  }
  if (!o.stats_out.empty()) {
    if (!util::WriteTextFile(o.stats_out,
                             online::ReplayStatsSnapshot(res).ToJson(), &err)) {
      return Fail(err);
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
    if (!obs::WritePerfettoJson({}, o.trace_out, popt, &err)) return Fail(err);
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

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, o) || !Validate(o)) return 2;
  if (o.verbose) util::SetGlobalLogLevel(util::LogLevel::kDebug);
  if (o.memo.enabled &&
      o.memo.entries != analysis::MemoConfig::kDefaultSharedEntries) {
    analysis::ResizeSharedMemo(o.memo.entries);
  }

  overhead::OverheadModel model = overhead::OverheadModel::Zero();
  if (o.overheads == Overheads::kPaper) {
    model = overhead::OverheadModel::PaperScaled(o.scale);
  } else if (o.overheads == Overheads::kCalibrated) {
    std::printf("calibrating against this machine's queues...\n");
    overhead::CalibrationConfig ccfg;
    ccfg.ready_backend = o.ready_queue;
    ccfg.sleep_backend = o.sleep_queue;
    model = overhead::Calibrate(ccfg);
    model.scale = o.scale;
  }

  if (o.online) return RunOnline(o, model);

  if (o.acceptance) {
    exp::AcceptanceConfig acfg;
    acfg.num_cores = o.cores;
    acfg.num_tasks = o.tasks;
    acfg.norm_util_points = exp::AcceptanceConfig::DefaultGrid();
    acfg.algorithms = {exp::Algo::kFfd, exp::Algo::kWfd};
    if (o.algo != exp::Algo::kFfd && o.algo != exp::Algo::kWfd) {
      acfg.algorithms.push_back(o.algo);
    }
    acfg.sets_per_point = o.sets;
    acfg.seed = o.seed;
    acfg.model = model;
    acfg.jobs = o.jobs;
    acfg.memo = o.memo;
    if (o.acceptance_validate) {
      acfg.validate_by_simulation = true;
      acfg.validate_sim.horizon = o.sim_ms;
      acfg.validate_sim.arrivals.kind = o.arrivals;
      acfg.validate_sim.exec = ValidationExec(o);
      acfg.validate_sim.ready_backend = o.ready_queue;
      acfg.validate_sim.sleep_backend = o.sleep_queue;
      acfg.validate_sim.shards = o.shards;
    }
    std::printf("acceptance sweep: m=%u, n=%zu, %d sets/point, jobs=%u%s%s\n\n",
                o.cores, o.tasks, o.sets, o.jobs,
                o.acceptance_validate ? ", validating by simulation" : "",
                o.acceptance_validate &&
                        o.exec_model == sim::ExecModel::Kind::kSpiky
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
    // The shared table's hit and eviction counts depend on how the
    // pool's threads interleave at --jobs > 1: wall-channel data (§15),
    // so stderr, keeping stdout byte-identical for every --jobs.
    if (o.memo.enabled) {
      analysis::MemoStats d = analysis::SharedMemo(o.memo.entries).stats();
      d -= before;
      std::fprintf(stderr,
                   "analysis cache: %llu hits / %llu lookups (%.1f%%), "
                   "%llu evictions\n",
                   static_cast<unsigned long long>(d.hits),
                   static_cast<unsigned long long>(d.hits + d.misses),
                   100.0 * d.hit_rate(),
                   static_cast<unsigned long long>(d.evicts));
    } else {
      std::fprintf(stderr, "analysis cache: off\n");
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

  const partition::PartitionResult pr =
      exp::RunAlgorithm(o.algo, ts, o.cores, model, o.memo);
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
  cfg.arrivals.kind = o.arrivals;
  cfg.record_trace = o.trace || !o.trace_out.empty();
  cfg.record_metrics = o.metrics;
  cfg.ready_backend = o.ready_queue;
  cfg.sleep_backend = o.sleep_queue;
  cfg.shards = o.shards;
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
    if (!obs::WritePerfettoJson(r.trace_events, o.trace_out,
                                {.num_cores = o.cores}, &err)) {
      return Fail(err);
    }
    std::printf("wrote Perfetto trace (%zu events) to %s — open at "
                "ui.perfetto.dev\n",
                r.trace_events.size(), o.trace_out.c_str());
  }
  if (o.metrics) {
    const obs::MetricsReport rep = obs::BuildMetricsReport(r);
    std::printf("\n--- metrics report (span %.1fms) ---\n%s\n%s",
                ToMillis(rep.span), rep.TaskCsv().c_str(),
                rep.CoreCsv().c_str());
    if (!o.metrics_out.empty()) {
      std::string err;
      if (!util::WriteTextFile(o.metrics_out, rep.ToJson(), &err)) {
        return Fail(err);
      }
      std::printf("wrote metrics report to %s\n", o.metrics_out.c_str());
    }
  }
  return r.total_misses == 0 ? 0 : 1;
}

int main(int argc, char** argv) {
  try {
    return Main(argc, argv);
  } catch (const rt::GeneratorGaveUp& e) {
    // Validate() admits util·cores up to tasks·max_task_utilization; at
    // and just under that boundary the generator's redraws can run out.
    return Fail(e.what());
  }
}
