#include "obs/perfetto.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/json_writer.hpp"

namespace sps::obs {

namespace {

using trace::Event;
using trace::EventKind;

/// Timestamps: the trace-event format counts in microseconds (doubles);
/// our nanosecond integers convert exactly for every horizon this
/// simulator runs (2^53 ns-as-µs headroom).
double Us(Time t) { return static_cast<double>(t) / 1e3; }

std::string TaskLabel(const Event& e) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "tau%u job%llu", e.task,
                static_cast<unsigned long long>(e.job));
  return buf;
}

/// True for the kinds that terminate the currently-open execution slice
/// on their core: the job left the CPU (preempt / finish / migrate out),
/// the core entered an overhead window (a release interrupt suspends the
/// running job before any PREEMPT event is recorded), or went idle.
bool ClosesExecSlice(EventKind k) {
  switch (k) {
    case EventKind::kPreempt:
    case EventKind::kFinish:
    case EventKind::kMigrateOut:
    case EventKind::kOverheadBegin:
    case EventKind::kIdle:
      return true;
    default:
      return false;
  }
}

const char* InstantName(EventKind k) {
  switch (k) {
    case EventKind::kRelease: return "release";
    case EventKind::kDeadlineMiss: return "DEADLINE MISS";
    case EventKind::kMigrateOut: return "migrate out";
    case EventKind::kMigrateIn: return "migrate in";
    case EventKind::kJobShed: return "job shed";
    default: return nullptr;
  }
}

struct OpenSlice {
  bool open = false;
  Time start = 0;
  Event ev;  // the kStart that opened it
};

void EmitCounter(util::JsonWriter& j, const std::string& name, Time t,
                 double value) {
  j.BeginObject();
  j.Key("name").Value(name);
  j.Key("ph").Value("C");
  j.Key("ts").Value(Us(t));
  j.Key("pid").Value(0);
  j.Key("args").BeginObject().Key("value").Value(value).EndObject();
  j.EndObject();
}

void EmitSlice(util::JsonWriter& j, const char* name, const char* cat,
               unsigned core, Time t0, Time t1) {
  j.BeginObject();
  j.Key("name").Value(name);
  j.Key("cat").Value(cat);
  j.Key("ph").Value("X");
  j.Key("ts").Value(Us(t0));
  j.Key("dur").Value(Us(t1 - t0));
  j.Key("pid").Value(0);
  j.Key("tid").Value(core);
  j.EndObject();
}

/// The serializer: a prelude naming the tracks, then one pass over the
/// events. Derived counter events go to a side writer and are spliced
/// after the slices at Finish(), so the document keeps Perfetto's
/// slices-then-counters layout without a second pass.
struct PerfettoWriter {
  const PerfettoOptions& opt;
  Time last_time = 0;

  util::JsonWriter j;   ///< the document: prelude + slices/instants
  util::JsonWriter cj;  ///< derived counter events, spliced at Finish

  /// Per-core slice reconstruction (a kStart opens; the next closing
  /// kind on that core ends it).
  std::vector<OpenSlice> open;

  /// Derived counter state, booked PER TASK: each task remembers the
  /// core where its ready increment / live job is currently booked, and
  /// the matching decrement lands on that core. This keeps the counters
  /// exact for the GLOBAL engine too, whose stream releases on the irq
  /// core, starts on whatever core dispatches, and emits kMigrateIn with
  /// no kMigrateOut — a naive same-core state machine would drift
  /// unboundedly there.
  std::vector<std::int64_t> ready;
  std::vector<std::int64_t> jobs;
  struct Booked {
    int ready_core = -1;  ///< core holding this task's ready increment
    int job_core = -1;    ///< core holding this task's live job
  };
  std::unordered_map<rt::TaskId, Booked> booked;

  /// `cores` must exceed every event's core.
  PerfettoWriter(const PerfettoOptions& o, unsigned cores)
      : opt(o), open(cores), ready(cores, 0), jobs(cores, 0) {
    j.BeginObject();
    j.Key("displayTimeUnit").Value("ms");
    j.Key("traceEvents").BeginArray();

    // Track metadata: name the process and one thread per core.
    j.BeginObject();
    j.Key("name").Value("process_name");
    j.Key("ph").Value("M");
    j.Key("pid").Value(0);
    j.Key("args").BeginObject().Key("name").Value(opt.process_name)
        .EndObject();
    j.EndObject();
    for (unsigned c = 0; c < cores; ++c) {
      char name[24];
      std::snprintf(name, sizeof(name), "core %u", c);
      j.BeginObject();
      j.Key("name").Value("thread_name");
      j.Key("ph").Value("M");
      j.Key("pid").Value(0);
      j.Key("tid").Value(c);
      j.Key("args").BeginObject().Key("name").Value(name).EndObject();
      j.EndObject();
    }

    cj.BeginArray();  // counter buffer; '[' stripped at splice time
  }

  void Bump(std::vector<std::int64_t>& v, unsigned core, Time t, int d,
            const char* what) {
    v[core] = std::max<std::int64_t>(0, v[core] + d);
    char name[32];
    std::snprintf(name, sizeof(name), "%s core%u", what, core);
    EmitCounter(cj, name, t, static_cast<double>(v[core]));
  }

  void MoveJob(Booked& b, const Event& e) {
    if (b.job_core == static_cast<int>(e.core)) return;
    if (b.job_core >= 0) {
      Bump(jobs, static_cast<unsigned>(b.job_core), e.time, -1, "jobs");
    }
    Bump(jobs, e.core, e.time, +1, "jobs");
    b.job_core = static_cast<int>(e.core);
  }

  void CountEvent(const Event& e) {
    Booked& b = booked[e.task];
    switch (e.kind) {
      case EventKind::kRelease:
      case EventKind::kMigrateIn:
        if (b.ready_core < 0) {
          Bump(ready, e.core, e.time, +1, "ready");
          b.ready_core = static_cast<int>(e.core);
        }
        MoveJob(b, e);
        break;
      case EventKind::kPreempt:
        if (b.ready_core < 0) {
          Bump(ready, e.core, e.time, +1, "ready");
          b.ready_core = static_cast<int>(e.core);
        }
        break;
      case EventKind::kStart:
        if (b.ready_core >= 0) {
          Bump(ready, static_cast<unsigned>(b.ready_core), e.time, -1,
               "ready");
          b.ready_core = -1;
        }
        MoveJob(b, e);
        break;
      case EventKind::kFinish:
        if (b.job_core >= 0) {
          Bump(jobs, static_cast<unsigned>(b.job_core), e.time, -1, "jobs");
          b.job_core = -1;
        }
        break;
      default:
        break;
    }
  }

  void Append(const Event& e) {
    last_time = std::max(last_time, e.time + e.duration);

    // Execution slices are reconstructed per core: a kStart opens one;
    // the next closing kind on that core ends it. Overhead slices carry
    // their duration directly. Everything else becomes an instant.
    OpenSlice& slice = open[e.core];
    if (slice.open && ClosesExecSlice(e.kind) && e.time >= slice.start) {
      if (e.time > slice.start) {
        EmitSlice(j, TaskLabel(slice.ev).c_str(), "exec", e.core,
                  slice.start, e.time);
      }
      slice.open = false;
    }
    switch (e.kind) {
      case EventKind::kStart:
        slice = OpenSlice{true, e.time, e};
        break;
      case EventKind::kOverheadBegin:
        if (e.duration > 0) {
          EmitSlice(j, trace::ToString(e.overhead), "overhead", e.core,
                    e.time, e.time + e.duration);
        }
        break;
      default:
        if (const char* name = InstantName(e.kind)) {
          j.BeginObject();
          j.Key("name").Value(name);
          j.Key("cat").Value("sched");
          j.Key("ph").Value("i");
          j.Key("s").Value("t");
          j.Key("ts").Value(Us(e.time));
          j.Key("pid").Value(0);
          j.Key("tid").Value(e.core);
          j.Key("args").BeginObject().Key("task").Value(TaskLabel(e))
              .EndObject();
          j.EndObject();
        }
        break;
    }
    if (opt.counter_tracks) CountEvent(e);
  }

  std::string Finish() && {
    // Close slices still running when the trace ends.
    for (unsigned c = 0; c < open.size(); ++c) {
      if (open[c].open && last_time > open[c].start) {
        EmitSlice(j, TaskLabel(open[c].ev).c_str(), "exec", c,
                  open[c].start, last_time);
      }
    }
    // Counter tracks, appended after the slices (Perfetto orders by
    // ts): splice the buffered derived-counter events, then the
    // caller-supplied series.
    if (opt.counter_tracks && cj.str().size() > 1) {
      j.Raw(std::string_view(cj.str()).substr(1));  // strip the '['
    }
    for (const CounterSeries& s : opt.extra_counters) {
      for (const auto& [t, v] : s.points) EmitCounter(j, s.name, t, v);
    }
    j.EndArray();
    j.EndObject();
    return std::move(j).Take();
  }
};

}  // namespace

std::string ToPerfettoJson(const std::vector<Event>& events,
                           const PerfettoOptions& opt) {
  unsigned cores = std::max(1u, opt.num_cores);
  for (const Event& e : events) cores = std::max(cores, e.core + 1);
  PerfettoWriter w(opt, cores);
  for (const Event& e : events) w.Append(e);
  return std::move(w).Finish();
}

bool WritePerfettoJson(const std::vector<Event>& events,
                       const std::string& path, const PerfettoOptions& opt,
                       std::string* error) {
  return util::WriteTextFile(path, ToPerfettoJson(events, opt), error);
}

}  // namespace sps::obs
