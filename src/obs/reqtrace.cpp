// Request tracing half of SpanProfiler (DESIGN.md §16): the open
// trace's span tree, the tail-sampling reservoirs, the flight-ring
// epoch records, and the exports. The per-span record path lives in
// spans.cpp; everything here is a no-op unless the profiler traces.

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/perfetto.hpp"
#include "obs/spans.hpp"
#include "util/file_io.hpp"
#include "util/json_writer.hpp"

namespace sps::obs {

namespace {

/// Min-heap comparator over root duration: slow_.front() is the FASTEST
/// retained trace — the one the next slower trace evicts. Ties break on
/// seq so heap behaviour is reproducible under a fake clock.
bool SlowerOnTop(const RequestTrace& a, const RequestTrace& b) {
  if (a.root_dur_ns != b.root_dur_ns) return a.root_dur_ns > b.root_dur_ns;
  return a.seq < b.seq;
}

}  // namespace

void SpanProfiler::BeginTrace(std::uint64_t trace_id, std::uint64_t seq,
                              bool is_admit) {
  if (!tracing_) return;
  Shard* c = ShardForThisThread();
  c->active = true;
  c->trace_id = trace_id;
  c->seq = seq;
  c->is_admit = is_admit;
  c->spans.clear();
  c->stack.clear();
}

int SpanProfiler::OpenSpan(SpanStage stage) {
  Shard* c = ShardForThisThread();
  if (!c->active) return -1;
  SpanRecord r;
  r.stage = stage;
  r.parent = c->stack.empty() ? -1 : c->stack.back();
  const int slot = static_cast<int>(c->spans.size());
  c->spans.push_back(r);
  c->stack.push_back(slot);
  return slot;
}

void SpanProfiler::AttrInnermost(std::int64_t v) {
  Shard* c = ShardForThisThread();
  if (c->stack.empty()) return;
  c->spans[static_cast<std::size_t>(c->stack.back())].attr = v;
}

void SpanProfiler::EndTrace(bool via_ladder, bool via_fallback,
                            bool diverged) {
  if (!tracing_) return;
  Shard* c = ShardForThisThread();
  if (!c->active) return;
  c->active = false;
  RequestTrace t;
  t.trace_id = c->trace_id;
  t.seq = c->seq;
  t.is_admit = c->is_admit;
  t.via_ladder = via_ladder;
  t.via_fallback = via_fallback;
  t.diverged = diverged;
  c->stack.clear();
  if (c->spans.empty()) return;  // profiler not installed: nothing recorded
  t.root_dur_ns = c->spans.front().dur_ns;
  const bool interesting = via_ladder || via_fallback || diverged;
  const std::uint64_t incoming = c->spans.size();

  std::lock_guard<std::mutex> lock(mu_);
  ++traces_seen_;
  // The finished tree exists in memory while the decision runs — the
  // honest high-water mark includes it.
  peak_retained_spans_ =
      std::max(peak_retained_spans_, retained_spans_ + incoming);
  const bool keep = trace_.top_k > 0 &&
                    (interesting || slow_.size() < trace_.top_k ||
                     t.root_dur_ns > slow_.front().root_dur_ns);
  // Only a retained tree is copied out; a dropped one leaves its buffer
  // (and its capacity) to the shard's next request.
  if (keep) t.spans = c->spans;
  c->spans.clear();
  if (!keep) return;
  if (interesting) {
    retained_spans_ += incoming;
    interesting_.push_back(std::move(t));
    if (interesting_.size() > trace_.top_k) {
      retained_spans_ -= interesting_.front().spans.size();
      interesting_.pop_front();
    }
  } else if (slow_.size() < trace_.top_k) {
    retained_spans_ += incoming;
    slow_.push_back(std::move(t));
    std::push_heap(slow_.begin(), slow_.end(), &SlowerOnTop);
  } else {
    std::pop_heap(slow_.begin(), slow_.end(), &SlowerOnTop);
    retained_spans_ -= slow_.back().spans.size();
    retained_spans_ += incoming;
    slow_.back() = std::move(t);
    std::push_heap(slow_.begin(), slow_.end(), &SlowerOnTop);
  }
  peak_retained_spans_ = std::max(peak_retained_spans_, retained_spans_);
}

void SpanProfiler::NoteEpoch(std::uint64_t epoch_index, std::uint64_t admits,
                             std::uint64_t rejects, std::uint64_t leaves,
                             std::uint64_t resident) {
  if (!tracing_) return;
  Shard* c = ShardForThisThread();
  if (c->ring == nullptr) return;
  FlightRecord f;
  f.kind = FlightRecord::Kind::kEpoch;
  f.seq = epoch_index;
  f.dur_ns = admits;
  f.attr = static_cast<std::int64_t>(rejects);
  f.aux0 = leaves;
  f.aux1 = resident;
  c->ring->Push(f);
}

SpanProfiler::RetainStats SpanProfiler::retain_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  RetainStats s;
  s.traces_seen = traces_seen_;
  s.retained_slow = slow_.size();
  s.retained_interesting = interesting_.size();
  s.peak_retained_spans = peak_retained_spans_;
  return s;
}

std::vector<RequestTrace> SpanProfiler::Retained() const {
  std::vector<RequestTrace> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(slow_.size() + interesting_.size());
    for (const RequestTrace& t : slow_) {
      out.push_back(t);
      out.back().slow = true;
    }
    for (const RequestTrace& t : interesting_) out.push_back(t);
  }
  std::sort(out.begin(), out.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.trace_id < b.trace_id;
            });
  return out;
}

namespace {

void WriteTraceFields(util::JsonWriter& j, const RequestTrace& t) {
  j.Key("trace_id").Value(t.trace_id);
  j.Key("seq").Value(t.seq);
  j.Key("kind").Value(t.is_admit ? "admit" : "leave");
  j.Key("root_dur_ns").Value(t.root_dur_ns);
  j.Key("sampled").Value(t.slow ? "slow" : "interesting");
  j.Key("via_ladder").Value(t.via_ladder);
  j.Key("via_fallback").Value(t.via_fallback);
  j.Key("diverged").Value(t.diverged);
}

}  // namespace

std::string SpanProfiler::ToPerfettoJson(
    const std::vector<CounterSeries>& extra_counters) const {
  if (!tracing_) return {};
  const std::vector<RequestTrace> traces = Retained();
  const RetainStats stats = retain_stats();

  util::JsonWriter j;
  j.BeginObject();
  j.Key("displayTimeUnit").Value("ms");
  j.Key("traceEvents").BeginArray();
  j.BeginObject();
  j.Key("name").Value("process_name");
  j.Key("ph").Value("M");
  j.Key("pid").Value(1);
  j.Key("args").BeginObject().Key("name").Value("sps request traces")
      .EndObject();
  j.EndObject();
  for (const RequestTrace& t : traces) {
    const std::string id = std::to_string(t.trace_id);
    // Async "b" events in open order, "e" events in reverse — children
    // close before parents, so viewers that pair by (id, name, order)
    // and viewers that nest by timestamp both reconstruct the tree.
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const SpanRecord& s = t.spans[i];
      j.BeginObject();
      j.Key("name").Value(ToString(s.stage));
      j.Key("cat").Value("request");
      j.Key("ph").Value("b");
      j.Key("id").Value(id);
      j.Key("ts").Value(static_cast<double>(s.t0) / 1e3);
      j.Key("pid").Value(1);
      j.Key("args").BeginObject();
      j.Key("seq").Value(t.seq);
      j.Key("span").Value(static_cast<std::int64_t>(i));
      j.Key("parent").Value(static_cast<std::int64_t>(s.parent));
      j.Key("attr").Value(s.attr);
      j.EndObject();
      j.EndObject();
    }
    for (std::size_t i = t.spans.size(); i-- > 0;) {
      const SpanRecord& s = t.spans[i];
      j.BeginObject();
      j.Key("name").Value(ToString(s.stage));
      j.Key("cat").Value("request");
      j.Key("ph").Value("e");
      j.Key("id").Value(id);
      j.Key("ts").Value(static_cast<double>(s.t0 + s.dur_ns) / 1e3);
      j.Key("pid").Value(1);
      j.EndObject();
    }
  }
  for (const CounterSeries& s : extra_counters) {
    for (const auto& [t, v] : s.points) {
      j.BeginObject();
      j.Key("name").Value(s.name);
      j.Key("ph").Value("C");
      j.Key("ts").Value(static_cast<double>(t));
      j.Key("pid").Value(1);
      j.Key("args").BeginObject().Key("value").Value(v).EndObject();
      j.EndObject();
    }
  }
  j.EndArray();

  // Structured sidecar (ignored by trace viewers, consumed by
  // tools/trace_summary.py and the tests).
  j.Key("sps_reqtrace").BeginObject();
  j.Key("k").Value(trace_.top_k);
  j.Key("traces_seen").Value(stats.traces_seen);
  j.Key("peak_retained_spans").Value(stats.peak_retained_spans);
  j.Key("traces").BeginArray();
  for (const RequestTrace& t : traces) {
    j.BeginObject();
    WriteTraceFields(j, t);
    j.Key("spans").BeginArray();
    for (const SpanRecord& s : t.spans) {
      j.BeginObject();
      j.Key("stage").Value(ToString(s.stage));
      j.Key("parent").Value(static_cast<std::int64_t>(s.parent));
      j.Key("t0").Value(s.t0);
      j.Key("dur_ns").Value(s.dur_ns);
      j.Key("attr").Value(s.attr);
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();

  j.EndObject();
  return j.str();
}

bool SpanProfiler::DumpFlight(const std::string& reason,
                              std::string* path_out, std::string* error) {
  if (!tracing_) {
    if (error != nullptr) *error = "request tracing is off";
    return false;
  }
  util::JsonWriter j;
  j.BeginObject();
  j.Key("reason").Value(reason);
  j.Key("pid").Value(static_cast<std::int64_t>(::getpid()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    j.Key("traces_seen").Value(traces_seen_);
    j.Key("threads").BeginArray();
    for (const std::unique_ptr<Shard>& c : shards_) {
      j.BeginObject();
      j.Key("pushed").Value(c->ring != nullptr ? c->ring->pushed() : 0);
      j.Key("records").BeginArray();
      if (c->ring != nullptr) {
        for (const FlightRecord& r : c->ring->Snapshot()) {
          j.BeginObject();
          if (r.kind == FlightRecord::Kind::kSpan) {
            j.Key("kind").Value("span");
            j.Key("stage").Value(ToString(static_cast<SpanStage>(r.stage)));
            j.Key("trace_id").Value(r.trace_id);
            j.Key("seq").Value(r.seq);
            j.Key("t0").Value(r.t0);
            j.Key("dur_ns").Value(r.dur_ns);
            j.Key("attr").Value(r.attr);
          } else {
            j.Key("kind").Value("epoch");
            j.Key("epoch").Value(r.seq);
            j.Key("admits").Value(r.dur_ns);
            j.Key("rejects").Value(r.attr);
            j.Key("leaves").Value(r.aux0);
            j.Key("resident").Value(r.aux1);
          }
          j.EndObject();
        }
      }
      j.EndArray();
      j.EndObject();
    }
    j.EndArray();
  }
  j.EndObject();

  const std::string path =
      trace_.flight_dir + "/flight-" + std::to_string(::getpid()) + ".json";
  if (path_out != nullptr) *path_out = path;
  return util::WriteFileAtomic(path, j.str(), /*durable=*/false, error);
}

}  // namespace sps::obs
