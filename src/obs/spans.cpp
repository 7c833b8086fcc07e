#include "obs/spans.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "util/json_writer.hpp"

namespace sps::obs {

namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::atomic<std::uint64_t> g_profiler_serial{1};

thread_local SpanProfiler* t_installed = nullptr;

}  // namespace

const char* ToString(SpanStage s) {
  switch (s) {
    case SpanStage::kUtilScreen: return "util_screen";
    case SpanStage::kMemoProbe: return "memo_probe";
    case SpanStage::kAnalysis: return "analysis";
    case SpanStage::kPlacement: return "placement";
    case SpanStage::kAdmitTotal: return "admit_total";
    case SpanStage::kLeave: return "leave";
    case SpanStage::kLadderDegrade: return "ladder_degrade";
    case SpanStage::kLadderShed: return "ladder_shed";
    case SpanStage::kFallback: return "fallback";
    case SpanStage::kEpochApply: return "epoch_apply";
    case SpanStage::kEpochValidate: return "epoch_validate";
    case SpanStage::kCheckpointWrite: return "checkpoint_write";
    case SpanStage::kRecoveryRedo: return "recovery_redo";
    case SpanStage::kCount: break;
  }
  return "?";
}

SpanProfiler::SpanProfiler(ClockFn clock)
    : clock_(clock != nullptr ? clock : &SteadyNowNs),
      tracing_(false),
      serial_(g_profiler_serial.fetch_add(1, std::memory_order_relaxed)) {}

SpanProfiler::SpanProfiler(TraceOptions trace, ClockFn clock)
    : clock_(clock != nullptr ? clock : &SteadyNowNs),
      tracing_(true),
      trace_(std::move(trace)),
      serial_(g_profiler_serial.fetch_add(1, std::memory_order_relaxed)) {}

SpanProfiler::~SpanProfiler() {
  // Deregister from the crash-signal path before the rings die.
  if (CrashDumpProfiler() == this) SetCrashDumpProfiler(nullptr);
}

SpanProfiler::Shard* SpanProfiler::ShardForThisThread() {
  // Single-entry fast path: the steady state (one profiler, millions of
  // Record calls per thread) pays a pointer + serial compare, not a
  // hash lookup. The map behind it is keyed by (address, serial): a
  // destroyed profiler's address can be reused, so a bare pointer key
  // could alias a stale shard.
  struct Entry {
    std::uint64_t serial = 0;
    Shard* shard = nullptr;
  };
  thread_local const SpanProfiler* last_prof = nullptr;
  thread_local Entry last{};
  if (last_prof == this && last.serial == serial_) return last.shard;
  thread_local std::unordered_map<const SpanProfiler*, Entry> cache;
  Entry& e = cache[this];
  if (e.serial != serial_ || e.shard == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(std::make_unique<Shard>());
    if (tracing_) {
      shards_.back()->ring = std::make_unique<FlightRing>(kFlightSlots);
    }
    e = Entry{serial_, shards_.back().get()};
  }
  last_prof = this;
  last = e;
  return e.shard;
}

void SpanProfiler::Record(SpanStage stage, std::uint64_t t0,
                          std::uint64_t dur_ns, int slot) {
  Shard* s = ShardForThisThread();
  const std::size_t i = static_cast<std::size_t>(stage);
  s->hist[i].Add(static_cast<Time>(dur_ns));
  s->total_ns[i] += dur_ns;
  if (!tracing_) return;
  std::int64_t attr = -1;
  if (slot >= 0 && static_cast<std::size_t>(slot) < s->spans.size()) {
    SpanRecord& r = s->spans[static_cast<std::size_t>(slot)];
    r.t0 = t0;
    r.dur_ns = dur_ns;
    attr = r.attr;
    if (!s->stack.empty() && s->stack.back() == slot) s->stack.pop_back();
  }
  // Every span — inside a request trace or not (epoch apply, checkpoint
  // write) — feeds the thread's flight ring: the black box records what
  // the thread was DOING, not only what it was doing for a request.
  if (s->ring != nullptr) {
    FlightRecord f;
    f.kind = FlightRecord::Kind::kSpan;
    f.stage = static_cast<std::uint8_t>(stage);
    f.trace_id = s->active ? s->trace_id : 0;
    f.seq = s->active ? s->seq : 0;
    f.t0 = t0;
    f.dur_ns = dur_ns;
    f.attr = attr;
    s->ring->Push(f);
  }
}

LogHistogram SpanProfiler::StageHistogram(SpanStage stage) const {
  LogHistogram out;
  const std::size_t i = static_cast<std::size_t>(stage);
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Shard>& s : shards_) out += s->hist[i];
  return out;
}

std::vector<SpanProfiler::StageReport> SpanProfiler::Report() const {
  std::vector<StageReport> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kStages; ++i) {
    StageReport row;
    row.stage = static_cast<SpanStage>(i);
    LogHistogram merged;
    for (const std::unique_ptr<Shard>& s : shards_) {
      merged += s->hist[i];
      row.total_ns += s->total_ns[i];
    }
    row.count = merged.count();
    if (row.count == 0) continue;
    row.p50 = merged.Quantile(0.5);
    row.p99 = merged.Quantile(0.99);
    row.p999 = merged.Quantile(0.999);
    out.push_back(row);
  }
  return out;
}

std::string SpanProfiler::ToText() const {
  std::string out =
      "stage                 count     total_ms   p50_us   p99_us  p999_us\n";
  char buf[160];
  for (const StageReport& r : Report()) {
    std::snprintf(buf, sizeof(buf), "%-18s %9llu %12.3f %8.1f %8.1f %8.1f\n",
                  ToString(r.stage), static_cast<unsigned long long>(r.count),
                  static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.p50) / 1e3,
                  static_cast<double>(r.p99) / 1e3,
                  static_cast<double>(r.p999) / 1e3);
    out += buf;
  }
  return out;
}

std::string SpanProfiler::ToJson() const {
  util::JsonWriter j;
  j.BeginObject();
  j.Key("stages").BeginArray();
  for (const StageReport& r : Report()) {
    j.BeginObject();
    j.Key("stage").Value(ToString(r.stage));
    j.Key("count").Value(r.count);
    j.Key("total_ns").Value(r.total_ns);
    j.Key("p50_ns").Value(static_cast<std::uint64_t>(r.p50));
    j.Key("p99_ns").Value(static_cast<std::uint64_t>(r.p99));
    j.Key("p999_ns").Value(static_cast<std::uint64_t>(r.p999));
    j.EndObject();
  }
  j.EndArray();
  j.EndObject();
  return j.str();
}

SpanProfiler* InstalledProfiler() { return t_installed; }

void TraceAttr(std::int64_t v) {
  if (t_installed != nullptr && t_installed->tracing_) {
    t_installed->AttrInnermost(v);
  }
}

ProfilerInstallation::ProfilerInstallation(SpanProfiler* p)
    : prev_(t_installed) {
  t_installed = p;
}

ProfilerInstallation::~ProfilerInstallation() { t_installed = prev_; }

}  // namespace sps::obs
