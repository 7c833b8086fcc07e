#include "obs/flight.hpp"

#include <csignal>

#include "obs/spans.hpp"

namespace sps::obs {

namespace {

std::uint64_t AttrBits(std::int64_t v) {
  return static_cast<std::uint64_t>(v);
}

std::int64_t BitsAttr(std::uint64_t w) { return static_cast<std::int64_t>(w); }

}  // namespace

FlightRing::FlightRing(std::uint32_t slots)
    : slots_(std::make_unique<Slot[]>(slots > 0 ? slots : 1)),
      n_(slots > 0 ? slots : 1) {}

void FlightRing::Push(const FlightRecord& r) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  Slot& s = slots_[h % n_];
  s.ver.fetch_add(1, std::memory_order_acq_rel);  // odd: write in flight
  s.w[0].store(static_cast<std::uint64_t>(r.kind) |
                   (static_cast<std::uint64_t>(r.stage) << 8),
               std::memory_order_relaxed);
  s.w[1].store(r.trace_id, std::memory_order_relaxed);
  s.w[2].store(r.seq, std::memory_order_relaxed);
  s.w[3].store(r.t0, std::memory_order_relaxed);
  s.w[4].store(r.dur_ns, std::memory_order_relaxed);
  s.w[5].store(AttrBits(r.attr), std::memory_order_relaxed);
  s.w[6].store(r.aux0, std::memory_order_relaxed);
  s.w[7].store(r.aux1, std::memory_order_relaxed);
  s.ver.fetch_add(1, std::memory_order_release);  // even: stable
  head_.store(h + 1, std::memory_order_release);
}

std::vector<FlightRecord> FlightRing::Snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t count = head < n_ ? head : n_;
  std::vector<FlightRecord> out;
  out.reserve(count);
  for (std::uint64_t i = head - count; i < head; ++i) {
    const Slot& s = slots_[i % n_];
    const std::uint64_t v1 = s.ver.load(std::memory_order_acquire);
    if ((v1 & 1) != 0) continue;  // mid-write
    std::uint64_t w[8];
    for (int k = 0; k < 8; ++k) w[k] = s.w[k].load(std::memory_order_acquire);
    if (s.ver.load(std::memory_order_acquire) != v1) continue;  // torn
    FlightRecord r;
    r.kind = static_cast<FlightRecord::Kind>(w[0] & 0xff);
    r.stage = static_cast<std::uint8_t>((w[0] >> 8) & 0xff);
    r.trace_id = w[1];
    r.seq = w[2];
    r.t0 = w[3];
    r.dur_ns = w[4];
    r.attr = BitsAttr(w[5]);
    r.aux0 = w[6];
    r.aux1 = w[7];
    out.push_back(r);
  }
  return out;
}

namespace {

std::atomic<SpanProfiler*> g_crash_profiler{nullptr};

void CrashHandler(int sig) {
  // One shot: restore the default disposition first, so a second fault
  // inside the (deliberately non-async-signal-safe) dump path kills the
  // process instead of recursing.
  std::signal(sig, SIG_DFL);
  if (SpanProfiler* p = g_crash_profiler.load(std::memory_order_acquire)) {
    (void)p->DumpFlight("signal_" + std::to_string(sig));
  }
  std::raise(sig);
}

}  // namespace

void SetCrashDumpProfiler(SpanProfiler* p) {
  g_crash_profiler.store(p, std::memory_order_release);
}

SpanProfiler* CrashDumpProfiler() {
  return g_crash_profiler.load(std::memory_order_acquire);
}

void InstallCrashSignalHandlers() {
  for (const int sig : {SIGSEGV, SIGBUS, SIGILL, SIGFPE, SIGABRT}) {
    std::signal(sig, &CrashHandler);
  }
}

}  // namespace sps::obs
