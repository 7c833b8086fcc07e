#pragma once
// Flight recorder (DESIGN.md §16): a fixed-size lock-free ring of the
// most recent span records + per-epoch registry deltas, one ring per
// replay thread. The ring answers the black-box question "what was the
// service doing in the last N steps before it died" — it is dumped to
// flight-<pid>.json on crash signals, on journal divergence
// (kJournalDivergence), right before injected SIGKILL crashes, and on
// demand (sps_cli --flight-dump).
//
// Memory model: every ring is written by exactly ONE thread (the thread
// that owns the profiler shard it belongs to) and read by whichever
// thread dumps. Writers never block and never allocate: a slot is a
// fixed array of relaxed atomics guarded by a per-slot version counter
// (odd = write in progress). The dumper validates the version before and
// after reading a slot and drops slots that changed underneath it — a
// torn read costs one dropped record, never a lock on the hot path and
// never a data race (every shared word is a std::atomic).

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace sps::obs {

/// One flight-ring entry: either a completed span (kSpan) or an
/// epoch-boundary counter snapshot (kEpoch — the "registry delta" view:
/// cumulative admits/rejects/leaves plus the resident gauge).
struct FlightRecord {
  enum class Kind : std::uint8_t { kSpan = 0, kEpoch = 1 };
  Kind kind = Kind::kSpan;
  std::uint8_t stage = 0;      ///< SpanStage (kSpan only)
  std::uint64_t trace_id = 0;  ///< 0 = span outside any request trace
  std::uint64_t seq = 0;       ///< request seq (kSpan) / epoch index (kEpoch)
  std::uint64_t t0 = 0;        ///< span start, profiler clock ns (kSpan)
  std::uint64_t dur_ns = 0;    ///< span duration (kSpan) / admits (kEpoch)
  std::int64_t attr = -1;      ///< stage attribute (kSpan) / rejects (kEpoch)
  std::uint64_t aux0 = 0;      ///< unused (kSpan) / leaves (kEpoch)
  std::uint64_t aux1 = 0;      ///< unused (kSpan) / resident (kEpoch)
};

class FlightRing {
 public:
  explicit FlightRing(std::uint32_t slots);
  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Append one record, overwriting the oldest when full. Lock-free and
  /// allocation-free; must be called from the ring's single owner thread.
  void Push(const FlightRecord& r);

  /// Stable records, oldest first — safe from any thread concurrently
  /// with Push (in-flight slots are skipped, see header comment).
  [[nodiscard]] std::vector<FlightRecord> Snapshot() const;

  /// Total records ever pushed (≥ Snapshot().size()).
  [[nodiscard]] std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint32_t capacity() const { return n_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> ver{0};  ///< odd while a write is in flight
    std::atomic<std::uint64_t> w[8];
  };

  std::unique_ptr<Slot[]> slots_;
  std::uint32_t n_;
  std::atomic<std::uint64_t> head_{0};
};

class SpanProfiler;

/// Register `p` as the process-wide crash-dump profiler (nullptr clears;
/// a destructing profiler deregisters itself). The crash signal handlers
/// dump ITS flight rings.
void SetCrashDumpProfiler(SpanProfiler* p);
[[nodiscard]] SpanProfiler* CrashDumpProfiler();

/// Install best-effort handlers for fatal signals (SIGSEGV, SIGBUS,
/// SIGILL, SIGFPE, SIGABRT) that dump the registered crash-dump
/// profiler's flight rings to flight-<pid>.json, then re-raise with the
/// default disposition (the process still dies with the original
/// signal). Best-effort by design: the dump path allocates, which
/// strict async-signal-safety forbids — acceptable for a diagnostic of
/// a process that is dying anyway. SIGKILL cannot be caught; the
/// injected-crash path (DurabilityConfig::crash_after_appends) dumps
/// explicitly before raising it. Idempotent.
void InstallCrashSignalHandlers();

}  // namespace sps::obs
