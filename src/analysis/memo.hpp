#pragma once
// Memoized schedulability: a Zobrist-keyed, lock-free transposition
// table for analysis verdicts (DESIGN.md §12, ROADMAP item 2).
//
// The demand test / RTA is the hot kernel of every decision path in this
// repo — admission screens, repartition fallbacks, unsplit probes, EDF
// split-window budget searches, and acceptance-sweep partitioning all
// recompute it for per-core resident sets that recur thousands of
// times. Both per-core admission tests are PURE functions of
// (resident entry multiset, candidate entry, overhead model / test
// kind), so their verdicts are safely memoizable — the same trick chess
// engines use for position evaluation:
//
//   * ZOBRIST HASH: every analysis entry (task id, kind, exec, window
//     deadline, ...) gets a 128-bit code from independent
//     splitmix64-derived streams. A core's resident-set hash is the XOR
//     of its entries' codes — XORed in on Commit/Restore and out on
//     Remove/Take, so maintenance is O(1) per entry in the online
//     AdmissionState and recomputable from scratch by the offline
//     partitioners' probe loops (ZobristOfEdfEntries / ZobristOfFpTasks).
//     Codes include the task id, so a legal resident set never holds two
//     identical codes (one entry per task per core) and XOR cancellation
//     cannot alias two reachable states.
//
//   * QUERY KEY: the candidate's code is NOT XORed into the resident
//     hash (that would alias "e resident, probing e" with the empty
//     core); resident hash, candidate code and the config fingerprint
//     (overhead model + test domain) are mixed asymmetrically into a
//     128-bit verification key. The low word doubles as the slot index.
//
//   * TABLE: fixed-size, power-of-two, replace-on-collision. Entries
//     publish via a per-slot seqlock (sequence word + two key/payload
//     words, all std::atomic) — readers detect torn reads by re-checking
//     the sequence, writers claim a slot with one CAS and never block
//     (a lost claim race just skips the store; the verdict was computed
//     anyway). No locks, no waiting, shared across util::SharedPool
//     threads by acceptance sweeps, ReplayBatch and epoch validation.
//
//   * COLLISION SAFETY: a slot hit counts only if the full 126-bit
//     verification key matches — the slot index is never trusted. The
//     1-entry-table differential in tests/test_memo.cpp proves index
//     collisions are survived by key verification alone.
//
// The cached verdict also records WHICH screen decided (density accept
// vs full test), so the AdmitStats decision counters stay bit-identical
// to the uncached path — only the memo_* counters depend on cache state.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "analysis/edf.hpp"
#include "overhead/model.hpp"
#include "rt/task.hpp"

namespace sps::analysis {

/// 128-bit XOR-combinable hash value (a Zobrist code or an accumulated
/// resident-set hash).
struct MemoKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  MemoKey& operator^=(const MemoKey& o) {
    lo ^= o.lo;
    hi ^= o.hi;
    return *this;
  }
  friend bool operator==(const MemoKey&, const MemoKey&) = default;
};

/// Zobrist code of one EDF analysis entry (hashes every field the
/// inflation + demand test read: id, kind, exec, period, window
/// deadline, queue sizes).
[[nodiscard]] MemoKey EdfEntryCode(const EdfCoreEntry& e);

/// Zobrist code of one fixed-priority resident task (id, C, T, D,
/// priority — everything FpCoreAdmits reads).
[[nodiscard]] MemoKey FpTaskCode(const rt::Task& t);

/// From-scratch resident-set hashes (offline probe loops, tests).
[[nodiscard]] MemoKey ZobristOfEdfEntries(std::span<const EdfCoreEntry> es);
[[nodiscard]] MemoKey ZobristOfFpTasks(std::span<const rt::Task> ts);

/// Global (whole-table) counters — the acceptance sweep has no
/// AdmitStats plumbing, so the CLI reports these snapshots instead.
struct MemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;    ///< lookups that found no matching key
  std::uint64_t stores = 0;
  std::uint64_t evicts = 0;    ///< stores that displaced a different live key

  MemoStats& operator-=(const MemoStats& o) {
    hits -= o.hits;
    misses -= o.misses;
    stores -= o.stores;
    evicts -= o.evicts;
    return *this;
  }
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t n = hits + misses;
    return n == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(n);
  }
};

/// The lock-free transposition table. All methods are safe to call
/// concurrently from any number of threads; construction/destruction
/// must be quiescent (no concurrent calls), as usual.
class AnalysisMemo {
 public:
  /// Capacity is rounded up to a power of two (>= 1).
  explicit AnalysisMemo(std::size_t entries);

  /// A cached admission verdict plus which screen produced it (the
  /// stage keeps AdmitStats decision counters cache-oblivious).
  struct Verdict {
    bool admitted = false;
    bool via_density = false;  ///< EDF density screen (else full test)
  };

  /// Probe slot `slot_hash & mask`; a hit requires the stored
  /// verification key to equal `verify` exactly. Torn (mid-publish)
  /// slots read as misses.
  [[nodiscard]] std::optional<Verdict> Lookup(std::uint64_t slot_hash,
                                              const MemoKey& verify);

  /// Publish a verdict (replace-on-collision). Returns true when a
  /// DIFFERENT live key was displaced (an eviction). May silently skip
  /// when racing another writer on the same slot.
  bool Store(std::uint64_t slot_hash, const MemoKey& verify, Verdict v);

  /// Whole-table totals: the sum of every thread shard's counters
  /// (exact once the counting threads are quiescent).
  [[nodiscard]] MemoStats stats() const;
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

 private:
  // One slot: seqlock word + verification key with the verdict packed
  // into the low 2 bits of `hi` (the key comparison masks them off, so
  // verification is 126 bits wide). seq == 0 means never written; odd
  // means a writer holds the slot; live slots have even seq >= 2.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> lo{0};
    std::atomic<std::uint64_t> hi{0};
  };

  // One thread shard's counters in a block of their own. A thread
  // counts into the shard fixed at its first count (a process-wide
  // thread index modulo kCounterShards), so pool threads probing the
  // table never write a cache line another thread counts on; stats()
  // sums the shards. Threads that share a shard still add atomically,
  // so the totals stay exact. A block is two 64-byte lines, the pair
  // an adjacent-line prefetcher fetches together.
  struct alignas(128) Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> stores{0};
    std::atomic<std::uint64_t> evicts{0};
  };
  static constexpr std::size_t kCounterShards = 64;

  /// This thread's counter shard.
  [[nodiscard]] Counters& counters();

  std::unique_ptr<Slot[]> slots_;
  std::uint64_t mask_ = 0;
  std::unique_ptr<Counters[]> counters_;
};

/// Memoization knob threaded through AdmissionConfig,
/// EdfPartitionConfig, BinPackConfig and AcceptanceConfig
/// (sps_cli --analysis-cache=off|<N>).
struct MemoConfig {
  bool enabled = true;
  /// Size hint for the process-wide shared table; only the FIRST
  /// resolution creates it (explicitly resizable via ResizeSharedMemo).
  std::size_t entries = kDefaultSharedEntries;
  /// Optional table override (tests/benches isolate their cache here);
  /// null means the shared table.
  AnalysisMemo* table = nullptr;

  static constexpr std::size_t kDefaultSharedEntries = std::size_t{1} << 15;
};

/// The process-wide table every default-config analysis shares; created
/// on first use with `entries_hint` slots.
AnalysisMemo& SharedMemo(
    std::size_t entries_hint = MemoConfig::kDefaultSharedEntries);

/// Replace the shared table (CLI --analysis-cache=<N>). NOT safe while
/// analyses run concurrently — call before starting work.
void ResizeSharedMemo(std::size_t entries);

/// Per-run resolved memoization state: the table (null = off) and the
/// config fingerprint (overhead model + test domain) mixed into every
/// query key so verdicts can never leak across configs. Built once per
/// partitioner run / AdmissionState, passed down the admission tests.
struct MemoContext {
  AnalysisMemo* table = nullptr;
  std::uint64_t cfg_lo = 0;
  std::uint64_t cfg_hi = 0;

  [[nodiscard]] bool active() const { return table != nullptr; }
};

/// EDF demand-test domain: fingerprint = model fields + EDF tag.
[[nodiscard]] MemoContext MakeEdfMemoContext(
    const MemoConfig& cfg, const overhead::OverheadModel& model);

/// Fixed-priority domain: fingerprint additionally folds the admission
/// test kind (LL / hyperbolic / RTA verdicts never alias).
[[nodiscard]] MemoContext MakeFpMemoContext(
    const MemoConfig& cfg, const overhead::OverheadModel& model,
    int admission_kind);

/// The query key for "would `cand` fit on a core whose resident hash is
/// `core`": asymmetric mix of resident hash, candidate code and config
/// fingerprint (NOT an XOR — the candidate must not cancel against an
/// identical resident entry). key.lo doubles as the slot hash.
[[nodiscard]] MemoKey CombineQuery(const MemoKey& core, const MemoKey& cand,
                                   const MemoContext& ctx);

}  // namespace sps::analysis
