#include "analysis/memo.hpp"

#include <algorithm>
#include <bit>
#include <mutex>

#include "util/rng.hpp"

namespace sps::analysis {

namespace {

// Independent base seeds for the lo/hi halves of every code family.
// Arbitrary odd constants; what matters is that the two halves of a
// code come from decorrelated DeriveSeed chains.
constexpr std::uint64_t kEdfLo = 0x5a75c3b1e0f9d247ull;
constexpr std::uint64_t kEdfHi = 0x9d86a4f17c3e5b09ull;
constexpr std::uint64_t kCfgLo = 0x81d3f6a92c5e70b3ull;
constexpr std::uint64_t kCfgHi = 0x4f9b2e8d17a6c035ull;

constexpr std::uint64_t U(Time t) { return static_cast<std::uint64_t>(t); }

// Fold a field list into one 64-bit stream: a DeriveSeed chain where
// each link mixes (accumulator, field, position). The position keeps
// field transpositions (e.g. swapping exec and period) from colliding.
template <std::size_t N>
std::uint64_t Chain(std::uint64_t base, const std::uint64_t (&fields)[N]) {
  std::uint64_t h = base;
  for (std::size_t i = 0; i < N; ++i) {
    h = util::DeriveSeed(h, fields[i], i);
  }
  return h;
}

std::uint64_t ModelChain(std::uint64_t base,
                         const overhead::OverheadModel& m) {
  const std::uint64_t fields[] = {
      U(m.ready_add_local.at_n4),  U(m.ready_add_local.at_n64),
      U(m.ready_add_remote.at_n4), U(m.ready_add_remote.at_n64),
      U(m.ready_del_local.at_n4),  U(m.ready_del_local.at_n64),
      U(m.sleep_add_local.at_n4),  U(m.sleep_add_local.at_n64),
      U(m.sleep_add_remote.at_n4), U(m.sleep_add_remote.at_n64),
      U(m.sleep_del_local.at_n4),  U(m.sleep_del_local.at_n64),
      U(m.release_exec),           U(m.sched_exec),
      U(m.ctxsw_exec),             U(m.cpmd_local),
      U(m.cpmd_migration),         std::bit_cast<std::uint64_t>(m.scale)};
  return Chain(base, fields);
}

}  // namespace

MemoKey EdfEntryCode(const EdfCoreEntry& e) {
  const std::uint64_t fields[] = {e.id,
                                  static_cast<std::uint64_t>(e.kind),
                                  U(e.exec),
                                  U(e.period),
                                  U(e.deadline),
                                  e.dest_queue_size,
                                  e.first_core_queue_size};
  return MemoKey{Chain(kEdfLo, fields), Chain(kEdfHi, fields)};
}

MemoKey ZobristOfEdfEntries(std::span<const EdfCoreEntry> es) {
  MemoKey k;
  for (const EdfCoreEntry& e : es) k ^= EdfEntryCode(e);
  return k;
}

// ---- table -----------------------------------------------------------------

namespace {

std::atomic<std::uint32_t> g_next_thread{0};
/// This thread's counter shard plus one; 0 until its first count. A
/// constant-initialized thread_local, so reading it needs no TLS init
/// guard: a single thread pays one TLS load and a predicted branch on
/// top of the uncontended atomic add.
thread_local std::uint32_t t_shard_plus1 = 0;

}  // namespace

AnalysisMemo::AnalysisMemo(std::size_t entries) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(entries, 1));
  slots_ = std::make_unique<Slot[]>(cap);
  mask_ = cap - 1;
  counters_ = std::make_unique<Counters[]>(kCounterShards);
}

AnalysisMemo::Counters& AnalysisMemo::counters() {
  std::uint32_t s = t_shard_plus1;
  if (s == 0) [[unlikely]] {
    const std::uint32_t thread =
        g_next_thread.fetch_add(1, std::memory_order_relaxed);
    s = t_shard_plus1 = thread % kCounterShards + 1;
  }
  return counters_[s - 1];
}

std::optional<AnalysisMemo::Verdict> AnalysisMemo::Lookup(
    std::uint64_t slot_hash, const MemoKey& verify) {
  Slot& s = slots_[slot_hash & mask_];
  // Seqlock read: snapshot the sequence, read the words, re-check the
  // sequence. A torn or in-progress publication reads as a miss — the
  // caller just computes the verdict itself.
  const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
  if (seq1 < 2 || (seq1 & 1) != 0) {
    counters().misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  const std::uint64_t lo = s.lo.load(std::memory_order_relaxed);
  const std::uint64_t hi = s.hi.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t seq2 = s.seq.load(std::memory_order_relaxed);
  if (seq2 != seq1 || lo != verify.lo || (hi >> 2) != (verify.hi >> 2)) {
    counters().misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  counters().hits.fetch_add(1, std::memory_order_relaxed);
  return Verdict{.admitted = (hi & 1) != 0, .via_density = (hi & 2) != 0};
}

bool AnalysisMemo::Store(std::uint64_t slot_hash, const MemoKey& verify,
                         Verdict v) {
  Slot& s = slots_[slot_hash & mask_];
  std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0) return false;  // another writer owns the slot
  // Claim with one CAS (even -> odd); losing the race skips the store —
  // replace-on-collision tolerates dropped publications.
  if (!s.seq.compare_exchange_strong(seq, seq + 1,
                                     std::memory_order_acq_rel,
                                     std::memory_order_relaxed)) {
    return false;
  }
  const std::uint64_t old_lo = s.lo.load(std::memory_order_relaxed);
  const std::uint64_t old_hi = s.hi.load(std::memory_order_relaxed);
  const bool evict =
      seq >= 2 &&
      (old_lo != verify.lo || (old_hi >> 2) != (verify.hi >> 2));
  const std::uint64_t packed = (verify.hi & ~std::uint64_t{3}) |
                               (v.admitted ? 1u : 0u) |
                               (v.via_density ? 2u : 0u);
  s.lo.store(verify.lo, std::memory_order_relaxed);
  s.hi.store(packed, std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);
  Counters& c = counters();
  c.stores.fetch_add(1, std::memory_order_relaxed);
  if (evict) c.evicts.fetch_add(1, std::memory_order_relaxed);
  return evict;
}

MemoStats AnalysisMemo::stats() const {
  MemoStats st;
  for (std::size_t i = 0; i < kCounterShards; ++i) {
    const Counters& c = counters_[i];
    st.hits += c.hits.load(std::memory_order_relaxed);
    st.misses += c.misses.load(std::memory_order_relaxed);
    st.stores += c.stores.load(std::memory_order_relaxed);
    st.evicts += c.evicts.load(std::memory_order_relaxed);
  }
  return st;
}

// ---- shared table + contexts -----------------------------------------------

namespace {
std::mutex g_shared_mu;
std::unique_ptr<AnalysisMemo> g_shared;  // NOLINT: intentional singleton
}  // namespace

AnalysisMemo& SharedMemo(std::size_t entries_hint) {
  const std::lock_guard<std::mutex> lock(g_shared_mu);
  if (!g_shared) g_shared = std::make_unique<AnalysisMemo>(entries_hint);
  return *g_shared;
}

void ResizeSharedMemo(std::size_t entries) {
  const std::lock_guard<std::mutex> lock(g_shared_mu);
  g_shared = std::make_unique<AnalysisMemo>(entries);
}

MemoContext MakeEdfMemoContext(const MemoConfig& cfg,
                               const overhead::OverheadModel& model) {
  MemoContext ctx;
  if (!cfg.enabled) return ctx;
  ctx.table = cfg.table != nullptr ? cfg.table : &SharedMemo(cfg.entries);
  // Fixed seed words (1, 0): other words would move every key, and with
  // them the table's hit and eviction counts that bench/e2e reports.
  ctx.cfg_lo = ModelChain(util::DeriveSeed(kCfgLo, 1, 0), model);
  ctx.cfg_hi = ModelChain(util::DeriveSeed(kCfgHi, 1, 0), model);
  return ctx;
}

MemoKey CombineQuery(const MemoKey& core, const MemoKey& cand,
                     const MemoContext& ctx) {
  // Asymmetric 6-word mix: both halves see all of (resident hash,
  // candidate code, config fingerprint) through differently-ordered
  // DeriveSeed chains, so the two words stay decorrelated and the
  // candidate can never XOR-cancel a resident entry.
  MemoKey k;
  k.lo = util::DeriveSeed(util::DeriveSeed(ctx.cfg_lo, core.lo, cand.lo),
                          core.hi, cand.hi);
  k.hi = util::DeriveSeed(util::DeriveSeed(ctx.cfg_hi, core.hi, cand.hi),
                          core.lo, cand.lo);
  return k;
}

}  // namespace sps::analysis
