#pragma once
// Trace recording (DESIGN.md §10). Each kernel appends STAMPED events to
// its own chunked TraceBuffer, and the canonical trace of a run — one
// kernel per core group, run on any number of threads, byte-identical
// either way — is produced afterwards by a deterministic k-way merge
// over the kernels' buffers.
//
// The stamp is what makes the merge exact. Every record carries the
// identity of the DISPATCH that emitted it:
//
//   key      the dispatched event's packed (time, kind) key — the same
//            total order the event queue pops in;
//   tiebreak the dispatch's subject among equal keys: the core for
//            core-owned kinds (segment end, overhead end), the task
//            index for task-owned kinds (timer, migration arrival), each
//            its index in the whole partition. Kinds never collide
//            across the two spaces because the kind sits in the key's
//            low bits;
//   chain    which same-(key, tiebreak) dispatch this is. Zero-cost
//            overhead windows make back-to-back overhead-end dispatches
//            for one core at one instant the NORM, so a per-subject
//            counter disambiguates them. The chain index is
//            kernel-local state, and it is shard-invariant because a
//            subject's events all dispatch in the kernel of its core
//            group, in the serial run's order;
//   ordinal  position within the dispatch (a handler emits several
//            events: release + overhead begin, ...).
//
// (key, tiebreak, chain, ordinal) is a total order over all records of a
// run, and every component is a pure function of the simulation — not of
// the shard count or thread interleaving. Sorting by it therefore yields
// the same byte sequence from any execution mode. Note the canonical
// order refines the serial dispatch order only up to same-key ties
// across DIFFERENT subjects (serial interleaves those by insertion
// order, the canonical order by subject index); per-core subsequences —
// what the Gantt renderer and every existing consumer read — are
// unchanged.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace sps::obs {

struct Stamp {
  std::uint64_t key = 0;
  std::uint64_t tiebreak = 0;
  std::uint32_t chain = 0;
  std::uint32_t ordinal = 0;

  friend bool operator<(const Stamp& a, const Stamp& b) {
    if (a.key != b.key) return a.key < b.key;
    if (a.tiebreak != b.tiebreak) return a.tiebreak < b.tiebreak;
    if (a.chain != b.chain) return a.chain < b.chain;
    return a.ordinal < b.ordinal;
  }
};

struct StampedEvent {
  Stamp stamp;
  trace::Event event;
};

inline constexpr std::size_t kTraceChunkEvents = 512;

/// Chunk storage for TraceBuffer (obs/trace_buffer.cpp): raw room for
/// kTraceChunkEvents records. Released chunks are kept for reuse, up to
/// 8 MiB, so a process that records run after run writes to pages it has
/// already touched instead of faulting fresh zeroed ones in.
[[nodiscard]] StampedEvent* AcquireTraceChunk();
void ReleaseTraceChunk(StampedEvent* chunk);

/// Append-only event storage in fixed 32 KiB chunks (512 records of 64
/// bytes), taken one at a time and never zero-filled: a kernel that
/// records a few hundred events costs one chunk, and a long run adds a
/// chunk per 512 records without copying the ones it holds. The buffer
/// stays in stamp order: a record that sorts before its predecessor is
/// moved back to its place. A kernel's records arrive in key order (DES
/// time never goes backwards), so only same-key ties across different
/// subjects move, by a few places.
class TraceBuffer {
  static constexpr std::size_t kChunkEvents = kTraceChunkEvents;
  /// Returns a chunk to the cache; the records need no destructor.
  struct FreeChunk {
    void operator()(StampedEvent* p) const { ReleaseTraceChunk(p); }
  };

 public:
  void Append(const Stamp& s, const trace::Event& e) {
    if (used_ == kChunkEvents || chunks_.empty()) {
      chunks_.emplace_back(AcquireTraceChunk());
      used_ = 0;
    }
    ::new (static_cast<void*>(chunks_.back().get() + used_++))
        StampedEvent{s, e};
    if (s < last_) {
      MoveBackLast();
    } else {
      last_ = s;
    }
  }

  [[nodiscard]] std::size_t size() const {
    return chunks_.empty() ? 0 : (chunks_.size() - 1) * kChunkEvents + used_;
  }

  /// The records in stamp order, chunk by chunk.
  [[nodiscard]] std::size_t num_chunks() const { return chunks_.size(); }
  [[nodiscard]] std::span<const StampedEvent> chunk(std::size_t c) const {
    return {chunks_[c].get(), c + 1 == chunks_.size() ? used_ : kChunkEvents};
  }

 private:
  StampedEvent& at(std::size_t i) {
    return chunks_[i / kChunkEvents][i % kChunkEvents];
  }

  /// Insertion step: move the last record back past every record whose
  /// stamp is greater.
  [[gnu::noinline]] void MoveBackLast() {
    std::size_t i = size() - 1;
    const StampedEvent rec = at(i);
    for (; i > 0 && rec.stamp < at(i - 1).stamp; --i) at(i) = at(i - 1);
    at(i) = rec;
  }

  // StampedEvent is trivially copyable and destructible: chunks hold raw
  // storage, and Append constructs each record in place.
  std::vector<std::unique_ptr<StampedEvent[], FreeChunk>> chunks_;
  std::size_t used_ = 0;  ///< fill of the back chunk
  Stamp last_;  ///< the greatest stamp appended so far
};

/// Deterministic k-way merge of per-kernel buffers into the canonical
/// event sequence (stamp order), reading each buffer in place. A stamp
/// identifies one dispatch of one subject, and a subject's dispatches all
/// happen in one kernel, so two buffers never share a (key, tiebreak)
/// pair: the merge orders buffers by that pair alone, and emits every
/// record of the winner's (key, tiebreak) in one step, since no other
/// buffer holds a stamp between them. The buffers play a loser tree:
/// each step replays one match per level, without a branch on its
/// outcome (the outcomes are data, and mispredicted branches were most
/// of the merge's cost).
[[nodiscard]] inline std::vector<trace::Event> MergeTraceBuffers(
    const std::vector<const TraceBuffer*>& buffers) {
  // (key, tiebreak) as one integer; an exhausted buffer holds kDone,
  // which no stamp reaches (EventKey < 2^63).
  using Order = unsigned __int128;
  constexpr Order kDone = ~Order{0};
  const auto order_of = [](const StampedEvent* e) {
    return (Order{e->stamp.key} << 64) | e->stamp.tiebreak;
  };
  struct Cursor {
    const TraceBuffer* buffer;
    std::size_t chunk;
    const StampedEvent* at;
    const StampedEvent* end;
  };
  std::vector<Cursor> cursors;
  std::size_t total = 0;
  for (const TraceBuffer* b : buffers) {
    total += b->size();
    if (b->size() == 0) continue;
    const std::span<const StampedEvent> c = b->chunk(0);
    cursors.push_back(Cursor{b, 0, c.data(), c.data() + c.size()});
  }
  std::vector<trace::Event> out;
  out.reserve(total);
  const std::size_t k = cursors.size();
  if (k == 0) return out;

  // Buffer i is leaf k + i; node n (1 <= n < k) plays its children 2n
  // and 2n + 1 and keeps the loser's order and index. The winner is
  // carried in (wo, w).
  std::vector<Order> order(k);
  std::vector<std::size_t> loser(k);
  std::size_t w = 0;
  Order wo = 0;
  {
    std::vector<std::size_t> winner(2 * k);
    for (std::size_t i = 0; i < k; ++i) winner[k + i] = i;
    for (std::size_t n = k - 1; n >= 1; --n) {
      const std::size_t a = winner[2 * n];
      const std::size_t b = winner[2 * n + 1];
      const bool a_wins = order_of(cursors[a].at) < order_of(cursors[b].at);
      winner[n] = a_wins ? a : b;
      loser[n] = a_wins ? b : a;
      order[n] = order_of(cursors[loser[n]].at);
    }
    w = winner[1];
    wo = order_of(cursors[w].at);
  }
  while (wo != kDone) {
    Cursor& c = cursors[w];
    do {
      out.push_back(c.at->event);
      if (++c.at == c.end && ++c.chunk < c.buffer->num_chunks()) {
        const std::span<const StampedEvent> next = c.buffer->chunk(c.chunk);
        c.at = next.data();
        c.end = next.data() + next.size();
      }
    } while (c.at != c.end && order_of(c.at) == wo);
    wo = c.at != c.end ? order_of(c.at) : kDone;
    // Replay the winner's path to the root, swapping by masks.
    for (std::size_t n = (k + w) / 2; n >= 1; n /= 2) {
      const bool flip = order[n] < wo;
      const Order od = (order[n] ^ wo) & (Order{0} - Order{flip});
      const std::size_t ld = (loser[n] ^ w) & (std::size_t{0} - flip);
      order[n] ^= od;
      wo ^= od;
      loser[n] ^= ld;
      w ^= ld;
    }
  }
  return out;
}

}  // namespace sps::obs
