#pragma once
// Trace recording (DESIGN.md §10). Each kernel appends STAMPED events to
// its own arena-backed TraceBuffer, and the canonical trace of a run —
// one lane or several, byte-identical either way — is produced
// afterwards by a deterministic k-way merge over the lane buffers.
//
// The stamp is what makes the merge exact. Every record carries the
// identity of the DISPATCH that emitted it:
//
//   key      the dispatched event's packed (time, kind) key — the same
//            total order the event queue pops in;
//   tiebreak the dispatch's subject among equal keys: the core for
//            core-owned kinds (segment end, overhead end), the task
//            index for task-owned kinds (timer, migration arrival).
//            Kinds never collide across the two spaces because the kind
//            sits in the key's low bits;
//   chain    which same-(key, tiebreak) dispatch this is. Zero-cost
//            overhead windows make back-to-back overhead-end dispatches
//            for one core at one instant the NORM, so a per-subject
//            counter disambiguates them. The chain index is lane-local
//            state, and it is shard-invariant because a subject's events
//            all dispatch on the lane that owns its core group, in the
//            serial run's order;
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
#include <vector>

#include "trace/trace.hpp"
#include "util/arena.hpp"

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

/// Append-only event storage with stable chunks carved from a SlabArena —
/// the same O(log n)-real-allocations story as every other hot-path
/// container here (util/arena.hpp). A lane appends millions of records
/// without ever touching the global allocator in steady state.
class TraceBuffer {
  static constexpr std::size_t kChunkEvents = 512;
  struct Chunk {
    StampedEvent ev[kChunkEvents];
  };

 public:
  void Append(const Stamp& s, const trace::Event& e) {
    if (used_ == kChunkEvents || chunks_.empty()) {
      chunks_.push_back(arena_.create());
      used_ = 0;
    }
    chunks_.back()->ev[used_++] = StampedEvent{s, e};
  }

  [[nodiscard]] std::size_t size() const {
    return chunks_.empty() ? 0 : (chunks_.size() - 1) * kChunkEvents + used_;
  }

  /// Copy out every record, sorted by stamp. The append order is
  /// already key-sorted (DES time never goes backwards), so this sort
  /// only reorders same-key ties — near-linear in practice.
  [[nodiscard]] std::vector<StampedEvent> Sorted() const {
    std::vector<StampedEvent> out;
    out.reserve(size());
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      const std::size_t n =
          c + 1 == chunks_.size() ? used_ : kChunkEvents;
      out.insert(out.end(), chunks_[c]->ev, chunks_[c]->ev + n);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const StampedEvent& a, const StampedEvent& b) {
                       return a.stamp < b.stamp;
                     });
    return out;
  }

 private:
  util::SlabArena<Chunk> arena_;  // chunks are trivially destructible
  std::vector<Chunk*> chunks_;
  std::size_t used_ = 0;  ///< fill of the back chunk
};

/// Deterministic k-way merge of per-lane buffers into the canonical
/// event sequence. The heap repeatedly takes the lane whose head stamp
/// is smallest (ties impossible: a stamp identifies one dispatch of one
/// subject, and a subject's dispatches all happen on one lane).
[[nodiscard]] inline std::vector<trace::Event> MergeTraceBuffers(
    const std::vector<const TraceBuffer*>& lanes) {
  std::vector<std::vector<StampedEvent>> sorted;
  sorted.reserve(lanes.size());
  std::size_t total = 0;
  for (const TraceBuffer* b : lanes) {
    sorted.push_back(b->Sorted());
    total += sorted.back().size();
  }
  std::vector<trace::Event> out;
  out.reserve(total);

  // Binary min-heap of lane heads, keyed by stamp.
  std::vector<std::size_t> head(sorted.size(), 0);
  std::vector<std::size_t> heap;
  heap.reserve(sorted.size());
  auto stamp_of = [&](std::size_t lane) -> const Stamp& {
    return sorted[lane][head[lane]].stamp;
  };
  auto heap_less = [&](std::size_t a, std::size_t b) {
    return stamp_of(b) < stamp_of(a);  // min-heap via greater-than
  };
  for (std::size_t l = 0; l < sorted.size(); ++l) {
    if (!sorted[l].empty()) heap.push_back(l);
  }
  std::make_heap(heap.begin(), heap.end(), heap_less);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), heap_less);
    const std::size_t lane = heap.back();
    heap.pop_back();
    out.push_back(sorted[lane][head[lane]].event);
    if (++head[lane] < sorted[lane].size()) {
      heap.push_back(lane);
      std::push_heap(heap.begin(), heap.end(), heap_less);
    }
  }
  return out;
}

}  // namespace sps::obs
