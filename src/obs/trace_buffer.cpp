#include "obs/trace_buffer.hpp"

#include <memory>
#include <mutex>
#include <vector>

namespace sps::obs {

namespace {

/// Released chunks, shared by every thread: a sharded run records on
/// the pool's workers and frees its buffers on the caller.
struct ChunkCache {
  static constexpr std::size_t kMaxChunks = 256;  // 8 MiB
  std::mutex mu;
  std::vector<StampedEvent*> free;
};

// Never destroyed, so a buffer that outlives static destruction can
// still release its chunks.
ChunkCache& Cache() {
  static ChunkCache* cache = new ChunkCache;
  return *cache;
}

}  // namespace

StampedEvent* AcquireTraceChunk() {
  ChunkCache& c = Cache();
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (!c.free.empty()) {
      StampedEvent* chunk = c.free.back();
      c.free.pop_back();
      return chunk;
    }
  }
  return std::allocator<StampedEvent>().allocate(kTraceChunkEvents);
}

void ReleaseTraceChunk(StampedEvent* chunk) {
  ChunkCache& c = Cache();
  {
    const std::lock_guard<std::mutex> lock(c.mu);
    if (c.free.size() < ChunkCache::kMaxChunks) {
      c.free.push_back(chunk);
      return;
    }
  }
  std::allocator<StampedEvent>().deallocate(chunk, kTraceChunkEvents);
}

}  // namespace sps::obs
