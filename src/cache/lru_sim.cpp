#include "cache/lru_sim.hpp"

#include <algorithm>
#include <cassert>

namespace sps::cache {

LruCache::LruCache(std::size_t size_bytes, std::size_t assoc,
                   std::size_t line_bytes)
    : assoc_(assoc), line_bytes_(line_bytes) {
  if (size_bytes == 0) {
    sets_ = 0;
    return;
  }
  assert(assoc > 0 && line_bytes > 0);
  sets_ = std::max<std::size_t>(1, size_bytes / (assoc * line_bytes));
  ways_.resize(sets_ * assoc_);
}

bool LruCache::access(std::uint64_t addr) {
  if (sets_ == 0) return false;
  const std::uint64_t line = addr / line_bytes_;
  const std::size_t set = static_cast<std::size_t>(line % sets_);
  Way* base = &ways_[set * assoc_];
  ++tick_;
  Way* victim = base;
  for (std::size_t w = 0; w < assoc_; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == line) {
      way.lru = tick_;
      return true;
    }
    if (!way.valid) {
      victim = &way;  // prefer an empty way
    } else if (victim->valid && way.lru < victim->lru) {
      victim = &way;
    }
  }
  victim->tag = line;
  victim->valid = true;
  victim->lru = tick_;
  return false;
}

bool LruCache::contains(std::uint64_t addr) const {
  if (sets_ == 0) return false;
  const std::uint64_t line = addr / line_bytes_;
  const std::size_t set = static_cast<std::size_t>(line % sets_);
  const Way* base = &ways_[set * assoc_];
  for (std::size_t w = 0; w < assoc_; ++w) {
    if (base[w].valid && base[w].tag == line) return true;
  }
  return false;
}

void LruCache::flush() {
  for (Way& w : ways_) w.valid = false;
  tick_ = 0;
}

TwoLevelCacheSim::TwoLevelCacheSim(const CacheConfig& cfg, unsigned num_cores,
                                   std::size_t private_assoc,
                                   std::size_t shared_assoc)
    : cfg_(cfg),
      shared_(cfg.l3_bytes, shared_assoc, cfg.line_bytes) {
  private_.reserve(num_cores);
  for (unsigned c = 0; c < num_cores; ++c) {
    private_.emplace_back(cfg.private_bytes(), private_assoc,
                          cfg.line_bytes);
  }
}

Time TwoLevelCacheSim::access(unsigned core, std::uint64_t addr) {
  assert(core < private_.size());
  if (private_[core].access(addr)) {
    return cfg_.l2_hit_per_line;  // private-level hit
  }
  if (shared_.access(addr)) {
    return cfg_.l3_hit_per_line;  // served by shared LLC, fill private
  }
  return cfg_.memory_per_line;  // memory; both levels now filled
}

Time TwoLevelCacheSim::touch_range(unsigned core, std::uint64_t base,
                                   std::size_t bytes) {
  Time total = 0;
  for (std::size_t off = 0; off < bytes; off += cfg_.line_bytes) {
    total += access(core, base + off);
  }
  return total;
}

CpmdProbeResult ProbeCpmd(const CacheConfig& cfg, std::size_t wss_bytes,
                          std::size_t preemptor_bytes) {
  // Disjoint address ranges for the task and the preemptor.
  constexpr std::uint64_t kTaskBase = 0;
  const std::uint64_t preemptor_base = 1ull << 32;

  CpmdProbeResult r;
  {
    // Local preemption: warm up on core 0, preempt on core 0, resume on 0.
    TwoLevelCacheSim sim(cfg, 2);
    sim.touch_range(0, kTaskBase, wss_bytes);   // A warms its set
    sim.touch_range(0, kTaskBase, wss_bytes);   // steady state
    sim.touch_range(0, preemptor_base, preemptor_bytes);  // preemptor runs
    r.local_resume_cost = sim.touch_range(0, kTaskBase, wss_bytes);
  }
  {
    // Migration: warm up on core 0, preemptor on core 0, resume on core 1.
    TwoLevelCacheSim sim(cfg, 2);
    sim.touch_range(0, kTaskBase, wss_bytes);
    sim.touch_range(0, kTaskBase, wss_bytes);
    sim.touch_range(0, preemptor_base, preemptor_bytes);
    r.migration_resume_cost = sim.touch_range(1, kTaskBase, wss_bytes);
  }
  return r;
}

}  // namespace sps::cache
