#pragma once
// Set-associative LRU cache simulator — the empirical counterpart of the
// analytical CPMD model. Used by tests and the E4 bench to *demonstrate*
// (rather than assume) the paper's §3 finding: replay a preemption or a
// migration over a modelled two-level hierarchy and count where the
// resumed task's misses are served from.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache_model.hpp"
#include "rt/time.hpp"

namespace sps::cache {

/// One physical cache: set-associative, true-LRU replacement.
class LruCache {
 public:
  /// `size_bytes` = 0 makes a null cache that misses everything.
  LruCache(std::size_t size_bytes, std::size_t assoc, std::size_t line_bytes);

  /// Touch one line; returns true on hit. On miss the line is filled.
  bool access(std::uint64_t addr);

  /// Is the line currently resident (no state change)?
  [[nodiscard]] bool contains(std::uint64_t addr) const;

  void flush();

 private:
  struct Way {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // higher = more recently used
    bool valid = false;
  };

  std::size_t sets_;
  std::size_t assoc_;
  std::size_t line_bytes_;
  std::uint64_t tick_ = 0;
  std::vector<Way> ways_;  // sets_ * assoc_, row-major by set
};

/// Private-per-core + shared-LLC hierarchy for `num_cores` cores.
/// Access cost follows CacheConfig's per-line penalties.
class TwoLevelCacheSim {
 public:
  TwoLevelCacheSim(const CacheConfig& cfg, unsigned num_cores,
                   std::size_t private_assoc = 8, std::size_t shared_assoc = 16);

  /// Touch one address from `core`; returns the time this access costs
  /// (0-ish for private hit, l3 penalty, or memory penalty).
  Time access(unsigned core, std::uint64_t addr);

  /// Sequentially touch a working set of `bytes` starting at `base`.
  /// Returns total cost.
  Time touch_range(unsigned core, std::uint64_t base, std::size_t bytes);

  [[nodiscard]] const CacheConfig& config() const { return cfg_; }

 private:
  CacheConfig cfg_;
  std::vector<LruCache> private_;  // one per core
  LruCache shared_;
};

/// Experiment used by tests and bench E4: task A streams over its working
/// set (warm-up), a preemptor streams over its footprint, then A resumes
/// either on the same core (local) or another core (migration). Returns
/// the cost of A's resume pass — the empirical CPMD.
struct CpmdProbeResult {
  Time local_resume_cost = 0;
  Time migration_resume_cost = 0;
};

CpmdProbeResult ProbeCpmd(const CacheConfig& cfg, std::size_t wss_bytes,
                          std::size_t preemptor_bytes);

}  // namespace sps::cache
