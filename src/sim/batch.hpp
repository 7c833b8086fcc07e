#pragma once
// Batch-simulation subsystem (DESIGN.md §8): run ONE partition under a
// SWEEP of simulation configs — overhead scales, execution models, queue
// backends — distributing the runs over a worker pool while reusing the
// (expensive) generation and partitioning setup. This is the macroscopic
// driver behind the §6 queue ablation and the overhead-sensitivity
// experiments; the acceptance-ratio harness (exp/acceptance.*) builds on
// the same pool and the same seed-derivation scheme.
//
// Determinism contract: every unit of work owns an independent RNG
// stream derived by DeriveSeed from (base seed, coordinates); no unit
// reads another's state. Results are therefore BIT-IDENTICAL for any
// job count — the serial run is the specification of the parallel one,
// and tests/test_batch_parallel.cpp holds the system to it.

#include <cstdint>
#include <string>
#include <vector>

#include "containers/queue_traits.hpp"
#include "partition/placement.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace sps::sim {

/// Mix (base, a, b) into an independent 64-bit seed (splitmix64-style
/// finalizer). Used as DeriveSeed(seed, point, set) by the acceptance
/// harness and DeriveSeed(seed, variant, rep) by batch sweeps: distinct
/// coordinates give decorrelated streams, and the mapping is pure — the
/// thread that runs a unit never matters. (The implementation lives in
/// util/rng.hpp since PR 3, where the simulation kernel's per-task RNG
/// streams share it; this alias keeps the established call sites.)
[[nodiscard]] inline std::uint64_t DeriveSeed(std::uint64_t base,
                                              std::uint64_t a,
                                              std::uint64_t b) {
  return util::DeriveSeed(base, a, b);
}

/// One named configuration of the sweep.
struct BatchVariant {
  std::string name;
  SimConfig cfg;
};

struct BatchRun {
  std::string name;
  SimResult result;
  double wall_seconds = 0.0;  ///< wall-clock of this variant's Simulate()
};

struct BatchOptions {
  /// Total threads of concurrency (1 = serial in the calling thread,
  /// 0 = one per hardware thread).
  unsigned jobs = 1;
};

/// Simulate `p` under every variant. Output is positionally aligned with
/// `variants` and identical for every job count.
std::vector<BatchRun> RunConfigSweep(const partition::Partition& p,
                                     const std::vector<BatchVariant>& variants,
                                     const BatchOptions& opt = {});

/// Which per-core queue a backend sweep varies: the variant grid copies
/// `base` once per queue backend, naming each variant after it.
enum class QueueRole { kReady, kSleep };
std::vector<BatchVariant> BackendVariants(const SimConfig& base,
                                          QueueRole role);

[[nodiscard]] const char* ToString(QueueRole role);

}  // namespace sps::sim
