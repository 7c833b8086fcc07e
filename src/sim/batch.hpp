#pragma once
// The seed-derivation alias of the experiment layer (DESIGN.md §8).
// Harnesses that fan independent units over the worker pool seed each
// unit from its coordinates, DeriveSeed(seed, point, set), so results
// are bit-identical for any job count. The scheme itself lives in
// util/rng.hpp, where the simulation kernel's per-task streams share it;
// src/ calls util::DeriveSeed, and this alias serves the call sites
// outside src/ that spell it sim::DeriveSeed.

#include <cstdint>

#include "util/rng.hpp"

namespace sps::sim {

/// util::DeriveSeed(base, a, b) under its experiment-layer name.
[[nodiscard]] inline std::uint64_t DeriveSeed(std::uint64_t base,
                                              std::uint64_t a,
                                              std::uint64_t b) {
  return util::DeriveSeed(base, a, b);
}

}  // namespace sps::sim
