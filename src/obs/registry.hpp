#pragma once
// Unified stats snapshot (DESIGN.md §15): one named home for the
// counters and gauges the subsystems keep in scattered structs
// (AdmitStats, OverloadStats, churn counters, MemoStats, recovery
// counters). A StatsSnapshot is a value that exports as JSON or CSV
// (map-backed, so export order is deterministic — the --stats-out dump
// is byte-comparable between runs with identical decisions).
//
// Everything in here is DETERMINISTIC data (decision counters, resident
// counts). Wall-clock profiling lives in obs/spans.hpp and stays on its
// own channel; do not put wall readings here (the §15 firewall).

#include <cstdint>
#include <map>
#include <string>

namespace sps::util {
class ThreadPool;
}  // namespace sps::util

namespace sps::obs {

struct StatsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;

  [[nodiscard]] std::string ToJson() const;
  /// Flat "name,kind,value" rows.
  [[nodiscard]] std::string ToCsv() const;

  bool operator==(const StatsSnapshot&) const = default;
};

/// The thread pool's per-worker busy/steal counters and gauges
/// ("pool.worker.<i>.indices", "pool.batches", "pool.steal_ratio", ...).
/// EXCEPTION to the header's determinism note, on purpose: which worker
/// claimed which index is scheduling-dependent, so this snapshot is
/// wall-channel data (stderr / --profile-out) and must never feed the
/// byte-compared --stats-out snapshot. Keep them apart.
StatsSnapshot PoolStatsSnapshot(const util::ThreadPool& pool);

}  // namespace sps::obs
