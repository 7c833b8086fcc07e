#pragma once
// Shared knob parsing and JSON provenance for the standalone bench
// binaries: the SPS_* env integers, the --jobs=N flag and the "machine"
// block (one implementation so the benches cannot drift on them).

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/json_writer.hpp"

namespace sps::bench {

/// An SPS_* integer knob, `fallback` when unset. An empty, non-decimal or
/// out-of-int value exits 2 before the bench does any work.
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  int value = 0;
  const auto [ptr, ec] = std::from_chars(v, end, value);
  if (ec != std::errc() || ptr != end) {
    std::fprintf(stderr, "%s='%s': expected a decimal int\n", name, v);
    std::exit(2);
  }
  return value;
}

/// Resolve the job count: SPS_JOBS env overridden by a --jobs=N flag,
/// default (and the meaning of 0) one thread per hardware thread.
/// Returns false (after printing the offender) on any other argument.
inline bool ParseJobs(int argc, char** argv, unsigned& jobs) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  jobs = static_cast<unsigned>(EnvInt("SPS_JOBS", static_cast<int>(hw)));
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = static_cast<unsigned>(std::strtoul(argv[i] + 7, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s (only --jobs=N)\n",
                   argv[i]);
      return false;
    }
  }
  if (jobs == 0) jobs = hw;
  return true;
}

/// The "machine" block of a bench JSON: what a recorded wall ran on, so
/// a committed baseline stays interpretable (the build defines come from
/// bench/CMakeLists.txt).
inline void WriteMachine(util::JsonWriter& json) {
  json.Key("machine").BeginObject();
  json.Key("hardware_threads")
      .Value(static_cast<std::uint64_t>(
          std::max(1u, std::thread::hardware_concurrency())));
  json.Key("compiler").Value(SPS_BENCH_COMPILER);
  json.Key("build_type").Value(SPS_BENCH_BUILD_TYPE);
  json.EndObject();
}

}  // namespace sps::bench
