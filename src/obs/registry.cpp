#include "obs/registry.hpp"

#include <cstdio>

#include "util/json_writer.hpp"
#include "util/thread_pool.hpp"

namespace sps::obs {

std::string StatsSnapshot::ToJson() const {
  util::JsonWriter j;
  j.BeginObject();
  j.Key("counters").BeginObject();
  for (const auto& [name, v] : counters) j.Key(name).Value(v);
  j.EndObject();
  j.Key("gauges").BeginObject();
  for (const auto& [name, v] : gauges) j.Key(name).Value(v);
  j.EndObject();
  j.EndObject();
  return j.str();
}

std::string StatsSnapshot::ToCsv() const {
  std::string out = "name,kind,value\n";
  char buf[160];
  for (const auto& [name, v] : counters) {
    std::snprintf(buf, sizeof(buf), "%s,counter,%llu\n", name.c_str(),
                  static_cast<unsigned long long>(v));
    out += buf;
  }
  for (const auto& [name, v] : gauges) {
    std::snprintf(buf, sizeof(buf), "%s,gauge,%.9g\n", name.c_str(), v);
    out += buf;
  }
  return out;
}

StatsSnapshot PoolStatsSnapshot(const util::ThreadPool& pool) {
  const util::ThreadPool::PoolStats s = pool.Stats();
  StatsSnapshot out;
  out.counters["pool.batches"] = s.batches;
  out.counters["pool.caller.indices"] = s.caller.indices;
  out.counters["pool.stolen_indices"] = s.stolen_indices();
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const std::string base = "pool.worker." + std::to_string(i);
    out.counters[base + ".indices"] = s.workers[i].indices;
    out.counters[base + ".batches"] = s.workers[i].batches;
  }
  out.gauges["pool.steal_ratio"] = s.steal_ratio();
  out.gauges["pool.workers"] = static_cast<double>(s.workers.size());
  return out;
}

}  // namespace sps::obs
