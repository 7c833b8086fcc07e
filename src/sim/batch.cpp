#include "sim/batch.hpp"

#include <chrono>

#include "util/thread_pool.hpp"

namespace sps::sim {

std::vector<BatchRun> RunConfigSweep(const partition::Partition& p,
                                     const std::vector<BatchVariant>& variants,
                                     const BatchOptions& opt) {
  std::vector<BatchRun> out(variants.size());
  util::ParallelFor(opt.jobs, variants.size(), [&](std::size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    SimResult r = Simulate(p, variants[i].cfg);
    const auto t1 = std::chrono::steady_clock::now();
    out[i].name = variants[i].name;
    out[i].result = std::move(r);
    out[i].wall_seconds =
        std::chrono::duration<double>(t1 - t0).count();
  });
  return out;
}

const char* ToString(QueueRole role) {
  switch (role) {
    case QueueRole::kReady: return "ready";
    case QueueRole::kSleep: return "sleep";
  }
  return "?";
}

std::vector<BatchVariant> BackendVariants(const SimConfig& base,
                                          QueueRole role) {
  std::vector<BatchVariant> v;
  for (const containers::QueueBackend b : containers::kAllQueueBackends) {
    BatchVariant bv;
    bv.name = std::string(ToString(role)) + "=" +
              std::string(containers::to_string(b));
    bv.cfg = base;
    switch (role) {
      case QueueRole::kReady: bv.cfg.ready_backend = b; break;
      case QueueRole::kSleep: bv.cfg.sleep_backend = b; break;
    }
    v.push_back(std::move(bv));
  }
  return v;
}

}  // namespace sps::sim
