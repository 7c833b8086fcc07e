#include "rt/generator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sps::rt {

std::vector<double> UUniFast(std::size_t n, double total_util, Rng& rng) {
  std::vector<double> u(n);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  double sum = total_util;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    // Bini & Buttazzo: nextSum = sum * rand^(1/(n-i-1)).
    const double next =
        sum * std::pow(unit(rng), 1.0 / static_cast<double>(n - i - 1));
    u[i] = sum - next;
    sum = next;
  }
  if (n > 0) u[n - 1] = sum;
  return u;
}

std::vector<double> UUniFastDiscard(std::size_t n, double total_util,
                                    double max_task_util, Rng& rng) {
  if (static_cast<double>(n) * max_task_util < total_util) {
    throw std::invalid_argument(
        "UUniFastDiscard: n * max_task_util < total_util is unsatisfiable");
  }
  constexpr int kMaxAttempts = 100000;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    std::vector<double> u = UUniFast(n, total_util, rng);
    const bool ok = std::all_of(u.begin(), u.end(), [&](double x) {
      return x <= max_task_util;
    });
    if (ok) return u;
  }
  char msg[256];
  std::snprintf(msg, sizeof(msg),
                "UUniFastDiscard: gave up after %d redraws of %zu "
                "utilizations summing to %g, each at most %g (parameters "
                "too tight; increase n or max_task_util)",
                kMaxAttempts, n, total_util, max_task_util);
  throw GeneratorGaveUp(msg);
}

Time DrawPeriod(const GeneratorConfig& cfg, Rng& rng) {
  if (!cfg.period_choices.empty()) {
    std::uniform_int_distribution<std::size_t> pick(
        0, cfg.period_choices.size() - 1);
    return cfg.period_choices[pick(rng)];
  }
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double lo = std::log(static_cast<double>(cfg.period_min));
  const double hi = std::log(static_cast<double>(cfg.period_max));
  const double raw = std::exp(lo + (hi - lo) * unit(rng));
  constexpr Time kPeriodGranularity = Millis(1);
  Time period = static_cast<Time>(raw);
  period -= period % kPeriodGranularity;
  period = std::max(period, cfg.period_min);
  return std::min(period, cfg.period_max);
}

TaskSet GenerateTaskSet(const GeneratorConfig& cfg, Rng& rng) {
  const std::vector<double> utils = UUniFastDiscard(
      cfg.num_tasks, cfg.total_utilization, cfg.max_task_utilization, rng);

  TaskSet ts;
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::size_t i = 0; i < cfg.num_tasks; ++i) {
    const Time period = DrawPeriod(cfg, rng);
    Time wcet = static_cast<Time>(
        std::llround(utils[i] * static_cast<double>(period)));
    wcet = std::clamp<Time>(wcet, 1, period);

    Time deadline = period;
    if (!cfg.implicit_deadlines) {
      constexpr double kMinDeadlineFactor = 0.5;
      const double span = static_cast<double>(period - wcet);
      const double lo = kMinDeadlineFactor * span;
      deadline = wcet + static_cast<Time>(lo + (span - lo) * unit(rng));
      deadline = std::clamp(deadline, wcet, period);
    }

    ts.add(Task{.id = static_cast<TaskId>(i),
                .wcet = wcet,
                .period = period,
                .deadline = deadline});
  }
  AssignRateMonotonic(ts);
  return ts;
}

}  // namespace sps::rt
