#pragma once
// Random task-set generation for the acceptance-ratio experiments
// (paper §4: "randomly generated task sets").
//
// The PPES paper does not spell out its generation parameters; it inherits
// the setup of the FP-TS paper (Guan et al., RTAS 2010), which is the
// standard recipe of the field:
//   - per-task utilizations by UUniFast (Bini & Buttazzo 2005), giving a
//     uniform distribution over the simplex of utilizations summing to U;
//   - periods drawn log-uniformly from a decade-spanning range, so that
//     short- and long-period tasks are equally represented;
//   - WCET_i = round(u_i * T_i), implicit deadlines, RM priorities.
//
// All generators take an explicit RNG so every experiment is reproducible
// from its seed.

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "rt/task.hpp"
#include "rt/taskset.hpp"
#include "rt/time.hpp"

namespace sps::rt {

using Rng = std::mt19937_64;

/// UUniFast (Bini & Buttazzo): n utilizations uniformly distributed over
/// the simplex { u : sum(u) = total_util, u_i >= 0 }. Individual values may
/// exceed 1 when total_util > 1; use UUniFastDiscard to forbid that.
std::vector<double> UUniFast(std::size_t n, double total_util, Rng& rng);

/// UUniFastDiscard's give-up: no draw within the redraw budget kept
/// every u_i <= max_task_util. Happens when n * max_task_util is at or
/// just above total_util, where almost every draw breaks the cap.
class GeneratorGaveUp : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// UUniFast, redrawing the whole vector until every u_i <= max_task_util.
/// Needed for multiprocessor experiments where total_util can exceed 1.
/// Throws std::invalid_argument if n * max_task_util < total_util
/// (impossible to satisfy), GeneratorGaveUp if the redraws run out.
std::vector<double> UUniFastDiscard(std::size_t n, double total_util,
                                    double max_task_util, Rng& rng);

struct GeneratorConfig {
  std::size_t num_tasks = 16;
  double total_utilization = 2.0;
  /// Upper bound on any single task's utilization. FP-TS distinguishes
  /// light/heavy tasks; experiments sweep this too.
  double max_task_utilization = 1.0;
  /// Periods drawn log-uniformly from [period_min, period_max], then
  /// rounded down to a whole millisecond but not below period_min (keeps
  /// hyperperiods sane for the simulator) ...
  Time period_min = Millis(10);
  Time period_max = Millis(1000);
  /// ... unless this is non-empty: then periods are drawn uniformly from
  /// the given discrete set. Industrial (e.g. automotive) systems use a
  /// small menu of harmonic periods — 1/2/5/10/20/50/100/200/1000 ms is
  /// the classic benchmark distribution — which also keeps hyperperiods
  /// tiny for the simulator.
  std::vector<Time> period_choices;
  /// If true (default) deadlines are implicit (D = T); otherwise drawn
  /// uniformly from [C + 0.5*(T-C), T].
  bool implicit_deadlines = true;
};

/// Generate one task set per the config, with RM priorities assigned.
/// Every task has wcet >= 1 ns; the achieved total utilization can deviate
/// slightly from the target because of integer rounding of WCETs.
TaskSet GenerateTaskSet(const GeneratorConfig& cfg, Rng& rng);

/// Draw one period log-uniformly per the config.
Time DrawPeriod(const GeneratorConfig& cfg, Rng& rng);

}  // namespace sps::rt
