#include "analysis/edf.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "analysis/overhead_aware.hpp"

namespace sps::analysis {

Time Dbf(const EdfTask& task, Time t) {
  const Time effective = t + task.jitter - task.deadline;
  if (effective < 0) return 0;
  return (effective / task.period + 1) * task.wcet;
}

namespace {

/// Total utilization of the core's tasks (inflated WCETs).
double EdfUtilization(std::span<const EdfTask> tasks) {
  double u = 0.0;
  for (const EdfTask& t : tasks) {
    u += static_cast<double>(t.wcet) / static_cast<double>(t.period);
  }
  return u;
}

/// Check bound for a set whose utilization is 1 up to rounding: H +
/// max(D - J), where H is the hyperperiod. For U <= 1 the demand bound
/// function satisfies dbf(t + H) <= dbf(t) + U*H <= dbf(t) + H, so the
/// first violation, if any, lies at or before H. Returns 0 (no bound)
/// unless every D - J is positive, U <= 1 holds EXACTLY (in integers),
/// and the bound fits in `cap`.
Time HyperperiodBound(std::span<const EdfTask> tasks, Time cap) {
  Time h = 1;
  Time d_max = 0;
  for (const EdfTask& t : tasks) {
    const Time d = t.deadline - t.jitter;
    if (d <= 0 || t.period <= 0) return 0;
    d_max = std::max(d_max, d);
    const Time g = std::gcd(h, t.period);
    if (h / g > cap / t.period) return 0;  // the hyperperiod exceeds cap
    h = h / g * t.period;
  }
  if (h > cap - d_max) return 0;
  Time demand = 0;  // sum of C * H / T: U <= 1 iff demand <= H
  for (const EdfTask& t : tasks) {
    const Time jobs = h / t.period;
    if (t.wcet > (h - demand) / jobs) return 0;
    demand += t.wcet * jobs;
  }
  return h + d_max;
}

}  // namespace

EdfResult EdfDemandTest(std::span<const EdfTask> tasks, Time max_horizon) {
  EdfResult res;
  if (tasks.empty()) {
    res.schedulable = true;
    return res;
  }
  const double u = EdfUtilization(tasks);
  if (u > 1.0 + 1e-12) return res;

  // Demand needs checking only up to the utilization-slack bound
  // L_a = sum u_i (T_i - D_i + J_i) / (1 - U), and no earlier than the
  // first absolute deadline.
  Time horizon = 0;
  if (u < 1.0 - 1e-9) {
    double la = 0.0;
    for (const EdfTask& t : tasks) {
      const double ui =
          static_cast<double>(t.wcet) / static_cast<double>(t.period);
      la += ui * static_cast<double>(t.period - t.deadline + t.jitter);
    }
    la /= (1.0 - u);
    horizon = static_cast<Time>(la) + 1;
  } else {
    // U == 1: the theoretical bound is the hyperperiod; when it does not
    // fit, fall back to the configured cap.
    horizon = HyperperiodBound(tasks, max_horizon);
    if (horizon == 0) horizon = max_horizon;
  }
  for (const EdfTask& t : tasks) {
    horizon = std::max(horizon, t.deadline - t.jitter);
  }
  const bool capped = horizon > max_horizon && u >= 1.0 - 1e-9;
  horizon = std::min(horizon, max_horizon);
  res.horizon = horizon;

  // Check every absolute-deadline point up to the horizon.
  std::vector<Time> points;
  for (const EdfTask& t : tasks) {
    for (Time d = t.deadline - t.jitter; d <= horizon; d += t.period) {
      if (d > 0) points.push_back(d);
      if (d > horizon - t.period) break;  // avoid overflow on huge T
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  for (const Time t : points) {
    Time demand = 0;
    for (const EdfTask& task : tasks) demand += Dbf(task, t);
    if (demand > t) {
      res.violation_at = t;
      return res;
    }
  }
  if (capped) {
    // Demand fit everywhere we looked, but the sound bound exceeded the
    // cap: reject conservatively.
    return res;
  }
  res.schedulable = true;
  return res;
}

std::vector<EdfTask> InflateEdfCore(std::span<const EdfCoreEntry> entries,
                                    const overhead::OverheadModel& model,
                                    std::size_t n_local) {
  if (n_local == 0) n_local = entries.size();
  std::vector<EdfTask> out;
  out.reserve(entries.size());
  for (const EdfCoreEntry& e : entries) {
    // Reuse the fixed-priority inflation arithmetic via a CoreEntry
    // facade; the per-job charges are policy-independent.
    CoreEntry fp;
    fp.exec = e.exec;
    fp.period = e.period;
    fp.deadline = e.deadline;
    fp.kind = static_cast<EntryKind>(e.kind);
    fp.dest_queue_size = e.dest_queue_size;
    fp.first_core_queue_size = e.first_core_queue_size;
    fp.id = e.id;
    Time c = InflatedExec(fp, model, n_local);
    // Demand analysis has no separate per-arrival interference term, so
    // the release-path cost is folded straight into the job's demand.
    const bool migrated = fp.kind == EntryKind::kBodyMiddle ||
                          fp.kind == EntryKind::kTail;
    c += migrated ? model.sched_overhead(n_local, true)
                  : model.release_overhead(n_local);
    out.push_back(EdfTask{.wcet = c,
                          .period = e.period,
                          .deadline = e.deadline,
                          .jitter = e.jitter,
                          .check = true,
                          .id = e.id});
  }
  return out;
}

}  // namespace sps::analysis
