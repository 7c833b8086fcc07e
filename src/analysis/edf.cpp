#include "analysis/edf.hpp"

#include <algorithm>
#include <numeric>

#include "analysis/overhead_aware.hpp"

namespace sps::analysis {

Time Dbf(const EdfTask& task, Time t) {
  if (t < task.deadline) return 0;
  return ((t - task.deadline) / task.period + 1) * task.wcet;
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
/// max D, where H is the hyperperiod. For U <= 1 the demand bound
/// function satisfies dbf(t + H) <= dbf(t) + U*H <= dbf(t) + H, so the
/// first violation, if any, lies at or before H. Returns 0 (no bound)
/// unless every D and T is positive, U <= 1 holds EXACTLY (in integers),
/// and the bound fits in `cap`.
Time HyperperiodBound(std::span<const EdfTask> tasks, Time cap) {
  Time h = 1;
  Time d_max = 0;
  for (const EdfTask& t : tasks) {
    if (t.deadline <= 0 || t.period <= 0) return 0;
    d_max = std::max(d_max, t.deadline);
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

/// Smallest deadline D_i at or before `horizon`; 0 when there is none.
Time FirstPoint(std::span<const EdfTask> tasks, Time horizon) {
  Time best = 0;
  for (const EdfTask& t : tasks) {
    if (t.deadline <= horizon && (best == 0 || t.deadline < best)) {
      best = t.deadline;
    }
  }
  return best;
}

/// Total demand h(t) = sum dbf_i(t); also stores in `*before` the
/// largest positive point strictly before t (0 when there is none).
Time DemandAndPointBefore(std::span<const EdfTask> tasks, Time t,
                          Time* before) {
  Time demand = 0;
  Time prev = 0;
  for (const EdfTask& task : tasks) {
    const Time d = task.deadline;
    if (d > t) continue;
    const Time k = (t - d) / task.period;  // points d .. d + kT are <= t
    demand += (k + 1) * task.wcet;
    if (d + k * task.period < t) {
      prev = std::max(prev, d + k * task.period);
    } else if (k > 0) {
      prev = std::max(prev, d + (k - 1) * task.period);
    }
  }
  *before = prev;
  return demand;
}

/// First point in [first, last] whose demand exceeds it; the caller
/// knows one exists. Walks every point forward (reject path only).
Time FirstViolation(std::span<const EdfTask> tasks, Time first, Time last) {
  Time t = first;
  while (true) {
    Time demand = 0;
    Time gap = 0;  // distance to the next point after t
    for (const EdfTask& task : tasks) {
      demand += Dbf(task, t);
      const Time d = task.deadline;
      const Time g = d > t ? d - t : task.period - (t - d) % task.period;
      if (gap == 0 || g < gap) gap = g;
    }
    if (demand > t || gap > last - t) return t;
    t += gap;
  }
}

/// EdfDemandTest; a reject walks forward to the first violating point
/// only when `first_violation` asks for it.
EdfResult DemandTest(std::span<const EdfTask> tasks, Time max_horizon,
                     bool first_violation) {
  EdfResult res;
  if (tasks.empty()) {
    res.schedulable = true;
    return res;
  }
  const double u = EdfUtilization(tasks);
  if (u > 1.0 + 1e-12) return res;

  // Demand needs checking only up to the utilization-slack bound
  // L_a = sum u_i (T_i - D_i) / (1 - U), and no earlier than the
  // largest relative deadline.
  Time horizon = 0;
  if (u < 1.0 - 1e-9) {
    double la = 0.0;
    for (const EdfTask& t : tasks) {
      const double ui =
          static_cast<double>(t.wcet) / static_cast<double>(t.period);
      la += ui * static_cast<double>(t.period - t.deadline);
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
    horizon = std::max(horizon, t.deadline);
  }
  const bool capped = horizon > max_horizon && u >= 1.0 - 1e-9;
  horizon = std::min(horizon, max_horizon);
  res.horizon = horizon;

  // The points checked are the absolute deadlines D_i + k T_i up to the
  // horizon; demand h is constant from one point to the next. QPA (Zhang
  // & Burns, IEEE TC 2009) walks back from the horizon: h(t) <= t clears
  // every point in [h(t), t] (h is monotone), so t jumps to h(t), or to
  // the previous point when h(t) == t. Once h(t) <= the smallest point
  // every point is clear.
  const Time first = FirstPoint(tasks, horizon);
  if (first != 0) {
    Time t = horizon;
    while (true) {
      Time before = 0;
      const Time demand = DemandAndPointBefore(tasks, t, &before);
      if (demand > t) {
        // The largest point <= t violates. Report the first violating
        // point, as a forward walk of every point would.
        if (first_violation) {
          res.violation_at = FirstViolation(tasks, first, t);
        }
        return res;
      }
      if (demand <= first) break;
      t = demand < t ? demand : before;
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

}  // namespace

EdfResult EdfDemandTest(std::span<const EdfTask> tasks, Time max_horizon) {
  return DemandTest(tasks, max_horizon, /*first_violation=*/true);
}

bool EdfSchedulable(std::span<const EdfTask> tasks, Time max_horizon) {
  return DemandTest(tasks, max_horizon, /*first_violation=*/false)
      .schedulable;
}

std::vector<EdfTask> InflateEdfCore(std::span<const EdfCoreEntry> entries,
                                    const overhead::OverheadModel& model,
                                    std::size_t n_local) {
  if (n_local == 0) n_local = entries.size();
  const LocalCharges lc(model, n_local);
  std::vector<EdfTask> out;
  out.reserve(entries.size());
  for (const EdfCoreEntry& e : entries) {
    // The per-job charges are policy-independent. Demand analysis has no
    // separate per-arrival interference term, so the release-path cost
    // is folded straight into the job's demand.
    const auto kind = static_cast<EntryKind>(e.kind);
    const Time c = ChargedExec(e.exec, kind, e.dest_queue_size,
                               e.first_core_queue_size, lc, model) +
                   ReleaseCharge(kind, lc);
    out.push_back(EdfTask{
        .wcet = c, .period = e.period, .deadline = e.deadline, .id = e.id});
  }
  return out;
}

}  // namespace sps::analysis
