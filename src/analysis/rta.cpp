#include "analysis/rta.hpp"

#include <algorithm>

namespace sps::analysis {

namespace {

/// What every other task puts into a window of length x before tau_i
/// finishes: higher-priority tasks their full execution per arrival, and
/// every task the release overhead of each arrival.
Time Interference(std::span<const RtaTask> tasks, std::size_t index,
                  Time x) {
  const RtaTask& ti = tasks[index];
  Time demand = 0;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    if (j == index) continue;
    const RtaTask& tj = tasks[j];
    const Time arrivals = CeilDiv(x + tj.jitter, tj.period);
    if (tj.priority < ti.priority) demand += arrivals * tj.wcet;
    demand += arrivals * tj.release_cost;
  }
  return demand;
}

}  // namespace

Time RtaDemand(std::span<const RtaTask> tasks, std::size_t index, Time x) {
  const RtaTask& ti = tasks[index];
  return ti.wcet + ti.release_cost + Interference(tasks, index, x);
}

Time ResponseTime(std::span<const RtaTask> tasks, std::size_t index,
                  Time limit) {
  const RtaTask& ti = tasks[index];
  const Time a = ti.wcet + ti.release_cost;
  // The start value r0 = max(a + sum p_j, floor(a / (1 - b + eps))), a
  // lower bound of the least fixed point (rta.hpp), with p_j what one
  // arrival of task j costs and b = sum p_j / T_j. eps is additive: it
  // absorbs the rounding of b, which a relative margin cannot once
  // 1 - b is as small as that rounding.
  constexpr double kStartSlack = 1e-9;
  Time sum_p = 0;
  double b = 0.0;
  for (std::size_t j = 0; j < tasks.size(); ++j) {
    if (j == index) continue;
    const RtaTask& tj = tasks[j];
    const Time p =
        (tj.priority < ti.priority ? tj.wcet : 0) + tj.release_cost;
    sum_p += p;
    b += static_cast<double>(p) / static_cast<double>(tj.period);
  }
  Time r = a;
  // Without interference (or own demand) r0 is a itself, and the loop
  // below is the plain iteration: f(a) == a returns a even past limit.
  if (a > 0 && sum_p > 0) {
    const double slack = 1.0 - b + kStartSlack;
    // b >= 1: f(x) - x >= a > 0 for every x, so there is no fixed point.
    if (slack <= 0.0) return kTimeNever;
    const double bound = static_cast<double>(a) / slack;
    const Time from_b = bound < 9.0e18 ? static_cast<Time>(bound) : kTimeNever;
    r = std::max(a + sum_p, from_b);
    // r0 > a, so the plain iteration would have climbed past limit too.
    if (r > limit) return kTimeNever;
  }
  while (true) {
    const Time next = RtaDemand(tasks, index, r);
    if (next == r) return r;
    if (next > limit) return kTimeNever;
    r = next;
  }
}

Time ResponseTimeArbitrary(std::span<const RtaTask> tasks,
                           std::size_t index, Time limit) {
  const RtaTask& ti = tasks[index];
  const Time job = ti.wcet + ti.release_cost;

  // Level-i busy window: all of tau_i's own arrivals plus everything of
  // higher priority (and every task's release overhead).
  Time window = job;
  while (true) {
    const Time next = CeilDiv(window + ti.jitter, ti.period) * job +
                      Interference(tasks, index, window);
    if (next == window) break;
    if (next > limit) return kTimeNever;
    window = next;
  }

  const Time instances = CeilDiv(window + ti.jitter, ti.period);
  Time worst = 0;
  for (Time q = 0; q < instances; ++q) {
    // Finish time of the (q+1)-th job in the busy window.
    Time f = (q + 1) * ti.wcet + ti.release_cost;
    while (true) {
      const Time next = (q + 1) * job + Interference(tasks, index, f);
      if (next == f) break;
      if (next > limit) return kTimeNever;
      f = next;
    }
    // Response measured from the q-th NOMINAL release (q*T into the
    // window); callers add the task's own jitter for the deadline check,
    // matching the ResponseTime/AnalyzeCore convention.
    worst = std::max(worst, f - q * ti.period);
  }
  return worst;
}

Time WorstCaseResponse(std::span<const RtaTask> tasks, std::size_t i,
                       Time limit) {
  const RtaTask& t = tasks[i];
  // Arbitrary deadlines (D > T) need the busy-window analysis: the
  // window legitimately spans several jobs, so its fixpoint limit must
  // be far beyond one deadline.
  if (t.deadline > t.period) {
    return ResponseTimeArbitrary(tasks, i,
                                 std::max<Time>(limit, 64 * t.period));
  }
  return ResponseTime(tasks, i, limit);
}

namespace {

/// R_i as AnalyzeCore reports it: kTimeNever when the budget D_i - J_i
/// cannot hold the WCET or the fixpoint overruns its limit.
Time CoreResponse(std::span<const RtaTask> tasks, std::size_t i) {
  const RtaTask& t = tasks[i];
  const Time budget = t.deadline - t.jitter;
  if (budget < t.wcet) return kTimeNever;
  return WorstCaseResponse(tasks, i, budget);
}

bool MeetsDeadline(const RtaTask& t, Time r) {
  return r != kTimeNever && r + t.jitter <= t.deadline;
}

}  // namespace

Time CheckedResponse(std::span<const RtaTask> tasks, std::size_t i) {
  if (!tasks[i].check) return 0;
  const Time r = CoreResponse(tasks, i);
  return MeetsDeadline(tasks[i], r) ? r : kTimeNever;
}

bool PassesCheck(std::span<const RtaTask> tasks, std::size_t i) {
  const RtaTask& t = tasks[i];
  if (!t.check) return true;
  const Time budget = t.deadline - t.jitter;
  if (t.deadline <= t.period && budget >= t.wcet &&
      RtaDemand(tasks, i, budget) <= budget) {
    return true;
  }
  return CheckedResponse(tasks, i) != kTimeNever;
}

RtaResult AnalyzeCore(std::span<const RtaTask> tasks) {
  RtaResult res;
  res.schedulable = true;
  res.response.assign(tasks.size(), 0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (!tasks[i].check) continue;
    const Time r = CoreResponse(tasks, i);
    res.response[i] = r;
    if (!MeetsDeadline(tasks[i], r)) {
      res.schedulable = false;
      if (res.first_failure == SIZE_MAX) res.first_failure = i;
    }
  }
  return res;
}

}  // namespace sps::analysis
