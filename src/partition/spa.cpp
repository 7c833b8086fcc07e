#include "partition/spa.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/overhead_aware.hpp"
#include "analysis/rta.hpp"
#include "partition/verify.hpp"

namespace sps::partition {

double HeavyThreshold(std::size_t n) {
  const double theta =
      n == 0 ? analysis::kLiuLaylandLimit : analysis::LiuLaylandBound(n);
  return theta / (1.0 + theta);
}

namespace {

struct CoreState {
  std::vector<analysis::CoreEntry> entries;
  double utilization = 0.0;
};

class SpaRunner {
 public:
  SpaRunner(const rt::TaskSet& ts, const SpaConfig& cfg)
      : ts_(ts), cfg_(cfg), cores_(cfg.num_cores), parts_(ts.size()) {}

  PartitionResult Run() {
    PartitionResult result;
    result.algorithm = cfg_.preassign_heavy ? "FP-TS(SPA2)" : "FP-TS(SPA1)";
    if (cfg_.split_mode == SplitPriorityMode::kNative) {
      result.algorithm += "/native";
    }
    if (cfg_.fill == FillMode::kLiuLaylandFill) result.algorithm += "/LL";

    // Assignment order: the literal SPA fill processes tasks in
    // decreasing priority order (the utilization-bound proof relies on
    // it); the exact-RTA mode uses decreasing utilization — the SAME
    // order as FFD/WFD — so its whole-task placements coincide with FFD's
    // and splitting strictly adds acceptance on top.
    std::vector<std::size_t> order =
        cfg_.fill == FillMode::kLiuLaylandFill
            ? rt::OrderByPriority(ts_)
            : rt::OrderByDecreasingUtilization(ts_);

    if (cfg_.preassign_heavy && !PreassignHeavy(order, result)) {
      return result;
    }

    if (cfg_.fill == FillMode::kLiuLaylandFill) {
      // Literal SPA fill: one core at a time up to the Liu & Layland
      // threshold, splitting the overflow, never revisiting a core.
      unsigned cursor = 0;
      for (const std::size_t ti : order) {
        if (!PlaceTaskSequential(ti, cursor, result)) return result;
      }
    } else {
      // Exact-RTA mode: whole tasks first-fit over all cores (a strict
      // superset of FFD's options), splitting only genuine overflow.
      for (const std::size_t ti : order) {
        if (!PlaceTaskFirstFit(ti, result)) return result;
      }
    }

    Partition p = Assemble();
    const PartitionAnalysis verdict = AnalyzePartition(p, cfg_.model);
    if (!verdict.schedulable) {
      result.failure_reason = "verifier rejected: " + verdict.failure_reason;
      return result;
    }
    result.success = true;
    result.partition = std::move(p);
    return result;
  }

 private:
  rt::Priority PartPriority(const rt::Task& t) const {
    return cfg_.split_mode == SplitPriorityMode::kElevated
               ? t.priority
               : t.priority + kNormalPriorityBase;
  }

  static rt::Priority NormalPriority(const rt::Task& t) {
    return t.priority + kNormalPriorityBase;
  }

  /// Admission: is core `c` schedulable with `cand` appended? On success
  /// returns the candidate's response time via `resp_out`.
  bool Admits(unsigned c, const analysis::CoreEntry& cand,
              Time* resp_out) const {
    const double u = cores_[c].utilization +
                     static_cast<double>(cand.exec) /
                         static_cast<double>(cand.period);
    if (cfg_.fill == FillMode::kLiuLaylandFill) {
      const std::size_t n = cores_[c].entries.size() + 1;
      if (u > analysis::LiuLaylandBound(n) + 1e-12) return false;
      if (resp_out != nullptr) *resp_out = cand.exec;  // optimistic; the
      // final verifier recomputes real responses.
      return true;
    }
    // The bin packers' O(1) screen, exact for RTA: at raw U > 1 the
    // lowest-priority entry has no response fixpoint within its period
    // (or busy window), and inflation and jitter only add to that.
    // Unspanned, like the probe below: the kUtilScreen and kAnalysis
    // span counts stay FFD/WFD's.
    if (u > 1.0 + 1e-12) return false;
    const Time r =
        analysis::CandidateResponse(cores_[c].entries, cand, cfg_.model);
    if (r == kTimeNever) return false;
    if (resp_out != nullptr) *resp_out = r;
    return true;
  }

  analysis::CoreEntry MakeEntry(const rt::Task& t, Time exec, Time deadline,
                                Time jitter,
                                analysis::EntryKind kind) const {
    analysis::CoreEntry e;
    e.exec = exec;
    e.period = t.period;
    e.deadline = deadline;
    e.jitter = jitter;
    e.kind = kind;
    e.id = t.id;
    e.dest_queue_size = kConservativeQueueSize;
    e.first_core_queue_size = kConservativeQueueSize;
    const bool is_subtask = kind != analysis::EntryKind::kNormal;
    e.priority = is_subtask ? PartPriority(t) : NormalPriority(t);
    return e;
  }

  void Commit(unsigned c, std::size_t ti, const analysis::CoreEntry& e) {
    cores_[c].entries.push_back(e);
    cores_[c].utilization += static_cast<double>(e.exec) /
                             static_cast<double>(e.period);
    parts_[ti].push_back(SubtaskPlacement{c, e.exec, e.priority});
  }

  bool PreassignHeavy(std::vector<std::size_t>& order,
                      PartitionResult& result) {
    const double threshold = HeavyThreshold(0);
    std::vector<std::size_t> heavy;
    for (const std::size_t ti : order) {
      if (ts_[ti].utilization() > threshold) heavy.push_back(ti);
    }
    if (heavy.empty()) return true;
    // Heaviest first onto the highest-numbered cores.
    std::sort(heavy.begin(), heavy.end(), [&](std::size_t a, std::size_t b) {
      return ts_[a].utilization() > ts_[b].utilization();
    });
    if (heavy.size() > cfg_.num_cores) {
      // SPA2's pre-assignment is impossible; Spa2() falls back to SPA1.
      result.failure_reason = "more heavy tasks than cores";
      return false;
    }
    unsigned core = cfg_.num_cores;
    for (const std::size_t ti : heavy) {
      --core;
      const rt::Task& t = ts_[ti];
      const analysis::CoreEntry e =
          MakeEntry(t, t.wcet, t.deadline, 0, analysis::EntryKind::kNormal);
      if (!Admits(core, e, nullptr)) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "heavy tau%u (u=%.3f) unschedulable alone", t.id,
                      t.utilization());
        result.failure_reason = buf;
        return false;
      }
      Commit(core, ti, e);
    }
    order.erase(std::remove_if(
                    order.begin(), order.end(),
                    [&](std::size_t ti) { return !parts_[ti].empty(); }),
                order.end());
    return true;
  }

  /// Try the whole remainder of task ti on core c (normal task if nothing
  /// was placed yet, tail subtask otherwise).
  bool TryWhole(std::size_t ti, unsigned c, Time remaining,
                Time consumed_resp) {
    const rt::Task& t = ts_[ti];
    const analysis::EntryKind kind = parts_[ti].empty()
                                         ? analysis::EntryKind::kNormal
                                         : analysis::EntryKind::kTail;
    const analysis::CoreEntry e =
        MakeEntry(t, remaining, t.deadline, consumed_resp, kind);
    if (!Admits(c, e, nullptr)) return false;
    Commit(c, ti, e);
    return true;
  }

  /// Largest body budget for task ti that core c admits while leaving the
  /// remainder a fighting chance downstream. Returns 0 if none.
  Time MaxBodyBudget(std::size_t ti, unsigned c, Time remaining,
                     Time consumed_resp, Time* resp_out) {
    const rt::Task& t = ts_[ti];
    const Time max_b = remaining - kMinBudget;
    if (max_b < kMinBudget) return 0;
    const analysis::EntryKind kind = parts_[ti].empty()
                                         ? analysis::EntryKind::kBodyFirst
                                         : analysis::EntryKind::kBodyMiddle;
    Time best = 0;
    Time lo = kMinBudget;
    Time hi = max_b;
    while (lo <= hi) {
      const Time mid_raw = lo + (hi - lo) / 2;
      const Time mid =
          std::max(kMinBudget, mid_raw - mid_raw % kBudgetGranularity);
      // Chain reserve: the remainder needs at least (remaining - B) time
      // after this subtask's completion.
      const Time chain_deadline = t.deadline - (remaining - mid);
      const analysis::CoreEntry e =
          MakeEntry(t, mid, chain_deadline, consumed_resp, kind);
      Time resp = 0;
      const bool ok =
          chain_deadline > consumed_resp && Admits(c, e, &resp);
      if (ok) {
        best = mid;
        if (resp_out != nullptr) *resp_out = resp;
        lo = mid + kBudgetGranularity;
      } else {
        hi = mid - kBudgetGranularity;
      }
    }
    return best;
  }

  void CommitBody(std::size_t ti, unsigned c, Time budget, Time remaining,
                  Time consumed_resp) {
    const rt::Task& t = ts_[ti];
    const analysis::EntryKind kind = parts_[ti].empty()
                                         ? analysis::EntryKind::kBodyFirst
                                         : analysis::EntryKind::kBodyMiddle;
    const analysis::CoreEntry e =
        MakeEntry(t, budget, t.deadline - (remaining - budget),
                  consumed_resp, kind);
    Commit(c, ti, e);
  }

  /// Exact-RTA placement: first-fit the whole task; on overflow, split it
  /// greedily across cores in index order. Strictly dominates FFD: when a
  /// task fits whole somewhere the outcome is first-fit, and splitting
  /// only adds placements FFD does not have.
  bool PlaceTaskFirstFit(std::size_t ti, PartitionResult& result) {
    for (unsigned c = 0; c < cfg_.num_cores; ++c) {
      if (TryWhole(ti, c, ts_[ti].wcet, 0)) return true;
    }
    // Split across cores, largest feasible budget per core.
    Time remaining = ts_[ti].wcet;
    Time consumed_resp = 0;
    for (unsigned c = 0; c < cfg_.num_cores && remaining > 0; ++c) {
      if (!parts_[ti].empty() && TryWhole(ti, c, remaining, consumed_resp)) {
        return true;
      }
      Time resp = 0;
      const Time b =
          MaxBodyBudget(ti, c, remaining, consumed_resp, &resp);
      if (b >= kMinBudget) {
        CommitBody(ti, c, b, remaining, consumed_resp);
        remaining -= b;
        consumed_resp += resp;
      }
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "tau%u: ran out of cores", ts_[ti].id);
    result.failure_reason = buf;
    return false;
  }

  /// Literal SPA fill: fill core `cursor` to the utilization threshold,
  /// split the overflow onto the next core, never revisit.
  bool PlaceTaskSequential(std::size_t ti, unsigned& cursor,
                           PartitionResult& result) {
    const rt::Task& t = ts_[ti];
    Time remaining = t.wcet;
    Time consumed_resp = 0;
    while (true) {
      if (cursor >= cfg_.num_cores) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "tau%u: ran out of cores", t.id);
        result.failure_reason = buf;
        return false;
      }
      if (TryWhole(ti, cursor, remaining, consumed_resp)) return true;
      Time resp = 0;
      const Time b =
          MaxBodyBudget(ti, cursor, remaining, consumed_resp, &resp);
      if (b >= kMinBudget) {
        CommitBody(ti, cursor, b, remaining, consumed_resp);
        remaining -= b;
        consumed_resp += resp;
      }
      ++cursor;  // core is full either way; SPA never goes back
    }
  }

  Partition Assemble() const {
    Partition p;
    p.num_cores = cfg_.num_cores;
    for (std::size_t ti = 0; ti < ts_.size(); ++ti) {
      PlacedTask pt;
      pt.task = ts_[ti];
      pt.parts = parts_[ti];
      p.tasks.push_back(std::move(pt));
    }
    return p;
  }

  const rt::TaskSet& ts_;
  const SpaConfig& cfg_;
  std::vector<CoreState> cores_;
  std::vector<std::vector<SubtaskPlacement>> parts_;
};

}  // namespace

PartitionResult SpaPartition(const rt::TaskSet& ts, const SpaConfig& cfg) {
  if (!ts.priorities_assigned()) {
    PartitionResult r;
    r.algorithm = "FP-TS";
    r.failure_reason = "task set has no priority assignment";
    return r;
  }
  SpaRunner runner(ts, cfg);
  PartitionResult r = runner.Run();
  if (!r.success && cfg.preassign_heavy) {
    // SPA2 degrades gracefully to SPA1 when pre-assignment is impossible
    // or counter-productive for this set (SPA2 >= SPA1 by construction).
    SpaConfig spa1 = cfg;
    spa1.preassign_heavy = false;
    SpaRunner fallback(ts, spa1);
    PartitionResult r1 = fallback.Run();
    if (r1.success) {
      r1.algorithm = "FP-TS(SPA2->SPA1)";
      return r1;
    }
  }
  return r;
}

}  // namespace sps::partition
