#include "partition/spa.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/bounds.hpp"
#include "analysis/overhead_aware.hpp"
#include "partition/packing.hpp"

namespace sps::partition {

double HeavyThreshold(std::size_t n) {
  const double theta =
      n == 0 ? analysis::kLiuLaylandLimit : analysis::LiuLaylandBound(n);
  return theta / (1.0 + theta);
}

namespace {

struct CoreState {
  explicit CoreState(const overhead::OverheadModel& model)
      : probe({}, model) {}

  std::vector<analysis::CoreEntry> entries;
  double utilization = 0.0;
  /// The exact-RTA probe of `entries`, rebuilt by every Commit, so all
  /// the probes of a placement step share one inflation of the core.
  analysis::FpCoreProbe probe;
};

class SpaRunner {
 public:
  SpaRunner(const rt::TaskSet& ts, const SpaConfig& cfg)
      : ts_(ts),
        cfg_(cfg),
        cores_(cfg.num_cores, CoreState(cfg.model)),
        parts_(ts.size()) {}

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

    unsigned cursor = 0;  // the literal fill's open core
    for (const std::size_t ti : order) {
      const bool placed = cfg_.fill == FillMode::kLiuLaylandFill
                              ? PlaceTaskSequential(ti, cursor)
                              : PlaceTaskFirstFit(ti);
      if (!placed) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "tau%u: ran out of cores",
                      ts_[ti].id);
        result.failure_reason = buf;
        return result;
      }
    }
    return FinishPartition(std::move(parts_), ts_, cfg_.num_cores,
                           SchedPolicy::kFixedPriority, cfg_.model,
                           std::move(result.algorithm));
  }

 private:
  /// What is left of a task's split chain: the WCET not yet placed, and
  /// the summed responses of its placed subtasks (the release jitter of
  /// the next one).
  struct Chain {
    Time remaining = 0;
    Time consumed_resp = 0;
  };

  /// Admission: is core `c` schedulable with `cand` appended? On success
  /// returns the candidate's response time via `resp_out`; without it
  /// the probe may settle the candidate's check in one evaluation too.
  bool Admits(unsigned c, const analysis::CoreEntry& cand,
              Time* resp_out) {
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
    // Unspanned, like the core's probe after it: the kUtilScreen and
    // kAnalysis span counts stay FFD/WFD's.
    if (u > 1.0 + 1e-12) return false;
    if (resp_out == nullptr) return cores_[c].probe.Admits(cand);
    const Time r = cores_[c].probe.Response(cand);
    if (r == kTimeNever) return false;
    *resp_out = r;
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
    // Elevated subtasks keep the raw RM priority, below
    // kNormalPriorityBase, so they outrank every normal task on the core.
    const bool elevated = kind != analysis::EntryKind::kNormal &&
                          cfg_.split_mode == SplitPriorityMode::kElevated;
    e.priority = elevated ? t.priority : t.priority + kNormalPriorityBase;
    return e;
  }

  void Commit(unsigned c, std::size_t ti, const analysis::CoreEntry& e) {
    CoreState& core = cores_[c];
    core.entries.push_back(e);
    core.utilization += static_cast<double>(e.exec) /
                        static_cast<double>(e.period);
    core.probe = analysis::FpCoreProbe(core.entries, cfg_.model);
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
  bool TryWhole(std::size_t ti, unsigned c, const Chain& chain) {
    const rt::Task& t = ts_[ti];
    const analysis::EntryKind kind = parts_[ti].empty()
                                         ? analysis::EntryKind::kNormal
                                         : analysis::EntryKind::kTail;
    const analysis::CoreEntry e = MakeEntry(t, chain.remaining, t.deadline,
                                            chain.consumed_resp, kind);
    if (!Admits(c, e, nullptr)) return false;
    Commit(c, ti, e);
    return true;
  }

  /// The chain step of both fill modes on core c: the remainder of task
  /// ti whole (TryWhole; skipped when `try_whole` is off), or else the
  /// largest body budget that c admits while leaving the remainder a
  /// fighting chance downstream, committed with the chain advanced past
  /// it. A core that admits no budget of at least kMinBudget gets
  /// nothing. Returns true once the task is placed in full.
  bool ChainStep(std::size_t ti, unsigned c, bool try_whole, Chain& chain) {
    if (try_whole && TryWhole(ti, c, chain)) return true;
    const rt::Task& t = ts_[ti];
    const analysis::EntryKind kind = parts_[ti].empty()
                                         ? analysis::EntryKind::kBodyFirst
                                         : analysis::EntryKind::kBodyMiddle;
    analysis::CoreEntry body;
    Time body_resp = 0;
    const Time budget = LargestAdmitted(
        kMinBudget, chain.remaining - kMinBudget, [&](Time b) {
          // Chain reserve: the remainder needs at least (remaining - b)
          // time after this subtask's completion.
          const Time chain_deadline = t.deadline - (chain.remaining - b);
          if (chain_deadline <= chain.consumed_resp) return false;
          const analysis::CoreEntry e =
              MakeEntry(t, b, chain_deadline, chain.consumed_resp, kind);
          if (!Admits(c, e, &body_resp)) return false;
          body = e;
          return true;
        });
    if (budget > 0) {
      Commit(c, ti, body);
      chain.remaining -= budget;
      chain.consumed_resp += body_resp;
    }
    return false;
  }

  /// Exact-RTA placement: first-fit the whole task; on overflow, split it
  /// greedily across cores in index order. Strictly dominates FFD: when a
  /// task fits whole somewhere the outcome is first-fit, and splitting
  /// only adds placements FFD does not have.
  bool PlaceTaskFirstFit(std::size_t ti) {
    Chain chain{.remaining = ts_[ti].wcet};
    for (unsigned c = 0; c < cfg_.num_cores; ++c) {
      if (TryWhole(ti, c, chain)) return true;
    }
    // The whole task failed everywhere: the remainder is tried whole
    // again only once the chain has a body.
    for (unsigned c = 0; c < cfg_.num_cores; ++c) {
      if (ChainStep(ti, c, !parts_[ti].empty(), chain)) return true;
    }
    return false;
  }

  /// Literal SPA fill: fill core `cursor` to the utilization threshold,
  /// split the overflow onto the next core, never revisit.
  bool PlaceTaskSequential(std::size_t ti, unsigned& cursor) {
    Chain chain{.remaining = ts_[ti].wcet};
    for (; cursor < cfg_.num_cores; ++cursor) {
      if (ChainStep(ti, cursor, /*try_whole=*/true, chain)) return true;
    }
    return false;
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
