#pragma once
// Execution tracing for the scheduler simulator: a flat, time-ordered list
// of scheduler-level events. Consumed by the Gantt renderer (gantt.hpp),
// the Figure-1 bench (which prints the annotated overhead timeline), and
// tests that assert on scheduling decisions.

#include <cstdint>
#include <string>

#include "rt/task.hpp"
#include "rt/time.hpp"

namespace sps::trace {

enum class EventKind : std::uint8_t {
  kRelease,        ///< job released (timer fired, rls overhead begins)
  kStart,          ///< job begins/resumes execution on a core
  kPreempt,        ///< running job preempted (back to ready queue)
  kFinish,         ///< job completed all execution
  kMigrateOut,     ///< body subtask budget exhausted; leaving this core
  kMigrateIn,      ///< subtask arrived on the destination core
  kDeadlineMiss,   ///< job completed after (or never by) its deadline
  kJobShed,        ///< release skipped: previous job still active
  kOverheadBegin,  ///< core starts an overhead segment
  kOverheadEnd,    ///< core finishes an overhead segment
  kIdle,           ///< core went idle
};

/// Which overhead segment an kOverheadBegin/End pair represents —
/// Figure 1's vocabulary.
enum class OverheadKind : std::uint8_t {
  kNone,
  kRls,    ///< release(): sleep-queue delete + body + ready-queue insert
  kSch,    ///< sch(): selection, possible requeue of the preempted task
  kCnt1,   ///< cnt_swth(): context store/load on switch-in
  kCnt2,   ///< cnt_swth() finish path: sleep/ready insert variants
  kCache,  ///< CPMD: working-set reload on resume (charged as execution)
};

const char* ToString(EventKind k);
const char* ToString(OverheadKind k);

struct Event {
  Time time = 0;
  std::uint32_t core = 0;
  EventKind kind = EventKind::kRelease;
  OverheadKind overhead = OverheadKind::kNone;
  rt::TaskId task = 0;
  std::uint64_t job = 0;   ///< per-task job sequence number
  Time duration = 0;       ///< for overhead / run segments where known
};

/// One line per event, e.g. "[  12.500ms] core1 MIGRATE_IN  tau3 job4".
std::string FormatEvent(const Event& e);

}  // namespace sps::trace
