#pragma once
// Streaming workload model (DESIGN.md §11): a deterministic, timestamped
// sequence of ADMIT / LEAVE requests — the input of the online admission
// controller (controller.hpp). Everything offline in this repo consumes
// one immutable task set; this is the runtime-facing counterpart where
// tasks arrive and retire while the system keeps running.
//
// Determinism contract (the same one the batch harness lives by,
// DESIGN.md §8): every request's parameters are drawn from an RNG stream
// derived by util::DeriveSeed(seed, request index, axis) — request i's
// task never depends on how many requests precede it or on which thread
// generates it, so streams regenerate bit-identically from (config, seed)
// and batches of streams fan out over the pool bit-identically for any
// job count.
//
// Streams also round-trip through a line-oriented request-trace file
// ("sps-online-stream v1"/"v2": one `admit`/`leave` line per request;
// v2 admit lines append the overload attributes crit/value/tardiness/
// degraded-WCET, and the loader reads both), so captured workloads can
// be replayed, diffed, and shipped into benches. The writer appends a
// trailing `# crc32 <hex>` footer covering every preceding byte
// (DESIGN.md §14); the loader verifies it when present and still loads
// footer-less captures unchanged (old loaders skip it as a comment). The loader is a
// fault-injection surface (DESIGN.md §13): truncated files, overlong
// lines, duplicate admits, LEAVE-before-ADMIT, non-monotone timestamps
// and any text other than what SaveStream writes each yield a TYPED
// StreamError with the offending line number — never UB, never a silent
// false, never a stream that re-saves to different bytes.

#include <cstdint>
#include <string>
#include <vector>

#include "rt/task.hpp"
#include "rt/taskset.hpp"
#include "rt/time.hpp"

namespace sps::online {

enum class RequestKind : std::uint8_t {
  kAdmit,  ///< a new task asks to enter the system
  kLeave,  ///< a resident task retires; its capacity is reclaimed
};

struct Request {
  Time at = 0;                ///< request timestamp
  RequestKind kind = RequestKind::kAdmit;
  rt::TaskId id = 0;          ///< admit: the new task's id; leave: whose
  rt::Task task;              ///< admit only (task.id == id)

  friend bool operator==(const Request&, const Request&) = default;
};

/// A time-ordered request sequence. Ties on `at` keep generation order
/// (the sort below is stable on the sequence index), so replay order is
/// total and deterministic.
class WorkloadStream {
 public:
  WorkloadStream() = default;
  explicit WorkloadStream(std::vector<Request> reqs);

  [[nodiscard]] const std::vector<Request>& requests() const {
    return requests_;
  }
  [[nodiscard]] std::size_t size() const { return requests_.size(); }
  [[nodiscard]] bool empty() const { return requests_.empty(); }
  [[nodiscard]] std::size_t num_admits() const;

  /// Every leave refers to an earlier admit, ids of admits unique,
  /// timestamps non-decreasing, admitted tasks well-formed.
  [[nodiscard]] bool valid() const;

  /// End of the request timeline (0 for an empty stream).
  [[nodiscard]] Time span() const;

 private:
  std::vector<Request> requests_;
};

/// Synthetic stream generator — the online counterpart of
/// rt::GeneratorConfig, reusing its default period recipe (log-uniform
/// over 10-1000 ms, whole milliseconds) per request.
struct StreamConfig {
  std::size_t num_admits = 128;
  /// Fraction of admits that later LEAVE (drawn per request).
  double leave_fraction = 0.5;
  /// Admit timestamps are uniform over [0, span).
  Time span = Millis(10000);
  /// Resident lifetime of leaving tasks, uniform in [min, max].
  Time min_lifetime = Millis(200);
  Time max_lifetime = Millis(4000);
  /// Per-task utilization, uniform in [util_min, util_max].
  double util_min = 0.05;
  double util_max = 0.40;
  /// Overload axis (DESIGN.md §13): fraction of admits generated SOFT
  /// (criticality kSoft), drawn per request from its own seed axis so
  /// soft_fraction = 0 regenerates historical streams bit-identically.
  /// Soft tasks draw value uniformly in [0, 4), tolerate tardiness up
  /// to one period, and degrade to 60% of their WCET.
  double soft_fraction = 0.0;
  /// Deadline-monotonic priorities pre-assigned over the whole stream
  /// (unique; needed by fixed-priority controllers). Always done.
  std::uint64_t seed = 20110318;
};

/// Generate one stream per the config. Request i draws only from streams
/// seeded by DeriveSeed(cfg.seed, i, axis) — see header contract.
WorkloadStream GenerateStream(const StreamConfig& cfg);

/// ADMIT-only stream visiting `ts`'s tasks in the given index order with
/// consecutive timestamps — the bridge from an offline task set to a
/// replayable stream (the differential tests feed the offline
/// partitioners' decreasing-utilization order through this).
WorkloadStream MakeAdmitOnlyStream(const rt::TaskSet& ts,
                                   const std::vector<std::size_t>& order);

/// Typed stream-file failure (DESIGN.md §13). Every malformed input the
/// loader can see maps to exactly one kind; `line` is the 1-based
/// offending line (0 when the failure is not line-scoped, e.g. open()).
/// `message` is the human-readable rendering, always naming the path.
struct StreamError {
  enum class Kind : std::uint8_t {
    kNone,              ///< no error
    kIo,                ///< open/read failed (errno in message)
    kMissingHeader,     ///< first line is not the sps-online-stream magic
    kParse,             ///< line matches neither admit nor leave shape
    kTruncated,         ///< file ends mid-line (no trailing newline)
    kOverlongLine,      ///< line exceeds the loader's line-length bound
    kMalformedTask,     ///< admit with invalid C/D/T or attributes
    kDuplicateAdmit,    ///< second admit of an already-seen task id
    kLeaveWithoutAdmit, ///< leave of an id that is not resident
    kNonMonotoneTime,   ///< timestamp earlier than the previous request
    kCrcMismatch,       ///< the '# crc32' footer does not cover the bytes
  };
  Kind kind = Kind::kNone;
  int line = 0;
  std::string message;

  [[nodiscard]] bool ok() const { return kind == Kind::kNone; }
};

const char* ToString(StreamError::Kind k);

/// Save/load the request-trace file format. On failure returns false and,
/// when `error` is non-null, stores a message naming the path and errno
/// (or the offending line for parse errors).
[[nodiscard]] bool SaveStream(const WorkloadStream& s,
                              const std::string& path,
                              std::string* error = nullptr);
[[nodiscard]] bool LoadStream(const std::string& path, WorkloadStream& out,
                              std::string* error = nullptr);
/// Typed-error overload: the legacy string overload delegates here and
/// renders `error->message`.
[[nodiscard]] bool LoadStream(const std::string& path, WorkloadStream& out,
                              StreamError* error);

}  // namespace sps::online
