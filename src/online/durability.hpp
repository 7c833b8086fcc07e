#pragma once
// Durable online service (DESIGN.md §14): fail-stop crash recovery for
// the epoch replay, ARIES-style redo specialized to a DETERMINISTIC
// state machine. The stream file is already a replayable request log, so
// the write-ahead journal does not need to carry state — it records each
// applied request's (seq, decision, churn/overload delta) and each
// closed epoch's stats row under a per-record CRC, serving three jobs:
// (1) it marks exactly how far the crashed run got, (2) it holds the
// history a checkpoint leaves out, and (3) during recovery the redo
// pass re-executes the stream from the newest valid checkpoint and
// CROSS-CHECKS every re-derived decision and row against the journaled
// one — a divergence is corruption (or a different stream/config),
// surfaced as a typed error, never silently absorbed.
//
// Artifacts, all CRC32-framed (util/crc32.hpp):
//   <dir>/ckpt-<epoch>.sps  versioned checkpoint of the LIVE state (its
//                           size does not grow with the history), written
//                           via atomic temp-file + rename
//                           (util/file_io.hpp) every K epoch entries. It
//                           names the journal prefix it extends (record
//                           and row counts, two digests); the newest valid
//                           one whose prefix the journal holds wins at
//                           recovery, the others are skipped.
//   <dir>/journal.wal       append-only journal of request records and
//                           epoch rows: the history (the epoch rows, and
//                           the accepted ADMITs that give every
//                           generation-0 id). A torn tail (crash
//                           mid-append) is truncated at the last valid
//                           record instead of failing.
//
// This header is self-contained (config/error/info types plus the
// journal/checkpoint file helpers the tests poke); the recovery engine
// and the durable replay loop live in durability.cpp behind
// online::ReplayStream (controller.hpp).

#include <cstdint>
#include <string>
#include <vector>

namespace sps::online {

/// When journal appends reach the disk. Appends are buffered in stdio
/// and flushed to the page cache (which survives a process crash) at
/// every checkpoint write, at the end of the replay and per the policy
/// below, so a kill -9 can lose the unflushed tail of the journal but
/// never a record a checkpoint covers. The fsync the policy adds is
/// about POWER-loss durability.
enum class FsyncPolicy : std::uint8_t {
  kOff,         ///< no fsync (still crash-consistent, not power-durable)
  kEveryN,      ///< fsync after every `fsync_every_n` journal records
  kEveryEpoch,  ///< fsync at epoch boundaries and checkpoints
};

const char* ToString(FsyncPolicy p);
/// Parse the CLI spelling: "off", "every-epoch", "every-n" or
/// "every-n:<N>". Returns false on anything else.
[[nodiscard]] bool ParseFsyncPolicy(const char* s, FsyncPolicy& policy,
                                    std::uint32_t& every_n);

struct DurabilityConfig {
  /// Checkpoint/journal directory; empty = durability off (the replay
  /// runs exactly as before, zero overhead).
  std::string dir;
  /// Write a checkpoint every K-th epoch ENTRY (0 = never; the journal
  /// alone still recovers — redo just starts from scratch).
  std::uint32_t checkpoint_every = 4;
  FsyncPolicy fsync = FsyncPolicy::kEveryEpoch;
  std::uint32_t fsync_every_n = 64;
  /// Recover from `dir` before replaying: load the newest valid
  /// checkpoint, scan + truncate the journal, redo the stream tail with
  /// the journal cross-check, resume. false wipes any previous run's
  /// artifacts from `dir` and starts fresh.
  bool recover = false;
  /// Crash injection (tests/CI): raise SIGKILL immediately after the
  /// N-th journal append of this run (0 = off). A real kill -9 at a
  /// deterministic point — the recovery differential's input.
  std::uint32_t crash_after_appends = 0;
  /// Soft variant for in-process harnesses (tests, bench): abort the
  /// replay cleanly after the N-th append instead of dying (0 = off).
  std::uint32_t halt_after_appends = 0;

  [[nodiscard]] bool enabled() const { return !dir.empty(); }
};

/// Typed durability failure. Every malformed artifact maps to one kind;
/// `path` names the offending file, `offset` the byte offset where
/// framing/parsing stopped (0 when not byte-scoped). Never UB, never a
/// silent false.
struct DurabilityError {
  enum class Kind : std::uint8_t {
    kNone,
    kIo,            ///< open/read/write/mkdir failed (errno in message)
    kBadMagic,      ///< file is not a checkpoint/journal (bad magic)
    kBadVersion,    ///< a future/unknown format version
    kCrcMismatch,   ///< frame CRC does not cover the bytes present
    kTruncated,     ///< file shorter than its framing promises
    kParse,         ///< framing valid but payload undecodable
    kFingerprintMismatch,  ///< artifact was written for a different
                           ///< stream/config than the one replaying
    kJournalDivergence,    ///< redo decision != journaled decision
    kStateMismatch,        ///< checkpoint state fails its integrity
                           ///< cross-check (zobrist/placement recount)
  };
  Kind kind = Kind::kNone;
  std::string path;
  std::uint64_t offset = 0;
  std::string message;

  [[nodiscard]] bool ok() const { return kind == Kind::kNone; }
};

const char* ToString(DurabilityError::Kind k);

/// What recovery did (reported by the CLI on stderr, asserted by tests).
struct RecoveryInfo {
  bool attempted = false;   ///< cfg.recover was set and durability on
  bool recovered = false;   ///< a checkpoint was loaded (else: scratch)
  std::uint64_t checkpoint_epoch = 0;  ///< epoch index of the loaded one
  std::uint64_t resume_seq = 0;     ///< first request index re-applied
  std::uint64_t journal_records = 0;   ///< valid records at recovery
  std::uint64_t journal_truncated_bytes = 0;  ///< torn tail dropped
  /// Why each newer checkpoint was passed over, newest first: the kind
  /// its read or decode failed with, or kNone when it decoded but the
  /// journal lacks the prefix it extends (see SkipReason).
  std::vector<DurabilityError::Kind> skipped;
  bool halted_by_injection = false;  ///< halt_after_appends fired

  [[nodiscard]] std::uint32_t checkpoints_skipped() const {
    return static_cast<std::uint32_t>(skipped.size());
  }
};

/// A skipped checkpoint's reason as narrated: ToString(k), or "journal
/// prefix missing" for kNone.
const char* SkipReason(DurabilityError::Kind k);

/// Journal scan summary (exposed for tests/tools): how many records of
/// each kind frame-validate in sequence and where the valid prefix ends.
struct JournalScan {
  std::uint64_t records = 0;      ///< request records
  std::uint64_t epoch_rows = 0;   ///< epoch-row records
  std::uint64_t valid_bytes = 0;  ///< header + every valid record
  std::uint64_t total_bytes = 0;
};

/// Scan `path` (header + records), stopping at the first invalid frame.
/// A torn tail is NOT an error — the scan reports the valid prefix; only
/// a missing/unreadable file or a bad header fails.
[[nodiscard]] bool ScanJournal(const std::string& path, JournalScan& out,
                               DurabilityError* error = nullptr);

/// Checkpoint files in `dir`, newest (highest epoch) first. Missing or
/// unreadable directories yield an empty list.
[[nodiscard]] std::vector<std::string> ListCheckpoints(
    const std::string& dir);

}  // namespace sps::online
