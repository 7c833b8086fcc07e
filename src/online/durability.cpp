#include "online/durability.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <concepts>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <ranges>
#include <string_view>
#include <type_traits>
#include <utility>

#include "analysis/memo.hpp"
#include "obs/spans.hpp"
#include "online/controller.hpp"
#include "sim/engine.hpp"
#include "util/crc32.hpp"
#include "util/file_io.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sps::online {

const char* ToString(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kOff: return "off";
    case FsyncPolicy::kEveryN: return "every-n";
    case FsyncPolicy::kEveryEpoch: return "every-epoch";
  }
  return "?";
}

bool ParseFsyncPolicy(const char* s, FsyncPolicy& policy,
                      std::uint32_t& every_n) {
  if (std::strcmp(s, "off") == 0) {
    policy = FsyncPolicy::kOff;
    return true;
  }
  if (std::strcmp(s, "every-epoch") == 0) {
    policy = FsyncPolicy::kEveryEpoch;
    return true;
  }
  if (std::strcmp(s, "every-n") == 0) {
    policy = FsyncPolicy::kEveryN;
    return true;
  }
  if (std::strncmp(s, "every-n:", 8) == 0) {
    // All of the rest must be a u32 >= 1: no sign, no wrap-around.
    const char* end = s + std::strlen(s);
    std::uint32_t n = 0;
    const auto [ptr, ec] = std::from_chars(s + 8, end, n);
    if (ec != std::errc() || ptr != end || n == 0) return false;
    policy = FsyncPolicy::kEveryN;
    every_n = n;
    return true;
  }
  return false;
}

const char* ToString(DurabilityError::Kind k) {
  switch (k) {
    case DurabilityError::Kind::kNone: return "none";
    case DurabilityError::Kind::kIo: return "io";
    case DurabilityError::Kind::kBadMagic: return "bad-magic";
    case DurabilityError::Kind::kBadVersion: return "bad-version";
    case DurabilityError::Kind::kCrcMismatch: return "crc-mismatch";
    case DurabilityError::Kind::kTruncated: return "truncated";
    case DurabilityError::Kind::kParse: return "parse";
    case DurabilityError::Kind::kFingerprintMismatch:
      return "fingerprint-mismatch";
    case DurabilityError::Kind::kJournalDivergence:
      return "journal-divergence";
    case DurabilityError::Kind::kStateMismatch: return "state-mismatch";
  }
  return "?";
}

const char* SkipReason(DurabilityError::Kind k) {
  return k == DurabilityError::Kind::kNone ? "journal prefix missing"
                                           : ToString(k);
}

namespace {

namespace fs = std::filesystem;

// ---- binary framing --------------------------------------------------------
// Explicit little-endian byte encoding (no memcpy of structs): the
// artifacts are a FORMAT, stable across compilers/ABIs, and every decode
// is bounds-checked — a malicious or bit-flipped file can fail parsing
// but never read out of bounds.

constexpr char kCheckpointMagic[8] = {'S', 'P', 'S', 'C', 'K', 'P',
                                      'T', '\x04'};
constexpr char kJournalMagic[8] = {'S', 'P', 'S', 'J', 'R', 'N',
                                   'L', '\x02'};
constexpr std::size_t kJournalHeaderSize = 8 + 8 + 4;
/// Checkpoint files kept on disk (older ones are pruned): more than one
/// keeps a fallback for a corrupt newest checkpoint.
constexpr std::size_t kKeepCheckpoints = 4;
constexpr std::uint32_t kMaxRecordLen = 1024;

// ---- the codec -------------------------------------------------------------
// ByteWriter and ByteReader are the two archives of one codec. Every wire
// type has exactly one `template <class Ar> void Visit(Ar&, T&)` naming
// each field once with its wire width (U8/U32/U64/I64 little-endian
// integers, F64 the IEEE-754 bits), so encode and decode cannot disagree.
// The writer only reads the fields it is handed; the reader assigns them.

struct ByteWriter {
  std::string buf;

  /// `from_wire` (the reader's wire-to-value mapping) is unused here.
  template <class T, class FromWire = std::nullptr_t>
    requires std::integral<T> || std::is_enum_v<T>
  void U8(T v, FromWire /*from_wire*/ = {}) {
    buf.push_back(static_cast<char>(static_cast<std::uint8_t>(v)));
  }
  void U32(std::integral auto v) { Put(static_cast<std::uint32_t>(v), 4); }
  void U64(std::integral auto v) { Put(static_cast<std::uint64_t>(v), 8); }
  void I64(std::integral auto v) { U64(static_cast<std::int64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<std::uint64_t>(v)); }

  /// Overwrite the `bytes` bytes at `at` as Put would append them: a
  /// length field written before the bytes it counts.
  void Patch(std::size_t at, std::uint64_t v, std::size_t bytes) {
    std::memcpy(buf.data() + at, std::bit_cast<std::array<char, 8>>(v).data(),
                bytes);
  }

 private:
  /// The low `bytes` bytes of v, least significant first: on a
  /// little-endian host, the first bytes of its object representation.
  void Put(std::uint64_t v, std::size_t bytes) {
    static_assert(std::endian::native == std::endian::little,
                  "ByteWriter appends host bytes as the little-endian wire");
    buf.append(std::bit_cast<std::array<char, 8>>(v).data(), bytes);
  }
};

struct ByteReader {
  const unsigned char* p = nullptr;
  std::size_t n = 0;
  std::size_t pos = 0;
  bool ok = true;

  explicit ByteReader(std::string_view s)
      : p(reinterpret_cast<const unsigned char*>(s.data())), n(s.size()) {}

  [[nodiscard]] std::size_t remaining() const { return n - pos; }

  std::uint8_t U8() { return static_cast<std::uint8_t>(Get(1)); }
  std::uint32_t U32() { return static_cast<std::uint32_t>(Get(4)); }
  std::uint64_t U64() { return Get(8); }

  // The in-place forms Visit uses; a bool decodes as "any non-zero".
  template <std::integral T>
  void U8(T& v) { v = static_cast<T>(U8()); }
  template <class T, class FromWire>
  void U8(T& v, FromWire from_wire) { v = from_wire(U8()); }
  template <std::integral T>
  void U32(T& v) { v = static_cast<T>(U32()); }
  template <std::integral T>
  void U64(T& v) { v = static_cast<T>(U64()); }
  template <std::integral T>
  void I64(T& v) { v = static_cast<T>(static_cast<std::int64_t>(U64())); }
  void F64(double& v) { v = std::bit_cast<double>(U64()); }

  /// A claimed element count is plausible only if `count * min_size`
  /// bytes can still be present — the huge-bogus-count guard.
  [[nodiscard]] bool PlausibleCount(std::uint64_t count,
                                    std::size_t min_size) {
    if (count > remaining() / (min_size == 0 ? 1 : min_size)) {
      ok = false;
      return false;
    }
    return true;
  }

 private:
  /// A short read fails the reader; once failed, every read yields 0 and
  /// `pos` stays where parsing stopped.
  std::uint64_t Get(std::size_t bytes) {
    if (!ok || bytes > remaining()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(p[pos + i]) << (8 * i);
    }
    pos += bytes;
    return v;
  }
};

/// Encode `v`. Visit takes T& so one function serves both archives; the
/// writer never modifies what it visits.
template <class T>
void Write(ByteWriter& w, const T& v) {
  Visit(w, const_cast<T&>(v));
}

/// Decode `v` from all of `r`'s remaining bytes. False on a short, long
/// or implausible payload; `r.pos` is then where parsing stopped.
template <class T>
bool ReadExactly(ByteReader& r, T& v) {
  Visit(r, v);
  return r.ok && r.remaining() == 0;
}

/// The fewest bytes a T encodes to: a default T (its sequences empty).
template <class T>
std::size_t MinWireSize() {
  static const std::size_t size = [] {
    ByteWriter w;
    Write(w, T{});
    return w.buf.size();
  }();
  return size;
}

/// A vector on the wire: its count as a `Count`, then each element. The
/// reader refuses a count the remaining bytes cannot hold before it
/// allocates.
template <class Count = std::uint64_t, class Ar, class T>
void Seq(Ar& ar, std::vector<T>& v) {
  Count count = static_cast<Count>(v.size());
  if constexpr (sizeof(Count) == 4) {
    ar.U32(count);
  } else {
    ar.U64(count);
  }
  if constexpr (std::is_same_v<Ar, ByteReader>) {
    if (!ar.PlausibleCount(count, MinWireSize<T>())) return;
    v.resize(count);
  }
  for (T& e : v) Visit(ar, e);
}

template <class Ar>
void Visit(Ar& ar, std::uint32_t& v) {
  ar.U32(v);
}

template <class Ar>
void Visit(Ar& ar, std::uint64_t& v) {
  ar.U64(v);
}

template <class Ar, class A, class B>
void Visit(Ar& ar, std::pair<A, B>& p) {
  Visit(ar, p.first);
  Visit(ar, p.second);
}

/// An ordered map on the wire: its count, then each (key, value) in
/// ascending key order. The reader refuses a key that does not strictly
/// ascend, so a decoded map holds exactly the entries on the wire.
template <class Ar, class K, class V>
void Visit(Ar& ar, std::map<K, V>& m) {
  std::uint64_t count = m.size();
  ar.U64(count);
  if constexpr (std::is_same_v<Ar, ByteReader>) {
    if (!ar.PlausibleCount(count, MinWireSize<std::pair<K, V>>())) return;
    for (std::uint64_t i = 0; i < count && ar.ok; ++i) {
      std::pair<K, V> e;
      Visit(ar, e);
      if (!m.empty() && !(m.rbegin()->first < e.first)) {
        ar.ok = false;
        return;
      }
      m.insert(m.end(), std::move(e));
    }
  } else {
    for (auto& [key, value] : m) {
      K k = key;
      Visit(ar, k);
      Visit(ar, value);
    }
  }
}

/// An optional on the wire: a presence byte, then the value if present.
template <class Ar, class T>
void Visit(Ar& ar, std::optional<T>& o) {
  bool present = o.has_value();
  ar.U8(present);
  if (present && !o) o.emplace();  // the reader
  if (present) Visit(ar, *o);
}

template <class Ar>
void Visit(Ar& ar, rt::Task& t) {
  ar.U32(t.id);
  ar.I64(t.wcet);
  ar.I64(t.period);
  ar.I64(t.deadline);
  ar.U32(t.priority);
  ar.U8(t.crit, [](std::uint8_t b) {
    return b == 1 ? rt::Criticality::kSoft : rt::Criticality::kHard;
  });
  ar.I64(t.tardiness_bound);
  ar.I64(t.degraded_wcet);
  ar.U32(t.value);
}

template <class Ar>
void Visit(Ar& ar, partition::SubtaskPlacement& sp) {
  ar.U32(sp.core);
  ar.I64(sp.budget);
  ar.U32(sp.local_priority);
  ar.I64(sp.rel_deadline);
}

template <class Ar>
void Visit(Ar& ar, partition::PlacedTask& pt) {
  Visit(ar, pt.task);
  Seq<std::uint32_t>(ar, pt.parts);
}

template <class Ar>
void Visit(Ar& ar, ChurnStats& c) {
  ar.U64(c.moved);
  ar.U64(c.split);
  ar.U64(c.unsplit);
  ar.U64(c.repartitions);
}

template <class Ar>
void Visit(Ar& ar, OverloadStats& o) {
  ar.U64(o.degrades);
  ar.U64(o.degrade_restores);
  ar.U64(o.sheds);
  ar.U64(o.shed_restores);
  ar.U64(o.retry_attempts);
  ar.U64(o.hysteresis_blocks);
}

template <class Ar>
void Visit(Ar& ar, partition::AdmitStats& s) {
  ar.U64(s.util_rejects);
  ar.U64(s.density_accepts);
  ar.U64(s.full_tests);
  ar.U64(s.memo_hits);
  ar.U64(s.memo_misses);
  ar.U64(s.memo_evicts);
}

template <class Ar>
void Visit(Ar& ar, EpochStats& e) {
  ar.I64(e.start);
  ar.I64(e.end);
  ar.U32(e.admits);
  ar.U32(e.rejects);
  ar.U32(e.leaves);
  Visit(ar, e.churn);
  Visit(ar, e.overload);
  ar.U64(e.resident);
  ar.U64(e.shed_resident);
  ar.U64(e.degraded_resident);
  ar.F64(e.utilization);
  ar.U8(e.validated);
  ar.U8(e.fault_active);
  ar.U64(e.sim_misses);
  ar.U64(e.hard_misses);
}

template <class Ar>
void Visit(Ar& ar, analysis::EdfCoreEntry& e) {
  ar.I64(e.exec);
  ar.I64(e.period);
  ar.I64(e.deadline);
  ar.I64(e.kind);
  ar.U64(e.dest_queue_size);
  ar.U64(e.first_core_queue_size);
  ar.U32(e.id);
}

template <class Ar>
void Visit(Ar& ar, analysis::MemoKey& k) {
  ar.U64(k.lo);
  ar.U64(k.hi);
}

template <class Ar>
void Visit(Ar& ar, partition::EdfCoreState& core) {
  Seq(ar, core.entries);
  ar.F64(core.utilization);
  Visit(ar, core.zobrist);
}

template <class Ar>
void Visit(Ar& ar, partition::FpCoreState& core) {
  Seq(ar, core.tasks);
  ar.F64(core.utilization);
  Visit(ar, core.zobrist);
}

/// One tag byte (0 = EDF, 1 = FP) picks which core vector is on the wire;
/// a snapshot with neither encodes as EDF.
template <class Ar>
void Visit(Ar& ar, AdmissionSnapshot& a) {
  bool fp = a.edf_cores.empty() && !a.fp_cores.empty();
  ar.U8(fp);
  if (fp) {
    Seq(ar, a.fp_cores);
  } else {
    Seq(ar, a.edf_cores);
  }
  Visit(ar, a.stats);
}

template <class Ar>
void Visit(Ar& ar, Resident& r) {
  Visit(ar, r.placed);
  ar.U64(r.admit_seq);
  Visit(ar, r.full);
}

template <class Ar>
void Visit(Ar& ar, ShedRecord& r) {
  Visit(ar, r.task);
  ar.U64(r.admit_seq);
  ar.U32(r.retry_in);
  ar.U32(r.backoff);
}

template <class Ar>
void Visit(Ar& ar, ControllerSnapshot& c) {
  Visit(ar, c.residents);
  Visit(ar, c.generation_of);
  Seq(ar, c.shed);
  Visit(ar, c.churn);
  Visit(ar, c.overload);
  ar.U64(c.admit_seq);
  ar.U64(c.epoch);
  ar.U64(c.last_fallback_epoch);
  ar.F64(c.last_fallback_util);
  ar.U8(c.any_fallback);
  Visit(ar, c.admission);
}

/// Not a checkpoint field: the fingerprint hashes the admission model.
template <class Ar>
void Visit(Ar& ar, overhead::OverheadModel& m) {
  for (overhead::OpCost* c :
       {&m.ready_add_local, &m.ready_add_remote, &m.ready_del_local,
        &m.sleep_add_local, &m.sleep_add_remote, &m.sleep_del_local}) {
    ar.I64(c->at_n4);
    ar.I64(c->at_n64);
  }
  for (Time* t : {&m.release_exec, &m.sched_exec, &m.ctxsw_exec,
                  &m.cpmd_local, &m.cpmd_migration}) {
    ar.I64(*t);
  }
  ar.F64(m.scale);
}

// ---- fingerprint -----------------------------------------------------------
// A 64-bit digest of (replay-relevant config, stream content). Artifacts
// carry it so recovery against the WRONG stream or config is a typed
// error instead of a journal-divergence surprise mid-redo.

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  return util::DeriveSeed(h, v, 0xD47A);
}

std::uint64_t MixF(std::uint64_t h, double v) {
  return Mix(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t Fingerprint(const WorkloadStream& s, const ReplayConfig& cfg) {
  std::uint64_t h = 0x53505320ull;  // "SPS" + format nonce
  const ControllerConfig& cc = cfg.controller;
  h = Mix(h, cc.admission.num_cores);
  h = Mix(h, static_cast<std::uint64_t>(cc.admission.policy));
  h = Mix(h, static_cast<std::uint64_t>(cc.place));
  h = Mix(h, (cc.allow_split ? 1u : 0u) | (cc.repartition_fallback ? 2u : 0u) |
                 (cc.unsplit_on_leave ? 4u : 0u) |
                 (cc.overload.ladder ? 8u : 0u) |
                 (cc.overload.hysteresis ? 16u : 0u) |
                 (cfg.validate_by_simulation ? 32u : 0u));
  h = MixF(h, cc.overload.spike_magnitude);
  if (cfg.validate_by_simulation) {
    // The validation model decides each epoch's recorded misses. Not
    // mixed: what the replay overwrites per epoch (seeds, overheads,
    // exec generations) and what results are bit-identical across
    // (shards, queue backends, record flags).
    const sim::SimConfig& v = cfg.validate_sim;
    h = Mix(h, static_cast<std::uint64_t>(v.horizon));
    h = Mix(h, static_cast<std::uint64_t>(v.exec.kind));
    h = MixF(h, v.exec.fraction);
    h = MixF(h, v.exec.spike_prob);
    h = MixF(h, v.exec.spike_magnitude);
    h = Mix(h, static_cast<std::uint64_t>(v.arrivals.kind));
    h = MixF(h, v.arrivals.max_delay_fraction);
    h = MixF(h, v.arrivals.burst_prob);
  }
  h = Mix(h, static_cast<std::uint64_t>(cfg.epoch));
  h = Mix(h, cfg.seed);
  h = Mix(h, cfg.drain_epochs);
  for (const SpikeEpoch& sp : cfg.faults.spikes) {
    h = Mix(h, static_cast<std::uint64_t>(sp.start));
    h = Mix(h, static_cast<std::uint64_t>(sp.end));
    h = MixF(h, sp.prob);
    h = MixF(h, sp.magnitude);
  }
  for (const BurstStorm& st : cfg.faults.storms) {
    h = Mix(h, static_cast<std::uint64_t>(st.start));
    h = Mix(h, static_cast<std::uint64_t>(st.end));
    h = MixF(h, st.burst_prob);
  }
  // The admission overhead model, then the stream content: CRC32 over
  // the canonical encoding (cheap, and any edit to either perturbs it).
  ByteWriter w;
  Write(w, cc.admission.model);
  for (const Request& r : s.requests()) {
    w.I64(r.at);
    w.U8(r.kind);
    w.U32(r.id);
    if (r.kind == RequestKind::kAdmit) Write(w, r.task);
  }
  h = Mix(h, s.size());
  h = Mix(h, util::Crc32Of(w.buf));
  return h;
}

// ---- checkpoint ------------------------------------------------------------

/// Everything a checkpoint restores: the replay cursor, the result
/// totals, the controller's live state, and the journal prefix it
/// extends. The history stays in the journal: the prefix holds the
/// epoch rows closed before the cut and the accepted ADMIT records
/// that give every generation-0 id, and the two digests pin that
/// prefix.
struct CheckpointState {
  std::uint64_t next_request = 0;
  Time epoch_start = 0;
  std::uint64_t epoch_index = 0;
  ChurnStats churn_before;
  OverloadStats overload_before;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t leaves = 0;
  std::uint64_t epoch_rows = 0;   ///< rows closed before the cut
  std::uint32_t records_crc = 0;  ///< digest of the cut's request records
  std::uint32_t rows_crc = 0;     ///< digest of the cut's epoch rows
  ControllerSnapshot ctrl;
  // Not on the wire: recovery fills these from the journal prefix.
  std::vector<EpochStats> epochs;
  std::vector<rt::TaskId> admitted;
};

template <class Ar>
void Visit(Ar& ar, CheckpointState& st) {
  ar.U64(st.next_request);
  ar.I64(st.epoch_start);
  ar.U64(st.epoch_index);
  Visit(ar, st.churn_before);
  Visit(ar, st.overload_before);
  ar.U64(st.admits);
  ar.U64(st.rejects);
  ar.U64(st.leaves);
  ar.U64(st.epoch_rows);
  ar.U32(st.records_crc);
  ar.U32(st.rows_crc);
  Visit(ar, st.ctrl);
}

std::string EncodeCheckpoint(const CheckpointState& st,
                             std::uint64_t fingerprint) {
  // Frame: magic, fingerprint, payload length, payload, CRC over all of
  // the preceding bytes. The payload is encoded in place and its length
  // patched in after.
  ByteWriter out{std::string(kCheckpointMagic, sizeof(kCheckpointMagic))};
  out.U64(fingerprint);
  const std::size_t len_at = out.buf.size();
  out.U64(0);
  Write(out, st);
  out.Patch(len_at, out.buf.size() - len_at - 8, 8);
  out.U32(util::Crc32Of(out.buf));
  return std::move(out.buf);
}

bool DecodeCheckpoint(std::string_view bytes, const std::string& path,
                      std::uint64_t expect_fingerprint, CheckpointState& st,
                      DurabilityError& err) {
  const auto fail = [&](DurabilityError::Kind kind, std::uint64_t offset,
                        const std::string& detail) {
    err = DurabilityError{kind, path, offset, path + ": " + detail};
    return false;
  };
  if (bytes.size() < sizeof(kCheckpointMagic) + 16 + 4) {
    return fail(DurabilityError::Kind::kTruncated, bytes.size(),
                "checkpoint shorter than its frame");
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic, 7) != 0) {
    return fail(DurabilityError::Kind::kBadMagic, 0,
                "not a checkpoint file (bad magic)");
  }
  if (bytes[7] != kCheckpointMagic[7]) {
    return fail(DurabilityError::Kind::kBadVersion, 7,
                "unknown checkpoint format version");
  }
  ByteReader tail(bytes.substr(bytes.size() - 4));
  const std::uint32_t file_crc = tail.U32();
  const std::uint32_t computed =
      util::Crc32Of(bytes.substr(0, bytes.size() - 4));
  if (file_crc != computed) {
    return fail(DurabilityError::Kind::kCrcMismatch, bytes.size() - 4,
                "checkpoint CRC mismatch (corrupt)");
  }
  ByteReader r(bytes.substr(sizeof(kCheckpointMagic), bytes.size() - 12));
  const std::uint64_t fp = r.U64();
  if (fp != expect_fingerprint) {
    return fail(DurabilityError::Kind::kFingerprintMismatch, 8,
                "checkpoint was written for a different stream/config");
  }
  const std::uint64_t payload_len = r.U64();
  if (payload_len != r.remaining()) {
    return fail(DurabilityError::Kind::kTruncated, 16,
                "checkpoint payload length does not match the file");
  }

  if (!ReadExactly(r, st)) {
    return fail(DurabilityError::Kind::kParse, r.pos,
                "checkpoint payload undecodable");
  }

  // Integrity cross-check beyond the CRC: the per-core Zobrist hashes
  // must re-derive from the entries they claim to cover (order-free XOR,
  // so this catches mixed-up sections that still CRC fine), and the
  // placement parts must account for exactly the per-core entry counts.
  const ControllerSnapshot& c = st.ctrl;
  const AdmissionSnapshot& a = c.admission;
  const bool edf = a.fp_cores.empty();
  const std::size_t n_cores = edf ? a.edf_cores.size() : a.fp_cores.size();
  std::vector<std::size_t> parts_on(n_cores, 0);
  for (const auto& [id, r] : c.residents) {
    for (const partition::SubtaskPlacement& sp : r.placed.parts) {
      if (sp.core >= n_cores) {
        return fail(DurabilityError::Kind::kStateMismatch, 0,
                    "placement names a core outside the configuration");
      }
      ++parts_on[sp.core];
    }
  }
  for (std::size_t ci = 0; ci < n_cores; ++ci) {
    if (edf) {
      const partition::EdfCoreState& core = a.edf_cores[ci];
      if (analysis::ZobristOfEdfEntries(core.entries) != core.zobrist) {
        return fail(DurabilityError::Kind::kStateMismatch, 0,
                    "core zobrist does not match its entries");
      }
      if (core.entries.size() != parts_on[ci]) {
        return fail(DurabilityError::Kind::kStateMismatch, 0,
                    "per-core entries disagree with placements");
      }
    } else {
      const partition::FpCoreState& core = a.fp_cores[ci];
      if (analysis::ZobristOfFpTasks(core.tasks) != core.zobrist) {
        return fail(DurabilityError::Kind::kStateMismatch, 0,
                    "core zobrist does not match its tasks");
      }
      if (core.tasks.size() != parts_on[ci]) {
        return fail(DurabilityError::Kind::kStateMismatch, 0,
                    "per-core tasks disagree with placements");
      }
    }
  }
  // The controller takes a resident's id from its ledger key and a
  // degraded resident's core from its first part, and analysis of an
  // ill-formed task need not terminate: every resident is placed under
  // its own id (a degraded original too) and every task is well-formed.
  const auto resident_ok = [](const auto& entry) {
    const auto& [id, r] = entry;
    return r.placed.task.id == id && r.placed.task.valid() &&
           !r.placed.parts.empty() &&
           (!r.full || (r.full->id == id && r.full->valid()));
  };
  if (!std::ranges::all_of(c.residents, resident_ok) ||
      !std::ranges::all_of(c.shed,
                           [](const ShedRecord& r) { return r.task.valid(); })) {
    return fail(DurabilityError::Kind::kStateMismatch, 0,
                "a resident or shed task is not well-formed");
  }
  return true;
}

// ---- journal ---------------------------------------------------------------

/// One applied request's journaled decision: what redo must reproduce.
struct JournalRecord {
  std::uint64_t seq = 0;  ///< request index in the stream
  std::uint8_t kind = 0;  ///< RequestKind
  std::uint8_t flags = 0; ///< bit0 accepted/left, bit1 fallback, bit2 ladder
  std::uint32_t parts = 0;
  std::uint32_t id = 0;
  ChurnStats churn_delta;
  OverloadStats overload_delta;

  friend bool operator==(const JournalRecord&, const JournalRecord&) =
      default;
};

template <class Ar>
void Visit(Ar& ar, JournalRecord& rec) {
  ar.U64(rec.seq);
  ar.U8(rec.kind);
  ar.U8(rec.flags);
  ar.U32(rec.parts);
  ar.U32(rec.id);
  Visit(ar, rec.churn_delta);
  Visit(ar, rec.overload_delta);
}

/// One closed epoch's row, journaled once when the epoch closes.
struct EpochRecord {
  std::uint64_t row = 0;  ///< index in ReplayResult::epochs
  EpochStats stats;
};

template <class Ar>
void Visit(Ar& ar, EpochRecord& rec) {
  ar.U64(rec.row);
  Visit(ar, rec.stats);
}

/// A record payload's first byte names its kind.
constexpr std::uint8_t kRequestRecord = 0;
constexpr std::uint8_t kEpochRecord = 1;

/// Encode one record's frame into `frame` (cleared first): its length,
/// the payload (tag, then the record) and the payload's CRC32, which it
/// returns.
template <class T>
std::uint32_t EncodeRecordFrame(ByteWriter& frame, std::uint8_t tag,
                                const T& rec) {
  frame.buf.clear();
  frame.U32(0);  // the length, patched below
  frame.U8(tag);
  Write(frame, rec);
  const std::size_t len = frame.buf.size() - 4;
  frame.Patch(0, len, 4);
  const std::uint32_t crc = util::Crc32Of(frame.buf.data() + 4, len);
  frame.U32(crc);
  return crc;
}

/// A journal-prefix digest: the CRC32 of its records' frame CRCs (each
/// little-endian, as ByteWriter lays out a U32), in journal order. One
/// digest per record kind.
void ChainRecord(util::Crc32& digest, std::uint32_t record_crc) {
  digest.Update(std::bit_cast<std::array<char, 4>>(record_crc).data(), 4);
}

/// A journal's records as recovery keeps them: requests by seq, epoch
/// rows by row index, and each kind's digest after every prefix
/// (`records_crc[k]` covers requests 0..k-1).
struct JournalContents {
  std::vector<JournalRecord> records;
  std::vector<EpochStats> rows;
  std::vector<util::Crc32> records_crc{util::Crc32{}};
  std::vector<util::Crc32> rows_crc{util::Crc32{}};
};

std::string JournalHeader(std::uint64_t fingerprint) {
  ByteWriter out{std::string(kJournalMagic, sizeof(kJournalMagic))};
  out.U64(fingerprint);
  out.U32(util::Crc32Of(out.buf));
  return out.buf;
}

/// Scan `bytes`: header check, then records until the first invalid
/// frame — a torn, corrupt or undecodable one, or one out of sequence
/// (each kind numbers its records 0, 1, 2, ... in file order). Reports
/// counts + valid prefix; fills `contents` when non-null.
bool ScanJournalBytes(std::string_view bytes, const std::string& path,
                      JournalScan& out, JournalContents* contents,
                      std::uint64_t* fingerprint, DurabilityError* error) {
  const auto fail = [&](DurabilityError::Kind kind, std::uint64_t offset,
                        const std::string& detail) {
    if (error != nullptr) {
      *error = DurabilityError{kind, path, offset, path + ": " + detail};
    }
    return false;
  };
  out = JournalScan{};
  out.total_bytes = bytes.size();
  if (bytes.size() < kJournalHeaderSize) {
    return fail(DurabilityError::Kind::kTruncated, bytes.size(),
                "journal shorter than its header");
  }
  if (std::memcmp(bytes.data(), kJournalMagic, 7) != 0) {
    return fail(DurabilityError::Kind::kBadMagic, 0,
                "not a journal file (bad magic)");
  }
  if (bytes[7] != kJournalMagic[7]) {
    return fail(DurabilityError::Kind::kBadVersion, 7,
                "unknown journal format version");
  }
  ByteReader hdr(bytes.substr(8, 12));
  const std::uint64_t fp = hdr.U64();
  const std::uint32_t hcrc = hdr.U32();
  if (hcrc != util::Crc32Of(bytes.substr(0, 16))) {
    return fail(DurabilityError::Kind::kCrcMismatch, 16,
                "journal header CRC mismatch");
  }
  if (fingerprint != nullptr) *fingerprint = fp;

  std::size_t pos = kJournalHeaderSize;
  while (pos + 4 <= bytes.size()) {
    ByteReader lenr(bytes.substr(pos, 4));
    const std::uint32_t len = lenr.U32();
    if (len == 0 || len > kMaxRecordLen) break;          // torn/garbage
    if (pos + 4 + len + 4 > bytes.size()) break;         // torn tail
    const std::string_view payload = bytes.substr(pos + 4, len);
    ByteReader crcr(bytes.substr(pos + 4 + len, 4));
    const std::uint32_t crc = crcr.U32();
    if (crc != util::Crc32Of(payload)) break;            // torn/corrupt
    ByteReader r(payload);
    const std::uint8_t tag = r.U8();
    const auto extend = [crc](std::vector<util::Crc32>& digests) {
      util::Crc32 d = digests.back();
      ChainRecord(d, crc);
      digests.push_back(d);
    };
    if (tag == kRequestRecord) {
      JournalRecord rec;
      if (!ReadExactly(r, rec) || rec.seq != out.records) break;
      if (contents != nullptr) {
        contents->records.push_back(rec);
        extend(contents->records_crc);
      }
      ++out.records;
    } else if (tag == kEpochRecord) {
      EpochRecord rec;
      if (!ReadExactly(r, rec) || rec.row != out.epoch_rows) break;
      if (contents != nullptr) {
        contents->rows.push_back(rec.stats);
        extend(contents->rows_crc);
      }
      ++out.epoch_rows;
    } else {
      break;
    }
    pos += 4 + len + 4;
  }
  out.valid_bytes = pos;
  return true;
}

// ---- engine ----------------------------------------------------------------

std::string CheckpointPath(const std::string& dir, std::uint64_t epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%010llu.sps",
                static_cast<unsigned long long>(epoch));
  return dir + "/" + name;
}

/// A checkpoint file on disk: its epoch index and its path.
using CheckpointFile = std::pair<std::uint64_t, std::string>;

/// The checkpoint files in `dir`, oldest (lowest epoch) first. Missing
/// or unreadable directories yield an empty list.
std::vector<CheckpointFile> CheckpointFiles(const std::string& dir) {
  std::vector<CheckpointFile> found;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    // The whole digit run between the prefix and the suffix: the
    // writer zero-pads to 10 digits but an epoch index may need more.
    constexpr std::string_view kPrefix = "ckpt-", kSuffix = ".sps";
    if (!name.starts_with(kPrefix) || !name.ends_with(kSuffix)) continue;
    const char* first = name.data() + kPrefix.size();
    const char* last = name.data() + name.size() - kSuffix.size();
    std::uint64_t epoch = 0;
    const auto [ptr, err] = std::from_chars(first, last, epoch);
    if (err == std::errc() && ptr == last) {
      found.emplace_back(epoch, e.path().string());
    }
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return found;
}

/// The checkpoint/journal sink the replay loop drives. The replay calls
/// it only when the config names a directory: every call is guarded by
/// `durable`.
class DurabilityEngine {
 public:
  ~DurabilityEngine() {
    if (journal_ != nullptr) std::fclose(journal_);
  }

  [[nodiscard]] const DurabilityError& error() const { return error_; }
  [[nodiscard]] const RecoveryInfo& recovery() const { return recovery_; }
  [[nodiscard]] bool halted() const { return halted_; }

  /// Prepare the directory, run recovery when asked, open the journal.
  /// On success `st` holds the state to resume from (default = scratch).
  bool Init(const WorkloadStream& s, const ReplayConfig& cfg,
            CheckpointState& st) {
    obs::ScopedSpan span(obs::InstalledProfiler(),
                         obs::SpanStage::kRecoveryRedo);
    cfg_ = cfg.durability;
    fingerprint_ = Fingerprint(s, cfg);
    journal_path_ = cfg_.dir + "/journal.wal";

    std::error_code ec;
    fs::create_directories(cfg_.dir, ec);
    if (ec) {
      return Fail(DurabilityError::Kind::kIo, cfg_.dir, 0,
                  "cannot create checkpoint directory: " + ec.message());
    }

    if (!cfg_.recover) {
      // Fresh run: a stale journal or checkpoints from a previous run
      // would poison recovery semantics — wipe them.
      for (const std::string& p : ListCheckpoints(cfg_.dir)) {
        fs::remove(p, ec);
      }
      fs::remove(journal_path_, ec);
    } else {
      recovery_.attempted = true;
      if (!Recover(st)) return false;
    }

    // Open (or create) the journal for appending; a fresh journal gets
    // its header first.
    if (!fs::exists(journal_path_)) {
      std::string err;
      if (!util::WriteFileAtomic(journal_path_, JournalHeader(fingerprint_),
                                 cfg_.fsync != FsyncPolicy::kOff, &err)) {
        return Fail(DurabilityError::Kind::kIo, journal_path_, 0, err);
      }
    }
    journal_ = std::fopen(journal_path_.c_str(), "ab");
    if (journal_ == nullptr) {
      return Fail(DurabilityError::Kind::kIo, journal_path_, 0,
                  journal_path_ + ": cannot open journal for append: " +
                      std::strerror(errno));
    }
    return true;
  }

  /// Journal hook, called after each applied request. Redo of an already
  /// journaled seq cross-checks; new seqs append (+ crash/halt
  /// injection). Returns false on divergence (error() set).
  bool OnApplied(const JournalRecord& rec) {
    ChainRecord(records_crc_, EncodeRecordFrame(frame_, kRequestRecord, rec));
    if (rec.seq < journaled_.records.size()) {
      if (journaled_.records[rec.seq] == rec) return true;
      return Diverged("decision for request " + std::to_string(rec.seq));
    }
    if (!AppendFrame()) return false;
    ++appends_;
    if (cfg_.fsync == FsyncPolicy::kEveryN &&
        appends_ % std::max(1u, cfg_.fsync_every_n) == 0) {
      FlushJournal(/*sync=*/true);
    }
    if (cfg_.crash_after_appends != 0 &&
        appends_ == cfg_.crash_after_appends) {
      // The record above is in the page cache (flushed, not necessarily
      // fsync'd) — visible to the recovering process. Then die the hard
      // way, exactly like kill -9 mid-service. SIGKILL cannot be caught,
      // so the flight recorder dumps HERE — the artifact a real crashed
      // deployment would have from its last periodic dump.
      FlushJournal(cfg_.fsync != FsyncPolicy::kOff);
      if (obs::SpanProfiler* p = obs::InstalledProfiler()) {
        (void)p->DumpFlight("crash_injection");
      }
      std::raise(SIGKILL);
    }
    if (cfg_.halt_after_appends != 0 &&
        appends_ == cfg_.halt_after_appends) {
      FlushJournal(/*sync=*/false);
      halted_ = true;
      recovery_.halted_by_injection = true;
    }
    return true;
  }

  /// Epoch-row hook, called in row order as the replay's validation
  /// batches finish: the row is journaled once; redo of an already
  /// journaled row cross-checks it. Returns false on divergence.
  bool OnEpochClosed(std::uint64_t row, const EpochStats& e) {
    ChainRecord(rows_crc_,
                EncodeRecordFrame(frame_, kEpochRecord, EpochRecord{row, e}));
    rows_ = row + 1;
    // A taken checkpoint names the rows digest at exactly its cut.
    for (CheckpointState& st : taken_) {
      if (st.epoch_rows == rows_) st.rows_crc = rows_crc_.value();
    }
    if (row < journaled_.rows.size()) {
      if (journaled_.rows[row] == e) return true;
      return Diverged("epoch row " + std::to_string(row));
    }
    return AppendFrame();
  }

  /// Epoch-boundary hook: per-epoch fsync, then the every-K checkpoint.
  /// Its state is taken here, at entry, but the file is written only
  /// once every row before the cut is journaled (the validation batches
  /// journal rows late), here or at a later entry.
  bool OnEpochEntered(const Controller& ctrl, const ReplayResult& out,
                      std::uint64_t next_request, Time epoch_start,
                      std::uint64_t epoch_index,
                      const ChurnStats& churn_before,
                      const OverloadStats& overload_before) {
    obs::ScopedSpan span(obs::InstalledProfiler(),
                         obs::SpanStage::kCheckpointWrite);
    if (cfg_.fsync == FsyncPolicy::kEveryEpoch) {
      FlushJournal(/*sync=*/true);
    }
    // A redo re-entering an epoch whose checkpoint is on disk keeps it.
    if (cfg_.checkpoint_every != 0 &&
        epoch_index % cfg_.checkpoint_every == 0 &&
        !std::ranges::binary_search(on_disk_, epoch_index, {},
                                    &CheckpointFile::first)) {
      CheckpointState& st = taken_.emplace_back();
      st.next_request = next_request;
      st.epoch_start = epoch_start;
      st.epoch_index = epoch_index;
      st.churn_before = churn_before;
      st.overload_before = overload_before;
      st.admits = out.admits;
      st.rejects = out.rejects;
      st.leaves = out.leaves;
      st.epoch_rows = out.epochs.size();
      st.records_crc = records_crc_.value();
      if (rows_ == st.epoch_rows) st.rows_crc = rows_crc_.value();
      st.ctrl = ctrl.ExportState();
    }
    return WriteReadyCheckpoints();
  }

  /// End of the replay: every row is journaled, so every taken
  /// checkpoint is written.
  bool Finish() {
    if (!WriteReadyCheckpoints()) return false;
    FlushJournal(cfg_.fsync != FsyncPolicy::kOff);
    return true;
  }

 private:
  /// Write, oldest first, each taken checkpoint whose rows are all
  /// journaled.
  bool WriteReadyCheckpoints() {
    if (taken_.empty() || taken_.front().epoch_rows > rows_) return true;
    // A checkpoint covers every record before its cut, so those records
    // must be in the file before it is: a crash between the two writes
    // must not leave a checkpoint ahead of the journal.
    FlushJournal(/*sync=*/false);
    for (; !taken_.empty() && taken_.front().epoch_rows <= rows_;
         taken_.pop_front()) {
      const CheckpointState& st = taken_.front();
      const std::string path = CheckpointPath(cfg_.dir, st.epoch_index);
      std::string err;
      if (!util::WriteFileAtomic(path, EncodeCheckpoint(st, fingerprint_),
                                 cfg_.fsync != FsyncPolicy::kOff, &err)) {
        return Fail(DurabilityError::Kind::kIo, path, 0, err);
      }
      // Newer files than this one can be on disk: a recovering run keeps
      // the checkpoints its journal did not cover.
      on_disk_.insert(std::ranges::upper_bound(on_disk_, st.epoch_index, {},
                                               &CheckpointFile::first),
                      CheckpointFile{st.epoch_index, path});
    }
    PruneCheckpoints();
    return true;
  }

  bool Fail(DurabilityError::Kind kind, const std::string& path,
            std::uint64_t offset, const std::string& message) {
    error_ = DurabilityError{kind, path, offset, message};
    return false;
  }

  /// Append the record frame last encoded into frame_.
  bool AppendFrame() {
    if (std::fwrite(frame_.buf.data(), 1, frame_.buf.size(), journal_) !=
        frame_.buf.size()) {
      return Fail(DurabilityError::Kind::kIo, journal_path_, 0,
                  journal_path_ + ": journal append failed: " +
                      std::strerror(errno));
    }
    return true;
  }

  bool Diverged(const std::string& what) {
    // Black-box dump BEFORE reporting: divergence is exactly the "what
    // was the service doing" moment the flight recorder exists for.
    if (obs::SpanProfiler* p = obs::InstalledProfiler()) {
      (void)p->DumpFlight("journal_divergence");
    }
    return Fail(DurabilityError::Kind::kJournalDivergence, journal_path_, 0,
                journal_path_ + ": redo " + what +
                    " diverges from the journaled one (corrupt journal or "
                    "mismatched stream)");
  }

  void FlushJournal(bool sync) {
    if (journal_ == nullptr) return;
    std::fflush(journal_);
    if (sync) ::fsync(::fileno(journal_));
  }

  /// Remove the oldest checkpoints beyond the newest kKeepCheckpoints.
  void PruneCheckpoints() {
    std::error_code ec;
    while (on_disk_.size() > kKeepCheckpoints) {
      fs::remove(on_disk_.front().second, ec);
      on_disk_.erase(on_disk_.begin());
    }
  }

  /// Scan the journal, truncate its torn tail and keep its records for
  /// the redo cross-check; then load the newest valid checkpoint whose
  /// journal prefix is present (skipping corrupt or uncovered ones) and
  /// fill its history from that prefix.
  bool Recover(CheckpointState& st) {
    if (fs::exists(journal_path_)) {
      std::string bytes;
      std::string io_err;
      if (!util::ReadFileBytes(journal_path_, bytes, &io_err)) {
        return Fail(DurabilityError::Kind::kIo, journal_path_, 0, io_err);
      }
      JournalScan scan;
      std::uint64_t fp = 0;
      DurabilityError derr;
      if (!ScanJournalBytes(bytes, journal_path_, scan, &journaled_, &fp,
                            &derr)) {
        error_ = derr;
        return false;
      }
      if (fp != fingerprint_) {
        return Fail(DurabilityError::Kind::kFingerprintMismatch,
                    journal_path_, 8,
                    journal_path_ +
                        ": journal was written for a different "
                        "stream/config");
      }
      recovery_.journal_records = scan.records;
      recovery_.journal_truncated_bytes =
          scan.total_bytes - scan.valid_bytes;
      if (recovery_.journal_truncated_bytes > 0 &&
          ::truncate(journal_path_.c_str(),
                     static_cast<off_t>(scan.valid_bytes)) != 0) {
        return Fail(DurabilityError::Kind::kIo, journal_path_, 0,
                    journal_path_ + ": cannot truncate torn tail: " +
                        std::strerror(errno));
      }
    }

    // A checkpoint extends a journal prefix: every request and epoch row
    // before its cut, with the digests it names.
    const auto covered = [this](const CheckpointState& c) {
      return c.next_request < journaled_.records_crc.size() &&
             c.epoch_rows < journaled_.rows_crc.size() &&
             journaled_.records_crc[c.next_request].value() ==
                 c.records_crc &&
             journaled_.rows_crc[c.epoch_rows].value() == c.rows_crc;
    };
    on_disk_ = CheckpointFiles(cfg_.dir);
    for (const auto& [epoch, path] : on_disk_ | std::views::reverse) {
      std::string bytes;
      std::string io_err;
      if (!util::ReadFileBytes(path, bytes, &io_err)) {
        recovery_.skipped.push_back(DurabilityError::Kind::kIo);
        continue;
      }
      CheckpointState cand;
      DurabilityError derr;
      if (!DecodeCheckpoint(bytes, path, fingerprint_, cand, derr)) {
        // A checkpoint for a DIFFERENT stream/config is not corruption —
        // the caller pointed recovery at the wrong directory; surface it
        // instead of silently replaying from scratch.
        if (derr.kind == DurabilityError::Kind::kFingerprintMismatch) {
          error_ = derr;
          return false;
        }
        recovery_.skipped.push_back(derr.kind);
        continue;
      }
      if (!covered(cand)) {
        recovery_.skipped.push_back(DurabilityError::Kind::kNone);
        continue;
      }
      st = std::move(cand);
      recovery_.recovered = true;
      recovery_.checkpoint_epoch = st.epoch_index;
      recovery_.resume_seq = st.next_request;
      break;
    }
    if (recovery_.recovered) {
      records_crc_ = journaled_.records_crc[st.next_request];
      rows_crc_ = journaled_.rows_crc[st.epoch_rows];
      rows_ = st.epoch_rows;
      st.epochs.assign(journaled_.rows.begin(),
                       journaled_.rows.begin() +
                           static_cast<std::ptrdiff_t>(st.epoch_rows));
      for (std::uint64_t seq = 0; seq < st.next_request; ++seq) {
        const JournalRecord& rec = journaled_.records[seq];
        if (rec.kind == static_cast<std::uint8_t>(RequestKind::kAdmit) &&
            (rec.flags & 1u) != 0) {
          st.admitted.push_back(rec.id);
        }
      }
    }
    return true;
  }

  DurabilityConfig cfg_;
  std::string journal_path_;
  std::FILE* journal_ = nullptr;
  std::uint64_t fingerprint_ = 0;
  /// The journal's records as recovery read them: the redo pass
  /// cross-checks these seqs and rows; every later one is new and
  /// appended.
  JournalContents journaled_;
  /// The digests of every request / epoch-row record so far (a new
  /// checkpoint names its prefix by them).
  util::Crc32 records_crc_;
  util::Crc32 rows_crc_;
  std::uint64_t rows_ = 0;  ///< epoch rows the chain above covers
  /// Checkpoints taken at entry and not yet written, oldest first.
  std::deque<CheckpointState> taken_;
  /// The checkpoint files on disk, oldest first: recovery's listing (a
  /// fresh run wipes the directory and starts empty), then every file
  /// written, less the pruned ones.
  std::vector<CheckpointFile> on_disk_;
  /// The journal frame being encoded, reused for every record.
  ByteWriter frame_;
  std::uint64_t appends_ = 0;
  bool halted_ = false;
  DurabilityError error_;
  RecoveryInfo recovery_;
};

// ---- epoch close and deferred validation -----------------------------------

/// Epoch rows per validation batch (DESIGN.md §14): each full batch
/// starts on the pool while the replay goes on. A constant, not the
/// pool's width: launch points, and so the journal's bytes, depend only
/// on the stream and the config, never on the machine.
constexpr std::size_t kValidationBatch = 16;

/// One closed epoch's validation, queued until its batch starts. The
/// simulation writes its results here, never into the epoch table,
/// which the replay keeps growing while the batch runs.
struct PendingValidation {
  std::size_t row = 0;  ///< index into ReplayResult::epochs
  partition::Partition partition;
  sim::SimConfig sim;  ///< seeds, fault models and exec generations
  std::uint64_t sim_misses = 0;
  std::uint64_t hard_misses = 0;
};

void CloseEpoch(const Controller& ctrl, const ReplayConfig& cfg,
                std::size_t epoch_index, Time start, Time end,
                const ChurnStats& churn_before,
                const OverloadStats& overload_before, EpochStats& e,
                ReplayResult& out, std::vector<PendingValidation>& pending) {
  e.start = start;
  e.end = end;
  e.resident = ctrl.resident();
  e.shed_resident = ctrl.shed_resident();
  e.degraded_resident = ctrl.degraded_resident();
  e.utilization = ctrl.total_utilization();
  ChurnStats delta = ctrl.churn();
  delta -= churn_before;
  e.churn = delta;
  OverloadStats odelta = ctrl.overload_stats();
  odelta -= overload_before;
  e.overload = odelta;
  const SpikeEpoch* spike = cfg.faults.SpikeAt(start, end);
  const BurstStorm* storm = cfg.faults.StormAt(start, end);
  e.fault_active = spike != nullptr || storm != nullptr;
  if (cfg.validate_by_simulation && ctrl.resident() > 0) {
    obs::ScopedSpan span(obs::InstalledProfiler(),
                         obs::SpanStage::kEpochValidate);
    PendingValidation& v = pending.emplace_back();
    v.row = out.epochs.size();
    v.partition = ctrl.CurrentPartition();
    v.sim = cfg.validate_sim;
    v.sim.overheads = cfg.controller.admission.model;
    v.sim.exec.seed = util::DeriveSeed(cfg.seed, epoch_index, 0);
    v.sim.arrivals.seed = util::DeriveSeed(cfg.seed, epoch_index, 1);
    // Fault windows validate against the FAULTED models — "zero hard
    // misses" is proven under the spike/storm, not the nominal load.
    if (spike != nullptr) {
      v.sim.exec.kind = sim::ExecModel::Kind::kSpiky;
      v.sim.exec.spike_prob = spike->prob;
      v.sim.exec.spike_magnitude = spike->magnitude;
    }
    if (storm != nullptr) {
      v.sim.arrivals.kind = sim::ArrivalModel::Kind::kBursty;
      v.sim.arrivals.burst_prob = storm->burst_prob;
    }
    v.sim.exec_generations = ctrl.ExecGenerations();
  }
  out.epochs.push_back(e);
  // Observability hook (DESIGN.md §15): heartbeats / augmented tables.
  // Runs at close, before the row's validation fields are filled; must
  // not influence the replay.
  if (cfg.obs.on_epoch) cfg.obs.on_epoch(epoch_index, out.epochs.back(), out);
  // Flight-ring registry delta (§16): the black box records the epoch's
  // cumulative counters so a post-crash dump shows progress context.
  if (cfg.obs.profiler != nullptr) {
    cfg.obs.profiler->NoteEpoch(epoch_index, out.admits, out.rejects,
                                out.leaves, ctrl.resident());
  }
  e = EpochStats{};
}

/// Simulate one queued validation into its own slot.
void Validate(PendingValidation& v) {
  const sim::SimResult r = sim::Simulate(v.partition, v.sim);
  v.sim_misses = r.total_misses;
  // Hard-miss attribution: SimResult.tasks is index-aligned with the
  // partition's tasks (the engine copies ids positionally).
  const std::vector<partition::PlacedTask>& tasks = v.partition.tasks;
  for (std::size_t t = 0; t < r.tasks.size() && t < tasks.size(); ++t) {
    if (tasks[t].task.crit == rt::Criticality::kHard) {
      v.hard_misses += r.tasks[t].deadline_misses;
    }
  }
}

/// Joins a pool job when its owner's scope unwinds, so no worker
/// outlives the data the job reads. Every return joins the job itself;
/// this only runs with the job live while another exception is leaving
/// the scope, and that one wins over any the job raised.
class JobJoin {
 public:
  JobJoin(util::ThreadPool& pool, util::ThreadPool::Job& job)
      : pool_(pool), job_(job) {}
  ~JobJoin() {
    try {
      pool_.Wait(job_);
    } catch (...) {
    }
  }
  JobJoin(const JobJoin&) = delete;
  JobJoin& operator=(const JobJoin&) = delete;

 private:
  util::ThreadPool& pool_;
  util::ThreadPool::Job& job_;
};

}  // namespace

// ---- public file helpers ---------------------------------------------------

bool ScanJournal(const std::string& path, JournalScan& out,
                 DurabilityError* error) {
  std::string bytes;
  std::string io_err;
  if (!util::ReadFileBytes(path, bytes, &io_err)) {
    if (error != nullptr) {
      *error = DurabilityError{DurabilityError::Kind::kIo, path, 0, io_err};
    }
    return false;
  }
  return ScanJournalBytes(bytes, path, out, nullptr, nullptr, error);
}

std::vector<std::string> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointFile> found = CheckpointFiles(dir);
  std::vector<std::string> out;
  out.reserve(found.size());
  for (auto& [epoch, path] : found | std::views::reverse) {
    out.push_back(std::move(path));
  }
  return out;
}

// ---- the replay loop (one loop for the plain and durable paths) ------------

ReplayResult ReplayStream(const WorkloadStream& s, const ReplayConfig& cfg) {
  // Install the replay's wall-clock profiler for this thread; every
  // layer below (controller, admission analysis, durability engine)
  // reads it via obs::InstalledProfiler(). Uninstalls on every return.
  // A profiler built with tracing on (§16) also keeps request trees.
  obs::ProfilerInstallation profiler_install(cfg.obs.profiler);
  obs::SpanProfiler* const tracer =
      cfg.obs.profiler != nullptr && cfg.obs.profiler->tracing()
          ? cfg.obs.profiler
          : nullptr;
  ReplayResult out;
  Controller ctrl(cfg.controller);
  const Time epoch_len = cfg.epoch > 0 ? cfg.epoch : s.span() + 1;
  // Idle spans longer than this many empty epochs are compressed: the
  // skipped epochs produce no rows (nothing happened in them; their
  // validation would re-simulate an unchanged partition). Bounds the
  // result against a far-future timestamp in a loaded trace or a tiny
  // --online-epoch-ms against a long stream.
  constexpr Time kMaxIdleEpochs = 1024;

  EpochStats cur;
  ChurnStats churn_before;
  OverloadStats overload_before;
  Time epoch_start = 0;
  std::size_t epoch_index = 0;
  std::size_t next_request = 0;

  const bool durable = cfg.durability.enabled();
  DurabilityEngine dur;
  if (durable) {
    CheckpointState st;
    if (!dur.Init(s, cfg, st)) {
      out.recovery = dur.recovery();
      out.durability_error = dur.error();
      return out;
    }
    out.recovery = dur.recovery();
    if (out.recovery.recovered) {
      if (!ctrl.ImportState(std::move(st.ctrl), st.admitted)) {
        out.durability_error = DurabilityError{
            DurabilityError::Kind::kStateMismatch, cfg.durability.dir, 0,
            cfg.durability.dir +
                ": checkpoint does not fit this controller config or "
                "the journal's admissions"};
        return out;
      }
      next_request = static_cast<std::size_t>(st.next_request);
      epoch_start = st.epoch_start;
      epoch_index = static_cast<std::size_t>(st.epoch_index);
      churn_before = st.churn_before;
      overload_before = st.overload_before;
      out.admits = st.admits;
      out.rejects = st.rejects;
      out.leaves = st.leaves;
      out.epochs = std::move(st.epochs);
    }
  }

  // Called as the replay ENTERS the epoch starting at `start`: the
  // controller ticks (shed retries and degrade restores run only in
  // calm epochs), and a fault window covering the new epoch is the
  // overload ALARM — the controller walks the ladder until the
  // spike-inflated partition re-analyzes schedulable, BEFORE this
  // epoch's requests and validation run.
  const auto enter_epoch = [&](Time start) {
    obs::ScopedSpan span(obs::InstalledProfiler(),
                         obs::SpanStage::kEpochApply);
    const Time end =
        start > kTimeNever - epoch_len ? kTimeNever : start + epoch_len;
    const SpikeEpoch* spike = cfg.faults.SpikeAt(start, end);
    const BurstStorm* storm = cfg.faults.StormAt(start, end);
    ctrl.AdvanceEpoch(spike != nullptr || storm != nullptr);
    if (spike != nullptr) {
      ctrl.ReactToOverload(spike->magnitude);
    } else if (storm != nullptr) {
      ctrl.ReactToOverload(cfg.controller.overload.spike_magnitude);
    }
  };

  // Validation overlaps the replay (DESIGN.md §14). Rows from
  // journaled_rows on are closed but not yet journaled. `in_flight` is
  // the batch running on the pool as `job`; `queued` collects the next
  // one. A launch waits for the batch in flight, fills its rows,
  // journals every row before the first queued validation, then starts
  // the queued batch and returns to the replay. A return on a
  // durability error or a halt drops the unjournaled rows, as a crash
  // would.
  util::ThreadPool& pool = util::SharedPool();
  std::vector<PendingValidation> in_flight;
  std::vector<PendingValidation> queued;
  const std::function<void(std::size_t)> validate =
      [&in_flight](std::size_t i) { Validate(in_flight[i]); };
  util::ThreadPool::Job job;
  const JobJoin join(pool, job);
  std::size_t journaled_rows = out.epochs.size();
  std::size_t launched_rows = out.epochs.size();
  const std::size_t batch_rows =
      cfg.validate_by_simulation ? kValidationBatch : 1;
  const auto launch = [&] {
    obs::ScopedSpan span(in_flight.empty() && queued.empty()
                             ? nullptr
                             : obs::InstalledProfiler(),
                         obs::SpanStage::kEpochValidate);
    pool.Wait(job);
    for (const PendingValidation& v : in_flight) {
      EpochStats& e = out.epochs[v.row];
      e.validated = true;
      e.sim_misses = v.sim_misses;
      e.hard_misses = v.hard_misses;
    }
    in_flight.clear();
    const std::size_t ready =
        queued.empty() ? out.epochs.size() : queued.front().row;
    for (; journaled_rows < ready; ++journaled_rows) {
      if (durable &&
          !dur.OnEpochClosed(journaled_rows, out.epochs[journaled_rows])) {
        return false;
      }
    }
    in_flight.swap(queued);
    pool.Start(job, in_flight.size(), validate);
    launched_rows = out.epochs.size();
    return true;
  };

  // Closes the epoch [epoch_start, end); a full batch launches.
  const auto close_epoch = [&](Time end) {
    CloseEpoch(ctrl, cfg, epoch_index, epoch_start, end, churn_before,
               overload_before, cur, out, queued);
    return out.epochs.size() - launched_rows < batch_rows || launch();
  };

  // Every return past this point reports the totals reached so far. A
  // return before the stream's end still waits for the batch in flight,
  // so its errors surface here; its rows stay unfilled.
  const auto finish = [&] {
    pool.Wait(job);
    out.churn = ctrl.churn();
    out.overload = ctrl.overload_stats();
    out.shed_outstanding = ctrl.shed_resident();
    out.admission = ctrl.admission_stats();
    out.final_partition = ctrl.CurrentPartition();
    return std::move(out);
  };
  const auto fail_durability = [&] {
    out.durability_error = dur.error();
    return finish();
  };

  const std::vector<Request>& reqs = s.requests();
  for (std::size_t seq = next_request; seq < reqs.size(); ++seq) {
    const Request& r = reqs[seq];
    // (r.at - epoch_start is non-negative: requests are time-sorted and
    // epoch_start never passes a request — so the subtraction form is
    // overflow-safe where `epoch_start + epoch_len` is not.)
    while (r.at - epoch_start >= epoch_len) {
      if (!close_epoch(epoch_start + epoch_len)) return fail_durability();
      churn_before = ctrl.churn();
      overload_before = ctrl.overload_stats();
      epoch_start += epoch_len;
      ++epoch_index;
      const Time idle_epochs = (r.at - epoch_start) / epoch_len;
      if (idle_epochs > kMaxIdleEpochs) {
        epoch_start += idle_epochs * epoch_len;
        epoch_index += static_cast<std::size_t>(idle_epochs);
      }
      enter_epoch(epoch_start);
      if (durable &&
          !dur.OnEpochEntered(ctrl, out, seq, epoch_start, epoch_index,
                              churn_before, overload_before)) {
        return fail_durability();
      }
    }
    ChurnStats churn_pre;
    OverloadStats overload_pre;
    if (durable) {
      churn_pre = ctrl.churn();
      overload_pre = ctrl.overload_stats();
    }
    // Request-scoped trace: seq-derived deterministic id, opened before
    // the controller call so every stage span below lands in its tree.
    if (tracer != nullptr) {
      tracer->BeginTrace(util::DeriveSeed(cfg.seed, seq, obs::kTraceIdAxis),
                         seq, r.kind == RequestKind::kAdmit);
    }
    std::uint8_t flags = 0;
    std::uint32_t parts = 0;
    if (r.kind == RequestKind::kAdmit) {
      const AdmitOutcome o = ctrl.Admit(r.task);
      if (o.accepted) {
        ++cur.admits;
        ++out.admits;
      } else {
        ++cur.rejects;
        ++out.rejects;
      }
      flags = static_cast<std::uint8_t>((o.accepted ? 1u : 0u) |
                                        (o.via_fallback ? 2u : 0u) |
                                        (o.via_ladder ? 4u : 0u));
      parts = o.parts;
    } else {
      if (ctrl.Leave(r.id)) {
        ++cur.leaves;
        ++out.leaves;
        flags = 1;
      }
    }
    if (durable) {
      JournalRecord rec;
      rec.seq = seq;
      rec.kind = static_cast<std::uint8_t>(r.kind);
      rec.flags = flags;
      rec.parts = parts;
      rec.id = r.id;
      rec.churn_delta = ctrl.churn();
      rec.churn_delta -= churn_pre;
      rec.overload_delta = ctrl.overload_stats();
      rec.overload_delta -= overload_pre;
      if (!dur.OnApplied(rec)) {
        // Close the trace as diverged so it is retained by the
        // "interesting" rule before the replay aborts.
        if (tracer != nullptr) {
          tracer->EndTrace((flags & 4u) != 0, (flags & 2u) != 0,
                           /*diverged=*/true);
        }
        return fail_durability();
      }
      if (dur.halted()) {
        // Clean in-process "crash": the artifacts on disk are exactly
        // what a SIGKILL here would leave; the partial stats below are
        // for the harness's convenience only.
        if (tracer != nullptr) {
          tracer->EndTrace((flags & 4u) != 0, (flags & 2u) != 0, false);
        }
        out.recovery.halted_by_injection = true;
        return finish();
      }
    }
    // Tail-sampling decision: ladder/fallback traces always retained,
    // the rest compete for the slowest-K slots.
    if (tracer != nullptr) {
      tracer->EndTrace((flags & 4u) != 0, (flags & 2u) != 0, false);
    }
  }
  // Final epoch; its nominal end can exceed the representable range when
  // the last request sits near kTimeNever — clamp.
  const Time final_end = epoch_start > kTimeNever - epoch_len
                             ? kTimeNever
                             : epoch_start + epoch_len;
  if (!close_epoch(final_end)) return fail_durability();

  // Drain epochs: keep ticking past the last request so shed-re-admission
  // retries (whose backoff is measured in epochs) get room to run when
  // the stream ends right after a fault window.
  for (std::uint32_t k = 0; k < cfg.drain_epochs; ++k) {
    if (epoch_start > kTimeNever - epoch_len) break;
    churn_before = ctrl.churn();
    overload_before = ctrl.overload_stats();
    epoch_start += epoch_len;
    ++epoch_index;
    enter_epoch(epoch_start);
    const Time drain_end = epoch_start > kTimeNever - epoch_len
                               ? kTimeNever
                               : epoch_start + epoch_len;
    if (!close_epoch(drain_end)) return fail_durability();
  }
  // Wait for the batch in flight and start the last one, then wait for
  // that: every row is filled and journaled.
  if (!launch() || !launch()) return fail_durability();
  if (durable && !dur.Finish()) return fail_durability();
  return finish();
}

std::vector<ReplayResult> ReplayBatch(std::span<const WorkloadStream> streams,
                                      const ReplayConfig& cfg,
                                      unsigned jobs) {
  std::vector<ReplayResult> results(streams.size());
  util::ParallelFor(jobs, streams.size(), [&](std::size_t i) {
    // Per-stream config: only the validation seed varies, derived from
    // the stream index — results are pure in (stream, cfg, i), hence
    // bit-identical for any job count. Durable batches give each stream
    // its own artifact subdirectory.
    ReplayConfig c = cfg;
    c.seed = util::DeriveSeed(cfg.seed, i, 0xB47C4);
    if (cfg.durability.enabled()) {
      c.durability.dir =
          cfg.durability.dir + "/stream-" + std::to_string(i);
    }
    results[i] = ReplayStream(streams[i], c);
  });
  return results;
}

}  // namespace sps::online
