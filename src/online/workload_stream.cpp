#include "online/workload_stream.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "rt/generator.hpp"
#include "util/crc32.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace sps::online {

namespace {

/// Axes of the per-request seed derivation — one independent stream per
/// drawn quantity so adding a draw never shifts any other.
enum : std::uint64_t {
  kAxisPeriod = 0,
  kAxisUtil = 1,
  kAxisAdmitAt = 2,
  kAxisLeaves = 3,
  kAxisLifetime = 4,
  kAxisSoft = 5,   ///< soft/hard draw (overload axis)
  kAxisValue = 6,  ///< soft task's shed-order value class
};

double UniformDouble(std::uint64_t seed, double lo, double hi) {
  util::SplitMix64 rng(seed);
  std::uniform_real_distribution<double> d(lo, hi);
  return d(rng);
}

Time UniformTime(std::uint64_t seed, Time lo, Time hi) {
  util::SplitMix64 rng(seed);
  std::uniform_int_distribution<Time> d(lo, hi);
  return d(rng);
}

std::string PathError(const std::string& path, const char* verb) {
  return path + ": cannot " + verb + ": " + std::strerror(errno);
}

}  // namespace

WorkloadStream::WorkloadStream(std::vector<Request> reqs)
    : requests_(std::move(reqs)) {
  std::stable_sort(requests_.begin(), requests_.end(),
                   [](const Request& a, const Request& b) {
                     return a.at < b.at;
                   });
}

std::size_t WorkloadStream::num_admits() const {
  std::size_t n = 0;
  for (const Request& r : requests_) {
    if (r.kind == RequestKind::kAdmit) ++n;
  }
  return n;
}

bool WorkloadStream::valid() const {
  std::unordered_set<rt::TaskId> resident;
  std::unordered_set<rt::TaskId> ever;
  Time last = 0;
  for (const Request& r : requests_) {
    if (r.at < last) return false;
    last = r.at;
    if (r.kind == RequestKind::kAdmit) {
      if (!r.task.valid() || r.task.id != r.id) return false;
      if (!ever.insert(r.id).second) return false;  // duplicate admit id
      resident.insert(r.id);
    } else {
      if (resident.erase(r.id) == 0) return false;  // leave without admit
    }
  }
  return true;
}

Time WorkloadStream::span() const {
  return requests_.empty() ? 0 : requests_.back().at;
}

WorkloadStream GenerateStream(const StreamConfig& cfg) {
  const rt::GeneratorConfig gen;

  std::vector<Request> reqs;
  reqs.reserve(cfg.num_admits * 2);
  std::vector<std::pair<Time, rt::TaskId>> dm_order;  // (deadline, id)
  dm_order.reserve(cfg.num_admits);

  for (std::size_t i = 0; i < cfg.num_admits; ++i) {
    // Period via the offline generator's recipe, on a per-request stream.
    rt::Rng prng(util::DeriveSeed(cfg.seed, i, kAxisPeriod));
    const Time period = rt::DrawPeriod(gen, prng);
    const double u = UniformDouble(util::DeriveSeed(cfg.seed, i, kAxisUtil),
                                   cfg.util_min, cfg.util_max);
    Time wcet =
        static_cast<Time>(u * static_cast<double>(period) + 0.5);
    wcet = std::max<Time>(1, std::min(wcet, period));

    Request admit;
    admit.at = UniformTime(util::DeriveSeed(cfg.seed, i, kAxisAdmitAt), 0,
                           cfg.span > 0 ? cfg.span - 1 : 0);
    admit.kind = RequestKind::kAdmit;
    admit.id = static_cast<rt::TaskId>(i);
    admit.task = rt::MakeTask(admit.id, wcet, period);
    // Overload axis: soft tasks carry value / tardiness / degraded-mode
    // attributes. Each draw lives on its own axis, so soft_fraction = 0
    // (the default) regenerates pre-overload streams bit-identically.
    if (cfg.soft_fraction > 0.0 &&
        UniformDouble(util::DeriveSeed(cfg.seed, i, kAxisSoft), 0.0, 1.0) <
            cfg.soft_fraction) {
      constexpr double kValueClasses = 4.0;
      constexpr double kDegradedFraction = 0.6;
      admit.task.crit = rt::Criticality::kSoft;
      admit.task.value = static_cast<std::uint32_t>(UniformDouble(
          util::DeriveSeed(cfg.seed, i, kAxisValue), 0.0, kValueClasses));
      admit.task.tardiness_bound = period;
      const Time dw =
          static_cast<Time>(kDegradedFraction * static_cast<double>(wcet));
      if (dw > 0 && dw < wcet) admit.task.degraded_wcet = dw;
    }
    dm_order.emplace_back(admit.task.deadline, admit.id);
    reqs.push_back(admit);

    const double leave_draw = UniformDouble(
        util::DeriveSeed(cfg.seed, i, kAxisLeaves), 0.0, 1.0);
    if (leave_draw < cfg.leave_fraction) {
      Request leave;
      leave.at =
          admit.at +
          UniformTime(util::DeriveSeed(cfg.seed, i, kAxisLifetime),
                      cfg.min_lifetime, std::max(cfg.min_lifetime,
                                                 cfg.max_lifetime));
      leave.kind = RequestKind::kLeave;
      leave.id = admit.id;
      reqs.push_back(leave);
    }
  }

  // Unique deadline-monotonic priorities over the whole stream (ties by
  // id), so fixed-priority controllers can consume the tasks directly.
  std::sort(dm_order.begin(), dm_order.end());
  std::unordered_map<rt::TaskId, rt::Priority> prio;
  for (std::size_t rank = 0; rank < dm_order.size(); ++rank) {
    prio[dm_order[rank].second] = static_cast<rt::Priority>(rank);
  }
  for (Request& r : reqs) {
    if (r.kind == RequestKind::kAdmit) r.task.priority = prio[r.id];
  }

  return WorkloadStream(std::move(reqs));
}

WorkloadStream MakeAdmitOnlyStream(const rt::TaskSet& ts,
                                   const std::vector<std::size_t>& order) {
  std::vector<Request> reqs;
  reqs.reserve(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    Request r;
    r.at = static_cast<Time>(k);
    r.kind = RequestKind::kAdmit;
    r.task = ts[order[k]];
    r.id = r.task.id;
    reqs.push_back(r);
  }
  return WorkloadStream(std::move(reqs));
}

const char* ToString(StreamError::Kind k) {
  switch (k) {
    case StreamError::Kind::kNone: return "none";
    case StreamError::Kind::kIo: return "io";
    case StreamError::Kind::kMissingHeader: return "missing-header";
    case StreamError::Kind::kParse: return "parse";
    case StreamError::Kind::kTruncated: return "truncated";
    case StreamError::Kind::kOverlongLine: return "overlong-line";
    case StreamError::Kind::kMalformedTask: return "malformed-task";
    case StreamError::Kind::kDuplicateAdmit: return "duplicate-admit";
    case StreamError::Kind::kLeaveWithoutAdmit:
      return "leave-without-admit";
    case StreamError::Kind::kNonMonotoneTime: return "non-monotone-time";
    case StreamError::Kind::kCrcMismatch: return "crc-mismatch";
  }
  return "?";
}

namespace {

/// The file SaveStream writes for `s`, without the final newline (the
/// text-file writer appends it). LoadStream accepts exactly this text,
/// or it without the footer line.
std::string RenderStream(const WorkloadStream& s) {
  // Streams with overload attributes (soft tasks) need the v2 admit
  // shape; pure hard streams keep writing v1 byte-for-byte.
  bool v2 = false;
  for (const Request& r : s.requests()) {
    if (r.kind == RequestKind::kAdmit &&
        (r.task.soft() || r.task.value != 0 ||
         r.task.tardiness_bound != 0 || r.task.degraded_wcet != 0)) {
      v2 = true;
      break;
    }
  }
  std::string body =
      v2 ? "# sps-online-stream v2" : "# sps-online-stream v1";
  char line[200];
  for (const Request& r : s.requests()) {
    if (r.kind == RequestKind::kAdmit) {
      if (v2) {
        std::snprintf(line, sizeof(line),
                      "\nadmit %" PRId64 " %u %" PRId64 " %" PRId64
                      " %" PRId64 " %u %u %u %" PRId64 " %" PRId64,
                      r.at, r.id, r.task.wcet, r.task.period,
                      r.task.deadline, r.task.priority,
                      r.task.soft() ? 1u : 0u, r.task.value,
                      r.task.tardiness_bound, r.task.degraded_wcet);
      } else {
        std::snprintf(line, sizeof(line),
                      "\nadmit %" PRId64 " %u %" PRId64 " %" PRId64
                      " %" PRId64 " %u",
                      r.at, r.id, r.task.wcet, r.task.period,
                      r.task.deadline, r.task.priority);
      }
    } else {
      std::snprintf(line, sizeof(line), "\nleave %" PRId64 " %u", r.at,
                    r.id);
    }
    body += line;
  }
  // Integrity footer (DESIGN.md §14): a trailing comment carrying the
  // CRC32 of every byte before it (including the newline terminating the
  // last request line). Loaders that predate it skip it as a comment.
  std::snprintf(line, sizeof(line), "\n# crc32 %08x",
                util::Crc32Of(body + "\n"));
  body += line;
  return body;
}

}  // namespace

bool SaveStream(const WorkloadStream& s, const std::string& path,
                std::string* error) {
  // One shared text-file writer (util::WriteTextFile) for the
  // open/write/close + errno reporting.
  return util::WriteTextFile(path, RenderStream(s), error);
}

namespace {

StreamError MakeError(StreamError::Kind kind, const std::string& path,
                      int line, const std::string& detail) {
  StreamError e;
  e.kind = kind;
  e.line = line;
  e.message = line > 0 ? path + ":" + std::to_string(line) + ": " + detail
                       : path + ": " + detail;
  return e;
}

}  // namespace

bool LoadStream(const std::string& path, WorkloadStream& out,
                StreamError* error) {
  const auto fail = [&](StreamError::Kind kind, int line,
                        const std::string& detail) {
    if (error != nullptr) *error = MakeError(kind, path, line, detail);
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return fail(StreamError::Kind::kIo, 0, PathError("", "open for reading")
                                               .substr(2));
  }
  std::vector<Request> reqs;
  // Incremental validation state, so every malformed input is rejected
  // AT its line (the fuzz-negative tests key on these):
  std::unordered_set<rt::TaskId> resident;  // admitted, not yet left
  std::unordered_set<rt::TaskId> ever;      // admitted at any point
  Time last_at = 0;
  bool any_request = false;
  bool saw_header = false;
  char line[256];
  int lineno = 0;
  StreamError err;
  bool ok = true;
  // Running CRC of every byte before the current line — what a
  // '# crc32' footer (written by SaveStream) must match. Footer-less
  // files (pre-§14 captures) are loaded unchanged.
  util::Crc32 crc;
  std::string text;  // every byte read, for the canonical-form check
  while (ok && std::fgets(line, sizeof(line), f) != nullptr) {
    ++lineno;
    const std::size_t len = std::strlen(line);
    text.append(line, len);
    if (len + 1 == sizeof(line) && line[len - 1] != '\n') {
      // Buffer filled without a newline: either a line past the format's
      // length bound or a truncation mid-giant-line; peeking one char
      // distinguishes them.
      const StreamError::Kind k = std::fgetc(f) == EOF
                                      ? StreamError::Kind::kTruncated
                                      : StreamError::Kind::kOverlongLine;
      err = MakeError(k, path, lineno,
                      std::string("line exceeds ") +
                          std::to_string(sizeof(line) - 2) + " characters");
      ok = false;
      break;
    }
    if (len == 0 || line[len - 1] != '\n') {
      // EOF without a final newline: the writer always terminates the
      // file, so this is a truncated capture. A NUL byte also ends the
      // line early (fgets reads past it; strlen stops there).
      err = MakeError(StreamError::Kind::kTruncated, path, lineno,
                      "line ends without a newline (truncated, or a NUL "
                      "byte?)");
      ok = false;
      break;
    }
    if (line[0] == '#') {
      unsigned stored = 0;
      if (saw_header && std::sscanf(line, "# crc32 %x", &stored) == 1) {
        if (stored != crc.value()) {
          err = MakeError(StreamError::Kind::kCrcMismatch, path, lineno,
                          "crc32 footer does not match the file contents "
                          "(corrupt or edited capture)");
          ok = false;
          break;
        }
        continue;  // footer verified; not part of its own CRC
      }
      crc.Update(line, len);
      if (!saw_header) {
        if (std::strncmp(line, "# sps-online-stream v", 21) != 0) {
          err = MakeError(StreamError::Kind::kMissingHeader, path, lineno,
                          "not an sps-online-stream file (bad header)");
          ok = false;
          break;
        }
        saw_header = true;
      }
      continue;
    }
    crc.Update(line, len);
    if (line[0] == '\n') continue;
    if (!saw_header) {
      err = MakeError(StreamError::Kind::kMissingHeader, path, lineno,
                      "missing '# sps-online-stream v1/v2' header");
      ok = false;
      break;
    }
    Request r;
    std::int64_t at = 0, wcet = 0, period = 0, deadline = 0;
    std::int64_t tardiness = 0, degraded = 0;
    unsigned id = 0, priority = 0, crit = 0, value = 0;
    // One scan covers both admit shapes: 6 converted fields is a v1
    // line, 10 is a v2 line carrying the overload attributes.
    const int n = std::sscanf(line,
                              "admit %" SCNd64 " %u %" SCNd64 " %" SCNd64
                              " %" SCNd64 " %u %u %u %" SCNd64 " %" SCNd64,
                              &at, &id, &wcet, &period, &deadline,
                              &priority, &crit, &value, &tardiness,
                              &degraded);
    if (n == 6 || n == 10) {
      r.at = at;
      r.kind = RequestKind::kAdmit;
      r.id = id;
      r.task = rt::Task{.id = id,
                        .wcet = wcet,
                        .period = period,
                        .deadline = deadline,
                        .priority = priority};
      if (n == 10) {
        if (crit > 1 || tardiness < 0 || degraded < 0 ||
            degraded >= wcet) {
          err = MakeError(StreamError::Kind::kMalformedTask, path, lineno,
                          "bad overload attributes on admit line");
          ok = false;
          break;
        }
        r.task.crit = crit == 1 ? rt::Criticality::kSoft
                                : rt::Criticality::kHard;
        r.task.value = value;
        r.task.tardiness_bound = tardiness;
        r.task.degraded_wcet = degraded;
      }
      if (!r.task.valid()) {
        err = MakeError(StreamError::Kind::kMalformedTask, path, lineno,
                        "malformed task (need 0 < C <= D <= T)");
        ok = false;
        break;
      }
      if (!ever.insert(r.id).second) {
        err = MakeError(StreamError::Kind::kDuplicateAdmit, path, lineno,
                        "duplicate admit of task id " + std::to_string(id));
        ok = false;
        break;
      }
      resident.insert(r.id);
    } else if (std::sscanf(line, "leave %" SCNd64 " %u", &at, &id) == 2) {
      r.at = at;
      r.kind = RequestKind::kLeave;
      r.id = id;
      if (resident.erase(r.id) == 0) {
        err = MakeError(StreamError::Kind::kLeaveWithoutAdmit, path,
                        lineno,
                        "leave of task id " + std::to_string(id) +
                            " which is not resident");
        ok = false;
        break;
      }
    } else {
      err = MakeError(StreamError::Kind::kParse, path, lineno,
                      std::string("unparseable request line: ") + line);
      ok = false;
      break;
    }
    if (any_request && r.at < last_at) {
      err = MakeError(StreamError::Kind::kNonMonotoneTime, path, lineno,
                      "timestamp earlier than the previous request");
      ok = false;
      break;
    }
    any_request = true;
    last_at = r.at;
    reqs.push_back(r);
  }
  if (ok && std::ferror(f) != 0) {
    err = MakeError(StreamError::Kind::kIo, path, 0,
                    PathError("", "read").substr(2));
    ok = false;
  }
  std::fclose(f);
  WorkloadStream loaded(std::move(reqs));
  if (ok && !saw_header) {
    err = MakeError(StreamError::Kind::kMissingHeader, path, 1,
                    "empty file (no '# sps-online-stream' header)");
    ok = false;
  }
  if (ok) {
    // The file must be exactly what SaveStream writes for the requests
    // it holds (a footer-less capture may stop before the footer). So a
    // damaged line that still scans — bytes after its last field, a
    // swallowed newline, a leading zero, an unknown comment or header
    // version — is an error, never a silently different stream.
    const std::string canon = RenderStream(loaded) + "\n";
    if (text != canon && text != canon.substr(0, canon.rfind("# crc32 "))) {
      const std::size_t at = static_cast<std::size_t>(
          std::mismatch(text.begin(), text.end(), canon.begin(), canon.end())
              .first -
          text.begin());
      err = MakeError(StreamError::Kind::kParse, path,
                      1 + static_cast<int>(std::count(
                              text.begin(), text.begin() + at, '\n')),
                      "not in the form SaveStream writes (damaged line?)");
      ok = false;
    }
  }
  if (!ok) {
    if (error != nullptr) *error = err;
    return false;
  }
  out = std::move(loaded);
  return true;
}

bool LoadStream(const std::string& path, WorkloadStream& out,
                std::string* error) {
  StreamError e;
  if (LoadStream(path, out, &e)) return true;
  if (error != nullptr) *error = e.message;
  return false;
}

}  // namespace sps::online
