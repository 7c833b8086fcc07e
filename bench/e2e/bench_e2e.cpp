// bench_e2e — one end-to-end benchmark over four workloads, with a
// per-layer traced run (bench/e2e/README.md).
//
//   bench_e2e --seed=20110318 [--workload=NAME] [--seconds=S] [--traced]
//             [--smoke] [--out-dir=DIR]
//
// Untraced, each workload is set up five times in this (single-threaded)
// process, then timed reps run in forked children for --seconds, and
// BENCH_e2e.json gets throughput, peak RSS and set-up time as median,
// quartiles and count. --traced instead repeats the workload's traced
// measurement for --seconds and writes BENCH_e2e.traced.json (layer
// metrics, medians) and BENCH_e2e.trace.json (Chrome trace). The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// Exit status: 0 all gates passed, 1 a gate failed, 2 bad arguments.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>

#include "e2e.hpp"
#include "util/json_writer.hpp"
#include "util/rng.hpp"

namespace e2e {

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Digest ----------------------------------------------------------------

void Digest::Bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ull;
  }
}
void Digest::Add(std::uint64_t v) { Bytes(&v, sizeof(v)); }
void Digest::Add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}
void Digest::Add(const std::string& s) {
  Add(static_cast<std::uint64_t>(s.size()));
  Bytes(s.data(), s.size());
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---- SpanLog ---------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  id_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(
      {name, log_->open_.empty() ? -1 : log_->open_.back(), NowS(), 0.0});
  log_->open_.push_back(id_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& s = log_->spans_[static_cast<std::size_t>(id_)];
  s.dur = NowS() - s.t0;
  log_->open_.pop_back();
}

int SpanLog::Find(const std::string& name) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

double SpanLog::Total(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) t += s.dur;
  }
  return t;
}

double SpanLog::Duration(const std::string& name) const {
  const int i = Find(name);
  return i < 0 ? 0.0 : spans_[static_cast<std::size_t>(i)].dur;
}

double SpanLog::SelfTime(const std::string& name) const {
  const int i = Find(name);
  if (i < 0) return 0.0;
  double self = spans_[static_cast<std::size_t>(i)].dur;
  for (const Span& s : spans_) {
    if (s.parent == i) self -= s.dur;
  }
  return self;
}

std::string SpanLog::ChromeEvents(int pid) const {
  if (spans_.empty()) return {};
  const double base = spans_.front().t0;
  std::string out;
  char buf[320];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":0,"
                  "\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), (s.t0 - base) * 1e6,
                  s.dur * 1e6, pid, i, s.parent);
    out += buf;
  }
  return out;
}

// ---- fork harness ----------------------------------------------------------

namespace {

std::string Serialize(const Sample& s) {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "wall %.17g\nitems %.17g\n", s.wall_s,
                s.items);
  out += buf;
  std::snprintf(buf, sizeof(buf), "digest %llu\nattempted %llu\nfailed %llu\n",
                static_cast<unsigned long long>(s.digest),
                static_cast<unsigned long long>(s.attempted),
                static_cast<unsigned long long>(s.failed));
  out += buf;
  for (const auto& [k, v] : s.layers) {
    std::snprintf(buf, sizeof(buf), " %.17g\n", v);
    out += "layer " + k + buf;
  }
  if (!s.spans.empty()) out += "spans " + s.spans + "\n";
  out += "end\n";
  return out;
}

bool Parse(const std::string& text, Sample& s) {
  std::istringstream in(text);
  std::string line;
  bool complete = false;
  while (std::getline(in, line)) {
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string rest = sp == std::string::npos ? "" : line.substr(sp + 1);
    if (key == "wall") {
      s.wall_s = std::strtod(rest.c_str(), nullptr);
    } else if (key == "items") {
      s.items = std::strtod(rest.c_str(), nullptr);
    } else if (key == "digest") {
      s.digest = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "attempted") {
      s.attempted = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "failed") {
      s.failed = std::strtoull(rest.c_str(), nullptr, 10);
    } else if (key == "layer") {
      const std::size_t sp2 = rest.find(' ');
      s.layers[rest.substr(0, sp2)] =
          std::strtod(rest.c_str() + sp2 + 1, nullptr);
    } else if (key == "spans") {
      s.spans = rest;
    } else if (key == "end") {
      complete = true;
    }
  }
  return complete;
}

void WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string ReadAll(int fd) {
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

}  // namespace

Sample Fork(const std::function<Sample()>& body) {
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string out;
    try {
      out = Serialize(body());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e child: %s\n", e.what());
      code = 3;
    }
    WriteAll(fds[1], out);
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  const std::string text = ReadAll(fds[0]);
  close(fds[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  Sample s;
  if (WIFEXITED(status) && WEXITSTATUS(status) == 0 && Parse(text, s)) {
    s.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    return s;
  }
  std::fprintf(stderr, "FAIL: a measured child exited abnormally\n");
  s = Sample{};
  s.attempted = 1;
  s.failed = 1;
  return s;
}

double WrittenBytes() {
  std::ifstream in("/proc/self/io");
  std::string key;
  double v = 0.0;
  while (in >> key >> v) {
    if (key == "wchar:") return v;
  }
  return 0.0;
}

}  // namespace e2e

namespace {

using e2e::Fork;
using e2e::Sample;

constexpr std::uint64_t kDefaultSeed = 20110318;
constexpr int kSetups = 5;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;

struct Options {
  std::uint64_t seed = kDefaultSeed;
  std::string workload;  // empty = all
  double seconds = 15.0;
  bool traced = false;
  bool smoke = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
    };
    char* end = nullptr;
    if (const char* v = value("--seed=")) {
      o.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (const char* v = value("--workload=")) {
      o.workload = v;
    } else if (const char* v = value("--seconds=")) {
      o.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(o.seconds > 0)) return false;
    } else if (const char* v = value("--out-dir=")) {
      o.out_dir = v;
    } else if (a == "--traced") {
      o.traced = true;
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      return false;
    }
  }
  return true;
}

struct Stat {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

/// Median and quartiles as Python's statistics.quantiles(n=4) gives them
/// (the default 'exclusive' method), so compare.py and this binary agree.
Stat Summarize(std::vector<double> v) {
  Stat s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  const long m = static_cast<long>(n) + 1;
  const auto quartile = [&](long i) {
    long j = i * m / 4;
    j = std::clamp<long>(j, 1, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    return (lo * static_cast<double>(4 - delta) +
            hi * static_cast<double>(delta)) /
           4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

struct Outcome {
  std::string name;
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Stat throughput, rss, setup;
  std::vector<std::pair<e2e::LayerMetric, Stat>> layers;  // traced
  std::string spans;                                 // traced
};

/// Expected decision digest of `workload` at the default seed and full
/// size, from expected.json beside this benchmark's sources.
std::string ExpectedDigest(const std::string& workload) {
  std::ifstream in(std::string(E2E_SOURCE_DIR) + "/expected.json");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t k = text.find("\"" + workload + "\"");
  if (k == std::string::npos) return {};
  const std::size_t a = text.find('"', text.find(':', k) + 1);
  const std::size_t b = text.find('"', a + 1);
  if (a == std::string::npos || b == std::string::npos) return {};
  return text.substr(a + 1, b - a - 1);
}

void Gate(Outcome& o, const Sample& s) {
  o.attempted += s.attempted;
  o.failed += s.failed;
  if (s.failed > 0) o.correct = false;
  if (s.digest != o.digest) {
    std::fprintf(stderr, "FAIL %s: digest %s differs from the first rep's %s\n",
                 o.name.c_str(), e2e::Hex(s.digest).c_str(),
                 e2e::Hex(o.digest).c_str());
    o.failed += s.attempted;
    o.correct = false;
  }
}

void CheckExpected(Outcome& o, const Options& opt) {
  if (opt.seed != kDefaultSeed || opt.smoke) return;
  const std::string want = ExpectedDigest(o.name);
  if (want != e2e::Hex(o.digest)) {
    std::fprintf(stderr,
                 "FAIL %s: digest %s at the default seed, expected.json "
                 "says %s\n",
                 o.name.c_str(), e2e::Hex(o.digest).c_str(),
                 want.empty() ? "nothing" : want.c_str());
    o.correct = false;
  }
}

Outcome RunTimed(e2e::Workload& w, const e2e::Context& ctx,
                 const Options& opt) {
  Outcome o;
  o.name = w.name();
  std::vector<double> setup;
  for (int i = 0; i < (opt.smoke ? 2 : kSetups); ++i) {
    const double t0 = e2e::NowS();
    w.Setup(ctx);
    setup.push_back(e2e::NowS() - t0);
  }
  o.setup = Summarize(setup);

  // The first rep warms the machine and fixes the digest every later rep
  // must reproduce; it is not timed into the statistics.
  const Sample first = Fork([&] { return w.Rep(ctx); });
  o.digest = first.digest;
  Gate(o, first);
  std::vector<double> throughput, rss;
  const double t0 = e2e::NowS();
  while (static_cast<int>(throughput.size()) < kMaxReps &&
         (throughput.size() < kMinReps || e2e::NowS() - t0 < opt.seconds)) {
    const Sample s = Fork([&] { return w.Rep(ctx); });
    Gate(o, s);
    if (s.wall_s <= 0.0) break;
    throughput.push_back(s.items / s.wall_s);
    rss.push_back(s.peak_rss_mb);
  }
  o.throughput = Summarize(throughput);
  o.rss = Summarize(rss);
  const Sample check = Fork([&] { return w.Check(ctx, first); });
  o.attempted += check.attempted;
  o.failed += check.failed;
  if (check.failed > 0) o.correct = false;
  CheckExpected(o, opt);
  return o;
}

Outcome RunTraced(e2e::Workload& w, const e2e::Context& ctx,
                  const Options& opt) {
  Outcome o;
  o.name = w.name();
  w.Setup(ctx);
  // Traced measurements are long (several children each); start another
  // only while it is expected to end inside the window.
  std::vector<Sample> runs;
  const double t0 = e2e::NowS();
  double last = 0.0;
  do {
    const double start = e2e::NowS();
    runs.push_back(w.Traced(ctx));
    last = e2e::NowS() - start;
    if (runs.size() == 1) o.digest = runs.front().digest;
    Gate(o, runs.back());
  } while (e2e::NowS() - t0 + last <= opt.seconds && runs.size() < 20);
  for (const e2e::LayerMetric& m : e2e::LayerMetrics()) {
    std::vector<double> v;
    for (const Sample& s : runs) {
      const auto it = s.layers.find(m.name);
      v.push_back(it == s.layers.end() ? 0.0 : it->second);
    }
    o.layers.emplace_back(m, Summarize(v));
  }
  o.spans = runs.front().spans;
  CheckExpected(o, opt);
  return o;
}

void Machine(sps::util::JsonWriter& j, const Options& opt, unsigned jobs) {
  j.Key("machine").BeginObject();
  j.Key("nproc").Value(std::max(1u, std::thread::hardware_concurrency()));
  j.Key("compiler").Value(E2E_COMPILER);
  j.Key("build_type").Value(E2E_BUILD_TYPE);
  j.Key("git_sha").Value(E2E_GIT_SHA);
  j.Key("seed").Value(opt.seed);
  j.Key("jobs").Value(jobs);
  j.EndObject();
}

void StatJson(sps::util::JsonWriter& j, const char* key, const Stat& s,
              const char* unit) {
  j.Key(key).BeginObject();
  j.Key("median").Value(s.median);
  j.Key("q1").Value(s.q1);
  j.Key("q3").Value(s.q3);
  j.Key("n").Value(static_cast<std::uint64_t>(s.n));
  j.Key("unit").Value(unit);
  j.EndObject();
}

bool WriteArtifacts(const std::vector<Outcome>& outcomes, const Options& opt,
                    unsigned jobs) {
  namespace fs = std::filesystem;
  sps::util::JsonWriter j;
  j.BeginObject();
  j.Key("bench").Value(opt.traced ? "e2e.traced" : "e2e");
  Machine(j, opt, jobs);
  j.Key("smoke").Value(opt.smoke);
  j.Key("workloads").BeginObject();
  for (const Outcome& o : outcomes) {
    j.Key(o.name).BeginObject();
    j.Key("digest").Value(e2e::Hex(o.digest));
    j.Key("correct").Value(o.correct);
    j.Key("attempted").Value(o.attempted);
    j.Key("failed").Value(o.failed);
    j.Key("fail_ratio")
        .Value(o.attempted > 0 ? static_cast<double>(o.failed) /
                                     static_cast<double>(o.attempted)
                               : 0.0);
    if (opt.traced) {
      j.Key("layers").BeginObject();
      for (const auto& [m, s] : o.layers) StatJson(j, m.name, s, m.unit);
      j.EndObject();
    } else {
      StatJson(j, "throughput", o.throughput, "items/s");
      StatJson(j, "peak_rss_mb", o.rss, "MiB");
      StatJson(j, "setup_s", o.setup, "s");
    }
    j.EndObject();
  }
  j.EndObject();
  j.EndObject();
  const fs::path dir(opt.out_dir);
  if (!opt.traced) return j.WriteFile((dir / "BENCH_e2e.json").string());

  sps::util::JsonWriter trace;
  trace.BeginObject();
  trace.Key("displayTimeUnit").Value("ms");
  Machine(trace, opt, jobs);
  trace.Key("traceEvents").BeginArray();
  for (const Outcome& o : outcomes) {
    if (!o.spans.empty()) trace.Raw(o.spans);
  }
  trace.EndArray();
  trace.EndObject();
  return j.WriteFile((dir / "BENCH_e2e.traced.json").string()) &&
         trace.WriteFile((dir / "BENCH_e2e.trace.json").string());
}

/// The benchmark's result line: every end-to-end metric untraced, every
/// layer metric traced; names are prefixed with the workload when more
/// than one ran.
std::string ResultLine(const std::vector<Outcome>& outcomes,
                       const Options& opt, bool correct) {
  std::uint64_t attempted = 0, failed = 0;
  sps::util::JsonWriter m;
  m.BeginObject();
  for (const Outcome& o : outcomes) {
    attempted += o.attempted;
    failed += o.failed;
    const std::string prefix = outcomes.size() > 1 ? o.name + "/" : "";
    const auto metric = [&](const std::string& name, double v,
                            const char* unit) {
      m.Key(prefix + name).BeginObject();
      m.Key("value").Value(v);
      m.Key("unit").Value(unit);
      m.EndObject();
    };
    if (opt.traced) {
      for (const auto& [lm, s] : o.layers) metric(lm.name, s.median, lm.unit);
    } else {
      metric("throughput", o.throughput.median, "items/s");
      metric("peak_rss_mb", o.rss.median, "MiB");
      metric("setup_s", o.setup.median, "s");
    }
  }
  m.EndObject();
  sps::util::JsonWriter j;
  j.BeginObject();
  j.Key("correct").Value(correct);
  j.Key("attempted").Value(std::max<std::uint64_t>(attempted, 1));
  j.Key("failed").Value(failed);
  j.Key("metrics").Raw(m.str());
  j.EndObject();
  return j.str();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: bench_e2e [--seed=N] [--workload=NAME] "
                 "[--seconds=S] [--traced] [--smoke] [--out-dir=DIR]\n");
    return 2;
  }
  const unsigned jobs =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  auto workloads = e2e::MakeWorkloads();
  if (!opt.workload.empty() &&
      std::none_of(workloads.begin(), workloads.end(), [&](const auto& w) {
        return opt.workload == w->name();
      })) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }

  namespace fs = std::filesystem;
  const std::string tmp = (fs::path(opt.out_dir) / "bench_e2e.tmp").string();
  std::error_code ec;
  fs::create_directories(tmp, ec);
  if (ec) {
    std::fprintf(stderr, "bench_e2e: cannot create %s: %s\n", tmp.c_str(),
                 ec.message().c_str());
    return 2;
  }

  std::vector<Outcome> outcomes;
  for (std::size_t k = 0; k < workloads.size(); ++k) {
    e2e::Workload& w = *workloads[k];
    if (!opt.workload.empty() && opt.workload != w.name()) continue;
    e2e::Context ctx;
    ctx.seed = sps::util::DeriveSeed(opt.seed, k, 0);
    ctx.scale = opt.smoke ? e2e::Scale::kSmoke : e2e::Scale::kFull;
    ctx.jobs = jobs;
    ctx.tmp_dir = tmp;
    try {
      outcomes.push_back(opt.traced ? RunTraced(w, ctx, opt)
                                    : RunTimed(w, ctx, opt));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s: %s\n", w.name(), e.what());
      fs::remove_all(tmp, ec);
      return 1;
    }
    const Outcome& o = outcomes.back();
    if (opt.traced) {
      std::printf("%-17s digest %s  %s\n", o.name.c_str(),
                  e2e::Hex(o.digest).c_str(), o.correct ? "ok" : "FAILED");
    } else {
      std::printf("%-17s digest %s  throughput %.6g items/s (n=%zu)  "
                  "peak_rss %.1f MiB  setup %.4f s  %s\n",
                  o.name.c_str(), e2e::Hex(o.digest).c_str(),
                  o.throughput.median, o.throughput.n, o.rss.median,
                  o.setup.median, o.correct ? "ok" : "FAILED");
    }
    std::fflush(stdout);
    // Hand freed set-up memory back so the next workload's children do
    // not inherit it as resident pages.
    malloc_trim(0);
  }
  fs::remove_all(tmp, ec);

  const bool written = WriteArtifacts(outcomes, opt, jobs);
  if (!written) std::fprintf(stderr, "bench_e2e: cannot write artifacts\n");
  const bool correct =
      written && std::all_of(outcomes.begin(), outcomes.end(),
                             [](const Outcome& o) { return o.correct; });
  std::printf("%s\n", ResultLine(outcomes, opt, correct).c_str());
  return correct ? 0 : 1;
}
