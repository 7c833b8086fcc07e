#pragma once
// End-to-end benchmark (bench/e2e/README.md): shared types of the fork
// harness (bench_e2e.cpp) and the four workloads (workloads.cpp).
//
// Every measured repetition runs in a fork()ed child of a single-threaded
// parent, so the process-wide analysis memo and thread pools start cold
// in each rep exactly as they do in a fresh CLI process, and wait4 gives
// each rep's peak RSS. The library sees only generated inputs; all spans
// here are bench-side, around calls into the library's public functions.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

[[nodiscard]] double NowS();

/// FNV-1a over a canonical rendering of a workload's decisions. Equal
/// digests across reps (and, at the default seed, against expected.json)
/// are the benchmark's correctness gate.
class Digest {
 public:
  void Add(std::uint64_t v);
  void Add(double v);
  void Add(const std::string& s);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void Bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

[[nodiscard]] std::string Hex(std::uint64_t v);

/// Bench-side spans with parent ids, kept in memory and exported as
/// Chrome trace "X" events. A span's parent is the innermost span open
/// when it started; all spans of one log run on one thread.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_ = -1;
  };

  /// Inclusive seconds summed over every span with this name.
  [[nodiscard]] double Total(const std::string& name) const;
  /// Seconds of the first span with this name (a workload's root).
  [[nodiscard]] double Duration(const std::string& name) const;
  /// The first span with this name, minus what its children cover.
  [[nodiscard]] double SelfTime(const std::string& name) const;
  /// Comma-separated Chrome trace events (no enclosing brackets).
  [[nodiscard]] std::string ChromeEvents(int pid) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double t0 = 0.0;
    double dur = 0.0;
  };
  [[nodiscard]] int Find(const std::string& name) const;

  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-layer metrics by name.
using Layers = std::map<std::string, double>;

/// What one forked child reports back to the parent.
struct Sample {
  double wall_s = 0.0;       ///< the timed region
  double items = 0.0;        ///< units of work in the timed region
  std::uint64_t digest = 0;  ///< decisions (see Digest)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Layers layers;             ///< traced children only
  std::string spans;         ///< Chrome events, traced children only
  double peak_rss_mb = 0.0;  ///< filled by the parent from wait4
};

/// Run `body` in a fork()ed child and return its Sample plus the child's
/// peak RSS. A child that dies or throws yields a sample whose `failed`
/// is 1 and `attempted` is 1.
[[nodiscard]] Sample Fork(const std::function<Sample()>& body);

/// Bytes this process has passed to write(2) so far (`wchar` of
/// /proc/self/io), or 0 where the kernel does not account I/O.
[[nodiscard]] double WrittenBytes();

enum class Scale { kFull, kSmoke };

struct Context {
  std::uint64_t seed = 0;  ///< the workload's derived seed
  Scale scale = Scale::kFull;
  unsigned jobs = 1;       ///< threads the library may use
  std::string tmp_dir;     ///< scratch space inside the output directory
};

/// Per-layer metric names and units, in emission order. A workload that
/// does not exercise a layer reports 0 for it.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& LayerMetrics();

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// Build the inputs in the parent (single-threaded; timed as setup_s).
  virtual void Setup(const Context& ctx) = 0;
  /// One timed repetition; runs in a forked child.
  [[nodiscard]] virtual Sample Rep(const Context& ctx) = 0;
  /// Untimed correctness checks beyond rep-to-rep digest equality, given
  /// the first rep. Runs in a forked child.
  [[nodiscard]] virtual Sample Check(const Context& ctx, const Sample& first);
  /// One traced measurement (forks its own children): layer metrics,
  /// spans, and the digests the traced runs reached, which must equal the
  /// untraced reps' digest.
  [[nodiscard]] virtual Sample Traced(const Context& ctx) = 0;
};

/// The four workloads, in seed-derivation order.
[[nodiscard]] std::vector<std::unique_ptr<Workload>> MakeWorkloads();

}  // namespace e2e
