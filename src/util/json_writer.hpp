#pragma once
// Minimal JSON emitter for the machine-readable bench result files
// (BENCH_acceptance.json / BENCH_queues.json — the perf trajectory the
// CI tracks across PRs). A value-at-a-time writer with explicit
// object/array scoping and automatic comma placement; not a general
// serializer, just enough structure for flat metric dumps.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// The one write-and-verify implementation behind every text artifact the
// tools emit (bench JSON, Perfetto documents, metrics reports) lives in
// util/file_io.hpp since the durability PR made it atomic (temp-file +
// rename); this include keeps every existing util::WriteTextFile caller
// compiling unchanged.
#include "util/file_io.hpp"

namespace sps::util {

class JsonWriter {
 public:
  JsonWriter& BeginObject() {
    Separator();
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndObject() {
    first_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& BeginArray() {
    Separator();
    out_ += '[';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& EndArray() {
    first_.pop_back();
    out_ += ']';
    return *this;
  }

  /// Object key; the next Begin*/Value call is its value.
  JsonWriter& Key(std::string_view k) {
    Separator();
    Quote(k);
    out_ += ':';
    pending_value_ = true;
    return *this;
  }

  JsonWriter& Value(std::string_view s) {
    Separator();
    Quote(s);
    return *this;
  }
  JsonWriter& Value(const char* s) { return Value(std::string_view(s)); }
  JsonWriter& Value(bool b) {
    Separator();
    out_ += b ? "true" : "false";
    return *this;
  }
  JsonWriter& Value(double d) {
    Separator();
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", d);
    out_ += buf;
    return *this;
  }
  JsonWriter& Value(std::int64_t v) {
    Separator();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(std::uint64_t v) {
    Separator();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Value(int v) { return Value(static_cast<std::int64_t>(v)); }
  JsonWriter& Value(unsigned v) {
    return Value(static_cast<std::uint64_t>(v));
  }

  /// Splice pre-serialized JSON as the next element of the enclosing
  /// container (comma placement handled like any Value). `raw` must be a
  /// non-empty, comma-separated run of valid JSON values — the Perfetto
  /// exporter uses this to graft its separately-buffered counter events
  /// into the main event array.
  JsonWriter& Raw(std::string_view raw) {
    Separator();
    out_ += raw;
    return *this;
  }

  [[nodiscard]] const std::string& str() const { return out_; }
  /// Move the finished text out (no copy of a large document); the
  /// writer is spent afterwards.
  [[nodiscard]] std::string Take() && { return std::move(out_); }

  /// Write to `path` (with a trailing newline); returns success.
  [[nodiscard]] bool WriteFile(const std::string& path) const {
    return WriteTextFile(path, out_);
  }

 private:
  /// Comma before every element of the enclosing container except the
  /// first — unless this token completes a Key's pending value.
  void Separator() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }

  void Quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool pending_value_ = false;
};

}  // namespace sps::util
