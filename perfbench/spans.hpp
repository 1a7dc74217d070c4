// In-memory spans for the traced run.  The benchmark wraps its own calls
// into the mstv library in spans; nothing inside src/ is instrumented.
// Spans and counts stay in memory while the run measures and are written
// once, at exit, as a Chrome Trace Event file (loadable in Perfetto or
// chrome://tracing, or with json.load).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One finished span.  Names and workload tags are string literals.
struct Span {
  const char* name = "";
  const char* workload = "";
  std::uint32_t id = 0;      // 1-based index into the recorder
  std::uint32_t parent = 0;  // 0 = top level
  std::int64_t op = -1;      // op index within its workload; -1 = setup
  bool traced = true;        // false: an op root whose calls were not spanned
  double units = 0.0;        // work units (edges, labels, messages) if any
  Clock::time_point start, end;

  [[nodiscard]] double ms() const { return ms_between(start, end); }
};

/// One counted quantity, tagged with the op where it was observed.
struct Count {
  const char* name = "";
  const char* workload = "";
  std::int64_t op = -1;
  double value = 0.0;
  Clock::time_point at;
};

class Recorder {
 public:
  /// While false, span() only runs its body and count() does nothing, so
  /// an untraced op pays one branch per call it makes.
  bool enabled = false;
  const char* workload = "";
  std::int64_t op = -1;

  Recorder() { spans_.reserve(1u << 16); }

  /// Runs `f` inside a span named `name` that did `units` units of work.
  template <typename F>
  decltype(auto) span(const char* name, double units, F&& f) {
    if (!enabled) return f();
    const Scope scope(*this, begin(name, units));
    return f();
  }
  template <typename F>
  decltype(auto) span(const char* name, F&& f) {
    return span(name, 0.0, std::forward<F>(f));
  }

  /// Opens a span whose start and end the caller measures itself (the op
  /// loop's own timestamps), so the op latency and its span are one read.
  /// Spans opened inside it, until close(), are its children.
  std::uint32_t open(const char* name) { return begin(name, 0.0); }
  void close(std::uint32_t id, Clock::time_point start, Clock::time_point end,
             bool traced) {
    Span& s = spans_[id - 1];
    s.start = start;
    s.end = end;
    s.traced = traced;
    open_.pop_back();
  }

  void count(const char* name, double value) {
    if (enabled) counts_.push_back({name, workload, op, value, Clock::now()});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Count>& counts() const { return counts_; }

  /// Writes every span and count as Chrome Trace Event JSON.  `metadata`
  /// must be a JSON object; it lands under "otherData".
  void write_chrome_trace(std::ostream& os, const std::string& metadata) const {
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    os << "{\"displayTimeUnit\": \"ms\", \"otherData\": " << metadata
       << ", \"traceEvents\": [";
    const char* sep = "\n";
    for (const Span& s : spans_) {
      os << sep << "{\"name\": \"" << s.name << "\", \"cat\": \"" << s.workload
         << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << us(s.start)
         << ", \"dur\": " << us(s.end) - us(s.start) << ", \"args\": {\"id\": "
         << s.id << ", \"parent\": " << s.parent << ", \"op\": " << s.op
         << ", \"units\": " << s.units
         << ", \"traced\": " << (s.traced ? "true" : "false") << "}}";
      sep = ",\n";
    }
    for (const Count& c : counts_) {
      os << sep << "{\"name\": \"" << c.name << "\", \"cat\": \"" << c.workload
         << "\", \"ph\": \"C\", \"pid\": 1, \"tid\": 1, \"ts\": " << us(c.at)
         << ", \"args\": {\"value\": " << c.value << ", \"op\": " << c.op
         << "}}";
      sep = ",\n";
    }
    os << "\n]}\n";
  }

 private:
  struct Scope {
    Recorder& r;
    std::uint32_t id;
    Scope(Recorder& rec, std::uint32_t span_id) : r(rec), id(span_id) {
      r.spans_[id - 1].start = Clock::now();
    }
    ~Scope() {
      r.spans_[id - 1].end = Clock::now();
      r.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

  std::uint32_t begin(const char* name, double units) {
    Span s;
    s.name = name;
    s.workload = workload;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_.empty() ? 0 : open_.back();
    s.op = op;
    s.units = units;
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }

  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<std::uint32_t> open_;  // ids of the spans still open
  Clock::time_point origin_ = Clock::now();
};

/// Queries over a finished recording.  A null `workload` matches any.
class SpanIndex {
 public:
  explicit SpanIndex(const Recorder& rec) : rec_(rec) {}

  [[nodiscard]] std::vector<double> ms(const char* name,
                                       const char* workload = nullptr) const {
    std::vector<double> out;
    for (const Span& s : rec_.spans()) {
      if (matches(s.name, s.workload, name, workload)) out.push_back(s.ms());
    }
    return out;
  }

  /// Nanoseconds per unit of work of every span with this name.
  [[nodiscard]] std::vector<double> ns_per_unit(
      const char* name, const char* workload = nullptr) const {
    std::vector<double> out;
    for (const Span& s : rec_.spans()) {
      if (matches(s.name, s.workload, name, workload) && s.units > 0) {
        out.push_back(s.ms() * 1e6 / s.units);
      }
    }
    return out;
  }

  /// Span durations keyed by op index, for joining two calls of one op.
  [[nodiscard]] std::map<std::int64_t, double> ms_by_op(
      const char* name, const char* workload) const {
    std::map<std::int64_t, double> out;
    for (const Span& s : rec_.spans()) {
      if (matches(s.name, s.workload, name, workload) && s.op >= 0) {
        out[s.op] = s.ms();
      }
    }
    return out;
  }

  /// Op latencies of one workload, split by whether its calls were spanned.
  [[nodiscard]] std::vector<double> op_ms(const char* workload,
                                          bool traced) const {
    std::vector<double> out;
    for (const Span& s : rec_.spans()) {
      if (matches(s.name, s.workload, "op", workload) && s.traced == traced) {
        out.push_back(s.ms());
      }
    }
    return out;
  }

  [[nodiscard]] std::vector<double> counts(
      const char* name, const char* workload = nullptr) const {
    std::vector<double> out;
    for (const Count& c : rec_.counts()) {
      if (matches(c.name, c.workload, name, workload)) out.push_back(c.value);
    }
    return out;
  }

  [[nodiscard]] std::map<std::int64_t, double> counts_by_op(
      const char* name, const char* workload) const {
    std::map<std::int64_t, double> out;
    for (const Count& c : rec_.counts()) {
      if (matches(c.name, c.workload, name, workload)) out[c.op] = c.value;
    }
    return out;
  }

 private:
  static bool matches(const char* name, const char* wl, const char* want_name,
                      const char* want_wl) {
    return std::strcmp(name, want_name) == 0 &&
           (want_wl == nullptr || std::strcmp(wl, want_wl) == 0);
  }

  const Recorder& rec_;
};

}  // namespace perfbench
