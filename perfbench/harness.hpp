// Measurement helpers shared by the perfbench workloads: nearest-rank
// percentiles, an in-memory span recorder with self-time accounting, the
// result report, and validated command-line parsing.
//
// Header-only and free of library dependencies so the self-test
// (selftest.cpp) can exercise it without building the library.
#ifndef LCP_PERFBENCH_HARNESS_HPP_
#define LCP_PERFBENCH_HARNESS_HPP_

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}
inline double ns_to_us(double ns) { return ns / 1000.0; }

/// Nearest-rank percentile (q in [0, 100]) of `samples`; 0 when empty.
/// Takes a copy so callers keep their recording order.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  return samples[index];
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

// ---------------------------------------------------------------------------
// Spans.  One span per call into a layer: name, start, end, the span that
// caused it, and the request (ticket or batch index) it belongs to.  Spans
// are kept in memory and written out once, at exit.
// ---------------------------------------------------------------------------

struct SpanRecord {
  const char* name = "";    ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index of the causing span, -1 for roots
  std::uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union of their intervals, clipped to the
/// parent's), so overlapping children are not double-counted.
template <typename Spans>
std::vector<std::int64_t> self_times(const Spans& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = lo;
    for (const auto& [a, b] : kids) {
      const std::int64_t from = std::max(a, cursor);
      const std::int64_t to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    out[i] = (hi - lo) - covered;
  }
  return out;
}

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}

  /// Spans opened while disabled are not recorded (open() returns -1).
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index (-1 when disabled).
  int open(const char* name, int parent = -1, std::uint64_t request = 0) {
    if (!enabled_) return -1;
    SpanRecord rec;
    rec.name = name;
    rec.parent = parent;
    rec.request = request;
    rec.start_ns = to_ns(Clock::now() - origin_);
    spans_.push_back(std::move(rec));
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns =
        to_ns(Clock::now() - origin_);
  }
  /// Re-tags a span with its request id once the id is known.
  void set_request(int index, std::uint64_t request) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].request = request;
  }

  /// Runs `fn` inside a span.
  template <typename Fn>
  decltype(auto) wrap(const char* name, int parent, std::uint64_t request,
                      Fn&& fn) {
    const int index = open(name, parent, request);
    struct Closer {
      SpanRecorder* r;
      int i;
      ~Closer() { r->close(i); }
    } closer{this, index};
    return fn();
  }

  const std::deque<SpanRecord>& spans() const { return spans_; }

  /// Per span name: count and summed self / total time in nanoseconds.
  struct Totals {
    std::uint64_t count = 0;
    double self_ns = 0;
    double total_ns = 0;
  };
  std::map<std::string, Totals> totals() const {
    std::map<std::string, Totals> out;
    const std::vector<std::int64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = out[spans_[i].name];
      ++t.count;
      t.self_ns += static_cast<double>(self[i]);
      t.total_ns += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    return out;
  }

  /// Writes one JSON object per span (with its self time) to `path`, for
  /// the first `max_spans` spans (a traced server run records millions).
  bool write_jsonl(const std::string& path, std::size_t max_spans) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_times(spans_);
    for (std::size_t i = 0; i < spans_.size() && i < max_spans; ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                   "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"self_ns\": %lld}\n",
                   i, s.name, s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::deque<SpanRecord> spans_;  // grows without copying old spans
};

// ---------------------------------------------------------------------------
// Report: named metrics with units (and the sample count behind each), the
// correctness verdict, and attempted / failed operation counts.
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, Metric>> metrics;

  void set(const std::string& name, double value, const char* unit,
           std::uint64_t samples = 1) {
    for (auto& [n, m] : metrics) {
      if (n == name) {
        m = Metric{value, unit, samples};
        return;
      }
    }
    metrics.push_back({name, Metric{value, unit, samples}});
  }
  const Metric* find(std::string_view name) const {
    for (const auto& [n, m] : metrics) {
      if (n == name) return &m;
    }
    return nullptr;
  }
  void fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }

  /// The one-line result object: correct, attempted, failed, metrics.
  std::string result_json() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      if (!first) out += ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    out += "}}";
    return out;
  }
};

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

/// Parses the whole of `text` as an unsigned integer; nullopt on any
/// leftover character, sign, overflow, or empty input.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  if (text.empty()) return std::nullopt;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;    ///< full report (metrics with sample counts)
  std::string spans;  ///< span dump of a traced run
};

/// Parses `--workload W --seed N --seconds S --trace 0|1 --out PATH
/// [--spans PATH]`.  Returns an error message, or "" on success.
inline std::string parse_options(int argc, char** argv,
                                 const std::vector<std::string>& workloads,
                                 Options* out) {
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) return "missing value for " + std::string(key);
    const std::string_view value = argv[++i];
    if (key == "--workload") {
      if (std::find(workloads.begin(), workloads.end(), value) ==
          workloads.end()) {
        return "unknown workload '" + std::string(value) + "'";
      }
      out->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      const auto v = parse_u64(value);
      if (!v) return "bad seed '" + std::string(value) + "'";
      out->seed = *v;
      have_seed = true;
    } else if (key == "--seconds") {
      const auto v = parse_u64(value);
      if (!v || *v < 1 || *v > 600) {
        return "bad seconds '" + std::string(value) + "' (1..600)";
      }
      out->seconds = static_cast<double>(*v);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return "bad trace '" + std::string(value) + "' (0 or 1)";
      }
      out->trace = value == "1";
    } else if (key == "--out") {
      if (value.empty()) return "empty --out path";
      out->out = value;
    } else if (key == "--spans") {
      out->spans = value;
    } else {
      return "unknown option '" + std::string(key) + "'";
    }
  }
  if (!have_workload) return "--workload is required";
  if (!have_seed) return "--seed is required";
  if (out->out.empty()) return "--out is required";
  return "";
}

}  // namespace perfbench

#endif  // LCP_PERFBENCH_HARNESS_HPP_
