// The metric registry: named counters, gauges, and latency histograms
// shared by every layer of the verification stack.
//
// PRs 1-6 grew nine disconnected Stats structs (engine counters, cache
// tallies, transport traffic, maintainer repair counts) with no common
// collection point and no latency distributions.  This header is that
// collection point: a MetricRegistry owns named metrics with stable
// addresses, instrumented code updates them through lock-free relaxed
// atomics (monotone tallies carry no
// cross-thread ordering, so any reader tolerates a slightly stale sum),
// and snapshot() renders a consistent-enough point-in-time view for
// benches, the session facade, and the JSON exporters.
//
// Metric naming convention: `layer.component.metric`, all lower-case —
// e.g. "engine.incremental.full_sweeps", "transport.halo.bytes",
// "pool.sharded.lane3.busy_us", "session.apply.latency".  The layer
// prefix is what the CI telemetry smoke validates, so new instrumentation
// should extend an existing layer rather than invent spellings.
//
// Adapting existing Stats structs: a subsystem does not copy its counters
// into the registry — it registers *derived* gauges whose callbacks read
// the live struct at snapshot time (MetricRegistry::derived).  Derived
// entries carry an owner token; whoever tears the providing object down
// must call remove_owned(owner) first (the engines do this when telemetry
// is detached), so a registry can outlive any provider safely.
//
// Locking contract:
//   - registration (counter/gauge/histogram/derived) takes the registry
//     mutex; returned references stay valid for the registry's lifetime
//     (deque-backed storage, never erased);
//   - metric updates (Counter::add, Gauge::set, LatencyHistogram::record)
//     are lock-free relaxed atomics, safe from any thread;
//   - snapshot() locks registration out and evaluates derived callbacks
//     under the lock: callbacks must not call back into the registry.
#ifndef LCP_OBS_METRICS_HPP_
#define LCP_OBS_METRICS_HPP_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lcp::obs {

/// A monotone event tally.  add() is relaxed-atomic: safe from worker
/// lanes without a lock.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// A last-writer-wins instantaneous value (queue depth, cache residency).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// A fixed-bucket latency histogram over nanosecond samples with exact
/// nearest-rank percentile extraction at bucket resolution.
///
/// Buckets are powers of two: bucket 0 holds the value 0, bucket i >= 1
/// holds [2^(i-1), 2^i).  The last bucket absorbs everything from
/// ~2.3 hours up.  record() is four relaxed atomic updates (bucket,
/// count, sum, min/max CAS), so worker lanes record without a lock;
/// percentile() walks the cumulative counts and returns a representative
/// value guaranteed to land in the same bucket as the true nearest-rank
/// sample (tests/test_obs_metrics.cpp pins this against a brute-force
/// sorted reference).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 44;

  /// Bucket index of a nanosecond value: 0 for 0, otherwise
  /// floor(log2(v)) + 1, capped at kBuckets - 1.
  static int bucket_index(std::uint64_t nanos) {
    if (nanos == 0) return 0;
    int b = 0;
    while (nanos != 0) {
      nanos >>= 1;
      ++b;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Inclusive value range covered by a bucket.
  static std::uint64_t bucket_lower(int bucket) {
    return bucket == 0 ? 0 : std::uint64_t{1} << (bucket - 1);
  }
  static std::uint64_t bucket_upper(int bucket) {
    if (bucket == 0) return 0;
    if (bucket >= kBuckets - 1) return ~std::uint64_t{0};
    return (std::uint64_t{1} << bucket) - 1;
  }

  void record_ns(std::uint64_t nanos) {
    buckets_[static_cast<std::size_t>(bucket_index(nanos))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (nanos < seen &&
           !min_.compare_exchange_weak(seen, nanos,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (nanos > seen &&
           !max_.compare_exchange_weak(seen, nanos,
                                       std::memory_order_relaxed)) {
    }
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum_ns() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min_ns() const {
    const std::uint64_t v = min_.load(std::memory_order_relaxed);
    return v == ~std::uint64_t{0} && count() == 0 ? 0 : v;
  }
  std::uint64_t max_ns() const {
    return max_.load(std::memory_order_relaxed);
  }

  /// Nearest-rank percentile (q in [0, 100]): the returned value lies in
  /// the same bucket as the true q-th percentile of the recorded samples
  /// (and never exceeds the recorded maximum).  0 when empty.
  std::uint64_t percentile(double q) const;

  std::uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<std::size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

/// A point-in-time rendering of every metric, for benches and exporters.
/// Entries are sorted by name within each kind.
struct MetricSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeEntry {
    std::string name;
    double value = 0;
  };
  struct HistogramEntry {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p90_ns = 0;
    std::uint64_t p99_ns = 0;
  };

  std::vector<CounterEntry> counters;
  std::vector<GaugeEntry> gauges;  ///< owned and derived gauges together
  std::vector<HistogramEntry> histograms;

  bool has(std::string_view name) const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {...}}}.
  std::string to_json() const;
};

/// The registry proper: name -> metric, collision-checked across kinds.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Returns the named metric, creating it on first use.  Re-requesting a
  /// name yields the same object (idempotent registration); requesting a
  /// name held by a different metric kind throws std::invalid_argument.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);

  /// Registers (or replaces) a derived gauge: `fn` is evaluated at
  /// snapshot time under the registry lock and must not re-enter the
  /// registry.  `owner` tags the entry for remove_owned — pass the
  /// providing object so its teardown can withdraw the callback before
  /// it dangles.
  void derived(std::string_view name, std::function<double()> fn,
               const void* owner = nullptr);

  /// Drops every derived gauge registered with this owner token.
  void remove_owned(const void* owner);

  MetricSnapshot snapshot() const;
  bool has(std::string_view name) const;
  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kDerived };
  struct NamedCounter {
    std::string name;
    Counter metric;
  };
  struct NamedGauge {
    std::string name;
    Gauge metric;
  };
  struct NamedHistogram {
    std::string name;
    LatencyHistogram metric;
  };
  struct DerivedGauge {
    std::string name;
    std::function<double()> fn;
    const void* owner = nullptr;
  };

  /// Requires mutex_ held.  Returns the existing kind of `name`, if any.
  const Kind* kind_of_locked(std::string_view name) const;

  mutable std::mutex mutex_;
  // Deques: stable addresses for the references handed out.
  std::deque<NamedCounter> counters_;
  std::deque<NamedGauge> gauges_;
  std::deque<NamedHistogram> histograms_;
  std::vector<DerivedGauge> derived_;
  // name -> kind, for collision checks (values index nothing; the deques
  // are scanned at registration only).
  std::vector<std::pair<std::string, Kind>> names_;
};

}  // namespace lcp::obs

#endif  // LCP_OBS_METRICS_HPP_
