// The four perfbench workloads and the metric catalogue they report.
//
// Every run reports either every end-to-end metric (untraced run) or every
// per-layer metric (traced run), in catalogue order; a layer a workload
// does not exercise reads 0.  The catalogue must match BENCHMARK.json
// (run.py checks the names).
#ifndef LCP_PERFBENCH_WORKLOADS_HPP_
#define LCP_PERFBENCH_WORKLOADS_HPP_

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"batches_per_s", "1/s"},
      {"apply_p50_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

inline const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"delta.apply_us", "us"},
      {"delta.ops_per_batch", "count"},
      {"dynamic.repair_us", "us"},
      {"dynamic.repair_ops_per_batch", "count"},
      {"dynamic.declines", "count"},
      {"session.reprove_us", "us"},
      {"session.build_s", "s"},
      {"incremental.run_us", "us"},
      {"incremental.reverified_per_batch", "count"},
      {"incremental.patched_per_batch", "count"},
      {"incremental.reextracted_per_batch", "count"},
      {"incremental.patch_hit_ratio", "ratio"},
      {"incremental.full_sweeps", "count"},
      {"incremental.fallbacks", "count"},
      {"incremental.accept_share", "ratio"},
      {"schemes.accept_us_per_ball", "us"},
      {"spot_check.run_us", "us"},
      {"spot_check.audit_us", "us"},
      {"spot_check.sampled_per_batch", "count"},
      {"spot_check.skipped_per_batch", "count"},
      {"spot_check.pool_size", "count"},
      {"spot_check.escalations", "count"},
      {"spot_check.miss_bound", "probability"},
      {"spot_check.overhead_share", "ratio"},
      {"sharded.run_us", "us"},
      {"sharded.halo_rebuilds_per_batch", "count"},
      {"sharded.shards_woken_per_batch", "count"},
      {"sharded.dirty_skew", "ratio"},
      {"transport.messages_per_batch", "count"},
      {"transport.records_per_batch", "count"},
      {"transport.bytes_per_batch", "bytes"},
      {"protocol.encode_us", "us"},
      {"protocol.request_bytes", "bytes"},
      {"server.admit_us", "us"},
      {"server.poll_us", "us"},
      {"server.polls_per_verdict", "count"},
      {"server.coalesce_ratio", "ratio"},
      {"server.apply_mean_us", "us"},
      {"server.ack_to_verdict_us", "us"},
      {"server.request_p50_us", "us"},
      {"server.request_p90_us", "us"},
      {"bench.apply_p90_us", "us"},
      {"bench.apply_p99_us", "us"},
      {"bench.gen_lag_p99_us", "us"},
      {"bench.trace_overhead_pct", "%"},
  };
  return specs;
}

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "churn-incremental", "relabel-spot", "churn-sharded", "server-mixed"};
  return names;
}

/// Runs a library workload ("churn-incremental", "relabel-spot",
/// "churn-sharded"): closed-loop session applies (untraced), or an
/// untraced half followed by a traced replay of the same batches.
void run_library_workload(const Options& options, Report* report,
                          SpanRecorder* spans);

/// Runs "server-mixed": wire frames over one loopback connection to a
/// SessionServer, an open-loop phase then a closed-loop phase.
void run_server_workload(const Options& options, Report* report,
                         SpanRecorder* spans);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// A stable generator seed derived from the --seed value and a stream tag.
inline std::uint32_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<std::uint32_t>(z ^ (z >> 31));
}

}  // namespace perfbench

#endif  // LCP_PERFBENCH_WORKLOADS_HPP_
