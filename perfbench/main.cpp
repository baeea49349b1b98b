// perfbench: one benchmark for the live verification stack.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out PATH
//             [--spans PATH]
//
// Runs one workload (see workloads.hpp and README.md), checks its
// outputs, writes the full report (metrics with their sample counts and
// any check failures) to --out, and prints the one-line result object as
// the last line of standard output.  Exit codes: 0 when every output check
// passed, 1 when one failed, 2 on a command-line error.
#include <sys/resource.h>

#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

// Bounds the span dump of one run (~15 MB); metrics use every span.
constexpr std::size_t kMaxDumpedSpans = 100000;

/// Keeps exactly the mode's catalogue, in order, filling layers the
/// workload did not exercise with 0.
Report select_metrics(const Report& in, bool trace) {
  Report out;
  out.correct = in.correct;
  out.attempted = in.attempted;
  out.failed = in.failed;
  out.errors = in.errors;
  const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
  for (const MetricSpec& spec : specs) {
    const Metric* m = in.find(spec.name);
    out.set(spec.name, m != nullptr ? m->value : 0.0, spec.unit,
            m != nullptr ? m->samples : 0);
  }
  return out;
}

bool write_report(const Options& options, const Report& report) {
  std::FILE* f = std::fopen(options.out.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed));
  std::fprintf(f, "  \"trace\": %d,\n  \"correct\": %s,\n", options.trace,
               report.correct ? "true" : "false");
  std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed));
  std::fprintf(f, "  \"errors\": [");
  for (std::size_t i = 0; i < report.errors.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", report.errors[i].c_str());
  }
  std::fprintf(f, "],\n  \"metrics\": {\n");
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, m] = report.metrics[i];
    std::fprintf(f,
                 "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"samples\": %llu}%s\n",
                 name.c_str(), m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples),
                 i + 1 == report.metrics.size() ? "" : ",");
  }
  std::fprintf(f, "  }\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  const std::string error =
      parse_options(argc, argv, workload_names(), &options);
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }

  Report report;
  SpanRecorder spans(options.trace);
  try {
    if (options.workload == "server-mixed") {
      run_server_workload(options, &report, &spans);
    } else {
      run_library_workload(options, &report, &spans);
    }
  } catch (const std::exception& e) {
    report.fail(std::string("exception: ") + e.what());
  }
  if (report.attempted == 0) report.fail("no operation was attempted");

  const Report result = select_metrics(report, options.trace);
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  for (const auto& [name, m] : result.metrics) {
    std::fprintf(stderr, "  %-36s %14.3f %-12s (n=%llu)\n", name.c_str(),
                 m.value, m.unit.c_str(),
                 static_cast<unsigned long long>(m.samples));
  }
  if (!write_report(options, result)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }
  if (options.trace && !options.spans.empty() &&
      !spans.write_jsonl(options.spans, kMaxDumpedSpans)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.spans.c_str());
    return 1;
  }
  std::printf("%s\n", result.result_json().c_str());
  return result.correct ? 0 : 1;
}
