// Self-test of the harness helpers: nearest-rank percentiles, span self
// time, and command-line validation.  Build and run with
//   cmake -S perfbench -B .bench_build && cmake --build .bench_build
//   ctest --test-dir .bench_build
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

perfbench::SpanRecord span(std::int64_t start, std::int64_t end,
                           int parent) {
  perfbench::SpanRecord s;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void test_percentiles() {
  using perfbench::percentile;
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(percentile(ten, 50) == 5, "p50 of 1..10 is 5 (nearest rank)");
  expect(percentile(ten, 90) == 9, "p90 of 1..10 is 9");
  expect(percentile(ten, 99) == 10, "p99 of 1..10 is the maximum");
  expect(percentile(ten, 0) == 1, "p0 is the minimum");
  expect(percentile(ten, 100) == 10, "p100 is the maximum");
  expect(percentile({}, 50) == 0, "percentile of nothing is 0");
  expect(percentile({7}, 99) == 7, "one sample is every percentile");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(perfbench::median({3, 1, 2}) == 2, "median of three");
}

void test_self_time() {
  using perfbench::self_times;
  // root [0,100) with children [10,30) and [50,60): self = 100 - 30.
  {
    const std::vector<perfbench::SpanRecord> spans = {
        span(0, 100, -1), span(10, 30, 0), span(50, 60, 0)};
    const auto self = self_times(spans);
    expect(self[0] == 70, "self time subtracts disjoint children");
    expect(self[1] == 20 && self[2] == 10, "leaves keep their duration");
  }
  // Overlapping children are counted once: [10,40) and [30,50) cover 40.
  {
    const std::vector<perfbench::SpanRecord> spans = {
        span(0, 100, -1), span(10, 40, 0), span(30, 50, 0)};
    expect(self_times(spans)[0] == 60, "overlapping children counted once");
  }
  // A child sticking out of its parent is clipped to the parent.
  {
    const std::vector<perfbench::SpanRecord> spans = {span(0, 100, -1),
                                                      span(90, 130, 0)};
    expect(self_times(spans)[0] == 90, "children clipped to the parent");
  }
  // Grandchildren only reduce their own parent.
  {
    const std::vector<perfbench::SpanRecord> spans = {
        span(0, 100, -1), span(0, 50, 0), span(10, 20, 1)};
    const auto self = self_times(spans);
    expect(self[0] == 50 && self[1] == 40 && self[2] == 10,
           "grandchildren reduce only their parent");
  }
  // The recorder's totals add up self times per name.
  {
    perfbench::SpanRecorder rec(true);
    const int root = rec.open("root");
    rec.wrap("child", root, 0, [] { return 0; });
    rec.close(root);
    const auto totals = rec.totals();
    expect(totals.at("root").count == 1 && totals.at("child").count == 1,
           "recorder counts spans per name");
    expect(totals.at("root").self_ns + totals.at("child").self_ns ==
               totals.at("root").total_ns,
           "self times of a tree add up to the root's duration");
    perfbench::SpanRecorder off(false);
    expect(off.open("x") == -1 && off.spans().empty(),
           "a disabled recorder records nothing");
  }
}

std::string parse(std::vector<std::string> args, perfbench::Options* out) {
  *out = perfbench::Options{};
  std::vector<char*> argv = {const_cast<char*>("perfbench")};
  for (std::string& a : args) argv.push_back(a.data());
  return perfbench::parse_options(static_cast<int>(argv.size()), argv.data(),
                                  {"alpha", "beta"}, out);
}

void test_cli() {
  perfbench::Options o;
  expect(parse({"--workload", "beta", "--seed", "7", "--seconds", "3",
                "--trace", "1", "--out", "r.json"},
               &o)
                 .empty() &&
             o.workload == "beta" && o.seed == 7 && o.seconds == 3 && o.trace,
         "a full command line parses");
  expect(!parse({"--workload", "gamma", "--seed", "1", "--out", "r"}, &o)
              .empty(),
         "an unknown workload is refused");
  expect(!parse({"--workload", "alpha", "--seed", "12x", "--out", "r"}, &o)
              .empty(),
         "a seed with trailing characters is refused");
  expect(!parse({"--workload", "alpha", "--seed", "-1", "--out", "r"}, &o)
              .empty(),
         "a negative seed is refused");
  expect(!parse({"--workload", "alpha", "--seed", "1", "--seconds", "0",
                 "--out", "r"},
                &o)
              .empty(),
         "zero seconds is refused");
  expect(!parse({"--workload", "alpha", "--seed", "1", "--trace", "2",
                 "--out", "r"},
                &o)
              .empty(),
         "a trace flag other than 0/1 is refused");
  expect(!parse({"--workload", "alpha", "--seed", "1"}, &o).empty(),
         "a missing output path is refused");
  expect(!parse({"/tmp/out.json"}, &o).empty(),
         "a bare path is not a workload");
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_cli();
  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
