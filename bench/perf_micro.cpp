// Engineering microbenchmarks (google-benchmark): the kernels every
// experiment leans on.  Not part of the paper's evaluation; useful for
// tracking regressions in the simulator and solvers.
#include <benchmark/benchmark.h>

#include "algo/bipartite.hpp"
#include "algo/canonical.hpp"
#include "algo/coloring.hpp"
#include "algo/matching.hpp"
#include "algo/maxflow.hpp"
#include "bench_util.hpp"
#include "core/engine.hpp"
#include "core/runner.hpp"
#include "graph/generators.hpp"
#include "local/message_passing.hpp"
#include "schemes/lcp_const.hpp"
#include "schemes/tree_certified.hpp"
#include "schemes/universal.hpp"

namespace lcp {
namespace {

struct EngineWorkload {
  Graph graph;
  Proof proof;
  const schemes::BipartiteScheme scheme;

  explicit EngineWorkload(int side) : graph(gen::grid(side, side)) {
    proof = *scheme.prove(graph);
  }
};

void BM_EngineSeedBaseline(benchmark::State& state) {
  const EngineWorkload w(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::seed_run_verifier(w.graph, w.proof, w.scheme.verifier()));
  }
}
BENCHMARK(BM_EngineSeedBaseline)->Arg(32)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_EngineDirect(benchmark::State& state) {
  const EngineWorkload w(static_cast<int>(state.range(0)));
  DirectEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(w.graph, w.proof, w.scheme.verifier()));
  }
}
BENCHMARK(BM_EngineDirect)->Arg(32)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_EngineParallel(benchmark::State& state) {
  const EngineWorkload w(static_cast<int>(state.range(0)));
  ParallelEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run(w.graph, w.proof, w.scheme.verifier()));
  }
}
BENCHMARK(BM_EngineParallel)->Arg(32)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_BallExtraction(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const Graph g = gen::grid(side, side);
  const Proof p = Proof::empty(g.n());
  int v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extract_view(g, p, v, 2));
    v = (v + 1) % g.n();
  }
}
BENCHMARK(BM_BallExtraction)->Arg(8)->Arg(16)->Arg(32);

// The engines' kernel: extract_into one reused View on grid(300,300),
// walking the centres in order; the argument is the radius.
void BM_FlatExtractInto(benchmark::State& state) {
  const int radius = static_cast<int>(state.range(0));
  const Graph g = gen::grid(300, 300);
  const Proof p = Proof::empty(g.n());
  ViewExtractor extractor(g);
  View view;
  int v = 0;
  for (auto _ : state) {
    extractor.extract_into(p, v, radius, view);
    benchmark::DoNotOptimize(view.ball.m());
    v = (v + 1) % g.n();
  }
}
BENCHMARK(BM_FlatExtractInto)->Arg(1)->Arg(2)->Arg(3);

void BM_VerifierBipartiteCycle(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const schemes::BipartiteScheme scheme;
  const Graph g = gen::cycle(n);
  const Proof proof = *scheme.prove(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(default_engine().run(g, proof, scheme.verifier()));
  }
}
BENCHMARK(BM_VerifierBipartiteCycle)->Arg(64)->Arg(256)->Arg(1024);

void BM_VerifierLeaderElection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const schemes::LeaderElectionScheme scheme;
  Graph g = gen::cycle(n);
  g.set_label(0, schemes::kLeaderFlag);
  const Proof proof = *scheme.prove(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(default_engine().run(g, proof, scheme.verifier()));
  }
}
BENCHMARK(BM_VerifierLeaderElection)->Arg(64)->Arg(256);

void BM_ProverLeaderElection(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const schemes::LeaderElectionScheme scheme;
  Graph g = gen::random_connected(n, 0.1, 7);
  g.set_label(0, schemes::kLeaderFlag);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.prove(g));
  }
}
BENCHMARK(BM_ProverLeaderElection)->Arg(64)->Arg(256);

void BM_ProverUniversal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const schemes::UniversalScheme scheme("true",
                                        [](const Graph&) { return true; });
  const Graph g = gen::random_connected(n, 0.2, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.prove(g));
  }
}
BENCHMARK(BM_ProverUniversal)->Arg(16)->Arg(32);

void BM_MessagePassingRound(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const Graph g = gen::cycle(n);
  const Proof p = Proof::empty(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assemble_view_by_flooding(g, p, 0, 2));
  }
}
BENCHMARK(BM_MessagePassingRound)->Arg(64)->Arg(256);

void BM_KuhnMatching(benchmark::State& state) {
  const int half = static_cast<int>(state.range(0));
  const Graph g = gen::complete_bipartite(half, half);
  const auto side = *two_coloring(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_bipartite_matching(g, side));
  }
}
BENCHMARK(BM_KuhnMatching)->Arg(16)->Arg(32);

void BM_WeightedDuals(benchmark::State& state) {
  const int half = static_cast<int>(state.range(0));
  Graph g = gen::complete_bipartite(half, half);
  for (int e = 0; e < g.m(); ++e) g.set_edge_weight(e, (e * 7) % 8);
  const auto side = *two_coloring(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_weight_matching_duals(g, side));
  }
}
BENCHMARK(BM_WeightedDuals)->Arg(6)->Arg(10);

void BM_ThreeColoringPetersen(benchmark::State& state) {
  const Graph g = gen::petersen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(k_coloring(g, 3));
  }
}
BENCHMARK(BM_ThreeColoringPetersen);

void BM_CanonicalKey7(benchmark::State& state) {
  const Graph g = gen::random_graph(7, 0.4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(canonical_key(g));
  }
}
BENCHMARK(BM_CanonicalKey7);

void BM_MengerGrid(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  const Graph g = gen::grid(side, side);
  for (auto _ : state) {
    benchmark::DoNotOptimize(st_vertex_connectivity(g, 0, side * side - 1));
  }
}
BENCHMARK(BM_MengerGrid)->Arg(6)->Arg(10);

}  // namespace
}  // namespace lcp

BENCHMARK_MAIN();
