// Spot-check reproducibility: sampling is a pure function of (seed, dirty
// history), independent of the wrapped exact backend.
//
// Three SpotCheckEngine lanes share one seed but wrap Direct, Incremental
// and Sharded inners, each over its own replica of the mutated pair; fed
// the identical schedule they must produce identical sample sets,
// verdicts, tracker fingerprints, and error-accounting stats on every
// step.  Different seeds over the same schedule must diverge on a solid
// fraction of the sampled steps — per-seed streams are distinct, not just
// shifted.
//
// The IncrementalEngine half pins the satellite fix this suite rides on:
// last_dirty_centers() is a stable (sorted, mode-independent) iteration
// surface over the dirty set.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/delta.hpp"
#include "core/engine.hpp"
#include "core/incremental.hpp"
#include "core/spot_check.hpp"
#include "graph/generators.hpp"

namespace lcp {
namespace {

/// Rejects on a length-3 proof: the schedule writes one occasionally, so
/// escalation paths run too — and must stay lockstep across lanes.
std::unique_ptr<LocalVerifier> length_verifier() {
  return std::make_unique<LambdaVerifier>(
      1, [](const View& v) { return v.proof_of(v.center).size() != 3; });
}

struct Lane {
  std::string name;
  Graph graph;
  Proof proof;
  std::unique_ptr<DeltaTracker> tracker;
  std::unique_ptr<SpotCheckEngine> engine;
};

std::unique_ptr<Lane> make_lane(const std::string& inner, const Graph& g,
                                const Proof& p, SpotCheckOptions options) {
  auto lane = std::make_unique<Lane>();
  lane->name = inner;
  lane->graph = g;
  lane->proof = p;
  lane->tracker = std::make_unique<DeltaTracker>(lane->graph, lane->proof, 1);
  lane->engine =
      std::make_unique<SpotCheckEngine>(make_engine(inner), options);
  EXPECT_TRUE(lane->engine->attach_tracker(lane->tracker.get()));
  return lane;
}

/// One deterministic schedule step appended to `batch` (proof churn, node
/// relabels, edge add/remove), drawn against lane 0's graph.
void schedule_step(std::mt19937& rng, const Graph& g, MutationBatch* batch) {
  const int ops = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < ops; ++i) {
    const int node =
        std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
    switch (rng() % 5) {
      case 0:
      case 1: {  // proof rewrite, length 0-2 accepts, 3 rejects (rare)
        BitString bits;
        const int len =
            rng() % 12 == 0 ? 3 : static_cast<int>(rng() % 3);
        for (int b = 0; b < len; ++b) bits.append_bit(rng() % 2 != 0);
        batch->set_proof_label(node, bits);
        break;
      }
      case 2:
        batch->set_node_label(node, rng() % 4);
        break;
      case 3: {  // edge insertion
        const int u = std::uniform_int_distribution<int>(0, g.n() - 1)(rng);
        if (u != node && !g.has_edge(u, node)) batch->add_edge(u, node);
        break;
      }
      default: {  // edge removal (keep the graph from emptying)
        if (g.m() > g.n()) {
          const int e =
              std::uniform_int_distribution<int>(0, g.m() - 1)(rng);
          batch->remove_edge(g.edge_u(e), g.edge_v(e));
        }
        break;
      }
    }
  }
}

TEST(SpotCheckDeterminism, SameSeedSameSamplesAcrossInnerBackends) {
  const Graph start = gen::random_connected(36, 0.09, 5);
  const Proof p0 = Proof::empty(start.n());
  auto verifier = length_verifier();
  const SpotCheckOptions options{.budget = 0.3, .seed = 0xfeedULL};

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(make_lane("direct", start, p0, options));
  lanes.push_back(make_lane("incremental", start, p0, options));
  lanes.push_back(make_lane("sharded:2", start, p0, options));

  std::mt19937 rng(20260808);
  std::size_t sampled_steps = 0;
  for (int step = 0; step < 80; ++step) {
    MutationBatch batch;
    schedule_step(rng, lanes[0]->graph, &batch);
    if (batch.empty()) continue;
    for (auto& lane : lanes) lane->tracker->apply(batch);

    const RunResult want =
        lanes[0]->engine->run(lanes[0]->graph, lanes[0]->proof, *verifier);
    const std::vector<int>& want_sample = lanes[0]->engine->last_sample();
    if (!want_sample.empty()) ++sampled_steps;
    // The sample is sorted ascending by contract.
    for (std::size_t i = 1; i < want_sample.size(); ++i) {
      ASSERT_LT(want_sample[i - 1], want_sample[i]) << "step " << step;
    }
    const std::uint64_t want_fp = lanes[0]->tracker->state_fingerprint();
    for (std::size_t li = 1; li < lanes.size(); ++li) {
      Lane& lane = *lanes[li];
      const RunResult got =
          lane.engine->run(lane.graph, lane.proof, *verifier);
      ASSERT_EQ(want.all_accept, got.all_accept)
          << lane.name << " step " << step;
      ASSERT_EQ(want.rejecting, got.rejecting)
          << lane.name << " step " << step;
      ASSERT_EQ(want_sample, lane.engine->last_sample())
          << lane.name << " step " << step;
      ASSERT_EQ(want_fp, lane.tracker->state_fingerprint())
          << lane.name << " step " << step;
    }
  }
  EXPECT_GT(sampled_steps, 40u);

  // Identical histories must close with identical accounting, backend
  // notwithstanding.
  const SpotCheckEngine::Stats& want = lanes[0]->engine->stats();
  EXPECT_GT(want.sampled_runs, 0u);
  EXPECT_GT(want.escalations, 0u);  // the schedule plants rejections
  for (std::size_t li = 1; li < lanes.size(); ++li) {
    const SpotCheckEngine::Stats& got = lanes[li]->engine->stats();
    EXPECT_EQ(want.exact_runs, got.exact_runs) << lanes[li]->name;
    EXPECT_EQ(want.sampled_runs, got.sampled_runs) << lanes[li]->name;
    EXPECT_EQ(want.unchanged_runs, got.unchanged_runs) << lanes[li]->name;
    EXPECT_EQ(want.balls_sampled, got.balls_sampled) << lanes[li]->name;
    EXPECT_EQ(want.balls_skipped, got.balls_skipped) << lanes[li]->name;
    EXPECT_EQ(want.escalations, got.escalations) << lanes[li]->name;
    EXPECT_EQ(want.pool_size, got.pool_size) << lanes[li]->name;
    EXPECT_DOUBLE_EQ(want.miss_bound, got.miss_bound) << lanes[li]->name;
  }
  for (auto& lane : lanes) lane->engine->attach_tracker(nullptr);
}

TEST(SpotCheckDeterminism, DifferentSeedsDivergeOnMostSampledSteps) {
  const Graph start = gen::random_connected(36, 0.09, 5);
  const Proof p0 = Proof::empty(start.n());
  auto verifier = length_verifier();

  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.push_back(make_lane("incremental", start, p0,
                            {.budget = 0.3, .seed = 1}));
  lanes.push_back(make_lane("incremental", start, p0,
                            {.budget = 0.3, .seed = 2}));

  std::mt19937 rng(20260808);
  std::size_t sampled = 0;
  std::size_t diverged = 0;
  for (int step = 0; step < 80; ++step) {
    MutationBatch batch;
    schedule_step(rng, lanes[0]->graph, &batch);
    if (batch.empty()) continue;
    for (auto& lane : lanes) lane->tracker->apply(batch);
    for (auto& lane : lanes) {
      lane->engine->run(lane->graph, lane->proof, *verifier);
    }
    const std::vector<int>& a = lanes[0]->engine->last_sample();
    const std::vector<int>& b = lanes[1]->engine->last_sample();
    // Only compare steps where both lanes sampled from a pool larger than
    // the sample (a full-pool sample is forced, not a coin flip).
    if (a.empty() || b.empty()) continue;
    ++sampled;
    if (a != b) ++diverged;
  }
  ASSERT_GT(sampled, 20u);
  // "Disjoint enough": well over half the sampled steps pick different
  // sets under a different seed.
  EXPECT_GT(diverged * 2, sampled);
  for (auto& lane : lanes) lane->engine->attach_tracker(nullptr);
}

// ---------------------------------------------------------------------------
// The stable dirty-set iteration surface (IncrementalEngine satellite).
// ---------------------------------------------------------------------------

TEST(SpotCheckDeterminism, LastDirtyCentersIsSortedAndModeIndependent) {
  const Graph start = gen::random_connected(30, 0.1, 9);
  auto verifier = length_verifier();

  struct IncLane {
    Graph graph;
    Proof proof;
    std::unique_ptr<DeltaTracker> tracker;
    IncrementalEngine engine;
    IncLane(const Graph& g, IncrementalEngineOptions options)
        : graph(g), proof(Proof::empty(g.n())), engine(std::move(options)) {
      tracker = std::make_unique<DeltaTracker>(graph, proof, 1);
      EXPECT_TRUE(engine.attach_tracker(tracker.get()));
    }
  };
  IncLane serial(start, {.shard_threads = 0});
  IncLane pooled(start, {.shard_threads = 3, .shard_min_centers = 0});

  std::mt19937 rng(321);
  std::size_t nonempty = 0;
  for (int step = 0; step < 60; ++step) {
    MutationBatch batch;
    schedule_step(rng, serial.graph, &batch);
    if (batch.empty()) continue;
    serial.tracker->apply(batch);
    pooled.tracker->apply(batch);
    serial.engine.run(serial.graph, serial.proof, *verifier);
    pooled.engine.run(pooled.graph, pooled.proof, *verifier);

    const std::vector<int>& a = serial.engine.last_dirty_centers();
    const std::vector<int>& b = pooled.engine.last_dirty_centers();
    ASSERT_EQ(a, b) << "step " << step;
    for (std::size_t i = 1; i < a.size(); ++i) {
      ASSERT_LT(a[i - 1], a[i]) << "step " << step;
    }
    if (!a.empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 30u);
  serial.engine.attach_tracker(nullptr);
  pooled.engine.attach_tracker(nullptr);
}

}  // namespace
}  // namespace lcp
